"""Command-line surface.

Subcommands:
  repro      rebuild the three-line worked example and compare against the
             recorded reference values
  sweep      randomized identity sweeps, seed-pinned and byte-reproducible
  coherent   coherent-family demos: aggregates, covariance, resolutions
  mobius     non-additivity operator of user-supplied subspace files

Human tables print three decimals; JSON dumps keep full precision.  The
environment variable QLATTICE_EPS overrides the identity tolerance of sweep
(its tolerance column and pass/fail) and of mobius --rho (the
classification); repro and coherent always use the default tolerance.  Bad
input of any subcommand prints "error: <type>: <message>" and exits 2.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import coherent as coh
from .errors import ParseError, QLatticeError
from .golden import KNOWN_INCONSISTENT, evaluate_goldens
from .mobius import mobius, mobius_dual
from .numerics import hermitian_eig
from .observables import DensityMatrix, ds_classify, expectation, stddev
from .serialize import (dump_json, load_json, matrix_from_json,
                        matrix_to_json, report_record, subspace_from_json,
                        vector_from_json)
from .sweeps import ALL_CHECKS, SweepConfig, format_report, run_sweep
from .tolerances import default_tolerance


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def cmd_repro(args) -> int:
    results = evaluate_goldens()
    width = max(len(r.name) for r in results)
    print("worked example reproduction (reference tolerance 5e-3)")
    failing = []
    for res in results:
        status = "pass" if res.passed else "FAIL"
        note = ""
        if res.name in KNOWN_INCONSISTENT:
            note = "  [reference value inconsistent with its own construction]"
        print(f"  {res.name:<{width}s}  max|diff|={res.deviation:.5f}  {status}{note}")
        if not res.passed:
            failing.append(res)
    # same-code-path identity: the second defect equals the total-probability
    # deviation exactly in this configuration
    values = {res.name: res.computed for res in results}
    exact = float(np.max(np.abs(values["varpi2"] - values["pi"])))
    print(f"  varpi2 == pi exact comparison: {exact:.2e} "
          + ("pass" if exact <= 1e-12 else "FAIL"))
    if failing:
        print("failing records: " + ", ".join(r.name for r in failing))
        print("recomputed values for failing records:")
        for res in failing:
            if isinstance(res.computed, np.ndarray):
                rows = ["    " + "  ".join(_fmt(x) for x in row)
                        for row in np.asarray(res.computed).real]
                print(f"  {res.name} =\n" + "\n".join(rows))
            else:
                print(f"  {res.name} = {_fmt(float(res.computed))}")
        return 1
    return 0


def cmd_sweep(args) -> int:
    checks = tuple(c.strip() for c in args.check.split(",") if c.strip()) \
        if args.check.strip() else ALL_CHECKS
    config = SweepConfig(dimension=args.d, trials=args.trials, seed=args.seed,
                         checks=checks, tolerances=default_tolerance())
    lines = run_sweep(config)
    if args.json:
        records = [report_record(f"{l.check}/{l.residual_name}",
                                 l.max_residual, l.tolerance) for l in lines]
        print(dump_json(records))
    else:
        sys.stdout.write(format_report(config, lines))
    return 0 if all(line.passed for line in lines) else 1


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    """'a,b' as two integers, or ParseError."""
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not 'a,b' with integers a, b") from None


def _parse_labels(text: str) -> list[tuple[int, int]]:
    parts = [part.strip() for part in text.split(";")]
    labels = [_parse_pair(part, "label") for part in parts if part]
    if not labels:
        raise ParseError(f"no phase-space labels in {text!r}")
    return labels


def cmd_coherent(args) -> int:
    d = args.d
    if args.fiducial == "generic":
        fid = coh.generic_fiducial(d)
    else:
        fid = vector_from_json(load_json(args.fiducial))
        fid = fid / np.linalg.norm(fid)
    family = coh.CoherentFamily(d, fid)
    labels = _parse_labels(args.labels)
    agg = coh.CoherentAggregate.from_labels(family, labels)
    print(f"coherent family d={d}, labels {labels}")
    print(f"  aggregate trace: {np.trace(agg.projector).real:.6f} (target {agg.size})")
    rho = coh.mixed_coherent_state(agg)
    print(f"  mixed-state entropy: {rho.entropy():.9f} (log n = {np.log(agg.size):.9f})")
    if agg.size >= 2:
        res = coh.resolution_residuals(family, labels)
        print(f"  resolution (projectors, 1/(i d)):   {res['identity_from_projectors']:.3e}")
        print(f"  resolution (increments, 1/d):       {res['identity_from_increments']:.3e}")
        print(f"  resolution (increments, 1/i):       {res['increments_naive_coefficient']:.3e}"
              f"  [informational: the 1/i scaling closes only when i = d;"
              f" the trace relation forces 1/d]")
        print(f"  translated operator sum:            {res['mobius_sum']:.3e}")
        print(f"  trace relation (generic operator):  {res['trace_relation']:.3e}")
    if args.shift:
        k, l = _parse_pair(args.shift, "shift")
        resc = coh.displacement_covariance_residuals(agg, k, l)
        for name, value in resc.items():
            print(f"  covariance under shift ({k},{l}) [{name}]: {value:.3e}")
    return 0


def cmd_mobius(args) -> int:
    tol = default_tolerance()
    subspaces = [subspace_from_json(load_json(path), tol) for path in args.files]
    op = (mobius_dual if args.dual else mobius)(subspaces, tol)
    print(dump_json(matrix_to_json(op.matrix)))
    w, _ = hermitian_eig(op.matrix)
    print("eigenvalues: " + "  ".join(_fmt(x) for x in w))
    print(f"trace: {_fmt(op.trace)}")
    if args.rho:
        rho = DensityMatrix(matrix_from_json(load_json(args.rho)))
        mean = expectation(rho, op.matrix)
        spread = stddev(rho, op.matrix)
        print(f"E = {_fmt(mean)}  Delta = {_fmt(spread)}")
        if len(subspaces) == 2 and not args.dual:
            print("classification: "
                  + ds_classify(rho, subspaces[0], subspaces[1], tol))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlattice",
        description="subspace-lattice operators: reproduction, sweeps, coherent demos")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("repro", help="rebuild the worked example against reference values")

    p_sweep = sub.add_parser("sweep", help="randomized identity sweeps")
    p_sweep.add_argument("--d", type=int, required=True, help="ambient dimension")
    p_sweep.add_argument("--trials", type=int, default=200)
    p_sweep.add_argument("--seed", type=int, default=42)
    p_sweep.add_argument("--check", type=str, default="",
                         help=f"comma-separated subset of: {', '.join(ALL_CHECKS)}")
    p_sweep.add_argument("--json", action="store_true",
                         help="emit {name, residual, tolerance, pass} records")

    p_coh = sub.add_parser("coherent", help="coherent projector demos")
    p_coh.add_argument("--d", type=int, required=True, help="odd dimension")
    p_coh.add_argument("--fiducial", type=str, default="generic",
                       help="'generic' or a path to a JSON column vector")
    p_coh.add_argument("--labels", type=str, required=True,
                       help="semicolon-separated phase-space labels 'a1,b1;a2,b2;...'")
    p_coh.add_argument("--shift", type=str, default="",
                       help="optional displacement 'k,l' for covariance residuals")

    p_mob = sub.add_parser("mobius", help="operator of user-supplied subspaces")
    p_mob.add_argument("files", nargs="+", help="subspace JSON files (>= 2)")
    p_mob.add_argument("--dual", action="store_true")
    p_mob.add_argument("--rho", type=str, default="",
                       help="optional density-matrix JSON for moments")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"repro": cmd_repro, "sweep": cmd_sweep,
                "coherent": cmd_coherent, "mobius": cmd_mobius}
    try:
        return handlers[args.command](args)
    except QLatticeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
