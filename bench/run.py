"""Seeded benchmark of qlattice.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from ``src/`` of the checkout that
holds this file, never from an installed copy, and the run fails (exit 2, no
result line) when that source tree is missing.

Each workload is a single-process closed loop: one caller, and the next op
starts only after the previous one returns.  Ops come in passes of fixed
composition (see workloads.py); a run does whole passes until ``--seconds``
have passed and at least the workload's minimum number of passes is done.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Their times
are scaled to a nominal machine speed by the probe in speed.py, because the
shared machines this runs on change speed by 15-30% for tens of seconds at a
time; the unscaled values are in ``detail.raw``.
  units_per_s   units of work per second of op time
  op_ms_p50     typical op time: the median, over the op slots of a pass,
                of each slot's median time across passes (slots differ in
                size, so a plain median over all ops would jump between them)
  op_ms_tail    op time at the workload's tail percentile over all ops (the
                highest one with at least 10 ops beyond it at the minimum
                pass count; detail.tail records the percentile and count)
  setup_s       median of SETUPS set-ups: a fresh import of qlattice plus
                drawing the workload's inputs from the seed
  peak_rss_mb   peak resident memory of the process after the timed loop

``--trace 1`` runs a fixed number of passes, each untraced and then traced,
and prints the per-layer metrics (layers.py) unscaled; counts repeat exactly
for a seed.  ``trace.overhead_frac`` is traced over untraced loop time, minus 1.

Correctness gates run outside the timed loop: each op's own check, the
workload's final gate, and one ``qlattice repro`` call, which must fail on
exactly the KNOWN_INCONSISTENT golden records.  Failures count in ``failed``
and make ``correct`` false.  The line before the result is a JSON object with
a ``detail`` record: workload, environment, sample counts, gate output.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 9
# a single BLAS thread: the matrices have at most 24 rows, where extra
# threads only add stalls, and the runs stay comparable across machines
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUBMODULES = ("classical", "cli", "coherent", "distributivity", "errors", "golden",
              "lattice", "mobius", "modular", "numerics", "observables", "rng",
              "serialize", "sweeps", "tolerances")
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10
LIMITATIONS = ("no CPU pinning and no page-cache dropping: runs share the machine "
               "with whatever else runs on it; times are perf_counter wall-clock, "
               "scaled by the interleaved speed probe of speed.py")


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


@dataclass
class OpRecord:
    pass_index: int
    slot: int             # position in the pass; one slot is one op type
    op: object
    seconds: float
    units: int
    result: object
    error: str | None
    scaled: float | None = None  # seconds at nominal machine speed (speed.py)


def fresh_import():
    """Import qlattice and every submodule from SRC, discarding earlier copies."""
    for name in [m for m in sys.modules if m == "qlattice" or m.startswith("qlattice.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("qlattice")
    if Path(pkg.__file__).resolve().parent != SRC / "qlattice":
        raise BenchError(f"qlattice imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"qlattice.{m}") for m in SUBMODULES})


def setup(workload, seed):
    t0 = time.perf_counter()
    ql = fresh_import()
    inputs = workload.inputs(ql, seed)
    return time.perf_counter() - t0, ql, inputs


def run_pass(workload, ql, inputs, k, on_op=None, probe=None):
    """Run pass k op by op; returns its records and wall time (which
    includes the speed probes, if a probe is given)."""
    records: list[OpRecord] = []
    clock = time.perf_counter
    start = clock()
    for slot, op in enumerate(workload.pass_ops(ql, inputs, k)):
        if on_op is not None:
            on_op()
        t0 = clock()
        try:
            units, result = workload.run_op(ql, op)
            error = None
        except Exception as exc:  # counted as a failed op, the loop goes on
            units, result, error = 0, None, f"{type(exc).__name__}: {exc}"
        records.append(OpRecord(k, slot, op, clock() - t0, units, result, error))
        if probe is not None:
            probe.add(records[-1])
    if probe is not None:
        probe.flush()
    return records, clock() - start


def warm_up(workload, ql, seed):
    """One untimed op on a separate copy of the inputs, so that lazy
    initialisation in numpy and LAPACK is not timed."""
    inputs = workload.inputs(ql, seed)
    workload.run_op(ql, workload.pass_ops(ql, inputs, 0)[0])


def check_records(workload, ql, records):
    """Per-op checks, outside the timed loop; a failed check sets rec.error."""
    for rec in records:
        if rec.error is None:
            try:
                rec.error = workload.check(ql, rec.op, rec.result)
            except Exception as exc:
                rec.error = f"check raised {type(exc).__name__}: {exc}"


def repro_gate(ql):
    """One `qlattice repro` call; it must fail on exactly KNOWN_INCONSISTENT."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ql.cli.main(["repro"])
    failing = set()
    for line in out.getvalue().splitlines():
        # one "  <record>  max|diff|=<x>  pass|FAIL [note]" line per record
        if "max|diff|=" in line:
            name, rest = line.split("max|diff|=")
            if rest.split()[1] == "FAIL":
                failing.add(name.strip())
    expected = set(ql.golden.KNOWN_INCONSISTENT)
    ok = code == 1 and failing == expected
    return ok, {"exit_code": code, "failing_records": sorted(failing),
                "expected": sorted(expected), "pass": ok}


def tail(samples_ms, pct):
    """Nearest-rank value at pct, falling back down TAIL_LADDER when fewer
    than MIN_BEYOND samples lie beyond it."""
    xs = sorted(samples_ms)
    n = len(xs)
    candidates = [pct] + [q for q in reversed(TAIL_LADDER) if q < pct]
    for p in candidates:
        rank = max(1, math.ceil(n * p / 100))
        if n - rank >= MIN_BEYOND or p == candidates[-1]:
            return xs[rank - 1], {"percentile": p, "samples": n, "beyond": n - rank}


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 2 has no mode argument
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        config = buf.getvalue()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_config": config,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
        "limitations": LIMITATIONS,
    }


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} missing")
    return json.loads(path.read_text())


@dataclass
class Run:
    ql: object
    inputs: object
    records: list          # every op, for the per-op checks
    gate_records: list     # one copy of each pass, for the final gate
    metrics: dict          # name -> (value, unit or None)
    detail: dict


def _op_stats(ok, seconds_of, tail_pct):
    """(typical op ms, tail op ms, tail detail) over the successful ops."""
    by_slot: dict[int, list[float]] = {}
    for r in ok:
        by_slot.setdefault(r.slot, []).append(seconds_of(r) * 1e3)
    typical = statistics.median(statistics.median(v) for v in by_slot.values())
    tail_ms, tail_info = tail([seconds_of(r) * 1e3 for r in ok], tail_pct)
    return typical, tail_ms, tail_info


def end_to_end(workload, seed, seconds) -> Run:
    from speed import SpeedProbe
    probe = SpeedProbe()
    setup_raw, setup_scaled = [], []
    for _ in range(SETUPS):
        dt, ql, inputs = setup(workload, seed)
        setup_raw.append(dt)
        setup_scaled.append(dt * probe.factor())
    warm_up(workload, ql, seed)
    records: list[OpRecord] = []
    pass_s: list[float] = []
    while len(pass_s) < workload.min_passes or sum(pass_s) < seconds:
        recs, dt = run_pass(workload, ql, inputs, len(pass_s), probe=probe)
        records += recs
        pass_s.append(dt)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_records(workload, ql, records)
    ok = [r for r in records if r.error is None]
    if not ok:
        raise BenchError(f"every op failed, first: {records[0].error}")
    units = sum(r.units for r in ok)
    p50, tail_ms, tail_info = _op_stats(ok, lambda r: r.scaled, workload.tail_pct)
    raw_p50, raw_tail, _ = _op_stats(ok, lambda r: r.seconds, workload.tail_pct)
    metrics = {
        "units_per_s": (units / sum(r.scaled for r in records), "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "tail": tail_info, "passes": len(pass_s), "pass_s": pass_s,
        "raw": {"units_per_s": units / sum(r.seconds for r in records),
                "op_ms_p50": raw_p50, "op_ms_tail": raw_tail,
                "setup_s": statistics.median(setup_raw)},
        "setup_s_samples": setup_raw,
        "speed_probe": {"samples": len(probe.samples),
                        "median_s": statistics.median(probe.samples),
                        "min_s": min(probe.samples), "max_s": max(probe.samples)},
    }
    return Run(ql, inputs, records, records, metrics, detail)


def per_layer(workload, seed) -> Run:
    """Fixed passes, each run untraced and then traced on a second copy of
    its inputs (subspaces cache their projectors, so the copies must not be
    shared); alternating the two keeps machine drift out of the overhead."""
    from layers import Instrument
    _, ql, inputs = setup(workload, seed)
    warm_up(workload, ql, seed)
    traced_inputs = workload.inputs(ql, seed)
    inst = Instrument(ql)
    plain: list[OpRecord] = []
    traced: list[OpRecord] = []
    plain_s = traced_s = 0.0
    for k in range(workload.trace_passes):
        recs, dt = run_pass(workload, ql, inputs, k)
        plain += recs
        plain_s += dt
        inst.install()
        try:
            recs, dt = run_pass(workload, ql, traced_inputs, k, on_op=inst.new_scope)
        finally:
            inst.restore()
        traced += recs
        traced_s += dt
    check_totals = workload.check_totals(plain)
    values = inst.metrics(traced_s / plain_s - 1.0, check_totals)
    # every check that ran must also have been seen through its REGISTRY span
    expected = list(workload.predicted) + [f"sweeps.{c}" for c in check_totals]
    silent = [name for name in expected if inst.calls(name) == 0]
    if silent:
        raise BenchError(f"predicted layer functions recorded no calls: {silent}")
    check_records(workload, ql, plain + traced)
    detail = {"passes": workload.trace_passes, "untraced_s": plain_s, "traced_s": traced_s,
              "ratio_bases": inst.bases()}
    return Run(ql, inputs, plain + traced, plain,
               {k: (v, None) for k, v in values.items()}, detail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qlattice" / "__init__.py").is_file():
        print(f"error: no qlattice source tree at {SRC}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = "1"
    os.environ.pop("QLATTICE_EPS", None)  # library default tolerances
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    try:
        spec = load_spec()
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        if set(why) != set(WORKLOADS):
            raise BenchError("BENCHMARK.json workloads differ from workloads.py")
        if args.trace:
            run = per_layer(workload, args.seed)
            wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            run = end_to_end(workload, args.seed, args.seconds)
            wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(run.metrics) != set(wanted):
            raise BenchError(f"metrics differ from BENCHMARK.json: "
                             f"{sorted(set(run.metrics) ^ set(wanted))}")
        for name, (_, unit) in run.metrics.items():
            if unit is not None and unit != wanted[name]:
                raise BenchError(f"{name}: unit {unit!r}, BENCHMARK.json says {wanted[name]!r}")
        gate_failures, gate_detail = workload.final_gate(run.ql, run.inputs, run.gate_records)
        repro_ok, repro = repro_gate(run.ql)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records = run.records
    failed = sum(1 for r in records if r.error is not None)
    correct = failed == 0 and not gate_failures and repro_ok
    detail = run.detail
    detail.update({
        "workload": {"name": workload.name, "why": why[workload.name],
                     "unit": workload.unit, "op": workload.op,
                     "loads": list(workload.loads), "skips": list(workload.skips),
                     "predicted_calls": list(workload.predicted)},
        "seed": args.seed, "trace": args.trace,
        "fail_frac": failed / len(records),
        "op_failures": [r.error for r in records if r.error is not None][:10],
        "gate_failures": gate_failures,
        "gate": gate_detail, "repro": repro, "environment": environment(),
    })
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": wanted[k]} for k, (v, _) in run.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
