"""The benchmark workloads.

Each workload draws its inputs from the benchmark seed in ``inputs`` (timed
as part of set-up), splits the work into passes of ops with a fixed
composition, runs one op in ``run_op`` (timed), and checks each op's output
in ``check`` and the run as a whole in ``final_gate`` (both untimed).  Every
pass gets fresh inputs, so no op repeats an earlier op's arguments within a
run (mobius-wide cycles its MOBIUS_PASSES pre-drawn passes only if a run gets
through more of them), and a cache that outlives one op finds nothing to reuse.

``sweep`` and ``sweep-large-d`` exercise the repeated lattice calls, batching
and saturated pair joins that the planned sweep optimisations target;
``coherent`` bypasses all three; ``mobius-wide`` loads the subset table of the
Moebius operators with mostly saturated joins.  The ``why`` sentence of each
lives in BENCHMARK.json; the layers it loads and skips, and the wrapped
functions it must call, live here.
"""

from __future__ import annotations

import hashlib

import numpy as np

RESIDUAL_TOL = 1e-9   # criterion 4 and criterion 6 thresholds
SWEEP_SEEDS = 4096    # more passes than any run can make
COHERENT_PASSES = 64  # likewise
MOBIUS_PASSES = 12    # drawn in set-up, cycled if a run needs more

NUMERICS = ("numerics.orthonormal_range", "numerics.kernel",
            "numerics.hermitian_eig", "numerics.as_matrix")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    def final_gate(self, ql, inputs, records):
        """Run-level correctness check: (failure messages, detail record)."""
        return [], {}

    def check_totals(self, records) -> dict[str, float]:
        """Untraced seconds per sweep check (sweep workloads only)."""
        return {}


class SweepWorkload(Workload):
    """run_sweep with every registered check at d = 2..6, one op per
    (d, check) call, a fresh sweep seed per pass."""

    name = "sweep"
    dims = (2, 3, 4, 5, 6)
    trials = 8
    unit = "check-trial"
    op = "one run_sweep call: one d, one check, `trials` trials"
    tail_pct = 95
    min_passes = 4
    trace_passes = 2
    loads = ("numerics", "lattice", "mobius", "distributivity", "modular",
             "observables", "rng", "sweeps")
    skips = ("coherent",)
    predicted = NUMERICS + (
        "lattice.join", "lattice.meet", "lattice.orthocomplement", "lattice.leq",
        "mobius.mobius", "mobius.mobius_dual",
        "distributivity.varpi1", "distributivity.varpi2",
        "distributivity.pi_deviation",
        "modular.transpose_up", "modular.transpose_down", "modular.spectral_p1",
        "modular.random_sandwiched_member", "observables.expectation",
        "rng.complex_gaussian_matrix")

    def inputs(self, ql, seed):
        rng = np.random.default_rng(seed)
        return [int(s) for s in rng.integers(0, 2 ** 31, size=SWEEP_SEEDS)]

    def pass_ops(self, ql, inputs, k):
        seed = inputs[k % len(inputs)]
        return [(d, check, seed) for d in self.dims for check in ql.sweeps.ALL_CHECKS]

    def run_op(self, ql, op):
        d, check, seed = op
        sw = ql.sweeps
        lines = sw.run_sweep(sw.SweepConfig(d, self.trials, seed, (check,)))
        return self.trials, lines

    def check(self, ql, op, lines):
        bad = [f"{l.check}/{l.residual_name}={l.max_residual:.3e}"
               for l in lines if not l.passed]
        return f"d={op[0]} failing lines {bad}" if bad else None

    def check_totals(self, records):
        totals: dict[str, float] = {}
        for rec in records:
            totals[rec.op[1]] = totals.get(rec.op[1], 0.0) + rec.seconds
        return totals

    def final_gate(self, ql, inputs, records):
        """sha256 of the format_report of the first pass for each d, and a
        byte-identity check of the smallest d against one all-checks call."""
        sw = ql.sweeps
        seed = inputs[0]
        by_d: dict[int, list] = {d: [] for d in self.dims}
        for rec in records:
            if rec.pass_index == 0 and rec.error is None:
                by_d[rec.op[0]].extend(rec.result)
        failures, hashes = [], {}
        for d in self.dims:
            config = sw.SweepConfig(d, self.trials, seed)
            hashes[str(d)] = _sha256(sw.format_report(config, by_d[d]))
        d0 = self.dims[0]
        config = sw.SweepConfig(d0, self.trials, seed)
        if _sha256(sw.format_report(config, sw.run_sweep(config))) != hashes[str(d0)]:
            failures.append(f"d={d0} report differs between per-check and all-check calls")
        return failures, {"report_sha256": hashes, "report_seed": seed,
                          "report_trials": self.trials}


class SweepLargeDWorkload(SweepWorkload):
    """The same checks at d = 16 and 24, with few trials per call."""

    name = "sweep-large-d"
    dims = (16, 24)
    trials = 4
    tail_pct = 90
    min_passes = 10
    trace_passes = 2


class CoherentWorkload(Workload):
    """Resolutions and displacement covariance for d = 3, 5, 7, i = 2..d,
    each case with its own random fiducial, label set and shift."""

    name = "coherent"
    dims = (3, 5, 7)
    unit = "case"
    op = "one (fiducial, label set) case: resolution + covariance residuals"
    tail_pct = 90
    min_passes = 11
    trace_passes = 1
    loads = ("numerics", "lattice", "mobius", "coherent")
    skips = ("rng", "sweeps", "distributivity", "modular", "observables")
    predicted = NUMERICS + ("lattice.join", "lattice.meet", "mobius.mobius",
                            "coherent.extend", "coherent.shifted",
                            "coherent.resolution_residuals")

    def inputs(self, ql, seed):
        rng = np.random.default_rng(seed)
        passes = []
        for _ in range(COHERENT_PASSES):
            cases = []
            for d in self.dims:
                points = [(a, b) for a in range(d) for b in range(d)]
                for i in range(2, d + 1):
                    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                    labels = [points[j] for j in rng.choice(d * d, size=i, replace=False)]
                    shift = points[int(rng.integers(1, d * d))]
                    cases.append((d, f / np.linalg.norm(f), labels, shift))
            passes.append(cases)
        return passes

    def pass_ops(self, ql, inputs, k):
        return inputs[k % len(inputs)]

    def run_op(self, ql, op):
        d, fiducial, labels, (k, l) = op
        coh = ql.coherent
        family = coh.CoherentFamily(d, fiducial)
        res = coh.resolution_residuals(family, labels)
        agg = coh.CoherentAggregate.from_labels(family, labels)
        cov = coh.displacement_covariance_residuals(agg, k, l)
        # the family holds d^2 cached displacements; keeping only the
        # residuals keeps memory independent of how many ops a run makes
        return 1, (res, cov)

    def check(self, ql, op, result):
        """The thresholds of acceptance criterion 6."""
        d, fiducial, labels, _ = op
        res, cov = result
        i = len(labels)
        bad = [f"{key}={res[key]:.3e}" for key in (
            "identity_from_projectors", "identity_from_increments", "mobius_sum",
            "trace_relation") if res[key] > RESIDUAL_TOL]
        # the 1/i coefficient closes the resolution only when i = d
        if i != d and res["increments_naive_coefficient"] <= RESIDUAL_TOL:
            bad.append("increments_naive_coefficient unexpectedly closed")
        bad += [f"covariance {key}={v:.3e}" for key, v in cov.items() if v > RESIDUAL_TOL]
        coh = ql.coherent
        family = coh.CoherentFamily(d, fiducial)
        for a in range(d):
            for b in range(d):
                family.overlap(0, 0, a, b)  # raises if the two routes disagree
        agg = coh.CoherentAggregate.from_labels(family, labels)
        entropy_dev = abs(coh.mixed_coherent_state(agg).entropy() - np.log(i))
        if entropy_dev > RESIDUAL_TOL:
            bad.append(f"entropy deviation {entropy_dev:.3e}")
        return f"d={d} i={i} {bad}" if bad else None


class MobiusWideWorkload(Workload):
    """mobius and mobius_dual over tuples of n = 6..9 mixed-rank subspaces."""

    name = "mobius-wide"
    dims = (4, 6, 8)
    sizes = (6, 7, 8, 9)
    unit = "operator"
    op = "one mobius or mobius_dual operator build"
    tail_pct = 90
    min_passes = 5
    trace_passes = 2
    loads = ("numerics", "lattice", "mobius")
    skips = ("rng", "sweeps", "distributivity", "modular", "observables", "coherent")
    predicted = NUMERICS + ("lattice.join", "lattice.meet",
                            "mobius.mobius", "mobius.mobius_dual")

    def inputs(self, ql, seed):
        rng = np.random.default_rng(seed)
        Subspace = ql.lattice.Subspace
        passes = []
        for _ in range(MOBIUS_PASSES):
            tuples = []
            for d in self.dims:
                for n in self.sizes:
                    subs = []
                    for _ in range(n):
                        r = int(rng.integers(1, d))
                        G = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
                        subs.append(Subspace.from_vectors(G))
                    tuples.append(subs)
            passes.append(tuples)
        return passes

    def pass_ops(self, ql, inputs, k):
        return [(kind, subs) for subs in inputs[k % len(inputs)]
                for kind in ("mobius", "mobius_dual")]

    def run_op(self, ql, op):
        kind, subs = op
        return 1, getattr(ql.mobius, kind)(subs).matrix

    def check(self, ql, op, matrix):
        """Independent inclusion-exclusion over every subset with join_all /
        meet_all, instead of the incremental subset table."""
        kind, subs = op
        lat = ql.lattice
        over, last = ((lat.join_all, lat.meet_all) if kind == "mobius"
                      else (lat.meet_all, lat.join_all))
        n = len(subs)
        ref = np.zeros_like(matrix)
        for mask in range(1, 1 << n):
            members = [subs[j] for j in range(n) if mask >> j & 1]
            ref += (-1) ** (n - len(members)) * over(members).projector()
        ref += (-1) ** n * last(subs).projector()
        err = float(np.linalg.norm(matrix - ref))
        if err > RESIDUAL_TOL:
            return f"{kind} d={subs[0].dim_ambient} n={n} inclusion-exclusion residual {err:.3e}"
        return None


WORKLOADS = {w.name: w for w in (SweepWorkload(), SweepLargeDWorkload(),
                                 CoherentWorkload(), MobiusWideWorkload())}
