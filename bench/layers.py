"""Which qlattice functions the traced run wraps, the counters hooked onto
them, and how the spans turn into the per-layer metrics.

Span names are ``<layer>.<function>``, where the layer is the qlattice module
that defines the function.  Every metric of ``Instrument.metrics`` is reported
on every workload, zero where the workload does not load it.
"""

from __future__ import annotations

from collections import Counter

from spans import Tracer

SPANNED = {
    "numerics": ("orthonormal_range", "kernel", "hermitian_eig"),
    "lattice": ("join", "meet", "orthocomplement", "leq", "commutes",
                "join_all", "meet_all"),
    "mobius": ("mobius", "mobius_dual"),
    "distributivity": ("varpi1", "varpi2", "pi_deviation"),
    "modular": ("transpose_up", "transpose_down", "spectral_p1",
                "random_sandwiched_member"),
    "observables": ("expectation", "stddev"),
    "coherent": ("resolution_residuals",),
}
# (module, class, method) pairs traced as "<module>.<method>"
SPANNED_METHODS = (
    ("coherent", "CoherentAggregate", "extend"),
    ("coherent", "CoherentAggregate", "shifted"),
    ("rng", "Xorshift64Star", "complex_gaussian_matrix"),
)
COUNTED = (("numerics", "as_matrix"),)


def _projector_bytes(H) -> bytes:
    # computed here rather than through H.projector(), which would cache the
    # projector on the subspace and change the work the library does later
    B = H.basis
    return (B @ B.conj().T).tobytes()


class Instrument:
    """A Tracer bound to qlattice's modules, plus the layer counters."""

    def __init__(self, ql):
        self.ql = ql
        self.tracer = Tracer()
        self.extra: Counter = Counter()
        self._seen: set = set()
        self._summary: dict | None = None

    def new_scope(self) -> None:
        """Start a new scope for lattice.repeat_frac (one benchmark op,
        which on the sweep workloads is one run_sweep call)."""
        self._seen = set()

    # -- hooks --------------------------------------------------------------

    def _repeat_hook(self, op: str, arity: int):
        def before(args, kwargs):
            key = (op,) + tuple(_projector_bytes(H) for H in args[:arity])
            self.extra["lattice.repeat_ops"] += 1
            if key in self._seen:
                self.extra["lattice.repeats"] += 1
            else:
                self._seen.add(key)
        return before

    def _join_after(self, args, kwargs, result):
        if self.tracer.parent_name() == "mobius.mobius":
            self.extra["mobius.subset_joins"] += 1
            if result.rank == result.dim_ambient:
                self.extra["mobius.full_joins"] += 1

    def _subsets_after(self, name):
        def after(args, kwargs, result):
            self.extra[f"{name}.subsets"] += (1 << len(result.arguments)) - 1
        return after

    def _range_before(self, args, kwargs):
        shape = getattr(args[0], "shape", None)
        self.extra["numerics.orthonormal_range.cols_in"] += (
            1 if shape is None or len(shape) < 2 else shape[1])

    def _range_after(self, args, kwargs, result):
        self.extra["numerics.orthonormal_range.cols_kept"] += result.shape[1]

    def _entries_after(self, args, kwargs, result):
        self.extra["rng.complex_gaussian_matrix.entries"] += result.size

    # -- binding ------------------------------------------------------------

    def install(self) -> None:
        t = self.tracer
        hooks = {
            "numerics.orthonormal_range": (self._range_before, self._range_after),
            "lattice.join": (self._repeat_hook("join", 2), self._join_after),
            "lattice.meet": (self._repeat_hook("meet", 2), None),
            "lattice.orthocomplement": (self._repeat_hook("orthocomplement", 1), None),
            "mobius.mobius": (None, self._subsets_after("mobius.mobius")),
            "mobius.mobius_dual": (None, self._subsets_after("mobius.mobius_dual")),
        }
        for layer, funcs in SPANNED.items():
            module = getattr(self.ql, layer)
            for func in funcs:
                name = f"{layer}.{func}"
                before, after = hooks.get(name, (None, None))
                original = getattr(module, func)
                if not t.rebind(original, t.span_wrapper(name, original, before, after)):
                    raise RuntimeError(f"could not rebind {name}")
        for layer, cls_name, method in SPANNED_METHODS:
            cls = getattr(getattr(self.ql, layer), cls_name)
            name = f"{layer}.{method}"
            after = self._entries_after if method == "complex_gaussian_matrix" else None
            t.rebind_attr(cls, method, t.span_wrapper(name, vars(cls)[method], None, after))
        for layer, func in COUNTED:
            original = getattr(getattr(self.ql, layer), func)
            t.rebind(original, t.count_wrapper(f"{layer}.{func}", original))
        # run_sweep looks checks up in REGISTRY, not in a module namespace
        registry = self.ql.sweeps.REGISTRY
        for check, (func, overrides) in list(registry.items()):
            t.rebind_attr(registry, check,
                          (t.span_wrapper(f"sweeps.{check}", func), overrides))

    def restore(self) -> None:
        self.tracer.restore()

    # -- metrics ------------------------------------------------------------

    def calls(self, name: str) -> int:
        """Calls recorded for a span or counter name (after the traced run)."""
        if self._summary is None:
            self._summary = self.tracer.summary()
        return self._summary.get(name, {}).get("calls", 0)

    def metrics(self, overhead_frac: float, check_totals: dict[str, float]) -> dict[str, float]:
        """Every per-layer metric.  sweeps.<check>.total_s comes from the
        untraced ops (check_totals), so tracer overhead stays out of it."""
        values: dict[str, float] = {}
        for name in spanned_names():
            values[f"{name}.calls"] = self.calls(name)
            values[f"{name}.self_s"] = self._summary.get(name, {}).get("self_s", 0.0)
        for layer, func in COUNTED:
            values[f"{layer}.{func}.calls"] = self.calls(f"{layer}.{func}")
        for key in ("numerics.orthonormal_range.cols_in",
                    "numerics.orthonormal_range.cols_kept",
                    "mobius.mobius.subsets", "mobius.mobius_dual.subsets",
                    "rng.complex_gaussian_matrix.entries"):
            values[key] = self.extra[key]
        values["lattice.repeat_frac"] = _ratio(self.extra["lattice.repeats"],
                                               self.extra["lattice.repeat_ops"])
        values["mobius.full_join_frac"] = _ratio(self.extra["mobius.full_joins"],
                                                 self.extra["mobius.subset_joins"])
        for check in self.ql.sweeps.ALL_CHECKS:
            values[f"sweeps.{check}.total_s"] = check_totals.get(check, 0.0)
        values["trace.overhead_frac"] = overhead_frac
        return values

    def bases(self) -> dict[str, int]:
        """Denominators of the two ratios, for the detail record."""
        return {k: self.extra[k] for k in ("lattice.repeats", "lattice.repeat_ops",
                                           "mobius.full_joins", "mobius.subset_joins")}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def spanned_names() -> list[str]:
    names = [f"{layer}.{f}" for layer, funcs in SPANNED.items() for f in funcs]
    names += [f"{layer}.{method}" for layer, _, method in SPANNED_METHODS]
    return names
