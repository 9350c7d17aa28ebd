"""Span tracer for the benchmark's traced pass.

``Tracer.install()`` wraps the public entry points of each ``gaudual``
module from outside the package: every binding of a wrapped function is
replaced where it is looked up, so a name bound into another module by
``from ... import`` is traced too.  ``uninstall()`` restores the
originals.  Nothing under ``src/`` is changed.

A span's total counts only its outermost activation, so a nested call of
the same name (``det`` calling ``_perm_expansion``, ``__sub__`` calling
``__add__``) is not counted twice.  A layer's self time is the time its
spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, owner, attributes, span name); owner None means module level.
# Span names outside METRICS still feed their layer's self time.
SPANS = [
    ("runner", None, ["validate_instance"], "runner.validate"),
    ("runner", None, ["run_instance"], "runner.run"),
    ("cli", None, ["_render"], "cli.render"),
    ("gaudin", "DualityInstance", ["realize_glM", "realize_glN"], "gaudin.realize"),
    ("gaudin", "DualityInstance", ["lax_glM", "lax_glN"], "gaudin.lax"),
    ("gaudin", None, ["_spectral_dets"], "gaudin.spectral_dets"),
    ("gaudin", None, ["_divide_out"], "gaudin.divide_out"),
    ("gaudin", None, ["extract_gaudin_generators"], "gaudin.extract"),
    ("gaudin", None, ["check_commutativity"], "gaudin.commutativity"),
    ("gaudin", None, ["verify_homomorphism"], "gaudin.homomorphism"),
    ("gaudin", None, ["quantum_operator_sides"], "gaudin.quantum_sides"),
    ("gaudin", None, ["verify_classical_bosonic_duality", "verify_classical_fermionic_duality",
                      "verify_quantum_duality", "quantum_block_matrix"], "gaudin.verify"),
    ("cyclotomic", None, ["verify_cyclotomic_duality"], "cyclotomic.duality"),
    ("cyclotomic", None, ["verify_cyclotomic_homomorphisms"], "cyclotomic.homomorphism"),
    ("cyclotomic", None, ["lax_algebra_check"], "cyclotomic.lax_algebra"),
    ("cyclotomic", None, ["neumann_artifacts", "sphere_constraint_is_angular_invariant"],
     "cyclotomic.neumann"),
    ("cyclotomic", None, ["extract_cyclotomic_generators", "quantum_cyclotomic_candidate"],
     "cyclotomic.other"),
    ("matrices", None, ["det", "_perm_expansion"], "matrices.det"),
    ("matrices", None, ["cdet"], "matrices.cdet"),
    ("matrices", None, ["manin_check"], "matrices.manin"),
    ("multipoly", "MultiPoly", ["__mul__"], "multipoly.mul"),
    ("multipoly", "MultiPoly", ["__add__", "__sub__", "__rsub__"], "multipoly.add"),
    ("multipoly", "MultiPoly", ["lift_to", "_aligned"], "multipoly.align"),
    ("multipoly", "MultiPoly", ["derivative"], "multipoly.derivative"),
    ("multipoly", "MultiPoly", ["divide_linear"], "multipoly.divide_linear"),
    ("multipoly", "MultiPoly", ["substitute"], "multipoly.substitute"),
    ("multipoly", "MultiPoly", ["__neg__", "__pow__", "__eq__", "compact", "split_by"],
     "multipoly.other"),
    ("poisson", None, ["poisson_bracket"], "poisson.bracket"),
    ("ratfunc", "RatFunc", ["__mul__", "__rmul__"], "ratfunc.mul"),
    ("ratfunc", "RatFunc", ["__add__", "__sub__"], "ratfunc.add"),
    ("ratfunc", "RatFunc", ["_cancel"], "ratfunc.cancel"),
    ("ratfunc", "RatFunc", ["__neg__", "__eq__", "derivative", "invert", "to_poly"],
     "ratfunc.other"),
    ("ratfunc", None, ["partial_fractions"], "ratfunc.partial_fractions"),
    ("weyl", "WeylElement", ["__mul__", "__rmul__"], "weyl.mul"),
    ("weyl", None, ["_mono_mul"], "weyl.mono_mul"),
    ("weyl", "OrderedDiffOp", ["__mul__"], "weyl.ordered_mul"),
    ("weyl", "OrderedDiffOp", ["to_polynomial"], "weyl.normal_order"),
    ("weyl", "WeylElement", ["__add__", "__sub__", "__rsub__", "__neg__", "__eq__"], "weyl.other"),
    ("weyl", "OrderedDiffOp", ["__add__", "__sub__", "__neg__", "__eq__", "scale_left"],
     "weyl.other"),
    ("weyl", None, ["weyl_commutator"], "weyl.other"),
    ("grassmann", "GrassmannElement", ["__mul__", "__rmul__"], "grassmann.mul"),
    ("grassmann", "GrassmannAlgebra", ["graded_bracket"], "grassmann.bracket"),
    ("grassmann", "GrassmannElement", ["__add__", "__sub__", "__neg__", "__eq__"],
     "grassmann.other"),
    ("linalg", None, ["solve_linear", "in_span"], "linalg.solve"),
]

# every per-layer metric, with its unit and direction
METRICS = {
    "runner.validate_ms": ("ms", "lower"),
    "runner.self_ms": ("ms", "lower"),
    "cli.render_ms": ("ms", "lower"),
    "gaudin.realize_calls": ("count", "lower"),
    "gaudin.realize_ms": ("ms", "lower"),
    "gaudin.lax_ms": ("ms", "lower"),
    "gaudin.spectral_dets_ms": ("ms", "lower"),
    "gaudin.divide_out_ms": ("ms", "lower"),
    "gaudin.clearing_inflation": ("ratio", "lower"),
    "gaudin.extract_ms": ("ms", "lower"),
    "gaudin.commutativity_ms": ("ms", "lower"),
    "gaudin.homomorphism_ms": ("ms", "lower"),
    "gaudin.quantum_sides_ms": ("ms", "lower"),
    "gaudin.self_ms": ("ms", "lower"),
    "cyclotomic.duality_ms": ("ms", "lower"),
    "cyclotomic.homomorphism_ms": ("ms", "lower"),
    "cyclotomic.lax_algebra_ms": ("ms", "lower"),
    "cyclotomic.neumann_ms": ("ms", "lower"),
    "cyclotomic.self_ms": ("ms", "lower"),
    "matrices.det_calls": ("count", "lower"),
    "matrices.det_ms": ("ms", "lower"),
    "matrices.cdet_ms": ("ms", "lower"),
    "matrices.manin_ms": ("ms", "lower"),
    "matrices.self_ms": ("ms", "lower"),
    "multipoly.mul_calls": ("count", "lower"),
    "multipoly.mul_ms": ("ms", "lower"),
    "multipoly.mul_term_pairs": ("count", "lower"),
    "multipoly.mul_yield": ("ratio", "higher"),
    "multipoly.add_calls": ("count", "lower"),
    "multipoly.add_ms": ("ms", "lower"),
    "multipoly.align_ms": ("ms", "lower"),
    "multipoly.derivative_ms": ("ms", "lower"),
    "multipoly.divide_linear_ms": ("ms", "lower"),
    "multipoly.substitute_ms": ("ms", "lower"),
    "multipoly.peak_terms": ("count", "lower"),
    "multipoly.self_ms": ("ms", "lower"),
    "poisson.bracket_calls": ("count", "lower"),
    "poisson.bracket_ms": ("ms", "lower"),
    "ratfunc.mul_calls": ("count", "lower"),
    "ratfunc.mul_ms": ("ms", "lower"),
    "ratfunc.add_ms": ("ms", "lower"),
    "ratfunc.cancel_ms": ("ms", "lower"),
    "ratfunc.partial_fractions_ms": ("ms", "lower"),
    "ratfunc.self_ms": ("ms", "lower"),
    "weyl.mul_calls": ("count", "lower"),
    "weyl.mul_ms": ("ms", "lower"),
    "weyl.mono_mul_calls": ("count", "lower"),
    "weyl.mono_mul_ms": ("ms", "lower"),
    "weyl.mono_mul_repeat_share": ("ratio", "lower"),
    "weyl.ordered_mul_ms": ("ms", "lower"),
    "weyl.normal_order_ms": ("ms", "lower"),
    "weyl.self_ms": ("ms", "lower"),
    "grassmann.mul_calls": ("count", "lower"),
    "grassmann.mul_ms": ("ms", "lower"),
    "grassmann.bracket_ms": ("ms", "lower"),
    "grassmann.self_ms": ("ms", "lower"),
    "linalg.solve_ms": ("ms", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

class Tracer:
    """Records span totals, call counts, per-layer self time and the
    work counters of one traced pass."""

    def __init__(self):
        self._stack: list[list[float]] = []  # child time of each open span
        self._depth: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self._seen_pairs: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name: str, observe=None):
        stack, depth = self._stack, self._depth
        total, calls, self_s = self.total_s, self.calls, self.self_s
        layer = name.split(".")[0]
        is_det = name == "matrices.det"

        def wrapper(*args, **kwargs):
            # _perm_expansion under cdet is part of cdet, not of det
            span = "matrices.cdet" if is_det and depth["matrices.cdet"] else name
            frame = [0.0]
            stack.append(frame)
            depth[span] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[span] -= 1
                if stack:
                    stack[-1][0] += elapsed
                self_s[layer] += elapsed - frame[0]
                if not depth[span]:
                    total[span] += elapsed
                    calls[span] += 1
            if observe is not None and result is not NotImplemented:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _observe_mul(self, args, result):
        a, b = args
        right = len(b.terms) if hasattr(b, "terms") else 1
        self.work["multipoly.mul_term_pairs"] += len(a.terms) * right
        self.work["multipoly.mul_result_terms"] += len(result.terms)
        self._observe_peak(args, result)

    def _observe_peak(self, args, result):
        terms = getattr(result, "terms", None)
        if terms is not None and len(terms) > self.work["multipoly.peak_terms"]:
            self.work["multipoly.peak_terms"] = len(terms)

    def _observe_divide_out(self, args, result):
        self.work["gaudin.divide_out_terms_in"] += len(args[0].terms)
        self.work["gaudin.divide_out_terms_out"] += len(result.terms)

    def _observe_mono_mul(self, args, result):
        key = (args[0], args[1])
        if key in self._seen_pairs:
            self.work["weyl.mono_mul_repeats"] += 1
        else:
            self._seen_pairs.add(key)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every SPANS entry in the loaded gaudual modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {
            "multipoly.mul": self._observe_mul,
            "multipoly.add": self._observe_peak,
            "gaudin.divide_out": self._observe_divide_out,
            "weyl.mono_mul": self._observe_mono_mul,
        }
        modules = [mod for name, mod in sys.modules.items()
                   if name == "gaudual" or name.startswith("gaudual.")]
        for module, owner, attrs, span in SPANS:
            home = sys.modules[f"gaudual.{module}"]
            for attr in attrs:
                if owner is None:
                    original = getattr(home, attr)
                    wrapper = self._wrap(original, span, observers.get(span))
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)
                else:
                    cls = getattr(home, owner)
                    original = vars(cls)[attr]
                    wrapper = self._wrap(original, span, observers.get(span))
                    # aliases such as __rmul__ = __mul__ share the wrapper
                    for key, value in list(vars(cls).items()):
                        if value is original:
                            self._patch(cls, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every METRICS entry but trace.overhead, which needs an untraced pass."""
        work, calls = self.work, self.calls
        derived = {
            "gaudin.clearing_inflation": _ratio(work["gaudin.divide_out_terms_in"],
                                                work["gaudin.divide_out_terms_out"]),
            "multipoly.mul_term_pairs": work["multipoly.mul_term_pairs"],
            "multipoly.mul_yield": _ratio(work["multipoly.mul_result_terms"],
                                          work["multipoly.mul_term_pairs"]),
            "multipoly.peak_terms": work["multipoly.peak_terms"],
            "weyl.mono_mul_repeat_share": _ratio(work["weyl.mono_mul_repeats"],
                                                 calls["weyl.mono_mul"]),
        }
        out = {}
        for name in METRICS:
            span, _, kind = name.rpartition("_")
            if name in derived:
                out[name] = derived[name]
            elif name.endswith(".self_ms"):
                out[name] = self.self_s[name.split(".")[0]] * 1000
            elif kind == "ms":
                out[name] = self.total_s[span] * 1000
            elif kind == "calls":
                out[name] = calls[span]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
