"""Outside-in layer tracer for the benchmark.

The tracer wraps public functions of the ``deltaclose`` modules at run time,
from this directory, without editing the package.  Each wrapped call records
a span (name, start, end, parent, item) in flat in-memory arrays, plus
per-name call counts and self time (span time minus the time of its child
spans).  The spans are written out once, at the end of a traced run.

Two wrapping rules keep the counts complete:

* an operator alias (``__rmul__ = __mul__``) is the same function object
  under a second class attribute, so every attribute bound to the wrapped
  function is rebound together;
* ``from .linalg import ff_echelon`` binds a second module-level name, so
  every ``deltaclose`` module global bound to the wrapped function is rebound
  too, not only the one in the defining module.

A wrapped name that no longer exists raises ``DriftError`` at install time,
and so does a layer that records no calls on a workload it is meant to
exercise (``check_exercised``), so refactors surface instead of reading as
zeros.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from fractions import Fraction
from time import perf_counter


class DriftError(RuntimeError):
    """The package no longer matches the tracer's map of public names."""


# span name -> (module, [qualified attribute names]); the first dotted part
# of a span name is its layer.  Spans not reported on their own (such as
# scalar.div or expcoef.make) still count toward their layer's self time, so
# that it is not charged to the calling layer.
SPANS = {
    "scalar.element": ("scalar", ["NumberField.element"]),
    "scalar.enclosure": ("scalar", ["NumberField.enclosure"]),
    "scalar.mul": ("scalar", ["AlgebraicScalar.__mul__"]),
    "scalar.add": ("scalar", ["AlgebraicScalar.__add__"]),
    "scalar.sub": ("scalar", ["AlgebraicScalar.__sub__", "AlgebraicScalar.__rsub__",
                              "AlgebraicScalar.__neg__"]),
    "scalar.inverse": ("scalar", ["AlgebraicScalar.inverse"]),
    "scalar.div": ("scalar", ["AlgebraicScalar.__truediv__",
                              "AlgebraicScalar.__rtruediv__"]),
    "scalar.pow": ("scalar", ["AlgebraicScalar.__pow__"]),
    "scalar.sign": ("scalar", ["AlgebraicScalar.sign"]),
    "scalar.complex": ("scalar", ["ComplexAlgebraic.__mul__", "ComplexAlgebraic.__add__",
                                  "ComplexAlgebraic.__sub__", "ComplexAlgebraic.inverse",
                                  "ComplexAlgebraic.__truediv__"]),
    "expcoef.mul": ("expcoef", ["ExpCoefficient.__mul__"]),
    "expcoef.add": ("expcoef", ["ExpCoefficient.__add__"]),
    "expcoef.sub": ("expcoef", ["ExpCoefficient.__sub__", "ExpCoefficient.__rsub__",
                                "ExpCoefficient.__neg__"]),
    "expcoef.div": ("expcoef", ["ExpCoefficient.__truediv__",
                                "ExpCoefficient.__rtruediv__"]),
    "expcoef.divexact": ("expcoef", ["ExpCoefficient.divexact"]),
    "expcoef.scale": ("expcoef", ["ExpCoefficient.scale_scalar", "ExpCoefficient.shift"]),
    "expcoef.make": ("expcoef", ["ExpCoefficient.zero", "ExpCoefficient.one",
                                 "ExpCoefficient.scalar", "ExpCoefficient.exponential"]),
    "exppoly.translate": ("exppoly", ["ExpPolynomial.translate"]),
    "exppoly.forward_difference": ("exppoly", ["ExpPolynomial.forward_difference"]),
    "exppoly.substitute_linear": ("exppoly", ["ExpPolynomial.substitute_linear"]),
    "exppoly.evaluate_array": ("exppoly", ["ExpPolynomial.evaluate_array"]),
    "exppoly.translation_hull": ("exppoly", ["translation_hull"]),
    "exppoly.arith": ("exppoly", ["ExpPolynomial.__add__", "ExpPolynomial.__sub__",
                                  "ExpPolynomial.__neg__", "ExpPolynomial.scale"]),
    "opalg.apply": ("opalg", ["TranslationPolynomial.apply"]),
    "opalg.mul": ("opalg", ["TranslationPolynomial.__mul__"]),
    "opalg.pow": ("opalg", ["TranslationPolynomial.__pow__"]),
    "opalg.delta": ("opalg", ["TranslationPolynomial.delta"]),
    "linalg.ff_echelon": ("linalg", ["ff_echelon"]),
    "linalg.ff_reduce": ("linalg", ["ff_reduce"]),
    "linalg.field_rref": ("linalg", ["field_rref"]),
    "linalg.field_solve": ("linalg", ["field_solve"]),
    "linalg.field_kernel": ("linalg", ["field_kernel"]),
    "linalg.hnf": ("linalg", ["hnf"]),
    "subspace.span": ("subspace", ["FunctionSubspace.span"]),
    "subspace.contains": ("subspace", ["FunctionSubspace.contains"]),
    "subspace.invariant_closure": ("subspace", ["invariant_closure"]),
    "subspace.one_step_closure": ("subspace", ["one_step_closure"]),
    "groups.group_closure": ("groups", ["group_closure"]),
    "groups.build_frame": ("groups", ["build_frame"]),
    "construct.eval_array": ("construct", ["AntiDifference.eval_array"]),
    "construct.difference_values": ("construct", ["difference_values"]),
    "construct.corner_witness": ("construct", ["corner_witness"]),
    "construct.make_counterexample": ("construct", ["make_counterexample"]),
    "solver.solve": ("solver", ["solve_difference_system"]),
    "solver.fit_coset_slices": ("solver", ["fit_coset_slices"]),
    "jsonio.encode": ("jsonio", [
        "encode_field", "encode_scalar", "encode_complex", "encode_vector",
        "encode_expcoef", "encode_exppoly", "encode_op", "encode_space",
        "encode_closure", "encode_frame", "encode_function", "manifest", "dumps"]),
    "jsonio.decode": ("jsonio", [
        "decode_field", "decode_scalar", "decode_complex", "decode_vector",
        "decode_expcoef", "decode_exppoly", "decode_op", "decode_space",
        "decode_closure", "decode_frame", "decode_function"]),
    "cli.main": ("cli", ["main"]),
}

LAYERS = ("scalar", "expcoef", "exppoly", "opalg", "linalg", "subspace", "groups",
          "construct", "solver", "jsonio", "cli")

# layers each workload is meant to exercise; zero calls there is drift
EXERCISED = {
    "roundtrip": ("scalar", "expcoef", "exppoly", "linalg", "groups", "solver"),
    "diamond": ("scalar", "expcoef", "opalg", "linalg", "subspace"),
    "tower_grid": ("construct", "jsonio", "cli"),
    "prop7_pipeline": ("scalar", "exppoly", "linalg", "subspace", "groups",
                       "construct", "solver", "jsonio", "cli"),
}


def _bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _coeff_bits(poly) -> int:
    """Largest numerator/denominator bit length over an ExpPolynomial's
    coefficients."""
    best = 0
    for monos in poly.terms.values():
        for c in monos.values():
            for part in (c.num, c.den):
                for z in part.values():
                    for x in (z.re, z.im):
                        for q in x.coords:
                            best = max(best, _bits(q))
    return best


class Tracer:
    """Spans and per-name aggregates of one traced pass."""

    def __init__(self):
        self.names = ["item"]
        self.name_ids = {"item": 0}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.calls = [0]
        self.self_s = [0.0]
        self.contains_hits = 0
        self.ff_echelon_terms_max = 0
        self.solve_coeff_bits_max = 0
        self.on = False
        self._stack = []    # indices of open spans
        self._child = []    # child time of each open span
        self._item = -1
        self._origin = perf_counter()
        self._patches = []  # (owner, attribute, original) to restore

    # -- spans ---------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_item.append(self._item)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, nid: int, idx: int):
        t1 = perf_counter()
        self.span_end[idx] = t1
        self._stack.pop()
        dur = t1 - self.span_start[idx]
        self.self_s[nid] += dur - self._child.pop()
        self.calls[nid] += 1
        if self._child:
            self._child[-1] += dur

    def _uncounted(self, t0: float):
        """Keep time spent on tracer bookkeeping since t0 out of the
        enclosing span's self time."""
        if self._child:
            self._child[-1] += perf_counter() - t0

    def begin_item(self, item: int):
        self._item = item
        self.on = True
        self._item_span = self._open(0)

    def end_item(self):
        self._close(0, self._item_span)
        self.on = False

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        post = {"linalg.ff_echelon": self._post_echelon,
                "subspace.contains": self._post_contains,
                "solver.solve": self._post_solve}.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(nid, idx)
            if post is not None:
                t0 = perf_counter()
                post(result)
                tracer._uncounted(t0)
            return result

        return wrapper

    def _post_echelon(self, result):
        rows, _ = result
        for row in rows:
            for e in row:
                self.ff_echelon_terms_max = max(self.ff_echelon_terms_max, len(e.num))

    def _post_contains(self, result):
        self.contains_hits += bool(result)

    def _post_solve(self, bundle):
        self.solve_coeff_bits_max = max(self.solve_coeff_bits_max,
                                        _coeff_bits(bundle.particular))

    def install(self):
        """Wrap every name in SPANS; raise DriftError if one is missing."""
        importlib.import_module("deltaclose.cli")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "deltaclose" or k.startswith("deltaclose."))]
        for name, (modname, attrs) in SPANS.items():
            mod = sys.modules.get(f"deltaclose.{modname}")
            for attr in attrs:
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                raw = vars(owner).get(leaf) if owner is not None else None
                if raw is None:
                    raise DriftError(f"deltaclose.{modname}.{attr} no longer exists")
                if owner_name:
                    self._wrap_method(name, owner, raw)
                else:
                    self._wrap_function(name, raw, modules)

    def _wrap_method(self, name, cls, raw):
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        wrapper = self._wrap(name, fn)
        for attr, value in list(vars(cls).items()):
            if value is raw or (static and isinstance(value, staticmethod)
                                and value.__func__ is fn):
                self._patches.append((cls, attr, value))
                setattr(cls, attr, staticmethod(wrapper) if static else wrapper)

    def _wrap_function(self, name, fn, modules):
        wrapper = self._wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def _get(self, name: str, field: str):
        nid = self.name_ids.get(name)
        if nid is None:
            return 0 if field == "calls" else 0.0
        return (self.calls if field == "calls" else self.self_s)[nid]

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls[i] for i, n in enumerate(self.names)
                   if n.startswith(layer + "."))

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s[i] for i, n in enumerate(self.names)
                   if n.startswith(layer + "."))

    def check_exercised(self, workload: str):
        idle = [layer for layer in EXERCISED[workload] if self.layer_calls(layer) == 0]
        if idle:
            raise DriftError(f"layers recorded no calls on {workload}: {', '.join(idle)}")

    def metrics(self) -> dict:
        """Per-layer metric values by name (see BENCHMARK.json per_layer)."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self_s(layer)
        for name in ("scalar.element", "scalar.mul", "scalar.add", "scalar.inverse",
                     "scalar.sign", "scalar.enclosure", "expcoef.mul", "expcoef.add",
                     "expcoef.div", "expcoef.divexact", "exppoly.translate",
                     "exppoly.forward_difference", "exppoly.substitute_linear",
                     "exppoly.translation_hull", "opalg.apply", "opalg.mul",
                     "linalg.ff_echelon", "linalg.ff_reduce", "linalg.field_rref",
                     "linalg.field_solve", "linalg.hnf", "subspace.span",
                     "subspace.contains", "groups.group_closure", "solver.solve",
                     "construct.eval_array", "cli.main"):
            out[f"{name}.calls"] = self._get(name, "calls")
        for name in ("exppoly.translate", "exppoly.evaluate_array", "opalg.apply",
                     "linalg.ff_echelon", "linalg.ff_reduce", "linalg.field_rref",
                     "subspace.span", "subspace.invariant_closure",
                     "groups.group_closure", "groups.build_frame", "solver.solve",
                     "solver.fit_coset_slices", "construct.eval_array",
                     "construct.difference_values", "construct.corner_witness",
                     "jsonio.decode", "jsonio.encode", "cli.main"):
            out[f"{name}.self_s"] = self._get(name, "self_s")
        contains = self._get("subspace.contains", "calls")
        out["subspace.contains.hit_ratio"] = self.contains_hits / contains if contains else 0.0
        out["linalg.ff_echelon.terms_max"] = self.ff_echelon_terms_max
        out["solver.coeff_bits_max"] = self.solve_coeff_bits_max
        out["trace.spans"] = len(self.span_start)
        return out

    def save(self, path):
        """Write every span as flat arrays (times in seconds from the tracer's
        creation) to an .npz file."""
        import numpy as np

        np.savez(path,
                 names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 start=np.frombuffer(self.span_start, dtype=np.float64) - self._origin,
                 end=np.frombuffer(self.span_end, dtype=np.float64) - self._origin,
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 item=np.frombuffer(self.span_item, dtype=np.int32))
