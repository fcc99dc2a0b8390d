"""In-memory tracing of kleintrace from outside the package.

The tracer rebinds every public function of the layer modules, in every
namespace of the package that binds it, to a wrapper that records a span
(name, start, end, parent, op id, attributes).  Scalar and polynomial
arithmetic is too fine-grained for spans and gets call counters instead.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("exactkernel", "linalg", "tracespace", "pade", "degeneracy", "algebra", "findim", "lerch", "cli")


def _shape(matrix):
    return [len(matrix), len(matrix[0]) if matrix else 0]


# attributes recorded per span: deg P, N and matrix shapes
ATTRS = {
    "tracespace.solve_moments": lambda tr, spec, N: {"degP": spec.P.degree, "N": N},
    "tracespace.moments": lambda tr, spec, N: {"degP": spec.P.degree, "N": N, "spec": tr.key(spec)},
    "tracespace.hankel_rank": lambda tr, moments, N: {"N": N},
    "pade.pade_approximant": lambda tr, moments, n: {"n": n, "N": moments.order},
    "pade.degeneracy_profile": lambda tr, spec, n_max: {"degP": spec.P.degree, "nmax": n_max},
    "linalg.rank": lambda tr, m: {"shape": _shape(m)},
    "linalg.solve": lambda tr, m, rhs: {"shape": _shape(m)},
    "linalg.kernel_basis": lambda tr, m, cols=None: {"shape": _shape(m)},
    "linalg.mat_mul": lambda tr, a, b: {"shape": _shape(a) + [len(b[0]) if b else 0]},
}

# a metric name may cover several functions
GROUPS = {
    "degeneracy.reconstruct": ("degeneracy.reconstruct_rational", "degeneracy.reconstruct_principal_parts"),
    "degeneracy.decompose": ("degeneracy.decompose_pole_order", "degeneracy.decompose_two_root"),
    "findim.build": ("findim.build_string_module", "findim.build_jordan_module"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id, attrs)
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._keys = {}  # id(obj) -> (obj, serial); holding obj keeps ids unique

    def key(self, obj) -> int:
        entry = self._keys.get(id(obj))
        if entry is None:
            entry = self._keys[id(obj)] = (obj, len(self._keys))
        return entry[1]

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn):
        spans, stack, attrs = self.spans, self._stack, ATTRS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(self, *args, **kwargs) if attrs else None
                spans[idx] = (name, start, end, parent, self.op, extra)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn, operand_type=None):
        counts = self.counts

        if operand_type is None:
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
        else:
            def wrapper(a, b):
                if isinstance(b, operand_type):
                    counts[name] += 1
                return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        from kleintrace.exactkernel import DensePolynomial, GaussianRational
        from kleintrace.tracespace import TraceSpec

        package = [m for n, m in sys.modules.items() if n == "kleintrace" or n.startswith("kleintrace.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"kleintrace.{layer}"]
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self.span(f"{layer}.{name}", obj))
        for module in package:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, name, hit[1])

        self._set(TraceSpec, "moments", self.span("tracespace.moments", TraceSpec.moments))
        for attr in ("__mul__", "__rmul__"):
            self._set(GaussianRational, attr, self.counter("exactkernel.scalar_mul", getattr(GaussianRational, attr)))
            self._set(DensePolynomial, attr, self.counter("exactkernel.poly_mul", getattr(DensePolynomial, attr), DensePolynomial))
        # __rsub__ and __rtruediv__ delegate to __sub__ and __truediv__
        for attr in ("__add__", "__radd__", "__sub__"):
            self._set(GaussianRational, attr, self.counter("exactkernel.scalar_addsub", getattr(GaussianRational, attr)))
        self._set(GaussianRational, "__truediv__", self.counter("exactkernel.scalar_div", GaussianRational.__truediv__))
        self._set(DensePolynomial, "shift", self.counter("exactkernel.poly_shift", DensePolynomial.shift))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, attrs]) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts)}) + "\n")


def self_times(spans):
    """Per span: its duration minus the time its direct child spans cover.

    Spans of one thread nest, so the children of a span are disjoint and lie
    inside it.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (name, start, end, *_) in enumerate(spans)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, scale, overhead_ratio):
    """Every per-layer metric from one traced pass: name -> (value, unit).

    Self times are in reference seconds: wall seconds times ``scale``, the
    pass's reference time over its wall time.
    """
    spans = tracer.spans
    selfs = [own * scale for own in self_times(spans)]
    self_s, calls = defaultdict(float), Counter()
    for (name, *_), own in zip(spans, selfs):
        self_s[name] += own
        calls[name] += 1
    for group, members in GROUPS.items():
        self_s[group] = sum(self_s[m] for m in members)

    moments = [i for i, s in enumerate(spans) if s[0] == "tracespace.moments"]
    solve_parents = {s[3] for s in spans if s[0] == "tracespace.solve_moments"}
    terms = sum(s[5]["N"] + 1 for s in spans if s[0] == "tracespace.solve_moments")
    needed = defaultdict(int)
    for i in moments:
        attrs = spans[i][5]
        needed[attrs["spec"]] = max(needed[attrs["spec"]], attrs["N"] + 1)
    pade_solves = sum(
        1 for s in spans if s[0] == "linalg.solve" and s[3] >= 0 and spans[s[3]][0] == "pade.pade_approximant"
    )

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("cli.main.self_s", self_s["cli.main"], "ref_s")
    for op in ("scalar_mul", "scalar_addsub", "scalar_div", "poly_mul", "poly_shift"):
        put(f"exactkernel.{op}.calls", tracer.counts[f"exactkernel.{op}"], "count")
    put("exactkernel.partial_fractions.self_s", self_s["exactkernel.partial_fractions"], "ref_s")
    for fn in ("rank", "solve"):
        put(f"linalg.{fn}.calls", calls[f"linalg.{fn}"], "count")
        put(f"linalg.{fn}.self_s", self_s[f"linalg.{fn}"], "ref_s")
    for fn in ("kernel_basis", "mat_mul"):
        put(f"linalg.{fn}.self_s", self_s[f"linalg.{fn}"], "ref_s")
    put("tracespace.solve_moments.calls", calls["tracespace.solve_moments"], "count")
    put("tracespace.solve_moments.self_s", self_s["tracespace.solve_moments"], "ref_s")
    put("tracespace.solve_moments.terms", terms, "count")
    put("tracespace.moments.calls", len(moments), "count")
    put("tracespace.moments.hit_ratio", _ratio(sum(1 for i in moments if i not in solve_parents), len(moments)), "ratio")
    put("tracespace.moments.terms_per_needed", _ratio(terms, sum(needed.values())), "ratio")
    for fn in ("hankel_rank", "evaluate_trace"):
        put(f"tracespace.{fn}.self_s", self_s[f"tracespace.{fn}"], "ref_s")
    put("pade.pade_approximant.calls", calls["pade.pade_approximant"], "count")
    put("pade.pade_approximant.self_s", self_s["pade.pade_approximant"], "ref_s")
    put("pade.solves_per_approximant", _ratio(pade_solves, calls["pade.pade_approximant"]), "ratio")
    put("pade.degeneracy_profile.self_s", self_s["pade.degeneracy_profile"], "ref_s")
    for fn in ("delta_criterion", "degenerate_basis", "reconstruct", "decompose"):
        put(f"degeneracy.{fn}.self_s", self_s[f"degeneracy.{fn}"], "ref_s")
    put("algebra.multiply_normal.calls", calls["algebra.multiply_normal"], "count")
    put("algebra.multiply_normal.self_s", self_s["algebra.multiply_normal"], "ref_s")
    put("algebra.morphism_apply.self_s", self_s["algebra.morphism_apply"], "ref_s")
    put("findim.module_trace.self_s", self_s["findim.module_trace"], "ref_s")
    put("findim.build.self_s", self_s["findim.build"], "ref_s")
    put("lerch.verify_lerch_recursion.self_s", self_s["lerch.verify_lerch_recursion"], "ref_s")
    put("lerch.lerch_phi.calls", calls["lerch.lerch_phi"], "count")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out
