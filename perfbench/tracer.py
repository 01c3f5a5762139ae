"""Outside-in trace of rht: spans around each public function, and counters.

``Tracer.install`` wraps every public function of the rht modules in the
module that defines it and wherever another rht module imported the name,
and wraps the constructor and public methods of rht classes in place.  A
span records its name, start, end, parent span and operation.  Self time
is a span's duration minus the time its child spans cover.

The small value types of ``algebra`` and the element accessors of
``RatMatrix`` stay unwrapped: they run 10^5 to 10^6 times per operation,
and a span on each would cost more than the work it measures.  Their time
counts as self time of their callers.

Counters are kept per operation, at the same boundaries as the spans:
degree-basis keys, finiteness-window models, derivation slices and matrix
sizes, and the enumeration funnel.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

MODULES = ("cli", "model", "algebra", "linalg", "derivations", "invariants", "catalog", "poset")

UNTRACED = {
    "algebra.Generator",
    "algebra.GenSet",
    "algebra.Monomial",
    "algebra.AlgElement",
    "linalg.RatMatrix.get",
    "linalg.RatMatrix.row",
    "linalg.RatMatrix.column",
    "linalg.RatMatrix.to_rows",
}

# dunder methods that do real work and are wrapped like public methods
WORKING_DUNDERS = ("__init__", "__matmul__")

# per-layer metric -> span name, where the two differ (methods of classes)
SPAN_OF = {
    "model.diff_matrix": "model.SullivanModel.diff_matrix",
    "catalog.realized_subspaces": "catalog.Catalog.realized_subspaces",
    "poset.longest_chain": "poset.Poset.longest_chain",
}

# spans whose calls and self time are reported
TIMED = (
    "algebra.basis_in_degree",
    "invariants.finiteness_window",
    "linalg.HomologySlice",
    "linalg.Subspace",
    "linalg.kernel",
    "linalg.solve",
    "linalg.rref",
    "model.diff_matrix",
    "model.cohomology",
    "derivations.der_basis",
    "derivations.boundary_matrix",
    "invariants.gottlieb",
    "invariants.fibre_gottlieb",
    "invariants.les_check",
    "invariants.toral_certificate",
)

# spans whose self time alone is reported
SELF_ONLY = (
    "model.parse_document",
    "catalog.enumerate_fibrations",
    "catalog.realized_subspaces",
    "poset.poset_of_subspaces",
    "poset.longest_chain",
    "cli.main",
)

# spans counted by distinct key within an operation -> name of that count;
# each also gets useful_ratio = distinct / calls
DISTINCT = {
    "algebra.basis_in_degree": "distinct",
    "invariants.finiteness_window": "distinct_models",
    "derivations.der_basis": "distinct",
    "derivations.boundary_matrix": "distinct",
}

# counters and the direction an optimisation moves them; the entries kept
# and their distinct subspaces are answers, so fewer of them is never better
COUNTERS = (
    ("algebra.basis_in_degree.monomials", "lower"),
    ("invariants.finiteness_window.not_finite", "lower"),
    ("linalg.HomologySlice.cells", "lower"),
    ("derivations.boundary_matrix.nnz", "lower"),
    ("catalog.funnel.candidates", "lower"),
    ("catalog.funnel.not_closed", "lower"),
    ("catalog.funnel.not_finite", "lower"),
    ("catalog.funnel.kept", "higher"),
    ("catalog.distinct_subspaces", "higher"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = [("trace.coverage", "ratio", "higher"), ("trace.overhead", "ratio", "lower")]
    spec += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    for name in TIMED:
        spec.append((f"{name}.calls", "count", "lower"))
        if name in DISTINCT:
            spec.append((f"{name}.{DISTINCT[name]}", "count", "lower"))
            spec.append((f"{name}.useful_ratio", "ratio", "higher"))
        spec.append((f"{name}.self_s", "s", "lower"))
    spec += [(f"{name}.self_s", "s", "lower") for name in SELF_ONLY]
    spec += [(name, "count", better) for name, better in COUNTERS]
    return sorted(spec, key=lambda s: s[0])


class Tracer:
    """Spans and counters of one traced pass; ``install`` on a fresh import."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.ops: list[str] = []  # op id -> operation name
        self.op = -1
        self.counters: list[Counter] = []  # op id -> counters
        self._distinct: dict[str, set] = {}
        self._keys: dict[int, tuple] = {}

    # --- operations -----------------------------------------------------

    def begin(self, name: str) -> None:
        """Start attributing spans and counters to the operation ``name``."""
        self.op = len(self.ops)
        self.ops.append(name)
        self.counters.append(Counter())
        self._distinct = {}
        self._keys = {}

    def end(self) -> None:
        c = self.counters[self.op]
        for name, label in DISTINCT.items():
            c[f"{name}.{label}"] = len(self._distinct.get(name, ()))
        self._keys = {}

    def _seen(self, name: str, key) -> None:
        self._distinct.setdefault(name, set()).add(key)
        self.counters[self.op][f"{name}.calls"] += 1

    def _model_key(self, m) -> tuple:
        """Content key of a model, memoized by identity within one operation."""
        hit = self._keys.get(id(m))
        if hit is not None and hit[0] is m:
            return hit[1]
        total = getattr(m, "total", m)
        diff = tuple(sorted(total.diff.items(), key=lambda kv: kv[0]))
        key = (type(m).__name__, getattr(m, "base_size", 0), total.gens, diff, total.bound)
        self._keys[id(m)] = (m, key)
        return key

    # --- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self, rht) -> None:
        """Wrap the public functions and classes of a freshly imported rht."""
        hooks = self._hooks()
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = sys.modules[f"rht.{short}"]
            for attr, obj in list(vars(mod).items()):
                qual = f"{short}.{attr}"
                if attr.startswith("_") or qual in UNTRACED:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[id(obj)] = (obj, self.wrap(qual, obj, hooks.get(qual)))
                elif isinstance(obj, type):
                    self._wrap_class(qual, obj, hooks)
        for name, mod in list(sys.modules.items()):
            if name != "rht" and not name.startswith("rht."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        self._count_candidates(rht)

    def _wrap_class(self, qual: str, cls: type, hooks: dict) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WORKING_DUNDERS:
                continue
            name = qual if attr == "__init__" else f"{qual}.{attr}"
            if name in UNTRACED:
                continue
            if isinstance(member, types.FunctionType):
                setattr(cls, attr, self.wrap(name, member, hooks.get(name)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, member.__func__)))

    def _count_candidates(self, rht) -> None:
        """Count enumeration candidates where catalog constructs them."""
        catalog = sys.modules["rht.catalog"]
        real, not_closed, tracer = catalog.RelativeModel, rht.errors.NotClosed, self

        def candidate(*args, **kwargs):
            c = tracer.counters[tracer.op]
            c["catalog.funnel.candidates"] += 1
            try:
                return real(*args, **kwargs)
            except not_closed:
                c["catalog.funnel.not_closed"] += 1
                raise

        catalog.RelativeModel = candidate

    def _hooks(self) -> dict:
        def counters():
            return self.counters[self.op]

        def basis(args, kwargs, result):
            self._seen("algebra.basis_in_degree", (args[0], args[1]))
            counters()["algebra.basis_in_degree.monomials"] += len(result)

        def window(args, kwargs, result):
            w = args[1] if len(args) > 1 else kwargs.get("window", 6)
            self._seen("invariants.finiteness_window", (self._model_key(args[0]), w))
            if not result[0]:
                counters()["invariants.finiteness_window.not_finite"] += 1
                parent = self.stack[-1] if self.stack else -1
                if parent >= 0 and self.spans[parent][0] == "catalog.enumerate_fibrations":
                    counters()["catalog.funnel.not_finite"] += 1

        def slice_key(args, kwargs):
            scope = args[2] if len(args) > 2 else kwargs.get("scope", "absolute")
            return (self._model_key(args[0]), args[1], scope)

        def der_basis(args, kwargs, result):
            self._seen("derivations.der_basis", slice_key(args, kwargs))

        def boundary(args, kwargs, result):
            self._seen("derivations.boundary_matrix", slice_key(args, kwargs))
            counters()["derivations.boundary_matrix.nnz"] += len(result.entries)

        def homology_slice(args, kwargs, result):
            d_in = args[1] if len(args) > 1 else kwargs["d_in"]
            d_out = args[2] if len(args) > 2 else kwargs["d_out"]
            counters()["linalg.HomologySlice.cells"] += (
                d_in.rows * d_in.cols + d_out.rows * d_out.cols
            )

        def kept(args, kwargs, result):
            counters()["catalog.funnel.kept"] += len(result.entries)

        def realized(args, kwargs, result):
            counters()["catalog.distinct_subspaces"] += len(set(result.values()))

        return {
            "algebra.basis_in_degree": basis,
            "invariants.finiteness_window": window,
            "derivations.der_basis": der_basis,
            "derivations.boundary_matrix": boundary,
            "linalg.HomologySlice": homology_slice,
            "catalog.enumerate_fibrations": kept,
            "catalog.Catalog.realized_subspaces": realized,
        }

    # --- results --------------------------------------------------------

    def self_times(self) -> list[float]:
        spans = self.spans
        own = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self, op_ids: range, wall: float) -> dict[str, float]:
        """Per-layer values of this pass; ``op_ids`` are the timed operations."""
        own = self.self_times()
        self_by_name: Counter = Counter()
        calls: Counter = Counter()
        covered = 0.0
        for s, t in zip(self.spans, own):
            if s[4] in op_ids:
                self_by_name[s[0]] += t
                calls[s[0]] += 1
                covered += t
        total = Counter()
        for i in op_ids:
            total.update(self.counters[i])

        def self_s(span: str) -> float:
            return sum(t for n, t in self_by_name.items() if n == span or n.startswith(span + "."))

        out = {"trace.coverage": covered / wall if wall else 0.0}
        for m in MODULES:
            out[f"{m}.self_s"] = self_s(m)
        for name in TIMED:
            span = SPAN_OF.get(name, name)
            out[f"{name}.calls"] = calls[span]
            out[f"{name}.self_s"] = self_s(span)
            if name in DISTINCT:
                label = f"{name}.{DISTINCT[name]}"
                out[label] = total[label]
                out[f"{name}.useful_ratio"] = total[label] / calls[span] if calls[span] else 0.0
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self_s(SPAN_OF.get(name, name))
        for name, _ in COUNTERS:
            out[name] = total[name]
        return out

    def write(self, path, origin: float) -> None:
        """Spans as JSON lines: a header, then [name, start, end, parent, op]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            header = {
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "ops": self.ops,
                "counters": [dict(c) for c in self.counters],
            }
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                row = [name, round(start - origin, 6), round(end - origin, 6), parent, op]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
