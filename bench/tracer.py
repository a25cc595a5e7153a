"""Span recorder that wraps bapkit's public functions from outside the package.

`install()` wraps every public function and method that a module in
LAYERS defines, except the LEAVES below, then swaps the wrapper in wherever the original is reachable: the
module namespaces that imported the name, dict values in module globals
(dispatch tables such as `cli._RUNNERS`) and class attributes for methods.
Generator functions are left alone, because a wrapper would time only the
creation of the generator; their work counts as self time of whoever
iterates them.  So does the work of private `_helpers`.

A span is (name, start, end, parent).  Spans live in flat arrays while the
program runs and are written out once at the end.  Self time is a span's
duration minus the durations of its direct children; total time counts
only the outermost span of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

# The bapkit modules whose public callables become spans, i.e. the layers.
LAYERS = (
    "spaces",
    "linalg",
    "seminorms",
    "polyhedral",
    "operators",
    "embedding",
    "vogt",
    "normability",
    "jsonio",
    "cli",
)

# Per-coordinate accessors, called up to a million times a run.  They stay
# unwrapped, so their cost is self time of the caller (`level_matrix` pays
# for functional evaluation) and tracing costs seconds less.  `scalars` is
# left out of LAYERS for the same reason.
LEAVES = frozenset(
    {
        "spaces.TripleBox.contains",
        "spaces.TripleBox.position",
        "spaces.SingleBox.contains",
        "spaces.SingleBox.position",
        "spaces.TruncatedVector.get",
        "seminorms.apply_functional",
        "seminorms.SeminormSystem.check_level",
        "seminorms.SeminormSystem.check_vector",
    }
)

# Seminorm system kinds whose `value` and `level_terms` methods are summed
# into the `seminorms.value` and `seminorms.level_terms` metrics.
SEMINORM_KINDS = (
    "SeminormSystem",
    "VogtSeminorms",
    "KoetheSeminorms",
    "MaxPrefixSeminorms",
    "CustomSeminorms",
    "SupPartialSumSeminorms",
)

LINALG_FROM_POLYHEDRAL = ("linalg.nullspace", "linalg.solve", "linalg.rank")


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._active: list[int] = []  # open spans per name id
        self.sid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.outer = array("b")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self._balls: set = set()
        self._keep: list = []  # keeps identity-keyed objects alive

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, probe=None):
        nid = self.name_id(name)
        sid, start, end, parent, outer = self.sid, self.start, self.end, self.parent, self.outer
        stack, active, clock = self._stack, self._active, perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(sid)
            sid.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            start.append(0)
            end.append(0)
            stack.append(idx)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[nid] -= 1
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span of the given name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- results -----------------------------------------------------------

    def per_name(self) -> dict:
        """name -> {"calls", "self_ns", "total_ns"} over all recorded spans."""
        n = len(self.sid)
        sid, start, end, parent, outer = self.sid, self.start, self.end, self.parent, self.outer
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        for i in range(n):
            k = sid[i]
            dur = end[i] - start[i]
            calls[k] += 1
            self_ns[k] += dur - child[i]
            if outer[i]:
                total_ns[k] += dur
        return {
            name: {"calls": calls[k], "self_ns": self_ns[k], "total_ns": total_ns[k]}
            for k, name in enumerate(self.names)
        }

    def calls_from(self, caller_layer: str, callees) -> int:
        """Spans named in callees whose direct parent is a span of caller_layer."""
        ids = {self._ids[c] for c in callees if c in self._ids}
        prefix = caller_layer + "."
        callers = {k for k, name in enumerate(self.names) if name.startswith(prefix)}
        return sum(
            1
            for i in range(len(self.sid))
            if self.sid[i] in ids and self.parent[i] >= 0 and self.sid[self.parent[i]] in callers
        )

    def write(self, path: str) -> None:
        """Spans as JSON lines: a header with the names, then one
        [name index, start_ns, end_ns, parent span index] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.sid)}) + "\n")
            for i in range(len(self.sid)):
                fh.write(
                    f"[{self.sid[i]},{self.start[i]},{self.end[i]},{self.parent[i]}]\n"
                )


# -- probes: counters taken at the layer boundary ---------------------------


def _echelon_cells(rec: Recorder, args, kwargs, result) -> None:
    rows = args[0] if args else kwargs["rows"]
    rec.count("linalg.row_echelon.cells", len(rows) * len(rows[0]) if rows else 0)


def _level_matrix_cells(rec: Recorder, args, kwargs, result) -> None:
    rec.count("seminorms.level_matrix.cells", len(result) * len(result[0]) if result else 0)


def _operator_norm_ball(rec: Recorder, args, kwargs, result) -> None:
    """Distinct constraint balls: equal (system, from_level, domain basis)."""
    names = ("system", "to_level", "from_level", "operator", "domain_basis")
    bound = dict(zip(names, args), **kwargs)
    domain = bound.get("domain_basis")
    key = (bound["system"], bound["from_level"], None if domain is None else tuple(domain))
    try:
        hash(key)
    except TypeError:  # an unhashable system counts by identity; keep it alive
        rec._keep.append(key)
        key = ("id",) + tuple(map(id, key))
    rec._balls.add(key)
    rec.counters["polyhedral.balls_distinct"] = len(rec._balls)


PROBES = {
    "linalg.row_echelon": _echelon_cells,
    "seminorms.level_matrix": _level_matrix_cells,
    "polyhedral.graded_operator_norm": _operator_norm_ball,
}


def _public_callables(layer: str, module):
    """(span name, owner, attribute, function, rewrap) for each public callable."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            name = f"{layer}.{attr}"
            if name not in LEAVES and not inspect.isgeneratorfunction(obj):
                yield name, module, attr, obj, None
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for name, raw in list(vars(obj).items()):
                if name.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    fn, rewrap = raw.__func__, type(raw)
                elif inspect.isfunction(raw):
                    fn, rewrap = raw, None
                else:
                    continue  # properties, constants
                full = f"{layer}.{obj.__name__}.{name}"
                if full not in LEAVES and not inspect.isgeneratorfunction(fn):
                    yield full, obj, name, fn, rewrap


def install(rec: Recorder) -> None:
    """Wrap bapkit's public callables in place, wherever they are reachable."""
    wrappers: dict[int, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"bapkit.{layer}"]
        for name, owner, attr, fn, rewrap in _public_callables(layer, module):
            wrapped = rec.wrap(name, fn, PROBES.get(name))
            if inspect.isclass(owner):
                setattr(owner, attr, rewrap(wrapped) if rewrap else wrapped)
            else:
                wrappers[id(fn)] = wrapped
    for modname, module in list(sys.modules.items()):
        if modname != "bapkit" and not modname.startswith("bapkit."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in wrappers:
                        obj[key] = wrappers[id(val)]


# -- per-layer metrics -------------------------------------------------------

_SELF = ("calls", "self_s")
_TOTAL = ("calls", "total_s")

# span (or group of spans) -> the statistics reported for it
_REPORTED = {
    "linalg.row_echelon": _SELF,
    "linalg.mat_vec": _SELF,
    "linalg.mat_mul": _SELF,
    "seminorms.level_matrix": _SELF,
    "seminorms.level_terms": _SELF,
    "seminorms.value": _SELF,
    "seminorms.seminorm_kernel_basis": _TOTAL,
    "polyhedral.polyhedral_sup": _SELF,
    "polyhedral.graded_operator_norm": _TOTAL,
    "operators.FiniteRankOperator.from_matrix": _SELF,
    "operators.FiniteRankOperator.apply": _SELF,
    "operators.build_schedule": ("total_s",),
    "embedding.certify_equicontinuity": ("total_s",),
    "embedding.verify_reconstruction": ("total_s",),
    "embedding.basis_criterion_check": ("total_s",),
    "embedding.embed": _SELF,
    "vogt.norm_positivity_check": ("total_s",),
    "vogt.comparison_inequality_check": ("total_s",),
    "vogt.bap_failure_witness": ("total_s",),
    "normability.dv_condition_check": ("total_s",),
    "normability.basis_sup_norms": ("total_s",),
    "normability.CauchyFamily.from_vectors": _TOTAL,
    "spaces.TruncatedVector.create": _SELF,
    "jsonio.encode": ("total_s",),
    "cli.dump": ("total_s",),
    "cli.run_suite_vogt": ("total_s",),
    "cli.run_suite_pelczynski": ("total_s",),
    "cli.run_suite_normability": ("total_s",),
}

# metric spans that sum one method over every seminorm kind
_GROUPS = {
    "seminorms.level_terms": [f"seminorms.{k}.level_terms" for k in SEMINORM_KINDS],
    "seminorms.value": [f"seminorms.{k}.value" for k in SEMINORM_KINDS],
}

COUNTERS = (
    "linalg.row_echelon.cells",
    "seminorms.level_matrix.cells",
    "polyhedral.balls_distinct",
    "polyhedral.linalg_calls",
)


def layer_metrics(layers: dict, counters: dict) -> dict:
    """Per-layer metrics from `Recorder.per_name()` output and counters.

    Counts are exact integers; times are seconds.  `<layer>.self_s` sums
    the self time of every span of a layer.
    """
    out = {}
    for span, stats in _REPORTED.items():
        members = [layers.get(name, {}) for name in _GROUPS.get(span, [span])]
        for stat in stats:
            key = stat if stat == "calls" else stat.replace("_s", "_ns")
            total = sum(m.get(key, 0) for m in members)
            out[f"{span}.{stat}"] = total if stat == "calls" else total / 1e9
    for key in COUNTERS:
        out[key] = counters.get(key, 0)
    calls = out["polyhedral.graded_operator_norm.calls"]
    balls = out["polyhedral.balls_distinct"]
    out["polyhedral.ball_reuse_ratio"] = calls / balls if balls else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(s["self_ns"] for n, s in layers.items() if n.startswith(layer + ".")) / 1e9
        )
    return out


def call_structure(layers: dict, counters: dict) -> dict:
    """The exact counts of a traced run: calls per span name and counters."""
    structure = {f"{n}.calls": s["calls"] for n, s in sorted(layers.items())}
    structure.update({k: counters.get(k, 0) for k in COUNTERS})
    return structure


def counts(metrics: dict) -> dict:
    """The count metrics of `layer_metrics()`: every one but the times."""
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}
