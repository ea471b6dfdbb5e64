"""Spans and counters around the public functions of each utchar module,
installed from outside the program.

A span records name, start, end and parent (the span open when it began);
spans stay in memory in flat arrays and are written out once, at the end of
a run.  Hot element operations (field and cyclotomic arithmetic, matrix and
group products, functional evaluations and actions) would cost more to span
than they take, so they are only counted.

`from .algebra import rref` binds a second name for the same function, so a
wrapper is bound to every name, in every utchar namespace (and the values of
module-level dicts such as `cli.COMMANDS`), that refers to the original.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

# (metric prefix, module, qualified name).  The prefix's first part is the
# layer; a longer prefix also gets its own self time.
SPANS = (
    ("scalars", "scalars", "field_make"),
    ("scalars", "scalars", "cyclotomic_polynomial"),
    ("scalars", "scalars", "root_of_unity_order"),
    ("scalars", "scalars", "AdditiveCharacter.__init__"),
    ("algebra.rref", "algebra", "rref"),
    ("algebra.rref", "algebra", "left_kernel"),
    ("algebra.rref", "algebra", "solution_space"),
    ("algebra.contains", "algebra", "Subspace.contains"),
    ("algebra.contains", "algebra", "Subspace.contains_vector"),
    ("algebra.contains", "algebra", "Subspace.coordinates"),
    ("algebra.ideal_check", "algebra", "ideal_check"),
    ("algebra", "algebra", "Subspace.sum_with"),
    ("algebra", "algebra", "Subspace.restrict_to_zero"),
    ("algebra", "algebra", "NilAlgebra.pattern_algebra"),
    ("algebra", "algebra", "NilAlgebra.from_subspace"),
    ("algebra", "algebra", "NilAlgebra.group_generators"),
    ("algebra", "algebra", "trunc_exp"),
    ("duals.orbit", "duals", "orbit"),
    ("duals", "duals", "Functional.from_entries"),
    ("duals", "duals", "shape"),
    ("duals", "duals", "is_quasi_monomial"),
    ("chain", "chain", "chain_compute"),
    ("chain", "chain", "quasimonomial_kernels"),
    ("characters.group_table", "characters", "GroupTable.__init__"),
    ("characters.group_table", "characters", "GroupTable.inverses"),
    ("characters.group_table", "characters", "GroupTable.mul_table"),
    ("characters.group_table", "characters", "GroupTable.is_abelian"),
    ("characters.induce", "characters", "induce"),
    ("characters.orbit_sum", "characters", "kirillov"),
    ("characters.orbit_sum", "characters", "exp_kirillov"),
    ("characters.orbit_sum", "characters", "supercharacter"),
    ("characters.abelian_dual", "characters", "abelian_dual"),
    ("characters.homomorphism_defect", "characters", "homomorphism_defect"),
    ("characters", "characters", "theta_lambda"),
    ("characters", "characters", "xi"),
    ("exotic.verify", "exotic", "verify_chain_closed_forms"),
    ("exotic.split", "exotic", "abelian_quotient_split"),
    ("exotic.corner", "exotic", "corner_character_analysis"),
    ("exotic", "exotic", "exotic_report"),
    ("exotic", "exotic", "build_regions"),
    ("exotic", "exotic", "closed_form_chain"),
    ("exotic", "exotic", "exotic_functional_parts"),
    ("exotic", "exotic", "exotic_shape"),
    ("exotic", "exotic", "constant_diagonal_algebra"),
    ("cli", "cli", "cmd_chain"),
    ("cli", "cli", "cmd_exotic"),
    ("cli", "cli", "cmd_verify"),
    ("cli", "cli", "cmd_kappa"),
    ("cli", "cli", "cmd_orbit"),
    ("cli", "cli", "cmd_table"),
    ("cli.render", "cli", "render"),
)

# call-count metrics over spanned labels
CALL_COUNTED = {
    "algebra.rref.calls": ("algebra.rref", "algebra.left_kernel",
                           "algebra.solution_space"),
    "algebra.contains.calls": ("algebra.Subspace.contains",
                               "algebra.Subspace.contains_vector",
                               "algebra.Subspace.coordinates"),
    "chain.calls": ("chain.chain_compute",),
}

# (counter, module, qualified name); aliases such as __radd__ = __add__ are
# rebound together with the name listed here.
COUNTERS = (
    ("scalars.field_ops", "scalars", "Field.add"),
    ("scalars.field_ops", "scalars", "Field.neg"),
    ("scalars.field_ops", "scalars", "Field.sub"),
    ("scalars.field_ops", "scalars", "Field.mul"),
    ("scalars.field_ops", "scalars", "Field.inv"),
    ("scalars.field_ops", "scalars", "Field.div"),
    ("scalars.cyclo_ops", "scalars", "CyclotomicNumber.__add__"),
    ("scalars.cyclo_ops", "scalars", "CyclotomicNumber.__sub__"),
    ("scalars.cyclo_ops", "scalars", "CyclotomicNumber.__mul__"),
    ("scalars.cyclo_ops", "scalars", "CyclotomicNumber.scale"),
    ("scalars.cyclo_ops", "scalars", "CyclotomicNumber.conjugate"),
    ("scalars.cyclo_ops", "scalars", "CyclotomicNumber.galois"),
    ("scalars.char_evals", "scalars", "AdditiveCharacter.__call__"),
    ("algebra.matmul", "algebra", "NilMatrix.__matmul__"),
    ("algebra.group_mul", "algebra", "GroupElement.__mul__"),
    ("algebra.group_mul", "algebra", "GroupElement.inverse"),
    ("duals.actions", "duals", "act_left"),
    ("duals.actions", "duals", "act_right"),
    ("duals.actions", "duals", "act_coadjoint"),
    ("duals.evaluations", "duals", "Functional.evaluate"),
    ("duals.evaluations", "duals", "Functional.evaluate_group"),
    ("characters.inner.calls", "characters", "ClassFunction.inner"),
)

# generators whose yielded items are counted
YIELD_COUNTERS = (
    ("algebra.enumerated", "algebra", "NilAlgebra.enumerate_group"),
)

LAYERS = ("scalars", "algebra", "duals", "chain", "characters", "exotic",
          "cli")

# every per-layer metric a traced run reports, with its unit
LAYER_METRICS = {
    "scalars.self_s": "s", "scalars.cyclo_ops": "count",
    "scalars.char_evals": "count", "scalars.field_ops": "count",
    "algebra.self_s": "s", "algebra.matmul": "count",
    "algebra.group_mul": "count", "algebra.rref.calls": "count",
    "algebra.rref.self_s": "s", "algebra.contains.calls": "count",
    "algebra.contains.self_s": "s", "algebra.ideal_check.self_s": "s",
    "algebra.enumerated": "count",
    "duals.self_s": "s", "duals.orbit.self_s": "s",
    "duals.orbit.functionals": "count", "duals.actions": "count",
    "duals.evaluations": "count",
    "chain.self_s": "s", "chain.calls": "count", "chain.steps": "count",
    "chain.gram_entries": "count",
    "characters.self_s": "s", "characters.group_table.self_s": "s",
    "characters.induce.self_s": "s", "characters.induce.group_mul": "count",
    "characters.orbit_sum.self_s": "s",
    "characters.abelian_dual.self_s": "s",
    "characters.homomorphism_defect.self_s": "s",
    "characters.inner.calls": "count",
    "exotic.self_s": "s", "exotic.verify.self_s": "s",
    "exotic.split.self_s": "s", "exotic.corner.self_s": "s",
    "cli.self_s": "s", "cli.render_s": "s", "cli.json_bytes": "bytes",
    "trace.overhead": "ratio", "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
}


def _chain_work(result, extra):
    """chain.steps and chain.gram_entries from a returned ChainResult: step
    i solves a dim(s^{i-1}) x dim(s^{i-1}) Gram system for l^i, then a
    dim(s^{i-1}) x dim(l^i) one for s^i."""
    extra["chain.steps"] += result.d
    for i in range(1, result.d + 1):
        width = result.s_list[i - 1].dim
        extra["chain.gram_entries"] += width * (width + result.l_list[i].dim)


def _orbit_size(result, extra):
    extra["duals.orbit.functionals"] += len(result)


# work measured from the return value of a spanned call
ON_RETURN = {
    "chain.chain_compute": _chain_work,
    "duals.orbit": _orbit_size,
}

# counted calls made inside a span, credited to a metric of that span
ATTRIBUTED = {
    "characters.induce": ("characters.induce.group_mul",
                          ("algebra.GroupElement.__mul__",
                           "algebra.GroupElement.inverse")),
}


class Tracer:
    """Spans and counters for one process.  Span k is (names[k], parents[k],
    starts[k], ends[k]); parent -1 marks a root.  `calls` counts the
    counted labels (for generators: the items yielded); `extra` holds work
    measured from return values."""

    def __init__(self):
        self.labels = []            # span name id -> "module.qualname"
        self.prefix_of = []         # span name id -> metric prefix
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.calls = {}
        self.counter_of = {}        # counted label -> metric
        self.extra = {"chain.steps": 0, "chain.gram_entries": 0,
                      "duals.orbit.functionals": 0,
                      "characters.induce.group_mul": 0}
        self._restore = []

    # -- recording

    def open(self, name_id):
        k = len(self.starts)
        self.names.append(name_id)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(k)
        self.starts.append(perf_counter())
        return k

    def close(self, k):
        self.ends[k] = perf_counter()
        self.stack.pop()

    def name_id(self, label, prefix):
        self.labels.append(label)
        self.prefix_of.append(prefix)
        return len(self.labels) - 1

    def _span(self, fn, label, prefix):
        nid = self.name_id(label, prefix)
        open_, close, calls, extra = self.open, self.close, self.calls, \
            self.extra
        on_return = ON_RETURN.get(label)
        metric, sources = ATTRIBUTED.get(prefix, (None, ()))

        def wrapper(*args, **kwargs):
            before = sum(calls[s] for s in sources) if metric else 0
            k = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(k)
            if on_return:
                on_return(result, extra)
            if metric:
                extra[metric] += sum(calls[s] for s in sources) - before
            return result
        return wrapper

    def _counter(self, fn, label):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _yield_counter(self, fn, label):
        calls = self.calls

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                calls[label] += 1
                yield item
        return wrapper

    # -- installation

    def install(self, package="utchar"):
        """Wrap every name in SPANS, COUNTERS and YIELD_COUNTERS inside the
        imported `package` modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        plans = ([("span", prefix, mod, qual) for prefix, mod, qual in SPANS]
                 + [("count", metric, mod, qual)
                    for metric, mod, qual in COUNTERS]
                 + [("yield", metric, mod, qual)
                    for metric, mod, qual in YIELD_COUNTERS])
        for kind, metric, mod, qual in plans:
            label = f"{mod}.{qual}"
            module = sys.modules[f"{package}.{mod}"]
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if kind == "span":
                wrapper = self._span(fn, label, metric)
            else:
                self.calls[label] = 0
                self.counter_of[label] = metric
                make = self._counter if kind == "count" else \
                    self._yield_counter
                wrapper = make(fn, label)
            wrapper.__wrapped__ = fn
            new = classmethod(wrapper) if isinstance(raw, classmethod) \
                else wrapper
            self._rebind(owner, raw, new)
            for m in modules:
                self._rebind(m, fn, wrapper)

    def _rebind(self, namespace, old, new):
        for attr, value in list(vars(namespace).items()):
            if value is old:
                self._restore.append((namespace, attr, value))
                setattr(namespace, attr, new)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in value.items():
                    if item is old:
                        self._restore.append((value, key, item))
                        value[key] = new

    def uninstall(self):
        for target, key, value in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._restore.clear()

    # -- reporting

    def unreached(self):
        """Wrapped labels never called so far."""
        spanned = set(self.names)
        return sorted([label for nid, label in enumerate(self.labels)
                       if nid not in spanned]
                      + [label for label, n in self.calls.items() if not n])

    def counters(self):
        """Counter metrics accumulated so far."""
        out = dict(self.extra)
        for label, n in self.calls.items():
            metric = self.counter_of[label]
            out[metric] = out.get(metric, 0) + n
        return out

    def write(self, path, pass_starts):
        """Write every span, gzip-compressed JSON, with the index of the
        first span of each traced pass."""
        data = {"labels": self.labels, "pass_starts": pass_starts,
                "names": self.names.tolist(),
                "parents": self.parents.tolist(),
                "starts": self.starts.tolist(), "ends": self.ends.tolist()}
        with gzip.open(path, "wt") as handle:
            json.dump(data, handle, separators=(",", ":"))


def self_times(parents, starts, ends, lo=0, hi=None):
    """Self time of spans lo..hi-1: duration minus the part of the span that
    its children cover (children are merged, so overlaps count once)."""
    hi = len(starts) if hi is None else hi
    children = {}
    for k in range(lo, hi):
        p = parents[k]
        if p >= lo:
            children.setdefault(p, []).append((starts[k], ends[k]))
    out = []
    for k in range(lo, hi):
        covered, reach = 0.0, float("-inf")
        for s, e in sorted(children.get(k, ())):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append(ends[k] - starts[k] - covered)
    return out


def _self_metric(prefix):
    # the render category's self time is reported as cli.render_s
    return "cli.render_s" if prefix == "cli.render" else f"{prefix}.self_s"


def layer_metrics(tracer, lo, hi):
    """Self time by layer and by category, and the CALL_COUNTED metrics,
    for spans lo..hi-1.  A layer's self time includes its categories'."""
    call_metric = {label: metric for metric, labels in CALL_COUNTED.items()
                   for label in labels}
    out = {metric: 0 for metric in CALL_COUNTED}
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    out.update({_self_metric(prefix): 0.0
                for prefix, _, _ in SPANS if "." in prefix})
    selfs = self_times(tracer.parents, tracer.starts, tracer.ends, lo, hi)
    for k, dt in zip(range(lo, hi), selfs):
        nid = tracer.names[k]
        prefix = tracer.prefix_of[nid]
        layer = prefix.partition(".")[0]
        out[f"{layer}.self_s"] += dt
        if prefix != layer:
            out[_self_metric(prefix)] += dt
        metric = call_metric.get(tracer.labels[nid])
        if metric:
            out[metric] += 1
    return out
