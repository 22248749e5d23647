"""Span tracing of relheat from outside the package.

`Tracer.install()` replaces relheat's public entry points with timing
wrappers at every name where a caller looks them up: each module attribute
bound to the original function, and the class attribute for methods.
Nothing under `src/` is edited.  Each call records one span
`(name, start, end, parent)`, where `parent` is the index of the span that
was open when the call began, or -1.  Counters are updated at the same
boundary.  Spans stay in memory until `write()`.

Calls made inside pool workers are not recorded: a forked worker inherits
the wrappers, which call straight through when the process is not the one
that installed them.
"""

import json
import os
import time

# (span name, module, attribute); the attribute may be "Class.method"
TARGETS = (
    ("specfun.kanter", "specfun", "kanter_factor"),
    ("specfun.tail_series", "specfun", "stable_density_tail_series"),
    ("sampler.subordinator", "sampler", "sample_tempered_subordinator"),
    ("sampler.stable_draw", "sampler", "sample_stable_subordinator"),
    ("sampler.leg", "sampler", "sample_brownian_leg"),
    ("geometry.contains", "geometry", "Ball.contains"),
    ("geometry.contains", "geometry", "HalfSpace.contains"),
    ("geometry.sample_layer", "geometry", "Ball.sample_layer"),
    ("kernels.theta_build", "kernels", "_build_theta_evaluator"),
    ("kernels.build_table", "kernels", "build_table"),
    ("kernels.profile_batch", "kernels", "_profile_batch"),
    ("kernels.table_eval", "kernels", "table_eval"),
    ("kernels.free_density", "kernels", "free_density"),
    ("kernels.c1_of_t", "kernels", "c1_of_t"),
    ("tracelab.z_trace", "tracelab", "z_trace"),
    ("tracelab.c2_of_t", "tracelab", "c2_of_t"),
    ("tracelab.c4_const", "tracelab", "c4_const"),
    ("tracelab.r_estimate", "tracelab", "r_estimate"),
    ("cli.main", "cli", "main"),
    ("io.write_rows", "io", "write_rows"),
)

LAYERS = ("specfun", "sampler", "geometry", "kernels", "tracelab", "cli", "io")


def _size(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) else 1


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent]
        self.counts = {}
        self._stack = []
        self._undo = []
        self._pid = os.getpid()

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- recording ---------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self):
        """Name of the span that encloses the currently open one."""
        if len(self._stack) < 2:
            return None
        return self.spans[self.spans[self._stack[-1]][3]][0]

    def wrap(self, name, fn, after=None):
        """Timing wrapper; `after(tracer, args, kwargs, result)` updates counts."""
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
            finally:
                tracer.close(index)

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target at each place relheat looks it up."""
        import relheat
        from relheat import cli, geometry, io, kernels, sampler, specfun, tracelab

        modules = {
            "specfun": specfun, "sampler": sampler, "geometry": geometry,
            "kernels": kernels, "tracelab": tracelab, "cli": cli, "io": io,
        }
        everywhere = [relheat, *modules.values()]
        for name, mod_name, attr in TARGETS:
            after = _AFTER.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[mod_name], cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, orig, after))
                continue
            orig = getattr(modules[mod_name], attr)
            wrapper = self.wrap(name, orig, after)
            for mod in everywhere:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)
        self._set(tracelab, "ProcessPoolExecutor", _traced_pool(self, tracelab.ProcessPoolExecutor))
        self._tables = kernels._TABLE_CACHE
        self._tables_seen = len(self._tables)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _traced_pool(tracer, base):
    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            self._span = tracer.open("tracelab.pool")
            tracer.count("tracelab.pool_starts")
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                if self._span is not None:
                    tracer.close(self._span)
                    self._span = None

    return TracedPool


def _count_draws(tracer, args, kwargs, result):
    tracer.count("sampler.path_steps", _size(result))


def _count_proposals(tracer, args, kwargs, result):
    tracer.count("sampler.proposals", _size(result))


def _count_points(tracer, args, kwargs, result):
    tracer.count("geometry.points_tested", _size(args[1]))


def _count_table(tracer, args, kwargs, result):
    # build_table returns cached tables too; a build is a new cache entry
    size = len(tracer._tables)
    tracer.count("kernels.table_builds", size - tracer._tables_seen)
    tracer._tables_seen = size


def _count_eval(tracer, args, kwargs, result):
    tracer.count("kernels.table_eval_points", _size(args[2]))


def _count_batch(tracer, args, kwargs, result):
    # radii beyond a table's last node fall through to _profile_batch from
    # inside table_eval; the batch calls made by build_table are not far field
    if tracer.parent_name() == "kernels.table_eval":
        tracer.count("kernels.farfield_points", _size(result))


def _count_call(key):
    def after(tracer, args, kwargs, result):
        tracer.count(key)

    return after


def _count_bytes(tracer, args, kwargs, result):
    tracer.count("io.bytes", os.path.getsize(result))


_AFTER = {
    "specfun.kanter": _count_call("specfun.kanter_calls"),
    "specfun.tail_series": _count_call("specfun.tail_series_calls"),
    "sampler.subordinator": _count_draws,
    "sampler.stable_draw": _count_proposals,
    "geometry.contains": _count_points,
    "kernels.build_table": _count_table,
    "kernels.table_eval": _count_eval,
    "kernels.profile_batch": _count_batch,
    "tracelab.r_estimate": _count_call("tracelab.r_estimate_calls"),
    "io.write_rows": _count_bytes,
}


# -- analysis ---------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts):
    """Per-layer metrics from one traced round (values only; units live in
    BENCHMARK.json)."""
    selfs = self_times(spans)
    total = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _), s in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (end - start)
        layer_self[name.split(".")[0]] += s
    estimator = sum(end - start for name, start, end, parent in spans if parent == -1)
    steps = counts.get("sampler.path_steps", 0)
    proposals = counts.get("sampler.proposals", 0)
    t = total.get
    c = counts.get
    return {
        "specfun.kanter_calls": c("specfun.kanter_calls", 0),
        "specfun.kanter_s": t("specfun.kanter", 0.0),
        "specfun.tail_series_calls": c("specfun.tail_series_calls", 0),
        "specfun.tail_series_s": t("specfun.tail_series", 0.0),
        "specfun.self_s": layer_self["specfun"],
        "sampler.subordinator_s": t("sampler.subordinator", 0.0),
        "sampler.leg_s": t("sampler.leg", 0.0),
        "sampler.path_steps": steps,
        "sampler.proposals": proposals,
        "sampler.acceptance": steps / proposals if proposals else 0.0,
        "sampler.self_s": layer_self["sampler"],
        "geometry.contains_s": t("geometry.contains", 0.0),
        "geometry.points_tested": c("geometry.points_tested", 0),
        "geometry.sample_layer_s": t("geometry.sample_layer", 0.0),
        "geometry.self_s": layer_self["geometry"],
        "kernels.theta_build_s": t("kernels.theta_build", 0.0),
        "kernels.table_builds": c("kernels.table_builds", 0),
        "kernels.build_table_s": t("kernels.build_table", 0.0),
        "kernels.table_eval_s": t("kernels.table_eval", 0.0),
        "kernels.table_eval_points": c("kernels.table_eval_points", 0),
        "kernels.farfield_points": c("kernels.farfield_points", 0),
        "kernels.free_density_s": t("kernels.free_density", 0.0) + t("kernels.c1_of_t", 0.0),
        "kernels.self_s": layer_self["kernels"],
        "tracelab.self_s": layer_self["tracelab"],
        "tracelab.r_estimate_calls": c("tracelab.r_estimate_calls", 0),
        "tracelab.path_steps_per_s": steps / estimator if estimator > 0 else 0.0,
        "tracelab.pool_starts": c("tracelab.pool_starts", 0),
        "tracelab.pool_s": t("tracelab.pool", 0.0),
        "cli.self_s": layer_self["cli"],
        "io.write_s": t("io.write_rows", 0.0),
        "io.bytes": c("io.bytes", 0),
        "io.self_s": layer_self["io"],
        "trace.spans": len(spans),
    }
