"""In-memory span tracer and the per-layer split computed from its spans.

The tracer replaces, in place, every public function of the traced chbs
modules with a wrapper that records one span per call: name, start, end,
parent span and thread id.  It also wraps the ``splu`` that
``chbs.stepper`` calls, and the ``solve`` of every factorization that
``splu`` returns, so LU work shows as its own spans.  Nothing inside
``src/chbs`` is edited; calls between chbs functions go through module
attributes, so the wrappers see them.

Self time of a span is its duration minus the durations of its direct
children on the same thread, so for every thread the self times of all
spans add up to the durations of that thread's top-level spans.
"""

import functools
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict

ROOT_SPAN = "bench.workload"

# spans whose name is not a plain "<module>.<function>" layer
_LU_FACTOR = "stepper.splu"
_LU_SOLVE = "stepper.lu_solve"
_NEWTON = "stepper.solve_step"


class Tracer:
    """Span recorder; spans stay in memory until the caller writes them."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, thread)
        self.lu_nnz = []         # SuperLU.nnz of every factorization
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.monotonic()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent,
                                   threading.get_ident()))
        return traced

    def _patch(self, module, name, value):
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self, modules, stepper):
        """Wrap the public functions of ``modules`` and stepper's ``splu``."""
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                self._patch(module, name,
                            self.wrap("%s.%s" % (short, name), obj))
        factor = self.wrap(_LU_FACTOR, stepper.splu)

        def splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            self.lu_nnz.append(int(lu.nnz))
            return _TracedLU(self.wrap(_LU_SOLVE, lu.solve))

        self._patch(stepper, "splu", splu)

    def uninstall(self):
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)


class _TracedLU:
    """Stands in for a SuperLU object; the stepper only calls ``solve``."""

    def __init__(self, solve):
        self.solve = solve


def _merge(intervals):
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _gaps(start, end, covered):
    """Parts of [start, end] not covered by the merged ``covered`` list."""
    out, cur = [], start
    for a, b in covered:
        if a > cur:
            out.append([cur, min(a, end)])
        cur = max(cur, b)
    if cur < end:
        out.append([cur, end])
    return out


def _overlap(xs, ys):
    """Total length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if hi > lo:
            total += hi - lo
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_times(spans):
    """Map span id to its self time (duration minus direct children)."""
    child = defaultdict(float)
    for _sid, _name, t0, t1, parent, _tid in spans:
        if parent is not None:
            child[parent] += t1 - t0
    return {sid: (t1 - t0) - child[sid] for sid, _n, t0, t1, _p, _t in spans}


def layer_of(name):
    if name == _LU_FACTOR:
        return "lu_factor"
    if name == _LU_SOLVE:
        return "lu_solve"
    if name == _NEWTON:
        return "newton"
    if name == ROOT_SPAN:
        return "unaccounted"
    module = name.split(".", 1)[0]
    return "stepper_other" if module == "stepper" else module


SHARE_LAYERS = ("lu_factor", "lu_solve", "newton", "stepper_other",
                "graphs", "diskfem", "diagnostics", "cli", "startup",
                "unaccounted")


def _percentile(values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(int(math.ceil(q / 100.0 * len(ordered))) - 1, 0)
    return ordered[k]


def layer_metrics(spans, lu_nnz, main_thread, start):
    """Per-layer metrics of one traced repeat, as ``{name: (value, unit)}``.

    ``lu_nnz`` lists the fill of each factorization.  ``start`` is the
    time the workload process was launched; the root
    span ``bench.workload`` on ``main_thread`` ends when the workload's
    result is complete.  Times are span sums (with children) unless the
    name says ``self``; counts are exact call counts.
    """
    selfs = self_times(spans)
    root = [s for s in spans if s[1] == ROOT_SPAN and s[5] == main_thread]
    if len(root) != 1:
        raise ValueError("expected one root span, found %d" % len(root))
    _, _, root_start, done, _, _ = root[0]

    total = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    for sid, name, t0, t1, _parent, _tid in spans:
        total[name] += t1 - t0
        calls[name] += 1
        own[name] += selfs[sid]

    layer_self = defaultdict(float)
    for name, value in own.items():
        layer_self[layer_of(name)] += value

    # Sweep members run on pool threads while the main thread waits in
    # cli code; that wait is cli self time overlapped by pool-thread work.
    pool_spans = [[t0, t1] for _s, _n, t0, t1, parent, tid in spans
                  if tid != main_thread and parent is None]
    worker_busy = sum((b - a for a, b in pool_spans), 0.0)
    pool_busy = _merge(pool_spans)
    kids = defaultdict(list)
    for _sid, _name, t0, t1, parent, tid in spans:
        if parent is not None and tid == main_thread:
            kids[parent].append([t0, t1])
    pool_wait = 0.0
    for sid, name, t0, t1, _parent, tid in spans:
        if tid == main_thread and layer_of(name) == "cli":
            pool_wait += _overlap(_gaps(t0, t1, _merge(kids[sid])),
                                  pool_busy)

    def span_sum(*names):
        return sum(total[n] for n in names)

    def count(*names):
        return sum(calls[n] for n in names)

    wall = done - start
    startup = root_start - start
    step_ms = [1e3 * (t1 - t0) for _s, name, t0, t1, _p, _t in spans
               if name == _NEWTON]
    n_factor = count(_LU_FACTOR)
    n_solve = count(_LU_SOLVE)

    busy = dict(layer_self)
    busy["cli"] = busy.get("cli", 0.0) - pool_wait
    busy["startup"] = startup
    busy_total = sum(busy.get(k, 0.0) for k in SHARE_LAYERS)

    m = {
        "stepper.lu_factor_count": (n_factor, "count"),
        "stepper.lu_factor_s": (span_sum(_LU_FACTOR), "s"),
        "stepper.lu_fill_nnz": (sum(lu_nnz) / len(lu_nnz) if lu_nnz
                                else 0.0, "nnz"),
        "stepper.lu_solve_count": (n_solve, "count"),
        "stepper.lu_solve_s": (span_sum(_LU_SOLVE), "s"),
        "stepper.self_s": (own[_NEWTON], "s"),
        "stepper.other_self_s": (layer_self["stepper_other"], "s"),
        "stepper.step_p50_ms": (_percentile(step_ms, 50), "ms"),
        "stepper.step_p95_ms": (_percentile(step_ms, 95), "ms"),
        "stepper.checkpoint_s": (span_sum("stepper.save_trajectory"), "s"),
        "stepper.validate_s": (span_sum("stepper.validate"), "s"),
        "graphs.yosida_s": (span_sum("graphs.yosida_bulk",
                                     "graphs.yosida_boundary"), "s"),
        "graphs.yosida_calls": (count("graphs.yosida_bulk",
                                      "graphs.yosida_boundary"), "count"),
        "graphs.yosida_prime_s": (span_sum("graphs.yosida_bulk_prime",
                                           "graphs.yosida_boundary_prime"),
                                  "s"),
        "graphs.yosida_prime_calls": (count("graphs.yosida_bulk_prime",
                                            "graphs.yosida_boundary_prime"),
                                      "count"),
        "graphs.envelope_s": (span_sum("graphs.moreau_envelope"), "s"),
        "graphs.envelope_calls": (count("graphs.moreau_envelope"), "count"),
        "graphs.self_s": (layer_self["graphs"], "s"),
        "diskfem.assemble_calls": (count("diskfem.assemble"), "count"),
        "diskfem.assemble_s": (span_sum("diskfem.assemble"), "s"),
        "diskfem.balance_solve_s": (span_sum("diskfem.inv_neumann_shifted",
                                             "diskfem.inv_shifted_bdry"),
                                    "s"),
        "diskfem.norms_s": (span_sum("diskfem.norms_bulk",
                                     "diskfem.norms_bdry"), "s"),
        "diskfem.self_s": (layer_self["diskfem"], "s"),
        "diagnostics.record_calls": (count("diagnostics.make_record"),
                                     "count"),
        "diagnostics.record_s": (span_sum("diagnostics.make_record"), "s"),
        "diagnostics.record_self_s": (own["diagnostics.make_record"], "s"),
        "diagnostics.trajectory_s": (span_sum(
            "diagnostics.apriori_monitor", "diagnostics.cauchy_distance",
            "diagnostics.obstacle_violation"), "s"),
        "diagnostics.csv_s": (span_sum("diagnostics.write_csv"), "s"),
        "diagnostics.self_s": (layer_self["diagnostics"], "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.pool_wait_s": (pool_wait, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.startup_s": (startup, "s"),
        "trace.unaccounted_s": (own[ROOT_SPAN], "s"),
        "trace.worker_busy_s": (worker_busy, "s"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in SHARE_LAYERS:
        share = 100.0 * busy.get(layer, 0.0) / busy_total
        m["share.%s" % layer] = (share, "%")
    return m
