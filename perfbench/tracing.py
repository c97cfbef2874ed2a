"""Spans around the calls into each gwlocal layer, recorded from outside the
package.

:func:`instrument` rebinds the names the package's modules call through
(``localization.enumerate_graphs``, ``localization.sample_weights``,
``localization.ProcessPoolExecutor``, ``ResultCache.get``/``put`` and the
``relations`` functions ``cli`` imports) to wrappers that record a span per
call.  Spans stay in memory; the pass runner writes them out when it ends.
:func:`layer_totals` turns the spans of one pass into per-layer numbers.

A span is ``[name, start, end, parent, query, attrs]``: perf_counter
seconds, the index of the enclosing span (or ``None``), the query id the
runner set, and a dict of counts.
"""

from __future__ import annotations

import functools
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

NAME, START, END, PARENT, QUERY, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.query = None
        self._stack = []

    def start(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.query, attrs])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced


def instrument(tracer):
    """Route the package's layer boundaries through ``tracer``."""
    from gwlocal import cache, cli, localization

    enumerate_graphs = localization.enumerate_graphs
    sample_weights = localization.sample_weights

    def traced_enumerate(n, d, k=0):
        span = tracer.start("graphs.enumerate")
        try:
            graphs = tuple(enumerate_graphs(n, d, k))
            span[ATTRS]["classes"] = len(graphs)
            return graphs
        finally:
            tracer.end(span)

    def traced_sample(seed, n, attempt=0):
        span = tracer.start("localization.sample_weights", seed=seed, attempt=attempt)
        try:
            return sample_weights(seed, n, attempt)
        finally:
            tracer.end(span)

    class TracedPool(ProcessPoolExecutor):
        # one span from construction to shutdown; the payload bytes are
        # computed in a trace.* child span so analysis can leave them out
        def __init__(self, *args, **kwargs):
            self._span = tracer.start("localization.pool", tasks=0, bytes=0)
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            book = tracer.start("trace.pool_bytes")
            for args in zip(*iterables):
                self._span[ATTRS]["tasks"] += 1
                self._span[ATTRS]["bytes"] += len(pickle.dumps(args, pickle.HIGHEST_PROTOCOL))
            tracer.end(book)
            return super().map(fn, *iterables, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span[END] is None:
                    tracer.end(self._span)

    get, put = cache.ResultCache.get, cache.ResultCache.put

    def traced_get(self, key):
        span = tracer.start("cache.get")
        try:
            record = get(self, key)
            span[ATTRS]["hit"] = record is not None
            return record
        finally:
            tracer.end(span)

    localization.enumerate_graphs = traced_enumerate
    localization.sample_weights = traced_sample
    localization.ProcessPoolExecutor = TracedPool
    cache.ResultCache.get = traced_get
    cache.ResultCache.put = tracer.wrap("cache.put", put)
    cli.sum_invariant = tracer.wrap("localization.sum_invariant", cli.sum_invariant)
    for name in ("reproduce_table1", "bps0_from_gw0", "wdvv_p2"):
        setattr(cli, name, tracer.wrap(f"relations.{name}", getattr(cli, name)))


def _duration(span):
    return span[END] - span[START]


def layer_totals(spans):
    """Per-layer totals over the spans of one pass.

    Self time is a span's duration minus that of its direct children.
    ``evaluate_s`` is the ``sum_invariant`` time left after enumeration,
    weight sampling and trace bookkeeping; pool time stays in it.
    """
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(i)

    def kids(i, prefix=""):
        return [spans[c] for c in children.get(i, ()) if spans[c][NAME].startswith(prefix)]

    def bookkeeping(i):
        # trace.* spans anywhere below span i
        return sum(
            _duration(spans[c]) if spans[c][NAME].startswith("trace.") else bookkeeping(c)
            for c in children.get(i, ())
        )

    totals = dict.fromkeys(
        (
            "enumerate_s", "classes", "evaluate_s", "localization_s", "class_vectors",
            "weight_vectors", "resamples", "pools_started", "pool_tasks", "pool_bytes",
            "cache_get_s", "cache_put_s", "cache_hits", "cache_misses", "relations_self_s",
            "main_self_s", "commands",
        ),
        0,
    )
    for i, span in enumerate(spans):
        name, attrs = span[NAME], span[ATTRS]
        if name == "graphs.enumerate":
            totals["enumerate_s"] += _duration(span)
            totals["classes"] += attrs["classes"]
        elif name == "localization.sum_invariant":
            enumerations = kids(i, "graphs.enumerate")
            samples = kids(i, "localization.sample_weights")
            vectors = len({s[ATTRS]["seed"] for s in samples})
            own = _duration(span) - sum(map(_duration, enumerations)) - bookkeeping(i)
            totals["localization_s"] += own
            totals["evaluate_s"] += own - sum(map(_duration, samples))
            totals["weight_vectors"] += vectors
            totals["resamples"] += len(samples) - vectors
            totals["class_vectors"] += sum(e[ATTRS]["classes"] for e in enumerations) * vectors
        elif name == "localization.pool":
            totals["pools_started"] += 1
            totals["pool_tasks"] += attrs["tasks"]
            totals["pool_bytes"] += attrs["bytes"]
        elif name == "cache.get":
            totals["cache_get_s"] += _duration(span)
            # a get that raised has no "hit" and counts as a miss
            totals["cache_hits" if attrs.get("hit") else "cache_misses"] += 1
        elif name == "cache.put":
            totals["cache_put_s"] += _duration(span)
        elif name.startswith("relations."):
            totals["relations_self_s"] += _duration(span) - sum(map(_duration, kids(i)))
        elif name == "cli.main":
            totals["main_self_s"] += _duration(span) - sum(map(_duration, kids(i)))
            totals["commands"] += 1
    return totals
