"""One benchmark pass in a fresh interpreter.

Usage: ``python child.py '<spec json>'`` with ``src`` on ``PYTHONPATH``.
The spec is either ``{"queries": [...], "seeds": [...], "jobs": n}`` (each
query ``[ambient_dim, degrees, curve_degree, insertions]``, run through
``sum_invariant``) or ``{"argvs": [...]}`` (each argv run through
``gwlocal.cli.main`` in this process, output captured).  With
``"trace": true`` the layer boundaries are traced.  With ``"calibrate": t``
a sample of the reference work in ``calibrate.py`` interrupts the work
every ``t`` seconds; the samples are reported on standard error.  Prints
one JSON line: per-query results and, when traced, the spans.
"""

import contextlib
import io
import json
import os
import sys
import time

from calibrate import Sampler, cpu_seconds


def run_queries(spec, tracer):
    from gwlocal.localization import sum_invariant
    from gwlocal.targets import CITarget

    engine = tracer.wrap("localization.sum_invariant", sum_invariant) if tracer else sum_invariant
    results = []
    for i, (n, degrees, d, insertions) in enumerate(spec["queries"]):
        if tracer:
            tracer.query = i
        start, cpu = time.perf_counter(), cpu_seconds()
        try:
            target = CITarget(n, tuple(degrees), d, tuple(insertions))
            result = engine(target, seeds=spec["seeds"], jobs=spec["jobs"])
            value, error = str(result.value), None
        except Exception as exc:  # a failed query is reported, not fatal
            value, error = None, repr(exc)
        results.append({
            "seconds": time.perf_counter() - start, "cpu": cpu_seconds() - cpu,
            "value": value, "error": error,
        })
    return results


def run_commands(spec, tracer):
    from gwlocal import cli

    main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    results = []
    for i, argv in enumerate(spec["argvs"]):
        if tracer:
            tracer.query = i
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        seconds = time.perf_counter() - start
        results.append({"seconds": seconds, "code": code, "stdout": out.getvalue()})
    return results


def main():
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    run = run_commands if "argvs" in spec else run_queries
    interval = spec.get("calibrate", 0)
    if interval and spec.get("jobs", 1) > 1:
        # the pool's workers do the work while this process waits, so they
        # take the samples; a sample here would compete with them for a core
        worker = Sampler(interval, stream=True)
        os.register_at_fork(after_in_child=worker.__enter__)
        interval = 0
    with Sampler(interval) as sampler:
        results = run(spec, tracer)
    sampler.report()
    print(json.dumps({"results": results, "spans": tracer.spans if tracer else []}))


if __name__ == "__main__":
    main()
