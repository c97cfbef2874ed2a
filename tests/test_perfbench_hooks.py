"""The benchmark's tracer still finds every name it rebinds in the package.

``perfbench/tracing.py`` records spans by rebinding names in ``localization``,
``cache`` and ``cli``.  A rename in the package would break it silently
until the long ``perfbench/run.py --self-test``; this runs the tracer on one
query by shape and one by class, serially and through the pool, and one
pooled query whose seeds resample, and checks that a pooled call starts one
pool, that only the class sum enumerates classes, and that weights are
sampled outside the pool, resampled ones too.
"""

import sys
from fractions import Fraction
from pathlib import Path

from gwlocal import CITarget, cache, cli, localization

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# every name tracing.instrument rebinds; pinned first so teardown restores them
REBOUND = [
    (localization, "enumerate_graphs"),
    (localization, "sample_weights"),
    (localization, "ProcessPoolExecutor"),
    (cache.ResultCache, "get"),
    (cache.ResultCache, "put"),
    (cli, "sum_invariant"),
    (cli, "reproduce_table1"),
    (cli, "bps0_from_gw0"),
    (cli, "wdvv_p2"),
]


def test_tracer_records_engine_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # keep the benchmark's directory free of bytecode
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for owner, name in REBOUND:
        monkeypatch.setattr(owner, name, getattr(owner, name))
    import tracing

    tracer = tracing.Tracer()
    tracing.instrument(tracer)

    def call(target, value, jobs, seeds=(1, 2)):
        # the spans one call records
        before = len(tracer.spans)
        result = localization.sum_invariant(target, seeds=seeds, jobs=jobs)
        assert result.value == value
        return tracer.spans[before:]

    # the quintic has no insertions and is summed by shape (4 at d=3), so it
    # enumerates no class; one pool per call at jobs=2, however many seeds
    # it evaluates
    quintic = CITarget(4, (5,), 3)
    pools_per_call = {}
    for jobs in (1, 2):
        names = [span[tracing.NAME] for span in call(quintic, Fraction(8564575000, 27), jobs)]
        assert "graphs.enumerate" not in names
        assert "localization.sample_weights" in names
        pools_per_call[jobs] = names.count("localization.pool")
    assert pools_per_call == {1: 0, 2: 1}

    # plane cubics through 8 points are summed by class
    spans = call(CITarget(2, (), 3, (2,) * 8), 12, 2)
    enumerations = [s for s in spans if s[tracing.NAME] == "graphs.enumerate"]
    assert [s[tracing.ATTRS]["classes"] for s in enumerations] == [39]

    # on the quintic at d=4, seed 27 draws three vectors and seeds 75 and
    # 191 two each, all before the one pool opens
    spans = call(CITarget(4, (5,), 4), Fraction(15517926796875, 64), 2, seeds=(27, 75, 191))
    names = [span[tracing.NAME] for span in spans]
    assert names.count("localization.sample_weights") == 7
    assert names.count("localization.pool") == 1

    def inside_pool(span):
        while span[tracing.PARENT] is not None:
            span = tracer.spans[span[tracing.PARENT]]
            if span[tracing.NAME] == "localization.pool":
                return True
        return False

    # a span nested in the pool's span is lost to its own layer's totals
    for span in tracer.spans:
        if span[tracing.NAME] in ("localization.sample_weights", "graphs.enumerate"):
            assert not inside_pool(span), span[tracing.NAME]
