"""gwlocal benchmark: runs the workloads and reports their metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one process
    python3 perfbench/run.py --self-test             # one pass each, checks the harness

Runs the named workload for about ``--seconds`` seconds, one query at a
time, and checks every returned value against its pinned exact value.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when
every query was correct, 1 when one failed, 2 when the package cannot be
found or imported.

The package is run from ``src`` of the checkout this file sits in, with no
install.  Children get private cache directories under ``.bench_tmp``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
from tracing import layer_totals
from workloads import WORKLOADS, command_ok, command_pin_conflicts, pin_conflicts, query_ok

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 3
# seconds between calibration samples (about 2 ms each): in pass runners,
# in CLI commands (0.1 to 0.3 s each) and in set-up imports (about 0.05 s)
PASS_INTERVAL_S = 0.05
COMMAND_INTERVAL_S = 0.02
IMPORT_INTERVAL_S = 0.01
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "graphs.enumerate_s": "s",
    "graphs.classes": "count",
    "graphs.share_pct": "%",
    "localization.evaluate_s": "s",
    "localization.eval_per_class_us": "us",
    "localization.weight_vectors": "count",
    "localization.resamples": "count",
    "localization.pools_started": "count",
    "localization.pool_tasks": "count",
    "localization.pool_bytes": "bytes",
    "localization.pool_speedup": "x",
    "localization.share_pct": "%",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.share_pct": "%",
    "relations.self_s": "s",
    "relations.share_pct": "%",
    "cli.startup_s": "s",
    "cli.main_self_s": "s",
    "cli.commands": "count",
    "cli.share_pct": "%",
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The package under test could not be found or imported."""


@dataclass
class Proc:
    """A finished child.  Wall and CPU exclude the calibration samples it
    reported, which are kept in ``calibration``."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    calibration: list = field(default_factory=list)


@dataclass
class Pass:
    """One pass: its wall, CPU and peak RSS, per-query latency and verdict."""

    wall: float
    cpu: float
    rss_mb: float
    latencies: list
    ok: list
    spans: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    calibration: list = field(default_factory=list)


class Runner:
    """Starts children hermetically: ``src`` first on ``PYTHONPATH``, cache
    and temp directories private to this run, inside the checkout."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        # imports read cached bytecode, as an installed package's do
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["GW_CACHE_DIR"] = str(self.fresh_dir("env-cache"))
        env["XDG_CACHE_HOME"] = str(self.fresh_dir("xdg-cache"))
        env["TMPDIR"] = str(self.fresh_dir("tmp"))
        self.env = env
        self._stderr = tempfile.TemporaryFile(dir=scratch)

    def fresh_dir(self, prefix):
        return Path(tempfile.mkdtemp(prefix=prefix + "-", dir=self.scratch))

    def close(self):
        self._stderr.close()

    def spawn(self, argv) -> Proc:
        """Run ``argv`` to completion; CPU and peak RSS include every
        descendant the child waited for (its pool workers)."""
        self._stderr.seek(0)
        self._stderr.truncate()
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        cpu = usage.ru_utime + usage.ru_stime
        self._stderr.seek(0)
        lines, samples = [], []
        for line in self._stderr.read().decode(errors="replace").splitlines(keepends=True):
            if not line.startswith(calibrate.MARKER):
                lines.append(line)
                continue
            record = json.loads(line[len(calibrate.MARKER):])
            wall -= record["wall"]
            cpu -= record["cpu"]
            samples += record["samples"]
        return Proc(
            wall, cpu, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status),
            out.decode(), "".join(lines), samples,
        )


def _child(runner, spec) -> tuple:
    proc = runner.spawn([sys.executable, str(HERE / "child.py"), json.dumps(spec)])
    if proc.code != 0:
        print(f"pass runner exited {proc.code}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return proc, None
    return proc, json.loads(proc.stdout.splitlines()[-1])


def engine_pass(runner, workload, seeds, bad, trace=False, jobs=None, interval=0) -> Pass:
    spec = {
        "queries": [q.spec() for q in workload.queries],
        "seeds": seeds,
        "jobs": jobs or workload.jobs,
        "trace": trace,
        "calibrate": interval,
    }
    proc, data = _child(runner, spec)
    if data is None:
        n = len(workload.queries)
        return Pass(proc.wall, proc.cpu, proc.rss_mb, [proc.wall] * n, [False] * n)
    results = data["results"]
    ok = [
        query_ok(q, r) and i not in bad
        for i, (q, r) in enumerate(zip(workload.queries, results))
    ]
    for q, r in zip(workload.queries, results):
        if r["error"]:
            print(f"query {q.spec()} failed: {r['error']}", file=sys.stderr)
    return Pass(
        proc.wall, proc.cpu, proc.rss_mb, [r["seconds"] for r in results], ok, data["spans"],
        calibration=proc.calibration,
    )


def _argv(command, cache_dir, seed):
    return [*command.argv, "--cache-dir", str(cache_dir), "--seed", str(seed)]


def cli_subprocess_pass(runner, workload, seed, bad, interval=0) -> Pass:
    """Each command as ``python -m gwlocal`` (through ``command.py``, which
    adds the calibration samples) against a fresh cache dir."""
    cache_dir = runner.fresh_dir("cache")
    procs = [
        runner.spawn([
            sys.executable, str(HERE / "command.py"), str(interval), *_argv(c, cache_dir, seed),
        ])
        for c in workload.commands
    ]
    ok = [
        command_ok(c, p.code, p.stdout) and i not in bad
        for i, (c, p) in enumerate(zip(workload.commands, procs))
    ]
    for c, p, good in zip(workload.commands, procs, ok):
        if not good:
            detail = p.stderr.strip()[-500:]
            print(f"command {' '.join(c.argv)} exited {p.code}: {detail}", file=sys.stderr)
    return Pass(
        sum(p.wall for p in procs), sum(p.cpu for p in procs), max(p.rss_mb for p in procs),
        [p.wall for p in procs], ok, outputs=[p.stdout for p in procs],
        calibration=[x for p in procs for x in p.calibration],
    )


def cli_inprocess_pass(runner, workload, seed, bad, trace) -> Pass:
    """Every command through ``gwlocal.cli.main`` in one fresh interpreter."""
    cache_dir = runner.fresh_dir("cache")
    spec = {"argvs": [_argv(c, cache_dir, seed) for c in workload.commands], "trace": trace}
    proc, data = _child(runner, spec)
    n = len(workload.commands)
    if data is None:
        return Pass(proc.wall, proc.cpu, proc.rss_mb, [proc.wall] * n, [False] * n)
    results = data["results"]
    ok = [
        command_ok(c, r["code"], r["stdout"]) and i not in bad
        for i, (c, r) in enumerate(zip(workload.commands, results))
    ]
    return Pass(
        proc.wall, proc.cpu, proc.rss_mb, [r["seconds"] for r in results], ok,
        data["spans"], [r["stdout"] for r in results],
    )


def repeat(step, seconds, at_least):
    """Call ``step`` at least ``at_least`` times, and again while another
    call of average length still fits in ``seconds``."""
    done, start = [], time.perf_counter()
    while True:
        done.append(step())
        elapsed = time.perf_counter() - start
        if len(done) >= at_least and elapsed + elapsed / len(done) > seconds:
            return done


def setup_sample(runner) -> Proc:
    """A fresh interpreter that finishes ``import gwlocal``; its wall time,
    calibration samples taken out."""
    proc = runner.spawn([sys.executable, str(HERE / "import_gwlocal.py"), str(IMPORT_INTERVAL_S)])
    if proc.code != 0:
        raise SetupError(f"import gwlocal failed: {proc.stderr.strip()}")
    return proc


def scaled_mean(values, samples):
    """Mean of ``values`` at the reference speed (see ``calibrate.py``)."""
    return statistics.fmean(values) * calibrate.speed(samples)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    passes: int
    notes: list


def _tally(passes):
    verdicts = [v for p in passes for v in p.ok]
    return len(verdicts), verdicts.count(False)


def untraced(runner, workload, seed, seconds, min_passes) -> Outcome:
    """Passes back to back, each after one set-up sample, until ``seconds``
    are used.  Time metrics are scaled to the reference speed by the
    calibration samples the same children took (see ``calibrate.py``):
    the mean pass, and the median set-up."""
    seeds = [seed, seed + 1, seed + 2]
    start = time.perf_counter()
    setup_sample(runner)  # may compile bytecode; not counted
    setup = [setup_sample(runner) for _ in range(SETUP_REPEATS)]
    if workload.is_cli:
        bad = command_pin_conflicts(workload.commands, seed, _gwlocal())
        one_pass = functools.partial(
            cli_subprocess_pass, runner, workload, seed, bad, interval=COMMAND_INTERVAL_S
        )
    else:
        bad = pin_conflicts(workload.queries, seed, _gwlocal())
        one_pass = functools.partial(
            engine_pass, runner, workload, seeds, bad, interval=PASS_INTERVAL_S
        )

    def step():
        setup.append(setup_sample(runner))
        return one_pass()

    passes = repeat(step, seconds - (time.perf_counter() - start), min_passes)
    pass_samples = [x for p in passes for x in p.calibration]
    setup_samples = [x for s in setup for x in s.calibration]
    walls = [p.wall for p in passes]
    metrics = {
        "setup_s": statistics.median(s.wall for s in setup) * calibrate.speed(setup_samples),
        "pass_s": scaled_mean(walls, pass_samples),
        "cpu_s": scaled_mean([p.cpu for p in passes], pass_samples),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    q1, q2, q3 = quartiles(walls)
    notes = [
        f"unscaled pass wall median {q2:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
        f"{len(passes)} passes",
        f"speed factor {calibrate.speed(pass_samples):.4f} over {len(pass_samples)} samples "
        f"(set-up {calibrate.speed(setup_samples):.4f} over {len(setup_samples)})",
    ]
    latencies = sorted(t for p in passes for t in p.latencies)
    n = len(latencies)
    notes.append(f"cmd_p50_s {statistics.median(latencies):.4f} s over {n} samples")
    if n - int(0.9 * n) >= 10:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        notes.append(f"cmd_p90_s {p90:.4f} s over {n} samples")
    else:
        notes.append(f"cmd_p90_s not reported: {n} samples leave fewer than 10 beyond p90")
    attempted, failed = _tally(passes)
    notes.append(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    return Outcome(metrics, attempted, failed, len(passes), notes)


def traced_round(runner, workload, seed, bad):
    """Untraced and traced passes back to back, and the per-layer numbers of
    the traced one.  ``cli-cache`` also runs its subprocess pass, for
    start-up time; a pool workload also runs at jobs=1, for the speed-up."""
    seeds = [seed, seed + 1, seed + 2]
    speedup = 1.0
    if workload.is_cli:
        user = cli_subprocess_pass(runner, workload, seed, bad)
        base = cli_inprocess_pass(runner, workload, seed, bad, trace=False)
        traced = cli_inprocess_pass(runner, workload, seed, bad, trace=True)
        passes = [user, base, traced]
        startup = [u - b for u, b in zip(user.latencies, base.latencies)]
    else:
        base = engine_pass(runner, workload, seeds, bad)
        traced = engine_pass(runner, workload, seeds, bad, trace=True)
        passes = [base, traced]
        startup = []
        if workload.jobs > 1:
            serial = engine_pass(runner, workload, seeds, bad, jobs=1)
            passes.append(serial)
            speedup = sum(serial.latencies) / sum(base.latencies)
    t = layer_totals(traced.spans)
    # shares of the traced pass itself, with each command's start-up added
    # back when the commands ran in one interpreter
    ref = traced.wall + sum(startup)
    main_and_startup = t["main_self_s"] + sum(startup)
    metrics = {
        "graphs.enumerate_s": t["enumerate_s"],
        "graphs.classes": t["classes"],
        "graphs.share_pct": 100 * t["enumerate_s"] / ref,
        "localization.evaluate_s": t["evaluate_s"],
        "localization.eval_per_class_us": (
            1e6 * t["evaluate_s"] / t["class_vectors"] if t["class_vectors"] else 0
        ),
        "localization.weight_vectors": t["weight_vectors"],
        "localization.resamples": t["resamples"],
        "localization.pools_started": t["pools_started"],
        "localization.pool_tasks": t["pool_tasks"],
        "localization.pool_bytes": t["pool_bytes"],
        "localization.pool_speedup": speedup,
        "localization.share_pct": 100 * t["localization_s"] / ref,
        "cache.get_s": t["cache_get_s"],
        "cache.put_s": t["cache_put_s"],
        "cache.hits": t["cache_hits"],
        "cache.misses": t["cache_misses"],
        "cache.share_pct": 100 * (t["cache_get_s"] + t["cache_put_s"]) / ref,
        "relations.self_s": t["relations_self_s"],
        "relations.share_pct": 100 * t["relations_self_s"] / ref,
        "cli.startup_s": statistics.median(startup) if startup else 0,
        "cli.main_self_s": t["main_self_s"],
        "cli.commands": t["commands"],
        "cli.share_pct": 100 * main_and_startup / ref,
        "trace.overhead_s": traced.wall - base.wall,
    }
    return metrics, passes


def traced(runner, workload, seed, seconds) -> Outcome:
    if workload.is_cli:
        bad = command_pin_conflicts(workload.commands, seed, _gwlocal())
    else:
        bad = pin_conflicts(workload.queries, seed, _gwlocal())
    rounds = repeat(lambda: traced_round(runner, workload, seed, bad), seconds, 1)
    metrics = {name: statistics.median(m[name] for m, _ in rounds) for name in PER_LAYER_UNITS}
    passes = [p for _, ps in rounds for p in ps]
    attempted, failed = _tally(passes)
    counts = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]
    steady = all(len({m[name] for m, _ in rounds}) == 1 for name in counts)
    notes = [
        f"{len(rounds)} traced rounds; counts {'identical' if steady else 'DIFFER'} across rounds",
        f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})",
    ]
    return Outcome(metrics, attempted, failed, len(rounds), notes)


def _gwlocal():
    """The package under test, for the oracle cross-checks."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gwlocal

    if Path(gwlocal.__file__).resolve().parent != SRC / "gwlocal":
        raise SetupError(f"imported gwlocal from {gwlocal.__file__}, not from {SRC}")
    return gwlocal


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_workload(runner, workload, seed, seconds, trace, min_passes=MIN_PASSES):
    load_before = os.getloadavg()
    if trace:
        outcome = traced(runner, workload, seed, seconds)
    else:
        outcome = untraced(runner, workload, seed, seconds, min_passes)
    load_after = os.getloadavg()
    nproc = os.cpu_count()
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(bool(trace)),
        "rounds" if trace else "passes": outcome.passes,
        "python": platform.python_version(),
        "nproc": nproc,
        "git_sha": _git_sha(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "noisy": max(load_before[0], load_after[0]) > nproc,
    }
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    print(f"== {workload.name}  seed {seed}  trace {int(bool(trace))}")
    for name, value in outcome.metrics.items():
        print(f"  {name:34s} {value:16.6f} {units[name]}")
    for note in outcome.notes:
        print(f"  {note}")
    print("record " + json.dumps(record))
    return outcome


def self_test(runner, seed):
    """One pass of every workload, traced and untraced: every metric in
    BENCHMARK.json must be emitted with its unit, every query must pass,
    and the gate must reject a value the test corrupts."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS.values():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            outcome = run_workload(runner, workload, seed, 0, trace, min_passes=1)
            units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
            for metric in spec[section]:
                name, unit = metric["name"], metric["unit"]
                if outcome.metrics.get(name) is None or units.get(name) != unit:
                    problems.append(f"{workload.name}: {name} [{unit}] not emitted")
            if outcome.failed:
                problems.append(f"{workload.name} trace {trace}: {outcome.failed} queries failed")
    unknown = [w["name"] for w in spec["workloads"] if w["name"] not in WORKLOADS]
    if unknown:
        problems.append(f"BENCHMARK.json names undefined workloads {unknown}")

    plane = WORKLOADS["plane-points"]
    good = engine_pass(runner, plane, [seed, seed + 1, seed + 2], set())
    wrong = {"value": str(plane.queries[0].expected + 1), "error": None}
    if not all(good.ok) or query_ok(plane.queries[0], wrong):
        problems.append("engine gate did not reject a corrupted value")
    cli = WORKLOADS["cli-cache"]
    good = cli_inprocess_pass(runner, cli, seed, set(), trace=False)
    for command, stdout in zip(cli.commands, good.outputs):
        corrupted = stdout.replace("2875", "2876", 1)
        if corrupted != stdout and command_ok(command, 0, corrupted):
            problems.append(f"cli gate accepted corrupted output of {' '.join(command.argv)}")
    if not all(good.ok):
        problems.append("cli gate rejected correct output")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def _metrics_json(metrics, units, prefix=""):
    return {prefix + name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still stops its children and removes its directories
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "gwlocal" / "__init__.py").is_file():
        print(f"benchmark: no package at {SRC / 'gwlocal'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_tmp"))
    runner = Runner(scratch)
    try:
        if args.self_test:
            return self_test(runner, args.seed)
        chosen = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
        units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        metrics, attempted, failed = {}, 0, 0
        for workload in chosen:
            outcome = run_workload(runner, workload, args.seed, args.seconds, args.trace)
            prefix = f"{workload.name}." if len(chosen) > 1 else ""
            metrics.update(_metrics_json(outcome.metrics, units, prefix))
            attempted += outcome.attempted
            failed += outcome.failed
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
