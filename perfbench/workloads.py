"""Workloads of the gwlocal benchmark, their pinned exact values and the
correctness gate.

Every query carries the exact value it must return.  Certified values do not
depend on the weight seeds, so the pins hold for every workload seed.  Where
the package has an oracle that shares no code with the graph sum (the line
pair-sum for degree 1, WDVV for plane curves through points), the pins are
cross-checked against it at the workload seed as well.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction as F

QUINTIC = {1: F(2875), 2: F(4876875, 8), 3: F(8564575000, 27), 4: F(15517926796875, 64)}
CUBICS_33 = {1: F(1053), 2: F(423549, 8), 3: F(6424365)}
QUADRICS_2222 = {1: F(512), 2: F(9792), 3: F(11239424, 27)}
PLANE_POINTS = {3: F(12), 4: F(620), 5: F(87304)}
QUINTIC_BPS0 = {1: F(2875), 2: F(609250), 3: F(317206375)}
KONTSEVICH = {1: F(1), 2: F(1), 3: F(12), 4: F(620), 5: F(87304), 6: F(26312976)}
# rows d=1..3 of the bundled quintic reference table, as table1 prints them
TABLE1 = {
    1: {"reduced_term": F(0), "genus1_gw": F(2875, 12), "genus1_bps": F(0)},
    2: {"reduced_term": F(2875, 32), "genus1_gw": F(407125, 8), "genus1_bps": F(0)},
    3: {"reduced_term": F(49355000, 81), "genus1_gw": F(243388750, 9), "genus1_bps": F(609250)},
}


@dataclass(frozen=True)
class Query:
    """One genus-zero invariant of a complete intersection, with its pin."""

    ambient_dim: int
    degrees: tuple
    curve_degree: int
    insertions: tuple
    expected: F

    def spec(self):
        return [self.ambient_dim, list(self.degrees), self.curve_degree, list(self.insertions)]

    def genus0_argv(self, fmt):
        argv = ["genus0", "--ambient-dim", str(self.ambient_dim)]
        argv += ["--curve-degree", str(self.curve_degree)]
        if self.degrees:
            argv += ["--degrees", ",".join(map(str, self.degrees))]
        if self.insertions:
            argv += ["--insertions", ",".join(map(str, self.insertions))]
        return argv + ["--format", fmt]


@dataclass(frozen=True)
class Command:
    """One CLI invocation (without cache and seed flags) and the rows it must
    print: row key -> exact value, or "yes"/"no" for flags."""

    argv: tuple
    expected: dict
    query: Query | None = None

    @property
    def subcommand(self):
        return self.argv[0]

    @property
    def fmt(self):
        return self.argv[self.argv.index("--format") + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int = 1
    queries: tuple = ()
    commands: tuple = ()

    @property
    def is_cli(self):
        return bool(self.commands)


def _ci_genus0():
    queries = [Query(4, (5,), d, (), v) for d, v in QUINTIC.items()]
    queries += [Query(5, (3, 3), d, (), v) for d, v in CUBICS_33.items()]
    queries += [Query(7, (2, 2, 2, 2), d, (), v) for d, v in QUADRICS_2222.items()]
    queries += [Query(5, (4, 2), 1, (), F(1280)), Query(6, (3, 2, 2), 1, (), F(720))]
    return tuple(queries)


def _plane_points():
    queries = [Query(2, (), d, (2,) * (3 * d - 1), v) for d, v in PLANE_POINTS.items()]
    queries += [Query(3, (), 2, (2,) * 8, F(92)), Query(3, (), 3, (2,) * 12, F(80160))]
    return tuple(queries)


def _rows(values):
    return {f"d{d}": v for d, v in values.items()}


def _cli_cache():
    cold = [Query(4, (5,), d, (), QUINTIC[d]) for d in (1, 2, 3)]
    cold += [Query(5, (3, 3), d, (), CUBICS_33[d]) for d in (1, 2)]
    cold += [Query(2, (), 3, (2,) * 8, PLANE_POINTS[3])]
    commands = []
    for fmt in ("text", "json", "csv"):
        commands += [Command(tuple(q.genus0_argv(fmt)), {"value": q.expected}, q) for q in cold]
    table1 = {}
    for d, row in TABLE1.items():
        row = {**row, "genus0_gw": QUINTIC[d], "consistent": "yes"}
        table1.update({f"d{d}.{name}": value for name, value in row.items()})
    for fmt in ("text", "json", "csv"):
        commands.append(Command(("table1", "--max-degree", "3", "--format", fmt), table1))
    for fmt in ("text", "json", "csv"):
        argv = ("bps", "--genus", "0", "--max-degree", "3", "--format", fmt)
        commands.append(Command(argv, _rows(QUINTIC_BPS0)))
    commands.append(Command(("wdvv", "--max-degree", "6", "--format", "text"), _rows(KONTSEVICH)))
    # conics in the plane with five marks: real dimension 2*(6 - 1 + 5)
    dims = ("dims", "--genus", "0", "--marks", "5", "--c1a", "6", "--half-dim", "2")
    commands.append(Command(dims + ("--format", "text"), {"value": F(20)}))
    return tuple(commands)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ci-genus0",
            "Complete intersections, n=4..7, jobs=1: the product kernel dominates; "
            "label counts 5 to 8 expose costs that grow with n.",
            queries=_ci_genus0(),
        ),
        Workload(
            "plane-points",
            "Point and line insertions in P2 and P3, jobs=1: per-insertion vertex sums "
            "dominate, not the product kernel.",
            queries=_plane_points(),
        ),
        Workload(
            "quintic-jobs2",
            "Quintic d=3,4 with jobs=2: the only workload that uses the process pool.",
            jobs=2,
            queries=tuple(Query(4, (5,), d, (), QUINTIC[d]) for d in (3, 4)),
        ),
        Workload(
            "cli-cache",
            "26 python -m gwlocal commands on a fresh cache dir: start-up, argparse, "
            "emitters and cache get/put dominate.",
            commands=_cli_cache(),
        ),
    )
}


def pin_conflicts(queries, seed, gwlocal):
    """Indices of ``queries`` whose pin an independent oracle contradicts.

    Degree-1 queries without insertions are checked against the line
    pair-sum at the workload seed's weights; plane curves through points
    against WDVV.
    """
    bad = set()
    wdvv = gwlocal.wdvv_p2(max(PLANE_POINTS))
    for i, q in enumerate(queries):
        if q is None:
            continue
        if q.curve_degree == 1 and not q.insertions:
            weights = gwlocal.sample_weights(seed, q.ambient_dim)
            if gwlocal.lines_closed_form(q.ambient_dim, q.degrees, weights) != q.expected:
                bad.add(i)
        if q.ambient_dim == 2 and q.insertions == (2,) * (3 * q.curve_degree - 1):
            if wdvv[q.curve_degree] != q.expected:
                bad.add(i)
    return bad


def command_pin_conflicts(commands, seed, gwlocal):
    """Indices of ``commands`` whose pins an independent oracle contradicts."""
    bad = pin_conflicts([c.query for c in commands], seed, gwlocal)
    for i, c in enumerate(commands):
        if c.subcommand == "wdvv":
            wdvv = gwlocal.wdvv_p2(len(c.expected))
            if _rows(wdvv) != c.expected:
                bad.add(i)
    return bad


def _fraction(value):
    if isinstance(value, dict):
        return F(int(value["num"]), int(value["den"]))
    return F(str(value))


def _flag(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    return value


_ROW_FIELDS = {
    "table1": ("reduced_term", "genus1_gw", "genus1_bps", "genus0_gw", "consistent"),
    "bps": ("value",),
    "wdvv": ("count",),
}


def parse_output(command, stdout):
    """The rows a CLI command printed, in the shape of ``Command.expected``."""
    sub, fmt = command.subcommand, command.fmt
    if sub in ("genus0", "dims"):
        if fmt == "json":
            return {"value": _fraction(json.loads(stdout)["value"])}
        if fmt == "csv":
            header, row = list(csv.reader(io.StringIO(stdout)))
            return {"value": _fraction(dict(zip(header, row))["value"])}
        if sub == "dims":
            return {"value": _fraction(stdout.strip())}
        fields = dict(line.split(": ", 1) for line in stdout.splitlines())
        return {"value": _fraction(fields["value"])}
    if fmt == "json":
        rows = json.loads(stdout)["rows"]
    elif fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(stdout)))
    else:
        rows = [dict(token.split("=", 1) for token in line.split()) for line in stdout.splitlines()]
        for row in rows:
            row["degree"] = row.pop("d")
            if "reduced" in row:
                row["reduced_term"] = row.pop("reduced")
    fields = _ROW_FIELDS[sub]
    parsed = {}
    for row in rows:
        for field in fields:
            key = f"d{row['degree']}" if len(fields) == 1 else f"d{row['degree']}.{field}"
            value = _flag(row[field])
            parsed[key] = value if value in ("yes", "no") else _fraction(value)
    return parsed


def command_ok(command, code, stdout):
    """True when the command exited 0 and printed exactly its pinned rows."""
    if code != 0:
        return False
    try:
        return parse_output(command, stdout) == command.expected
    except (ValueError, KeyError, TypeError, json.JSONDecodeError):
        return False


def query_ok(query, result):
    """True when an engine query returned exactly its pinned value."""
    return result.get("error") is None and F(result["value"]) == query.expected
