"""Command-line interface.

Subcommands: ``genus0`` (fixed-point engine), ``table1`` (audit the bundled
quintic reference table), ``bps`` (instanton-number inversions), ``dims``
(expected dimensions), ``wdvv`` (plane-curve recursion).  Every subcommand
accepts ``--format {text,json,csv}``, ``--jobs``, ``--cache-dir``, ``--seed``
and ``--quiet``.

Exit codes: 0 success, 1 bad flags or missing input, 2 dimension mismatch,
3 engine failure (weight-independence violation or resampling exhaustion).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from .cache import ResultCache, cache_key, resolve_cache_dir
from .localization import (
    ENGINE_VERSION,
    DimensionMismatch,
    ResamplingExhausted,
    WeightIndependenceFailure,
    sum_invariant,
)
from .relations import (
    BPSTable,
    UnsupportedDimension,
    bps0_from_gw0,
    bps1_from_gw1,
    load_table1,
    reproduce_table1,
    wdvv_p2,
)
from .targets import CITarget, DimensionQuery, expected_dimension, format_fraction, parse_fraction

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_USAGE", "EXIT_DIMENSION", "EXIT_ENGINE"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIMENSION = 2
EXIT_ENGINE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this interface reserves 2
    # for dimension mismatches, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser):
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes for graph sums"
    )
    parser.add_argument("--cache-dir", default=None, help="override the result cache directory")
    parser.add_argument("--seed", type=int, default=None, help="base seed; uses seed, seed+1, seed+2")
    parser.add_argument("--quiet", action="store_true", help="suppress informational notes")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gwlocal", description=__doc__.split("\n\n")[0])
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    genus0 = subparsers.add_parser("genus0", help="genus-zero invariant of a complete intersection")
    genus0.add_argument("--ambient-dim", type=int, required=True)
    genus0.add_argument("--degrees", default="", help="comma-separated hypersurface degrees")
    genus0.add_argument("--curve-degree", type=int, required=True)
    genus0.add_argument("--insertions", default="", help="comma-separated insertion powers")
    _add_common(genus0)
    genus0.set_defaults(func=cmd_genus0)

    table1 = subparsers.add_parser("table1", help="audit the bundled quintic reference table")
    table1.add_argument("--max-degree", type=int, default=4, help="degrees 1..max (at most 4)")
    _add_common(table1)
    table1.set_defaults(func=cmd_table1)

    bps = subparsers.add_parser("bps", help="instanton numbers from invariant tables")
    bps.add_argument("--genus", type=int, required=True)
    bps.add_argument("--max-degree", type=int, required=True)
    bps.add_argument("--input", default=None, help="table file of 'degree value' lines")
    bps.add_argument(
        "--gw0-input", default=None, help="genus-zero table file (genus 1 only)"
    )
    _add_common(bps)
    bps.set_defaults(func=cmd_bps)

    dims = subparsers.add_parser("dims", help="expected dimensions")
    dims.add_argument("--genus", type=int, required=True)
    dims.add_argument("--marks", type=int, default=0)
    dims.add_argument("--c1a", type=int, required=True)
    dims.add_argument("--half-dim", type=int, required=True)
    dims.add_argument("--bundle-c1a", type=int, default=None)
    _add_common(dims)
    dims.set_defaults(func=cmd_dims)

    wdvv = subparsers.add_parser("wdvv", help="rational plane-curve counts from associativity")
    wdvv.add_argument("--max-degree", type=int, required=True)
    _add_common(wdvv)
    wdvv.set_defaults(func=cmd_wdvv)

    return parser


def _note(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def _seeds(args):
    if args.seed is None:
        return (1, 2, 3)
    return (args.seed, args.seed + 1, args.seed + 2)


def _fraction_json(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _quintic_query(d: int) -> dict:
    return _genus0_query(CITarget(4, (5,), d))


def _genus0_query(target: CITarget) -> dict:
    return {
        "kind": "genus0",
        "ambient_dim": target.ambient_dim,
        "degrees": list(target.degrees),
        "curve_degree": target.curve_degree,
        "insertions": [ins.power for ins in target.insertions],
    }


def _cached_engine_value(cache, query, args):
    """Engine result for one genus-zero query, served from cache when the key
    matches; (value, graph_count, seeds) triple."""
    key = cache_key(query, ENGINE_VERSION)
    record = cache.get(key)
    if record is not None:
        _note(args, f"cache hit {key[:12]}")
        return record.value, record.graph_count, tuple(record.seeds)
    target = CITarget(
        query["ambient_dim"],
        tuple(query["degrees"]),
        query["curve_degree"],
        tuple(query["insertions"]),
    )
    result = sum_invariant(target, seeds=_seeds(args), jobs=args.jobs)
    cache.put(
        ResultCache.make_record(
            query, result.value, result.weight_seeds, result.graph_count, ENGINE_VERSION
        )
    )
    return result.value, result.graph_count, result.weight_seeds


def _emit_csv(rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in rows:
        writer.writerow(row)


def cmd_genus0(args) -> int:
    try:
        degrees = tuple(int(x) for x in args.degrees.split(",") if x.strip())
        insertions = tuple(int(x) for x in args.insertions.split(",") if x.strip())
        target = CITarget(args.ambient_dim, degrees, args.curve_degree, insertions)
    except ValueError as exc:
        print(f"gwlocal genus0: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    query = _genus0_query(target)
    cache = ResultCache(resolve_cache_dir(args.cache_dir))
    value, graph_count, seeds = _cached_engine_value(cache, query, args)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "query": query,
                    "value": _fraction_json(value),
                    "graph_count": graph_count,
                    "seeds": list(seeds),
                    "engine_version": ENGINE_VERSION,
                }
            )
        )
    elif args.format == "csv":
        _emit_csv(
            [
                ["value", "graph_count", "seeds", "engine_version"],
                [format_fraction(value), graph_count, " ".join(map(str, seeds)), ENGINE_VERSION],
            ]
        )
    else:
        print(f"value: {format_fraction(value)}")
        print(f"graph_count: {graph_count}")
        print(f"seeds: {' '.join(map(str, seeds))}")
        print(f"engine_version: {ENGINE_VERSION}")
    return EXIT_OK


def cmd_table1(args) -> int:
    table = load_table1()
    if not 1 <= args.max_degree <= table.max_degree:
        print(
            f"gwlocal table1: error: --max-degree must be 1..{table.max_degree}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    cache = ResultCache(resolve_cache_dir(args.cache_dir))

    def engine(d):
        value, _graphs, _seeds = _cached_engine_value(cache, _quintic_query(d), args)
        return value

    rows = reproduce_table1(
        args.max_degree, table.reduced_terms, table.genus1_gw, table.genus1_bps, engine
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "rows": [
                        {
                            "degree": row.degree,
                            "reduced_term": _fraction_json(row.reduced_term),
                            "genus1_gw": _fraction_json(row.genus1_gw),
                            "genus1_bps": _fraction_json(row.genus1_bps),
                            "genus0_gw": _fraction_json(row.genus0_gw),
                            "consistent": row.consistent,
                            "corrected_genus1_gw": (
                                None
                                if row.corrected_genus1_gw is None
                                else _fraction_json(row.corrected_genus1_gw)
                            ),
                        }
                        for row in rows
                    ],
                    "engine_version": ENGINE_VERSION,
                }
            )
        )
    elif args.format == "csv":
        out = [
            [
                "degree",
                "reduced_term",
                "genus1_gw",
                "genus1_bps",
                "genus0_gw",
                "consistent",
                "corrected_genus1_gw",
            ]
        ]
        for row in rows:
            out.append(
                [
                    row.degree,
                    format_fraction(row.reduced_term),
                    format_fraction(row.genus1_gw),
                    format_fraction(row.genus1_bps),
                    format_fraction(row.genus0_gw),
                    "yes" if row.consistent else "no",
                    "" if row.corrected_genus1_gw is None else format_fraction(row.corrected_genus1_gw),
                ]
            )
        _emit_csv(out)
    else:
        for row in rows:
            line = (
                f"d={row.degree} reduced={format_fraction(row.reduced_term)} "
                f"genus1_gw={format_fraction(row.genus1_gw)} "
                f"genus1_bps={format_fraction(row.genus1_bps)} "
                f"genus0_gw={format_fraction(row.genus0_gw)} "
                f"consistent={'yes' if row.consistent else 'no'}"
            )
            if row.corrected_genus1_gw is not None:
                line += f" corrected_genus1_gw={format_fraction(row.corrected_genus1_gw)}"
            print(line)
    return EXIT_OK


def _read_table_file(path, max_degree):
    table = {}
    for line in Path(path).read_text(encoding="ascii").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        table[int(fields[0])] = parse_fraction(fields[1])
    missing = [d for d in range(1, max_degree + 1) if d not in table]
    if missing:
        raise ValueError(f"{path}: missing degrees {missing}")
    return {d: table[d] for d in range(1, max_degree + 1)}


def _gw0_from_cache(cache, max_degree, args):
    table = {}
    for d in range(1, max_degree + 1):
        record = cache.get(cache_key(_quintic_query(d), ENGINE_VERSION))
        if record is None:
            return None
        table[d] = record.value
    _note(args, f"genus-zero table assembled from cache for degrees 1..{max_degree}")
    return table


def cmd_bps(args) -> int:
    if args.genus not in (0, 1):
        print("gwlocal bps: error: --genus must be 0 or 1", file=sys.stderr)
        return EXIT_USAGE
    if args.max_degree < 1:
        print("gwlocal bps: error: --max-degree must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    cache = ResultCache(resolve_cache_dir(args.cache_dir))
    try:
        if args.genus == 0:
            if args.input is not None:
                gw0 = _read_table_file(args.input, args.max_degree)
            else:
                gw0 = _gw0_from_cache(cache, args.max_degree, args)
                if gw0 is None:
                    print(
                        "gwlocal bps: error: no --input and no cached genus-zero "
                        "quintic values; run genus0 or table1 first",
                        file=sys.stderr,
                    )
                    return EXIT_USAGE
            result = bps0_from_gw0(gw0)
        else:
            if args.input is None:
                print("gwlocal bps: error: --genus 1 requires --input", file=sys.stderr)
                return EXIT_USAGE
            gw1 = _read_table_file(args.input, args.max_degree)
            if args.gw0_input is not None:
                gw0 = _read_table_file(args.gw0_input, args.max_degree)
            else:
                gw0 = _gw0_from_cache(cache, args.max_degree, args)
                if gw0 is None:
                    print(
                        "gwlocal bps: error: --genus 1 needs --gw0-input or cached "
                        "genus-zero quintic values",
                        file=sys.stderr,
                    )
                    return EXIT_USAGE
            result = bps1_from_gw1(gw1, bps0_from_gw0(gw0))
    except (OSError, ValueError) as exc:
        print(f"gwlocal bps: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(
            json.dumps(
                {
                    "genus": result.genus,
                    "rows": [
                        {"degree": d, "value": _fraction_json(v)} for d, v in result.items()
                    ],
                }
            )
        )
    elif args.format == "csv":
        _emit_csv([["degree", "value"]] + [[d, format_fraction(v)] for d, v in result.items()])
    else:
        for d, v in result.items():
            print(f"d={d} value={format_fraction(v)}")
    return EXIT_OK


def cmd_dims(args) -> int:
    query = DimensionQuery(
        genus=args.genus,
        marks=args.marks,
        c1_dot_A=args.c1a,
        half_dim=args.half_dim,
        bundle_c1_dot_A=args.bundle_c1a,
    )
    value = expected_dimension(query)
    if args.format == "json":
        print(json.dumps({"value": value}))
    elif args.format == "csv":
        _emit_csv([["value"], [value]])
    else:
        print(value)
    return EXIT_OK


def cmd_wdvv(args) -> int:
    counts = wdvv_p2(args.max_degree)
    if args.format == "json":
        print(
            json.dumps(
                {"rows": [{"degree": d, "count": _fraction_json(v)} for d, v in counts.items()]}
            )
        )
    elif args.format == "csv":
        _emit_csv([["degree", "count"]] + [[d, format_fraction(v)] for d, v in counts.items()])
    else:
        for d, v in counts.items():
            print(f"d={d} count={format_fraction(v)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DimensionMismatch as exc:
        print(f"gwlocal: dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (WeightIndependenceFailure, ResamplingExhausted) as exc:
        print(f"gwlocal: engine failure: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except (UnsupportedDimension, ValueError, OSError) as exc:
        print(f"gwlocal: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
