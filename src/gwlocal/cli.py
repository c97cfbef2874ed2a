"""Command-line interface.

Subcommands: ``genus0`` (fixed-point engine), ``table1`` (audit the bundled
quintic reference table), ``bps`` (instanton-number inversions), ``dims``
(expected dimensions), ``wdvv`` (plane-curve recursion).  Every subcommand
accepts ``--format {text,json,csv}``, ``--jobs``, ``--cache-dir``, ``--seed``
and ``--quiet``.

Exit codes: 0 success; 1 bad flags, or an ``InputError`` or ``OSError``
from a command; 2 dimension mismatch; 3 engine failure (weight-independence
violation or resampling exhaustion).  A cache record that cannot be read or
stored is not an error: a note goes to stderr and the command goes on with
the computed value.  :func:`main` is the one place that maps exceptions to
exit codes and prints them; any other exception is a bug and propagates as a
traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, fields
from fractions import Fraction

from .cache import ResultCache
from .localization import (
    ENGINE_VERSION,
    DimensionMismatch,
    ResamplingExhausted,
    WeightIndependenceFailure,
    sum_invariant,
)
from .relations import (
    QuinticTableRow,
    bps0_from_gw0,
    bps1_from_gw1,
    load_table1,
    read_degree_table,
    reproduce_table1,
    wdvv_p2,
)
from .targets import CITarget, DimensionQuery, InputError, expected_dimension

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
    parser.add_argument("--seed", type=int, default=1, help="base seed; uses seed, seed+1, seed+2")
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
    bps.add_argument("--gw0-input", default=None, help="genus-zero table file (genus 1 only)")
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


def _int_list(text):
    # int()'s own ValueError is the caller's typo here, not a bug
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _genus0_query(target: CITarget) -> dict:
    return {
        "kind": "genus0",
        "ambient_dim": target.ambient_dim,
        "degrees": list(target.degrees),
        "curve_degree": target.curve_degree,
        "insertions": list(target.insertions),
    }


def _cached_engine_value(cache, target, args):
    """Engine result for one genus-zero target, served from cache when the key
    matches; (value, graph_count, seeds) triple."""
    query = _genus0_query(target)
    record = cache.get(query)
    if record is not None:
        _note(args, f"cache hit {record.key[:12]}")
        return record.value, record.graph_count, record.seeds
    seeds = (args.seed, args.seed + 1, args.seed + 2)
    result = sum_invariant(target, seeds=seeds, jobs=args.jobs)
    cache.put(query, result)
    return result.value, result.graph_count, result.weight_seeds


# marks where a JSON document takes one object per row
_ROWS = object()

# text output abbreviates these column names
_TEXT_NAMES = {"degree": "d", "reduced_term": "reduced"}


def _cell(value, as_json=False):
    """One output cell: exact rationals as ``{"num","den"}`` in JSON and
    ``num/den`` elsewhere, booleans as ``yes``/``no`` and seed tuples
    space-joined outside JSON, a missing value as an empty CSV cell."""
    if isinstance(value, Fraction):
        if as_json:
            return {"num": str(value.numerator), "den": str(value.denominator)}
        return str(value)
    if isinstance(value, bool) and not as_json:
        return "yes" if value else "no"
    if isinstance(value, tuple):
        return list(value) if as_json else " ".join(map(str, value))
    if value is None and not as_json:
        return ""
    return value


def _emit(args, header, rows, doc, text=None) -> int:
    """Print ``rows`` (tuples of cells named by ``header``) in ``args.format``.

    JSON prints ``doc`` with its ``_ROWS`` entry replaced by one object per
    row; a ``doc`` without one gets the single row's fields after its own.
    CSV prints the header, then the rows.  Text prints the ``text`` lines, or
    else one line of ``name=value`` pairs per row, skipping missing values.
    """
    if args.format == "json":
        records = [{name: _cell(v, as_json=True) for name, v in zip(header, row)} for row in rows]
        if _ROWS in doc.values():
            doc = {key: records if value is _ROWS else value for key, value in doc.items()}
        else:
            doc = {**doc, **records[0]}
        print(json.dumps(doc))
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
    else:
        if text is None:
            text = [
                " ".join(
                    f"{_TEXT_NAMES.get(name, name)}={_cell(v)}"
                    for name, v in zip(header, row)
                    if v is not None
                )
                for row in rows
            ]
        for line in text:
            print(line)
    return EXIT_OK


def cmd_genus0(args) -> int:
    degrees, insertions = _int_list(args.degrees), _int_list(args.insertions)
    target = CITarget(args.ambient_dim, degrees, args.curve_degree, insertions)
    cache = ResultCache(args.cache_dir)
    value, graph_count, seeds = _cached_engine_value(cache, target, args)
    header = ("value", "graph_count", "seeds", "engine_version")
    row = (value, graph_count, seeds, ENGINE_VERSION)
    text = [f"{name}: {_cell(v)}" for name, v in zip(header, row)]
    return _emit(args, header, [row], {"query": _genus0_query(target)}, text)


def cmd_table1(args) -> int:
    table = load_table1()
    if not 1 <= args.max_degree <= table.max_degree:
        raise InputError(f"--max-degree must be 1..{table.max_degree}")
    cache = ResultCache(args.cache_dir)

    def engine(d):
        return _cached_engine_value(cache, CITarget(4, (5,), d), args)[0]

    audit = reproduce_table1(
        args.max_degree, table.reduced_terms, table.genus1_gw, table.genus1_bps, engine
    )
    header = tuple(field.name for field in fields(QuinticTableRow))
    rows = [astuple(row) for row in audit]
    return _emit(args, header, rows, {"rows": _ROWS, "engine_version": ENGINE_VERSION})


def _gw0_table(args, path, unavailable) -> dict:
    """Genus-zero quintic invariants for degrees 1..--max-degree, from the
    table file ``path`` or else from the cache; InputError(unavailable) when
    the cache lacks a degree."""
    if path is not None:
        return read_degree_table(path, max_degree=args.max_degree)[0]
    cache = ResultCache(args.cache_dir)
    table = {}
    for d in range(1, args.max_degree + 1):
        record = cache.get(_genus0_query(CITarget(4, (5,), d)))
        if record is None:
            raise InputError(unavailable)
        table[d] = record.value
    _note(args, f"genus-zero table assembled from cache for degrees 1..{args.max_degree}")
    return table


def cmd_bps(args) -> int:
    if args.genus not in (0, 1):
        raise InputError("--genus must be 0 or 1")
    if args.max_degree < 1:
        raise InputError("--max-degree must be at least 1")
    if args.genus == 0:
        hint = "no --input and no cached genus-zero quintic values; run genus0 or table1 first"
        result = bps0_from_gw0(_gw0_table(args, args.input, hint))
    else:
        if args.input is None:
            raise InputError("--genus 1 requires --input")
        gw1 = read_degree_table(args.input, max_degree=args.max_degree)[0]
        hint = "--genus 1 needs --gw0-input or cached genus-zero quintic values"
        result = bps1_from_gw1(gw1, bps0_from_gw0(_gw0_table(args, args.gw0_input, hint)))
    rows = list(result.items())
    return _emit(args, ("degree", "value"), rows, {"genus": result.genus, "rows": _ROWS})


def cmd_dims(args) -> int:
    query = DimensionQuery(
        genus=args.genus,
        marks=args.marks,
        c1_dot_A=args.c1a,
        half_dim=args.half_dim,
        bundle_c1_dot_A=args.bundle_c1a,
    )
    value = expected_dimension(query)
    return _emit(args, ("value",), [(value,)], {}, text=[value])


def cmd_wdvv(args) -> int:
    counts = wdvv_p2(args.max_degree)
    return _emit(args, ("degree", "count"), list(counts.items()), {"rows": _ROWS})


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
    except (InputError, OSError) as exc:
        print(f"gwlocal {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
