"""Bridges between the genus-zero engine and genus-one counts.

Covers the Calabi-Yau threefold relation between genus-one invariants, the
genus-zero invariant, and the reduced (main-component) term; the difference
between standard and reduced genus-one invariants in low dimensions; the
multiple-cover (instanton-number) expansions and their inversions; the audit
of the bundled low-degree quintic reference table; and an independent
plane-curve recursion used to cross-check the engine against a second theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import comb
from pathlib import Path

from .targets import InputError, _is_integer

__all__ = [
    "UnsupportedDimension",
    "BPSTable",
    "QuinticTableRow",
    "ReferenceTable",
    "genus1_from_reduced",
    "gw_difference",
    "bps0_from_gw0",
    "gw0_from_bps0",
    "bps1_from_gw1",
    "gw1_from_bps",
    "reproduce_table1",
    "wdvv_p2",
    "load_table1",
    "parse_degree_table",
    "read_degree_table",
]


class UnsupportedDimension(InputError):
    """The genus-one difference formula is only available in real dimensions
    4 and 6."""


def _cover_sum(table, d, weight, start=1) -> Fraction:
    # the multiple-cover sum over divisors k >= start of d of
    # table[d/k] / k**weight
    return sum(
        (table[d // k] / k**weight for k in range(start, d + 1) if d % k == 0), Fraction(0)
    )


def _exact(name, value) -> Fraction:
    # value as an exact rational: a bool or a float is refused, as is
    # anything Fraction cannot read
    if isinstance(value, (bool, float)):
        raise InputError(f"{name} must be an exact rational, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise InputError(f"{name}: {value!r} is not an exact rational") from None


def _as_table(values, max_degree=None) -> dict:
    table = {}
    for d, v in dict(values).items():
        if not _is_integer(d) or isinstance(v, (bool, float)):
            raise InputError(f"need integer degrees and exact values, got {d!r}: {v!r}")
        if d < 1:
            raise InputError(f"degree must be at least 1, got {d}")
        table[d] = _exact(f"degree {d}", v)
    top = max_degree if max_degree is not None else (max(table) if table else 0)
    for d in range(1, top + 1):
        if d not in table:
            raise InputError(f"table is missing degree {d}")
    return {d: table[d] for d in range(1, top + 1)}


@dataclass(frozen=True)
class BPSTable:
    """Integer-conjectural curve counts ``degree -> value`` for one genus.
    Degrees must be contiguous from 1; values stay exact rationals so that
    integrality is a checkable output, not an input assumption."""

    genus: int
    entries: dict

    def __post_init__(self):
        if not _is_integer(self.genus) or self.genus not in (0, 1):
            raise InputError("genus must be 0 or 1")
        object.__setattr__(self, "entries", _as_table(self.entries))

    @property
    def max_degree(self) -> int:
        return len(self.entries)

    def __getitem__(self, d: int) -> Fraction:
        return self.entries[d]

    def items(self):
        return self.entries.items()


def genus1_from_reduced(genus0_value, reduced_term) -> Fraction:
    """Genus-one invariant of a Calabi-Yau threefold class from the genus-zero
    invariant and the reduced term: ``genus0_value / 12 + reduced_term``, the
    :func:`gw_difference` of real dimension 6 with ``c1_pairing`` 0 added to
    the reduced term.  Raises :class:`~gwlocal.targets.InputError` unless
    both are exact rationals (``bool`` and ``float`` are not)."""
    return gw_difference(6, 0, genus0_value) + _exact("reduced_term", reduced_term)


def gw_difference(real_dim: int, c1_pairing, genus0_value) -> Fraction:
    """Standard minus reduced genus-one invariant.

    Vanishes in real dimension 4; in real dimension 6 it equals
    ``(2 - c1_pairing) / 24 * genus0_value``.  Other dimensions raise
    :class:`UnsupportedDimension`.  Raises
    :class:`~gwlocal.targets.InputError` unless ``real_dim`` is an integer
    and the other two are exact rationals (``bool`` and ``float`` are not).
    """
    if not _is_integer(real_dim):
        raise InputError(f"real_dim must be an integer, got {real_dim!r}")
    c1_pairing = _exact("c1_pairing", c1_pairing)
    genus0_value = _exact("genus0_value", genus0_value)
    if real_dim == 4:
        return Fraction(0)
    if real_dim == 6:
        return (2 - c1_pairing) / 24 * genus0_value
    raise UnsupportedDimension(f"no difference formula in real dimension {real_dim}")


def bps0_from_gw0(gw0) -> BPSTable:
    """Invert the genus-zero multiple-cover expansion.

    ``n0(d) = N0(d) - sum over divisors k > 1 of n0(d/k) / k**3``, computed
    degree by degree.
    """
    table = _as_table(gw0)
    bps = {}
    for d in sorted(table):
        bps[d] = table[d] - _cover_sum(bps, d, 3, start=2)
    return BPSTable(0, bps)


def gw0_from_bps0(bps0: BPSTable) -> dict:
    """Forward genus-zero multiple-cover sum: ``N0(d) = sum over divisors k
    of n0(d/k) / k**3``."""
    return {d: _cover_sum(bps0, d, 3) for d in range(1, bps0.max_degree + 1)}


def bps1_from_gw1(gw1, bps0: BPSTable) -> BPSTable:
    """Invert the genus-one multiple-cover expansion.

    ``n1(d) = N1(d) - (1/12) * sum over divisors k of n0(d/k) / k
    - sum over divisors k > 1 of n1(d/k) / k``.
    """
    table = _as_table(gw1)
    if bps0.max_degree < len(table):
        raise InputError("genus-zero counts must cover every requested degree")
    bps = {}
    for d in sorted(table):
        bps[d] = table[d] - _cover_sum(bps0, d, 1) / 12 - _cover_sum(bps, d, 1, start=2)
    return BPSTable(1, bps)


def gw1_from_bps(bps0: BPSTable, bps1: BPSTable) -> dict:
    """Forward genus-one multiple-cover sum: ``N1(d) = (1/12) * sum over
    divisors k of n0(d/k) / k + sum over divisors k of n1(d/k) / k``."""
    top = min(bps0.max_degree, bps1.max_degree)
    return {
        d: _cover_sum(bps0, d, 1) / 12 + _cover_sum(bps1, d, 1) for d in range(1, top + 1)
    }


def wdvv_p2(max_degree: int) -> dict:
    """Counts of degree-``d`` rational plane curves through ``3d - 1`` general
    points, from the associativity recursion:

    ``N(1) = 1`` and for ``d > 1``

    ``N(d) = sum over d1 + d2 = d of N(d1) N(d2) d1**2 d2 *
    (d2 * C(3d-4, 3d1-2) - d1 * C(3d-4, 3d1-1))``.

    Shares nothing with the fixed-point engine, so agreement between the two
    is a strong cross-theory check.

    EXAMPLES::

        >>> {d: int(v) for d, v in wdvv_p2(3).items()}
        {1: 1, 2: 1, 3: 12}
    """
    if not _is_integer(max_degree):
        raise InputError(f"max degree must be an integer, got {max_degree!r}")
    if max_degree < 1:
        raise InputError("max degree must be at least 1")
    counts = {1: Fraction(1)}
    for d in range(2, max_degree + 1):
        total = Fraction(0)
        for d1 in range(1, d):
            d2 = d - d1
            total += (
                counts[d1]
                * counts[d2]
                * d1**2
                * d2
                * (d2 * comb(3 * d - 4, 3 * d1 - 2) - d1 * comb(3 * d - 4, 3 * d1 - 1))
            )
        counts[d] = total
    return counts


@dataclass(frozen=True)
class QuinticTableRow:
    """One audited degree of the quintic reference table.

    ``consistent`` records whether the published genus-one invariant agrees
    with both the reduced-term identity (using the engine's genus-zero value)
    and its own instanton expansion; ``corrected_genus1_gw`` is present
    exactly when it does not, and carries the unique repair compatible with
    both routes.
    """

    degree: int
    reduced_term: Fraction
    genus1_gw: Fraction
    genus1_bps: Fraction
    genus0_gw: Fraction
    consistent: bool
    corrected_genus1_gw: Fraction | None = None


@dataclass(frozen=True)
class ReferenceTable:
    """Published low-degree quintic threefold data: reduced terms, genus-one
    invariants, and genus-one instanton numbers, per degree."""

    reduced_terms: dict
    genus1_gw: dict
    genus1_bps: dict

    @property
    def max_degree(self) -> int:
        return len(self.reduced_terms)


_TABLE1_RESOURCE = "data/quintic_table1.txt"


def parse_degree_table(text, name, columns=1, max_degree=None) -> list:
    """Parse ``degree value...`` rows of whitespace-separated fields, values
    written ``num/den`` or as integers, skipping blank and ``#`` lines.

    Every row has ``columns`` values and each degree appears once; the
    degrees must cover ``1..max_degree`` (default: the largest present), and
    rows above it are dropped.  Returns one ``degree -> Fraction`` dict per
    value column.  Every error is an :class:`InputError` naming ``name`` and
    the bad line.
    """
    rows = {}
    for number, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        try:
            if len(fields) != columns + 1:
                raise InputError(f"expected {columns + 1} fields")
            degree = int(fields[0])
            if degree < 1:
                raise InputError("degree must be at least 1")
            if degree in rows:
                raise InputError(f"degree {degree} appears twice")
            rows[degree] = [Fraction(field) for field in fields[1:]]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{name}:{number}: {exc}") from None
    try:
        return [_as_table({d: row[i] for d, row in rows.items()}, max_degree) for i in range(columns)]
    except InputError as exc:
        raise InputError(f"{name}: {exc}") from None


def read_degree_table(path, columns=1, max_degree=None) -> list:
    """:func:`parse_degree_table` of the ASCII text file ``path``; a file that
    is not ASCII raises :class:`InputError` naming it."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    return parse_degree_table(text, path, columns, max_degree)


def load_table1(path=None) -> ReferenceTable:
    """Load the bundled reference table (or a file in the same format): ``#``
    header lines, then ``d reduced N1 n1`` rows of whitespace-separated fields
    (the bundled file uses tabs), fractions written ``num/den``, each degree
    once and degrees contiguous from 1."""
    if path is not None:
        reduced, gw1, bps1 = read_degree_table(path, columns=3)
    else:
        text = resources.files("gwlocal").joinpath(_TABLE1_RESOURCE).read_text(encoding="ascii")
        reduced, gw1, bps1 = parse_degree_table(text, _TABLE1_RESOURCE, columns=3)
    return ReferenceTable(reduced_terms=reduced, genus1_gw=gw1, genus1_bps=bps1)


def reproduce_table1(max_degree, reduced_terms, genus1_gw, genus1_bps, engine) -> list:
    """Audit the reference rows degree by degree against the genus-zero engine.

    ``engine`` maps a degree to the exact genus-zero invariant of the quintic
    threefold.  A row is consistent when the published genus-one invariant
    equals ``engine(d)/12 + reduced_term(d)`` and its instanton expansion
    (with genus-zero instanton numbers derived from the engine) returns the
    published genus-one instanton number.  For an inconsistent row the unique
    corrected genus-one invariant satisfying both routes is reported; the two
    routes must agree or an :class:`InputError` is raised.
    """
    if not _is_integer(max_degree):
        raise InputError(f"max degree must be an integer, got {max_degree!r}")
    if max_degree < 1:
        return []
    reduced_terms = _as_table(reduced_terms, max_degree)
    genus1_gw = _as_table(genus1_gw, max_degree)
    genus1_bps = _as_table(genus1_bps, max_degree)
    gw0 = {d: Fraction(engine(d)) for d in range(1, max_degree + 1)}
    bps0 = bps0_from_gw0(gw0)
    derived_bps1 = bps1_from_gw1(genus1_gw, bps0)
    published_bps1 = BPSTable(1, genus1_bps)
    forward_gw1 = gw1_from_bps(bps0, published_bps1)
    rows = []
    for d in range(1, max_degree + 1):
        via_reduced = genus1_from_reduced(gw0[d], reduced_terms[d])
        consistent = via_reduced == genus1_gw[d] and derived_bps1[d] == genus1_bps[d]
        corrected = None
        if not consistent:
            if via_reduced != forward_gw1[d]:
                raise InputError(
                    f"degree {d}: the reduced-term route and the instanton route "
                    "disagree, so no unique correction exists"
                )
            corrected = via_reduced
        rows.append(
            QuinticTableRow(
                degree=d,
                reduced_term=reduced_terms[d],
                genus1_gw=genus1_gw[d],
                genus1_bps=genus1_bps[d],
                genus0_gw=gw0[d],
                consistent=consistent,
                corrected_genus1_gw=corrected,
            )
        )
    return rows
