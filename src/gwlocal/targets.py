"""Complete-intersection counting problems on projective space.

Targets, torus weight vectors, and expected-dimension bookkeeping.  Every
quantity here is an integer: curve classes are multiples of the line class,
insertions are powers of the hyperplane class, and torus weights are
positive integers.  No floating point enters any computation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "InputError",
    "CITarget",
    "WeightVector",
    "DimensionQuery",
    "is_calabi_yau",
    "is_positive_system",
    "positivity_check",
    "expected_dimension",
]


class InputError(ValueError):
    """Caller-supplied input was rejected: a malformed target, table or flag.
    The command-line interface reports exactly these, and ``OSError``, as
    usage errors; any other exception is a bug."""


def _is_integer(value):
    # an int that is not a bool: True and False are ints to isinstance
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CITarget:
    """A degree-``curve_degree`` counting problem for a complete intersection
    of hypersurface degrees ``degrees`` inside projective space of dimension
    ``ambient_dim``, with one marked point per entry of ``insertions``: the
    entry is the power of the hyperplane class pulled back by evaluation at
    that mark, the complex codimension the condition imposes.

    ``degrees`` may be empty (count curves in the ambient space itself).
    Degree-0 factors are constructible so that the positivity predicate has
    something to reject, but they never pass :func:`positivity_check`.
    """

    ambient_dim: int
    degrees: tuple = ()
    curve_degree: int = 1
    insertions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        object.__setattr__(self, "insertions", tuple(self.insertions))
        for power in self.insertions:
            if not _is_integer(power) or power < 0:
                raise InputError(f"insertion power must be a nonnegative integer, got {power!r}")
        n = self.ambient_dim
        if not _is_integer(n) or n < 1:
            raise InputError("ambient dimension must be a positive integer")
        if not _is_integer(self.curve_degree) or self.curve_degree < 1:
            raise InputError("curve degree must be a positive integer")
        if not all(map(_is_integer, self.degrees)):
            raise InputError("hypersurface degrees must be integers")
        if any(a < 0 for a in self.degrees):
            raise InputError("hypersurface degrees must be nonnegative")
        if len(self.degrees) >= n:
            raise InputError("need fewer hypersurface factors than the ambient dimension")
        if any(power > n for power in self.insertions):
            raise InputError("insertion power exceeds the ambient dimension")


@dataclass(frozen=True)
class WeightVector:
    """Strictly positive, pairwise-distinct integer torus weights, one per
    homogeneous coordinate of the ambient projective space."""

    weights: tuple

    def __post_init__(self):
        ws = tuple(self.weights)
        object.__setattr__(self, "weights", ws)
        if not all(map(_is_integer, ws)):
            raise InputError(f"weights must be integers, not bool, got {ws!r}")
        if len(ws) < 2:
            raise InputError("need at least two weights")
        if any(w <= 0 for w in ws):
            raise InputError("weights must be strictly positive")
        if len(set(ws)) != len(ws):
            raise InputError("weights must be pairwise distinct")

    @property
    def ambient_dim(self) -> int:
        return len(self.weights) - 1


@dataclass(frozen=True)
class DimensionQuery:
    """Inputs of the expected-dimension formula.

    ``c1_dot_A`` is the pairing of the target's first Chern class with the
    curve class, ``half_dim`` the complex dimension of the target, and
    ``bundle_c1_dot_A``, when present, the pairing of a twisting bundle's
    first Chern class with the curve class.
    """

    genus: int
    marks: int
    c1_dot_A: int
    half_dim: int
    bundle_c1_dot_A: int | None = None

    def __post_init__(self):
        fields = [self.genus, self.marks, self.c1_dot_A, self.half_dim]
        if self.bundle_c1_dot_A is not None:
            fields.append(self.bundle_c1_dot_A)
        if not all(map(_is_integer, fields)):
            raise InputError("dimension query fields must be integers")
        if self.genus not in (0, 1):
            raise InputError("genus must be 0 or 1")
        if self.marks < 0:
            raise InputError("mark count must be nonnegative")
        if self.half_dim < 0:
            raise InputError("target dimension must be nonnegative")


def is_calabi_yau(target: CITarget) -> bool:
    """True when the hypersurface degrees sum to ``ambient_dim + 1``, i.e. the
    first Chern class of the cut locus vanishes.  The sum runs over the
    hypersurface factors."""
    return sum(target.degrees) == target.ambient_dim + 1


def is_positive_system(degrees, curve_degree: int) -> bool:
    """Positivity of the split conditions: every factor must pair positively
    with every curve degree from 1 up to ``curve_degree``."""
    return all(a * b > 0 for a in degrees for b in range(1, curve_degree + 1))


def positivity_check(target: CITarget) -> bool:
    """True iff every split hypersurface factor of the target is positive."""
    return is_positive_system(target.degrees, target.curve_degree)


def expected_dimension(query: DimensionQuery) -> int:
    """Real expected dimension of the stable-map space described by ``query``.

    Equals ``2*(c1_dot_A + (1 - genus)*(half_dim - 3) + marks)``; when a
    twisting bundle is given its pairing is subtracted once per complex unit,
    i.e. ``2*bundle_c1_dot_A`` in real units.

    EXAMPLES::

        >>> expected_dimension(DimensionQuery(genus=1, marks=0, c1_dot_A=0, half_dim=3))
        0
        >>> expected_dimension(DimensionQuery(genus=1, marks=2, c1_dot_A=7, half_dim=3))
        18
        >>> expected_dimension(DimensionQuery(genus=1, marks=0, c1_dot_A=10, half_dim=4,
        ...                                   bundle_c1_dot_A=10))
        0
    """
    value = 2 * (query.c1_dot_A + (1 - query.genus) * (query.half_dim - 3) + query.marks)
    if query.bundle_c1_dot_A is not None:
        value -= 2 * query.bundle_c1_dot_A
    return value
