"""Hilbert bases of cover cones in Z^(n+1), fully exact, by dual mode.

A cover is a vector in N^n, so a cover cone is the nonnegative orthant
cut by one inequality row per facet. Its Hilbert basis is computed by
Pottier's completion ("The Euclidean algorithm in dimension n", ISSAC
1996), in the form Normaliz calls dual mode (Bruns and Ichim, J. Algebra
324 (2010), §4): start from the unit vectors, which generate the
orthant's lattice points, and cut by one facet row at a time, completing
the basis of each cut by pair sums across the new hyperplane until no new
element appears.

The completion holds each element as one Python int of fixed-width
fields, lowest first: the n+1 point coordinates, one slack field for
each row cut so far, and during a cut the element's |lam| on the new row
(the packed exponent vectors of Bachmann and Schönemann, "Monomial
representations for Gröbner bases computations", ISSAC 1998). The top
bit of each field is a guard bit, zero in every stored element, so a
pair sum is one int addition and a reducibility test one subtraction and
one mask. A sum that reaches a guard bit, or a value too large for its
field, makes the cut start over with every field twice as wide; no value
is ever clipped, and the points are unpacked only at the end. Int order
orders the sums, as it extends the order "lies below" (see `_cut`).

All arithmetic is on Python ints; no floating point enters any verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .complexes import WeightedComplex
from .monomial import guard_bits

LatticePoint = tuple[int, ...]


@dataclass(frozen=True)
class ConeSystem:
    """The cone {x >= 0 : row . x >= 0 for every row} in Z^dim."""

    dim: int
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HilbertBasis:
    dim: int
    points: tuple[LatticePoint, ...]
    truncated: bool


def build_cone(complex_: WeightedComplex) -> ConeSystem:
    """Inequality system whose lattice points are the covers of all orders.

    One row per facet: +1 on the facet's coordinates, -weight on the last.
    """
    n = complex_.n
    rows = []
    for f, w in zip(complex_.facets, complex_.weights):
        row = [1 if i in f else 0 for i in range(n)]
        row.append(-w)
        rows.append(tuple(row))
    return ConeSystem(n + 1, tuple(rows))


def _point_key(p: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    return (p[-1], tuple(p[:-1]))


# Bits per field when a completion starts, its guard bit included; a cut
# that overflows a field doubles the width of every field and starts over.
_START_WIDTH = 8


def _unpack(x: int, fields: int, width: int) -> list[int]:
    mask = (1 << width) - 1
    return [(x >> (i * width)) & mask for i in range(fields)]


def _pack(values: Sequence[int], width: int) -> int:
    return sum(v << (i * width) for i, v in enumerate(values))


def _cut(
    basis: list[int],
    row: Sequence[int],
    cap: int | None,
    fields: int,
    width: int,
) -> tuple[list[int], bool] | None:
    """Hilbert basis of C ∩ {row >= 0} from the Hilbert basis of C.

    Each element is a packed slack vector of `fields` fields, `width` bits
    each: the point's coordinates followed by its values on the rows cut
    before, so y - x lies in C exactly when x's slack is componentwise
    below y's. The basis splits by the sign of lam = row . x, the two
    sides sharing lam = 0; a side element also holds |lam| in one more
    field. Sums p + q with lam(p) > 0 > lam(q) are formed from pairs with
    at least one element new since the last round; a sum joins each side
    its lam allows unless an element of that side lies below it in slack
    and |lam|. The sides only grow, and the completion stops when a round
    adds nothing. The basis of the cut is then the minimal part of the
    lam >= 0 side, its |lam| field becoming the new row's slack. No sum of
    t-degree above the cap is formed (the flag returned says if one was
    skipped); t only adds under sums and nothing with a larger t reduces
    an element, so the cut's points up to the cap are exact.

    With every guard bit zero, y lies below x in every field exactly when
    ((x | H) - y) & H == H for the mask H of the guard bits: field by field
    the subtraction borrows the guard bit away iff x's value is below y's,
    and never borrows across a field. A pair sum is the int sum, exact as
    long as no field carries into its guard bit; its lam lies strictly
    between its summands', so only a start value can overflow the |lam|
    field. A sum that sets a guard bit, or a start |lam| above the field's
    maximum, is an overflow, and the cut returns None; the caller widens
    the fields and cuts again, so no value is ever clipped. Int order
    extends "lies below": with the guard bits zero, y below x field by
    field makes y <= x as ints, and |lam| depends on the point fields
    alone. So the sums are met in int order, and as the next cut is
    correct in any order of C's basis, the result is left unsorted.
    """
    mask = (1 << width) - 1
    top = mask >> 1  # largest value a field holds
    shift = fields * width  # where the |lam| field starts
    guards = guard_bits(fields + 1, width)
    t_at = (len(row) - 1) * width
    terms = [(i * width, c) for i, c in enumerate(row) if c]
    sides: dict[int, list[int]] = {1: [], -1: []}  # packed slack and |lam|
    # (packed slack, lam, t) of the elements with lam != 0
    fresh: dict[int, list[tuple[int, int, int]]] = {1: [], -1: []}
    paired: dict[int, list[tuple[int, int, int]]] = {1: [], -1: []}
    for x in basis:
        lam = sum(c * ((x >> at) & mask) for at, c in terms)
        if abs(lam) > top:
            return None
        if lam >= 0:
            sides[1].append(x | lam << shift)
        if lam <= 0:
            sides[-1].append(x | -lam << shift)
        if lam:
            fresh[1 if lam > 0 else -1].append((x, lam, (x >> t_at) & mask))

    skipped = False
    ends = [len(sides[1])]  # where each round's sums start on sides[1]
    while fresh[1] or fresh[-1]:
        sums: dict[int, int] = {}  # packed slack: lam
        for plus, minus in (
            (fresh[1], paired[-1] + fresh[-1]),
            (paired[1], fresh[-1]),
        ):
            for x, lam, t in plus:
                # t-degree left for the summand; no stored t exceeds top
                room = top if cap is None else cap - t
                for y, mu, u in minus:
                    if u > room:
                        skipped = True
                    else:
                        sums.setdefault(x + y, lam + mu)
        for sign in (1, -1):
            paired[sign] += fresh[sign]
            fresh[sign] = []
        # smallest first: nothing met later lies below a sum that joined
        for z, lam in sorted(sums.items()):
            if z & guards:
                return None
            for sign in (1, -1):
                if sign * lam < 0:
                    continue
                full = z | sign * lam << shift
                high = full | guards
                for y in sides[sign]:
                    if (high - y) & guards == guards:
                        break
                else:
                    sides[sign].append(full)
                    if lam:
                        fresh[sign].append((z, lam, (z >> t_at) & mask))
        ends.append(len(sides[1]))

    # The minimal part of sides[1]. The elements of C's basis come first;
    # they are irreducible in C, so no other element of C lies below them.
    # A sum lay above nothing on its side when it joined, and what joined
    # later in its round came later in int order: only a sum of a later
    # round can lie below it.
    side = sides[1]
    kept = side[: ends[0]]
    for start, end in zip(ends, ends[1:]):
        later = side[end:]
        for x in side[start:end]:
            high = x | guards
            for y in later:
                if (high - y) & guards == guards:
                    break
            else:
                kept.append(x)
    return kept, skipped


def hilbert_basis(
    system: ConeSystem,
    degree_cap: int | None = None,
) -> HilbertBasis:
    """Unique minimal generating set of the monoid of lattice points.

    The completion starts from the unit vectors, the orthant's basis, and
    cuts by each row in turn (see `_cut`). All basis points are returned,
    the degree-0 units included, sorted by degree then coordinates. A
    degree cap keeps exactly the points up to it and forms no pair sum
    above it; truncated says it dropped a sum or a point, so False proves
    the basis whole.
    """
    if degree_cap is not None and degree_cap < 0:
        raise ValueError(f"degree cap must be >= 0, got {degree_cap}")
    d = system.dim
    width = _START_WIDTH
    basis = [1 << i * width for i in range(d)]
    fields = d
    truncated = False
    for row in system.rows:
        while (cut := _cut(basis, row, degree_cap, fields, width)) is None:
            basis = [_pack(_unpack(x, fields, width), 2 * width) for x in basis]
            width *= 2
        basis, skipped = cut
        truncated |= skipped
        fields += 1
    points = [tuple(_unpack(x, d, width)) for x in basis]
    points = [p for p in points if degree_cap is None or p[-1] <= degree_cap]
    points.sort(key=_point_key)
    return HilbertBasis(d, tuple(points), truncated or len(points) < len(basis))
