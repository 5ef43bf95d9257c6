"""Hilbert bases of cover cones in Z^(n+1), fully exact, by dual mode.

A cover is a vector in N^n, so a cover cone is the nonnegative orthant
cut by one inequality row per facet. Its Hilbert basis is computed by
Pottier's completion ("The Euclidean algorithm in dimension n", ISSAC
1996), in the form Normaliz calls dual mode (Bruns and Ichim, J. Algebra
324 (2010), §4): start from the unit vectors, the orthant's basis, and
cut by one facet row at a time, completing the basis of each cut by pair
sums across the new hyperplane until no new element appears (`_complete`).

Each element is one Python int of fixed-width fields, lowest first: the
n+1 point coordinates, then its slack on each row cut so far (the packed
exponent vectors of Bachmann and Schönemann, "Monomial representations
for Gröbner bases computations", ISSAC 1998). The top bit of each field
is a guard bit, zero in every stored element, so a pair sum is one int
addition and a reducibility test one subtraction and one mask; a field
that overflows makes the cut start over with every field twice as wide,
so no value is ever clipped. `_cut` reads lam on its row by digit sums,
and tests each pair sum first against the elements of lam = 0, which lie
below most sums. `hilbert_basis` unpacks the points, and `tight_points`
each with the rows it lies on, read off its slack fields of value 0: for
a symbolic power's generator g, the primes P with a(P) = deg g. All
arithmetic is on Python ints; no floating point enters any verdict.
"""

from __future__ import annotations

from itertools import compress
from operator import not_
from typing import NamedTuple, Sequence

from .complexes import WeightedComplex
from .monomial import checked_int, field_codec, guard_bits

LatticePoint = tuple[int, ...]


class ConeSystem(NamedTuple):
    """The cone {x >= 0 : row . x >= 0 for every row} in Z^dim."""

    dim: int
    rows: tuple[tuple[int, ...], ...]


class HilbertBasis(NamedTuple):
    dim: int
    points: tuple[LatticePoint, ...]
    truncated: bool


def build_cone(complex_: WeightedComplex) -> ConeSystem:
    """Inequality system whose lattice points are the covers of all orders.

    One row per facet: +1 on the facet's coordinates, -weight on the last.
    The rows follow the facets in the order `WeightedComplex.validate`,
    which makes every complex, gives them: smallest facet first, then by
    vertex tuple. `_cut` is correct in any row order, but its work is
    not: on random complexes this order beat "largest facet first" and
    "most vertices shared with the rows already cut" by up to 23x, and on
    the Veronese-weighted skeletons lex order of the vertex tuples beat
    colex and reverse lex.
    """
    n = complex_.n
    rows = tuple(
        (*[1 if i in f else 0 for i in range(n)], -w)
        for f, w in zip(complex_.facets, complex_.weights)
    )
    return ConeSystem(n + 1, rows)


# Bits per field when a completion starts, its guard bit included; a cut
# that overflows a field doubles the width of every field and starts over.
_START_WIDTH = 8


def _row_values(basis: list[int], row: Sequence[int], width: int) -> list[int] | None:
    """lam = row . x of each packed x of basis, by digit sums.

    The coordinates that share a coefficient c form one group, with a
    mask `even` of its even fields and a mask `odd` of its odd fields
    shifted down one width. s = (x & even) + ((x >> width) & odd) holds
    the sum of fields 2j and 2j + 1 in the 2*width-bit chunk j, with no
    carry between chunks. As 2^(2*width) is 1 modulo M = 2^(2*width) - 1,
    s % M is the sum of the chunks: the group's exact sum while that stays
    below M. With every guard bit zero a field holds less than
    2^(width-1), so this holds for every row of fewer than 2^(width+1)
    coordinates. A longer row is an overflow, and None asks the caller to
    widen the fields. lam is the sum over the groups of c times the
    group's sum, one list pass per group.
    """
    if len(row) >> (width + 1):
        return None
    mask = (1 << width) - 1
    groups: dict[int, list[int]] = {}  # coefficient: [even, odd]
    for i, c in enumerate(row):
        if c:
            parity = i & 1
            groups.setdefault(c, [0, 0])[parity] |= mask << (i - parity) * width
    modulus = (1 << 2 * width) - 1
    values = [0] * len(basis)
    for c, (even, odd) in groups.items():
        values = [
            lam + c * (((x & even) + (x >> width & odd)) % modulus)
            for lam, x in zip(values, basis)
        ]
    return values


def _cut(
    basis: list[int], row: Sequence[int], cap: int | None, fields: int, width: int
) -> tuple[list[int], bool] | None:
    """Hilbert basis of C ∩ {row >= 0} from the Hilbert basis of C.

    Each element is a packed slack vector of `fields` fields, `width` bits
    each: the point's coordinates followed by its values on the rows cut
    before, so y - x lies in C exactly when x's slack is componentwise
    below y's. lam = row . x is computed by digit sums (`_row_values`).
    C's elements of lam = 0 go to `zero`; the others go by the sign of lam
    to the sides `pos` (lam > 0) and `neg` (lam < 0), where an element
    also holds |lam| in one more field. Sums p + q with lam(p) > 0 > lam(q)
    are formed from `plus` and `minus`, the (slack, lam, t) of the side
    elements in the order they joined. A round pairs `plus[p0:]` with
    `minus` and `plus[:p0]` with `minus[m0:]`, the marks being where its
    new elements start: each pair with a new element once. lam is a
    function of the slack, so the pair that forms a sum first does not
    matter.

    Each sum is first tested against `zero`, starting with the element
    that rejected the last one, and only a sum that lies above none of
    them is stored, sorted and scanned. That is exact: an element of
    `zero` has |lam| 0, so it lies below a sum in slack and |lam| exactly
    when it lies below it in slack, and it belongs to both sides, where the
    side scan would reject the same sums. A surviving sum joins the side
    its sign of lam names, `pos` when lam = 0, unless an element of that
    side lies below it in slack and |lam|, and a lam = 0 sum that joins
    `pos` joins `neg` too. For such a sum `pos` alone settles it: only an
    element whose |lam| field is 0 can lie below it, and each one is in
    `zero` or a lam = 0 sum of the rounds, on both sides; so the scan skips
    C's elements on `pos`, `pos[:ends[0]]`, whose |lam| is at least 1. The
    sides only grow, and the completion stops when a round adds nothing.
    The basis of the cut is then `zero` and the minimal part of `pos`, the
    |lam| field becoming the new row's slack. No sum of t-degree above the
    cap is formed (the flag returned says if one was skipped); t only adds
    under sums and nothing with a larger t reduces an element, so the points
    up to the cap are exact.

    With every guard bit zero, y lies below x in every field exactly when
    ((x | H) - y) & H == H for the mask H of the guard bits: field by field
    the subtraction borrows the guard bit away iff x's value is below y's,
    and never borrows across a field. A pair sum is the int sum, exact as
    long as no field carries into its guard bit; its lam lies strictly
    between its summands', so only a start value can overflow the |lam|
    field. A sum that sets a guard bit, a start |lam| above the field's
    maximum, or a row too long for exact digit sums is an overflow, and
    the cut returns None; the caller widens the fields and cuts again, so
    no value is ever clipped. The test against `zero` comes before the
    guard test and is sound without it: two fields below 2^(w-1) sum below
    2^w, with no carry, so a sum's fields hold their true values even where
    a guard bit is set, and a field of x | H is at least 2^(w-1), above any
    field of a stored y, so no borrow crosses a field. The test then never
    finds y below x falsely: a rejected sum is reducible and needs no
    widening, and a sum whose overflowed field hides a reducer from the
    test survives to meet the guard test. Int order extends "lies below":
    with the guard bits zero, y below x field by field makes y <= x as
    ints, and |lam| depends on the point fields alone. So the sums are met
    in int order, and as the next cut is correct in any order of C's
    basis, the result is left unsorted.
    """
    values = _row_values(basis, row, width)
    if values is None:
        return None
    mask = (1 << width) - 1
    top = mask >> 1  # largest value a field holds
    shift = fields * width  # where the |lam| field starts
    guards = guard_bits(fields + 1, width)
    t_at = (len(row) - 1) * width
    zero: list[int] = []  # packed slack of C's lam = 0 elements
    pos: list[int] = []  # packed slack and |lam|: C's lam > 0, sums' lam >= 0
    neg: list[int] = []  # ... C's lam < 0, sums' lam <= 0
    plus: list[tuple[int, int, int]] = []
    minus: list[tuple[int, int, int]] = []
    for x, lam in zip(basis, values):
        if not lam:
            zero.append(x)
            continue
        if abs(lam) > top:
            return None
        side, pairing = (pos, plus) if lam > 0 else (neg, minus)
        side.append(x | abs(lam) << shift)
        pairing.append((x, lam, x >> t_at & mask))

    skipped = False
    # the element of zero that rejected the last sum; as a start value,
    # guards, whose every field is 2^(w-1), the test finds below no sum
    last = guards
    ends = [len(pos)]  # where each round's sums start on pos
    p0 = m0 = 0  # where this round's new elements start on plus and minus
    while p0 < len(plus) or m0 < len(minus):
        sums: dict[int, int] = {}  # packed slack: lam
        for xs, ys in ((plus[p0:], minus), (plus[:p0], minus[m0:])):
            for x, lam, t in xs:
                # t-degree left for the summand; no stored t exceeds top
                room = top if cap is None else cap - t
                for y, mu, u in ys:
                    if u > room:
                        skipped = True
                        continue
                    z = x + y
                    high = z | guards
                    if (high - last) & guards == guards:
                        continue
                    for e in zero:
                        if (high - e) & guards == guards:
                            last = e
                            break
                    else:
                        sums.setdefault(z, lam + mu)
        p0, m0 = len(plus), len(minus)
        # smallest first: nothing met later lies below a sum that joined
        for z in sorted(sums):
            if z & guards:
                return None
            lam = sums[z]
            side, pairing = (neg, minus) if lam < 0 else (pos, plus)
            full = z | abs(lam) << shift
            high = full | guards
            for y in side if lam else pos[ends[0]:]:
                if (high - y) & guards == guards:
                    break
            else:
                side.append(full)
                if lam:
                    pairing.append((z, lam, z >> t_at & mask))
                else:
                    neg.append(z)
        ends.append(len(pos))

    # zero and the minimal part of pos. The elements of C's basis, zero
    # and pos[:ends[0]], are irreducible in C, so no other element of C
    # lies below them. A sum lay above nothing in zero and on its side when
    # it joined, and what joined later in its round came later in int
    # order: only a sum of a later round can lie below it.
    kept = zero + pos[: ends[0]]
    for start, end in zip(ends, ends[1:]):
        later = pos[end:]
        for x in pos[start:end]:
            high = x | guards
            for y in later:
                if (high - y) & guards == guards:
                    break
            else:
                kept.append(x)
    return kept, skipped


def checked_cap(cap: int | None) -> int | None:
    """A degree cap, None or an int >= 0; anything else raises ValueError."""
    if cap is not None and checked_int(cap, "degree cap") < 0:
        raise ValueError(f"degree cap must be >= 0, got {cap}")
    return cap


def _complete(system: ConeSystem, cap: int | None) -> tuple[list[int], int, int, bool]:
    """The packed basis, its field count and width, and the truncated flag:
    the unit vectors cut by each row in turn, each field widened and the cut
    redone on an overflow (`_cut`). Field i < dim holds coordinate i, and
    field dim + r the slack on rows[r]."""
    checked_cap(cap)
    width = _START_WIDTH
    basis = [1 << i * width for i in range(system.dim)]
    fields = system.dim
    truncated = False
    for row in system.rows:
        while (cut := _cut(basis, row, cap, fields, width)) is None:
            read = field_codec(fields, width, "little")[1]
            write = field_codec(fields, 2 * width, "little")[0]
            basis = [write(read(x)) for x in basis]
            width *= 2
        basis, skipped = cut
        truncated |= skipped
        fields += 1
    return basis, fields, width, truncated


def hilbert_basis(system: ConeSystem, degree_cap: int | None = None) -> HilbertBasis:
    """Unique minimal generating set of the monoid of lattice points.

    All basis points of `_complete` are returned, the degree-0 units
    included, sorted by degree then coordinates. A degree cap keeps exactly
    the points up to it and forms no pair sum above it; truncated says it
    dropped a sum or a point, so False proves the basis whole.
    """
    basis, _, width, truncated = _complete(system, degree_cap)
    d = system.dim
    points = list(map(field_codec(d, width, "little")[1], basis))
    if degree_cap is not None:
        points = [p for p in points if p[-1] <= degree_cap]
    points.sort(key=lambda p: (p[-1], p))
    truncated |= len(points) < len(basis)
    return HilbertBasis(d, tuple(points), truncated)


def tight_points(system: ConeSystem, degree_cap: int) -> list[tuple[LatticePoint, int]]:
    """The basis points of degree 1 to the cap, as `hilbert_basis` sorts
    them, each with a mask whose bit r is set iff rows[r] . p == 0, that is
    iff p's slack field on rows[r] is 0."""
    basis, fields, width, _ = _complete(system, degree_cap)
    d = system.dim
    read = field_codec(fields, width, "little")[1]
    bits = [1 << r for r in range(fields - d)]
    points = [
        (p[:d], sum(compress(bits, map(not_, p[d:]))))
        for p in map(read, basis) if 0 < p[d - 1] <= degree_cap
    ]
    return sorted(points, key=lambda e: (e[0][-1], e[0]))
