"""Hilbert bases of cover cones in Z^(n+1), fully exact, by dual mode.

A cover cone is given by inequality rows: one per facet, then the n+1
nonnegativity rows. Its Hilbert basis is computed by Pottier's completion
("The Euclidean algorithm in dimension n", ISSAC 1996), in the form
Normaliz calls dual mode (Bruns and Ichim, J. Algebra 324 (2010), §4):
start from the unit vectors, which generate the orthant's lattice points,
and cut by one facet row at a time, completing the basis of each cut by
pair sums across the new hyperplane until no new element appears.

All arithmetic is on Python ints; no floating point enters any verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import add, le
from typing import Sequence

from .complexes import WeightedComplex
from .errors import DimensionMismatch
from .intlinalg import dot

LatticePoint = tuple[int, ...]
Slack = tuple[int, ...]


@dataclass(frozen=True)
class ConeSystem:
    dim: int
    rows: tuple[tuple[int, ...], ...]

    def contains(self, p: Sequence[int]) -> bool:
        """True iff every inequality row evaluates >= 0 on p."""
        pv = tuple(int(x) for x in p)
        if len(pv) != self.dim:
            raise DimensionMismatch(
                f"point of length {len(pv)} in a dimension-{self.dim} system"
            )
        return all(dot(row, pv) >= 0 for row in self.rows)


@dataclass(frozen=True)
class HilbertBasis:
    dim: int
    points: tuple[LatticePoint, ...]
    truncated: bool


def build_cone(complex_: WeightedComplex) -> ConeSystem:
    """Inequality system whose lattice points are the covers of all orders.

    One row per facet (+1 on the facet's coordinates, -weight on the last)
    followed by n+1 nonnegativity rows.
    """
    n = complex_.n
    rows = []
    for f, w in zip(complex_.facets, complex_.weights):
        row = [1 if i in f else 0 for i in range(n)]
        row.append(-w)
        rows.append(tuple(row))
    for i in range(n + 1):
        row = [0] * (n + 1)
        row[i] = 1
        rows.append(tuple(row))
    return ConeSystem(n + 1, tuple(rows))


def _point_key(p: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    return (p[-1], tuple(p[:-1]))


def degree_limit(n: int) -> int:
    """Largest d with d^2 * 4^n < (n+1)^(n+3), the generator degree bound."""
    return isqrt(((n + 1) ** (n + 3) - 1) // 4**n)


def default_degree_cap(dim: int) -> int:
    """Default truncation guard: the degree limit, at least 1, capped at 1e6.

    The floor of 1 is for n = 0, where the limit is 0 but the cone t >= 0
    has the degree-1 basis point t.
    """
    return min(max(degree_limit(dim - 1), 1), 10**6)


def _minimal(slacks: list[Slack]) -> list[Slack]:
    """The slack vectors that lie above no other one, scanned by total.

    A vector below another has the smaller total, so each one need only be
    checked against those already kept.
    """
    kept: list[Slack] = []
    for s in sorted(slacks, key=sum):
        if not any(all(map(le, t, s)) for t in kept):
            kept.append(s)
    return kept


def _cut(basis: list[Slack], row: Sequence[int]) -> list[Slack]:
    """Hilbert basis of C ∩ {row >= 0} from the Hilbert basis of C.

    Each element is a slack vector: the point's coordinates followed by
    its values on the rows cut before, so y - x lies in C exactly when x's
    slack is componentwise below y's. The basis splits by the sign of
    lam = row . x, the two sides sharing lam = 0. Sums p + q with
    lam(p) > 0 > lam(q) are formed from pairs with at least one element
    new since the last round; a sum joins each side its lam allows unless
    an element of that side lies below it in slack and |lam|. The sides
    only grow, and the completion stops when a round adds nothing. The
    basis of the cut is then the minimal part of the lam >= 0 side.
    """
    d = len(row)
    sides: dict[int, list[Slack]] = {1: [], -1: []}  # slack + (|lam|,)
    fresh: dict[int, list[tuple[Slack, int]]] = {1: [], -1: []}  # (slack, lam)
    paired: dict[int, list[tuple[Slack, int]]] = {1: [], -1: []}
    for s in basis:
        lam = dot(row, s[:d])
        for sign in (1, -1):
            if sign * lam >= 0:
                sides[sign].append(s + (sign * lam,))
        if lam:
            fresh[1 if lam > 0 else -1].append((s, lam))

    while fresh[1] or fresh[-1]:
        sums: dict[Slack, int] = {}
        for plus, minus in (
            (fresh[1], paired[-1] + fresh[-1]),
            (paired[1], fresh[-1]),
        ):
            for s, lam in plus:
                for t, mu in minus:
                    sums.setdefault(tuple(map(add, s, t)), lam + mu)
        for sign in (1, -1):
            paired[sign] += fresh[sign]
            fresh[sign] = []
        # smallest first, so that fewer reducible sums join a side
        for s, lam in sorted(sums.items(), key=lambda e: sum(e[0]) + abs(e[1])):
            for sign in (1, -1):
                if sign * lam < 0:
                    continue
                full = s + (sign * lam,)
                if any(all(map(le, t, full)) for t in sides[sign]):
                    continue
                sides[sign].append(full)
                if lam:
                    fresh[sign].append((s, lam))
    return _minimal(sides[1])


def hilbert_basis(
    system: ConeSystem,
    degree_cap: int | None = None,
) -> HilbertBasis:
    """Unique minimal generating set of the monoid of lattice points.

    Requires every unit row e_i among the system's rows, so that the cone
    lies in the nonnegative orthant, whose basis the completion starts
    from; `build_cone` always emits them. Every other row is then cut in
    turn (see `_cut`). All basis points are returned, the degree-0 units
    included, sorted by degree then coordinates. Points above the degree
    cap are removed and flagged as a truncation.
    """
    d = system.dim
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    missing = [i for i, e in enumerate(units) if e not in system.rows]
    if missing:
        raise ValueError(
            f"system lacks the nonnegativity rows of coordinates {missing}; "
            "the completion needs a cone inside the orthant"
        )
    if degree_cap is None:
        degree_cap = default_degree_cap(d)
    basis: list[Slack] = units
    for row in system.rows:
        if row not in units:
            basis = _cut(basis, row)
    points = sorted((s[:d] for s in basis), key=_point_key)
    kept = tuple(p for p in points if p[-1] <= degree_cap)
    return HilbertBasis(d, kept, len(kept) < len(points))
