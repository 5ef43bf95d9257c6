"""Independent oracles used by the test suite.

Everything here recomputes answers from first principles (definitions,
enumeration, exhaustive scans) or by a second algorithm (symbolic powers
by intersecting prime powers, and the primal Hilbert-basis engine at the
end) without calling the code paths under test, so a test comparing the
two sides is a genuine cross-check. Helpers that only the tests use live
here too: the skeletons of a simplex, Veronese weight scaling, cone
membership row by row, the Bareiss determinant and the 0/1 determinant
bound of the primal engine, the odd-cycle domination filter of the graph
tests, the search for a Veronese degree d by comparing powers of ideals,
and the yes/no forms of the standard-graded and Gorenstein verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt
from typing import Iterable, Sequence

from coveralg.algebra import generators, gorenstein_report, max_degree
from coveralg.complexes import CoverPoint, WeightedComplex, is_cover
from coveralg.cone import ConeSystem
from coveralg.errors import DimensionMismatch
from coveralg.graphs import Decomposition, neighbors
from coveralg.monomial import MonomialIdeal


def divides(f, m) -> bool:
    return all(a <= b for a, b in zip(f, m))


def minimal_elements(vectors) -> tuple:
    """Distinct vectors above no other one, by testing every pair.

    Sorted by (degree, lex) to match `monomial.minimal_elements`.
    """
    vs = set(vectors)
    kept = [v for v in vs if not any(u != v and divides(u, v) for u in vs)]
    return tuple(sorted(kept, key=lambda v: (sum(v), v)))


def member(gens, m) -> bool:
    """Monomial membership straight from the definition."""
    return any(divides(g, m) for g in gens)


def member_intersection(gens_i, gens_j, m) -> bool:
    return member(gens_i, m) and member(gens_j, m)


def member_product(gens_i, gens_j, m) -> bool:
    return any(
        divides(tuple(a + b for a, b in zip(f, g)), m)
        for f in gens_i
        for g in gens_j
    )


def member_colon(gens_i, gens_j, m) -> bool:
    return all(
        member(gens_i, tuple(a + b for a, b in zip(m, g))) for g in gens_j
    )


def box(bounds):
    """All exponent vectors v with 0 <= v[i] <= bounds[i]."""
    return product(*(range(b + 1) for b in bounds))


def coordinate_max(*gen_lists):
    n = len(gen_lists[0][0])
    out = [0] * n
    for gens in gen_lists:
        for g in gens:
            for i, e in enumerate(g):
                out[i] = max(out[i], e)
    return tuple(out)


def minimal_hitting_sets(n, facets):
    """All inclusion-minimal vertex sets meeting every facet, by full scan."""
    facs = [frozenset(f) for f in facets]
    hitting = [
        frozenset(s)
        for r in range(n + 1)
        for s in combinations(range(n), r)
        if all(f & frozenset(s) for f in facs)
    ]
    return {
        h for h in hitting if not any(other < h for other in hitting)
    }


# --- complexes and cones by definition --------------------------------------


def skeleton(n: int, j: int) -> WeightedComplex:
    """The j-skeleton of the full simplex: all (j+1)-subsets of the vertices."""
    if not 0 <= j <= n - 2:
        raise ValueError(f"need 0 <= j <= n-2, got n={n}, j={j}")
    return WeightedComplex.validate(n, combinations(range(n), j + 1))


def veronese(complex_: WeightedComplex, c: int) -> WeightedComplex:
    """Complex whose cover algebra is the c-th Veronese: weights scaled by c."""
    if c < 1:
        raise ValueError(f"Veronese index must be >= 1, got {c}")
    return WeightedComplex(
        complex_.n,
        complex_.facets,
        tuple(w * c for w in complex_.weights),
    )


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def all_rows(system: ConeSystem) -> tuple[tuple[int, ...], ...]:
    """The system's rows followed by the orthant's unit rows."""
    d = system.dim
    units = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    return system.rows + units


def in_cone(system: ConeSystem, p: Sequence[int]) -> bool:
    """True iff p >= 0 and every row of the system evaluates >= 0 on p."""
    pv = tuple(int(x) for x in p)
    if len(pv) != system.dim:
        raise DimensionMismatch(
            f"point of length {len(pv)} in a dimension-{system.dim} system"
        )
    return all(dot(row, pv) >= 0 for row in all_rows(system))


# --- odd cycle domination, a graph filter ---------------------------------

ODD_CYCLE_VERTEX_CAP = 12


def _simple_cycles(adj: Sequence[set[int]], n: int):
    # Each cycle appears once: rooted at its smallest vertex, direction
    # fixed by requiring the second vertex below the last.
    for s in range(n):
        stack = [(s, (s,))]
        while stack:
            v, path = stack.pop()
            for w in sorted(adj[v]):
                if w == s and len(path) >= 3 and path[1] < path[-1]:
                    yield path
                elif w > s and w not in path:
                    stack.append((w, path + (w,)))


def odd_cycle_domination(graph: WeightedComplex) -> bool:
    """True iff every vertex has a neighbor on every odd cycle.

    Exhaustive odd-cycle enumeration, so the vertex count is capped;
    vacuously true on bipartite graphs.
    """
    if any(w != 1 for w in graph.weights):
        raise ValueError("odd cycle domination is defined for canonical weights")
    if graph.n > ODD_CYCLE_VERTEX_CAP:
        raise ValueError(
            f"odd cycle enumeration capped at {ODD_CYCLE_VERTEX_CAP} vertices, "
            f"got {graph.n}"
        )
    adj = neighbors(graph)
    for cycle in _simple_cycles(adj, graph.n):
        if len(cycle) % 2 == 0:
            continue
        on_cycle = set(cycle)
        for i in range(graph.n):
            if not adj[i] & on_cycle:
                return False
    return True


# --- symbolic powers by intersection ----------------------------------------
#
# The second route to symbolic powers: intersect a power of the prime
# P_F = (x_i : i in F) for every minimal prime, that is for every facet F
# of the cover complex. The package reads them off the cover algebra.


def prime_power_ideal(n: int, face: Iterable[int], m: int) -> MonomialIdeal:
    """P_F^m: all exponent vectors supported on the face with total degree m."""
    verts = sorted(face)
    gens = []
    for comp in _weak_compositions(m, len(verts)):
        v = [0] * n
        for vert, e in zip(verts, comp):
            v[vert] = e
        gens.append(tuple(v))
    return MonomialIdeal.from_gens(n, gens)


def box_decompose(
    complex_: WeightedComplex, a: Sequence[int], k: int
) -> Decomposition | None:
    """Find a = b + c with orders i + j = k, i, j >= 1, by scanning 0 <= b <= a.

    Exhaustive scan of the box in mixed-radix (lexicographic) order; the
    first witness in that order is returned, with the least order i that
    the rest c leaves room for.
    """
    if k < 2:
        raise ValueError(f"decomposition needs order k >= 2, got {k}")
    av = tuple(int(x) for x in a)
    if not is_cover(complex_, av, k):
        raise ValueError(f"{av} is not a cover of order {k}")

    n = complex_.n
    facets = [tuple(sorted(f)) for f in complex_.facets]
    weights = complex_.weights
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    for fi, f in enumerate(facets):
        for v in f:
            by_vertex[v].append(fi)

    b = [0] * n
    sums = [0] * len(facets)
    total_a = tuple(av)

    def orders(s: list[int]) -> int | None:
        best: int | None = None
        for fi, w in enumerate(weights):
            o = s[fi] // w
            if best is None or o < best:
                best = o
        return best

    a_sums = [sum(av[v] for v in f) for f in facets]
    while True:
        ob = orders(sums)
        oc = orders([sa - sb for sa, sb in zip(a_sums, sums)])
        # valid splits are i in [max(1, k - order(c)), min(order(b), k - 1)];
        # a complex without facets bounds no order, hence the k fallbacks
        lo = max(1, k - (k if oc is None else oc))
        hi = min(k if ob is None else ob, k - 1)
        if lo <= hi:
            bb = tuple(b)
            cc = tuple(x - y for x, y in zip(av, bb))
            return Decomposition(bb, lo, cc, k - lo)
        # odometer step: rightmost coordinate counts fastest
        pos = n - 1
        while pos >= 0 and b[pos] == total_a[pos]:
            for fi in by_vertex[pos]:
                sums[fi] -= b[pos]
            b[pos] = 0
            pos -= 1
        if pos < 0:
            return None
        b[pos] += 1
        for fi in by_vertex[pos]:
            sums[fi] += 1


@dataclass(frozen=True)
class VeroneseSearch:
    d: int | None
    verified_up_to: int

    @property
    def found(self) -> bool:
        return self.d is not None


def find_veronese_d(
    ideals: Sequence[MonomialIdeal], k_max: int, d_max: int
) -> VeroneseSearch:
    """Smallest d <= d_max with (meet of I_j^d)^k == meet of I_j^(dk).

    The identity is checked for k up to k_max only, and the result says
    so; nothing here certifies the unbounded statement.
    """
    if not ideals:
        raise ValueError("need at least one ideal")
    if k_max < 1 or d_max < 1:
        raise ValueError("bounds must be >= 1")
    n = ideals[0].n
    for ideal in ideals[1:]:
        ideals[0]._same_ring(ideal)

    def meet_of_powers(e: int) -> MonomialIdeal:
        result = MonomialIdeal.unit(n)
        for ideal in ideals:
            result = result.intersect(ideal.power(e))
        return result

    for d in range(1, d_max + 1):
        base = meet_of_powers(d)
        if all(base.power(k) == meet_of_powers(d * k) for k in range(2, k_max + 1)):
            return VeroneseSearch(d, k_max)
    return VeroneseSearch(None, k_max)


def is_standard_graded(complex_: WeightedComplex) -> bool:
    """True iff every minimal algebra generator has degree 1."""
    return max_degree(generators(complex_)) <= 1


def is_gorenstein(complex_: WeightedComplex) -> bool | None:
    return gorenstein_report(complex_).verdict


def _weak_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first, *rest)


def cover_ideal(complex_: WeightedComplex, scale: int = 1) -> MonomialIdeal:
    """Intersection of P_F^(scale * w_F) over all facets.

    With scale=1 this is the cover ideal: its minimal generators are
    exactly the componentwise-minimal covers of order 1.
    """
    result = MonomialIdeal.unit(complex_.n)
    for f, w in zip(complex_.facets, complex_.weights):
        result = result.intersect(prime_power_ideal(complex_.n, f, scale * w))
    return result


def module_generators(complex_: WeightedComplex, k: int) -> tuple[CoverPoint, ...]:
    """Minimal generators of the order-k cover module, tagged with k."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    ideal = cover_ideal(complex_, scale=k)
    return tuple(CoverPoint(g, k) for g in ideal.gens)


def symbolic_power_by_intersection(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """I^(k) of a squarefree ideal as the meet of P_C^k over its minimal primes.

    The minimal primes come from `minimal_hitting_sets` (a full scan), not
    from the package's cover complex.
    """
    if ideal.is_zero or ideal.is_unit:
        return ideal
    supports = [[i for i, e in enumerate(g) if e] for g in ideal.gens]
    result = MonomialIdeal.unit(ideal.n)
    for c in minimal_hitting_sets(ideal.n, supports):
        result = result.intersect(prime_power_ideal(ideal.n, c, k))
    return result


def extreme_rays_bruteforce(rows, dim):
    """Extreme rays of {p : rows @ p >= 0} by tight-subset enumeration.

    A nonzero cone direction is extreme iff its tight rows have rank
    dim - 1, so scanning every (dim-1)-subset of rows with an exactly
    one-dimensional nullspace finds each extreme ray (possibly many
    times). Small systems only.
    """
    rays = set()
    for subset in combinations(range(len(rows)), dim - 1):
        basis = _nullspace([rows[i] for i in subset], dim)
        if len(basis) != 1:
            continue
        v = basis[0]
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in v]
        g = 0
        for x in ints:
            g = gcd(g, x)
        ints = tuple(x // g for x in ints)
        for cand in (ints, tuple(-x for x in ints)):
            if all(sum(r * c for r, c in zip(row, cand)) >= 0 for row in rows):
                rays.add(cand)
    return rays


def _nullspace(rows, dim):
    mat = [[Fraction(x) for x in row] for row in rows]
    m = len(mat)
    pivots = []
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for row, pc in zip(mat, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def parallelepiped_boxscan(rays):
    """Half-open parallelepiped lattice points by bounding-box scan.

    Scans integer points p with 0 <= p_i <= sum_j max(q_j__i, 0) and keeps
    those whose exact rational coordinates in the ray basis lie in [0, 1).
    """
    d = len(rays)
    bounds = [sum(max(q[i], 0) for q in rays) for i in range(d)]
    points = set()
    for p in product(*(range(b + 1) for b in bounds)):
        coeffs = _solve_square([list(col) for col in zip(*rays)], p)
        if coeffs is not None and all(0 <= c < 1 for c in coeffs):
            points.add(p)
    return points


def _solve_square(matrix, rhs):
    d = len(rhs)
    mat = [[Fraction(matrix[i][j]) for j in range(d)] + [Fraction(rhs[i])] for i in range(d)]
    for c in range(d):
        piv = next((i for i in range(c, d) if mat[i][c] != 0), None)
        if piv is None:
            return None
        mat[c], mat[piv] = mat[piv], mat[c]
        inv = mat[c][c]
        mat[c] = [x / inv for x in mat[c]]
        for i in range(d):
            if i != c and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return [mat[i][-1] for i in range(d)]


# --- the primal Hilbert-basis engine ---------------------------------------
#
# The package computes Hilbert bases by dual mode (Pottier's completion).
# This is the independent second algorithm the tests compare it against:
# incremental double description for the extreme rays, a placing
# triangulation, the lattice points of each simplicial piece's half-open
# fundamental parallelepiped (Hermite form plus adjugate), and an all-pairs
# reduction of the candidates. It shares no arithmetic with the package,
# only the `ConeSystem` rows it reads; test_intlinalg checks `det`
# against cofactor expansion.

Ray = tuple[int, ...]
LatticePoint = tuple[int, ...]
IntVec = tuple[int, ...]


class DegenerateCone(ValueError):
    """Inequality system does not cut out a full-dimensional cone."""


def det(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class DeterminantBound:
    """Exact comparator for |det| <= (n+1)^((n+1)/2) / 2^n over 0/1 matrices.

    The triangulation's subcone indices of canonical-weight cones are such
    determinants, so they obey it.
    """

    n: int

    def holds(self, v: int) -> bool:
        return v * v * 4**self.n <= (self.n + 1) ** (self.n + 1)

    def max_value(self) -> int:
        return isqrt((self.n + 1) ** (self.n + 1) // 4**self.n)


def fs_determinant_bound(n: int) -> DeterminantBound:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return DeterminantBound(n)


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def rank(mat: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix (fraction-free row reduction)."""
    a = [list(row) for row in mat]
    m = len(a)
    if m == 0:
        return 0
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        for i in range(r + 1, m):
            f = a[i][c]
            if f:
                a[i] = primitive([p * x - f * y for x, y in zip(a[i], a[r])])
        r += 1
        if r == m:
            break
    return r


def cross_normal(rows: Sequence[Sequence[int]]) -> IntVec:
    """Integer normal to the span of d-1 vectors in dimension d.

    Components are the signed maximal minors (generalized cross product),
    reduced to a primitive vector; all-zero output means the input rows
    are linearly dependent.
    """
    d = len(rows) + 1
    h = []
    for i in range(d):
        minor = [[row[j] for j in range(d) if j != i] for row in rows]
        h.append((-1) ** i * det(minor))
    return primitive(h)


def adjugate(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Adjugate matrix: adjugate(A) @ A == det(A) * I."""
    n = len(mat)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * det(minor)
    return adj


def hnf_columns(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Column-style Hermite form of a nonsingular integer matrix.

    Returns a lower-triangular H with positive diagonal obtained from the
    input by unimodular column operations, so both matrices generate the
    same lattice of integer column combinations.
    """
    a = [list(row) for row in mat]
    d = len(a)

    def colswap(p: int, q: int) -> None:
        for r in range(d):
            a[r][p], a[r][q] = a[r][q], a[r][p]

    def coladd(dst: int, src: int, f: int) -> None:
        for r in range(d):
            a[r][dst] += f * a[r][src]

    for i in range(d):
        while True:
            if a[i][i] < 0:
                for r in range(d):
                    a[r][i] = -a[r][i]
            if a[i][i] == 0:
                j = next((j for j in range(i + 1, d) if a[i][j] != 0), None)
                if j is None:
                    raise ValueError("matrix is singular")
                colswap(i, j)
                continue
            rest = [j for j in range(i + 1, d) if a[i][j] != 0]
            if not rest:
                break
            jmin = min(
                (j for j in range(i, d) if a[i][j] != 0),
                key=lambda j: abs(a[i][j]),
            )
            if jmin != i:
                colswap(i, jmin)
                continue
            for j in rest:
                coladd(j, i, -(a[i][j] // a[i][i]))
            # remainders now lie in [0, pivot); the swap above keeps Euclid going
    return a


@dataclass(frozen=True)
class SimplicialSubcone:
    rays: tuple[Ray, ...]
    index: int


def _point_key(p: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    return (p[-1], tuple(p[:-1]))


def extreme_rays(system: ConeSystem) -> tuple[Ray, ...]:
    """Primitive extreme rays by incremental double description.

    A `ConeSystem` lies in the nonnegative orthant by definition, so we
    start from the orthant's unit rays and cut with each row in turn. Ray
    adjacency uses the standard combinatorial test on tight-row sets,
    which is valid because every intermediate cone here is pointed.
    """
    d = system.dim
    rays: list[Ray] = []
    masks: list[int] = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        rays.append(tuple(e))
        masks.append(sum(1 << j for j in range(d) if j != i))
    nbase = d  # bits 0..d-1 are orthant coordinates, then one bit per row

    for t, row in enumerate(system.rows):
        bit = 1 << (nbase + t)
        dots = [dot(row, r) for r in rays]
        if all(v >= 0 for v in dots):
            for i, v in enumerate(dots):
                if v == 0:
                    masks[i] |= bit
            continue
        plus = [i for i, v in enumerate(dots) if v > 0]
        zero = [i for i, v in enumerate(dots) if v == 0]
        minus = [i for i, v in enumerate(dots) if v < 0]
        new_rays: list[Ray] = []
        for i in plus:
            for j in minus:
                meet = masks[i] & masks[j]
                if any(
                    k != i and k != j and meet & masks[k] == meet
                    for k in range(len(rays))
                ):
                    continue
                combo = tuple(
                    dots[i] * rays[j][c] - dots[j] * rays[i][c]
                    for c in range(d)
                )
                new_rays.append(primitive(combo))
        kept_rays = [rays[i] for i in plus + zero]
        kept_masks = [
            masks[i] | (bit if i in zero else 0) for i in plus + zero
        ]
        prior_rows = system.rows[: t + 1]
        for r in new_rays:
            m = sum(1 << c for c in range(d) if r[c] == 0)
            for s, prow in enumerate(prior_rows):
                if dot(prow, r) == 0:
                    m |= 1 << (nbase + s)
            kept_rays.append(r)
            kept_masks.append(m)
        rays, masks = kept_rays, kept_masks

    if rank(rays) < d:
        raise DegenerateCone(
            f"system cuts out a cone of rank {rank(rays)} < {d}"
        )
    return tuple(sorted(rays, key=_point_key))


def triangulate(rays: Sequence[Ray]) -> tuple[SimplicialSubcone, ...]:
    """Placing triangulation of the cone spanned by the given rays.

    Rays are placed in the given order (after a greedy independent prefix
    seeds the first simplex); each new ray is coned over the boundary
    walls it sees. Output is deterministic for a fixed input order.
    """
    rays = [tuple(r) for r in rays]
    d = len(rays[0])
    base: list[int] = []
    rest: list[int] = []
    for idx in range(len(rays)):
        if len(base) < d and rank([rays[i] for i in base] + [rays[idx]]) > len(base):
            base.append(idx)
        else:
            rest.append(idx)
    if len(base) < d:
        raise DegenerateCone(
            f"rays span rank {len(base)} < {d}; cannot triangulate"
        )

    simplices: list[tuple[int, ...]] = [tuple(sorted(base))]
    unsigned_normals: dict[tuple[int, ...], Ray] = {}

    def outward_normal(wall: tuple[int, ...], opposite: int) -> Ray:
        h = unsigned_normals.get(wall)
        if h is None:
            h = cross_normal([rays[i] for i in wall])
            unsigned_normals[wall] = h
        s = dot(h, rays[opposite])
        assert s != 0, "wall normal orthogonal to its own simplex"
        return h if s < 0 else tuple(-x for x in h)

    def boundary_walls() -> list[tuple[tuple[int, ...], int]]:
        seen: dict[tuple[int, ...], list[int]] = {}
        for s in simplices:
            for wall in combinations(s, d - 1):
                opp = next(i for i in s if i not in wall)
                seen.setdefault(wall, []).append(opp)
        return [(w, opps[0]) for w, opps in seen.items() if len(opps) == 1]

    for idx in rest:
        r = rays[idx]
        created = []
        for wall, opp in boundary_walls():
            if dot(outward_normal(wall, opp), r) > 0:
                created.append(tuple(sorted(wall + (idx,))))
        simplices.extend(created)

    out = []
    for s in simplices:
        svecs = tuple(sorted((rays[i] for i in s), key=_point_key))
        out.append(SimplicialSubcone(svecs, abs(det(svecs))))
    out.sort(key=lambda sc: sc.rays)
    return tuple(out)


def parallelepiped_points(subcone: SimplicialSubcone) -> tuple[LatticePoint, ...]:
    """Lattice points of the half-open box {sum a_j q_j : 0 <= a_j < 1}.

    Enumerated through the quotient Z^d / Q Z^d: the column Hermite form
    of the ray matrix gives one residue representative per diagonal box
    cell, and each representative is folded into the parallelepiped by
    reducing its ray coordinates mod 1. Exactly `index` points, 0 included.
    """
    q = subcone.rays
    d = len(q)
    if subcone.index == 1:
        return ((0,) * d,)
    qmat = [[q[j][r] for j in range(d)] for r in range(d)]  # rays as columns
    dval = det(qmat)
    adj = adjugate(qmat)
    if dval < 0:
        dval = -dval
        adj = [[-x for x in row] for row in adj]
    h = hnf_columns(qmat)
    points = set()
    for z in product(*(range(h[i][i]) for i in range(d))):
        t = [sum(adj[j][r] * z[r] for r in range(d)) % dval for j in range(d)]
        p = tuple(
            sum(qmat[r][j] * t[j] for j in range(d)) // dval for r in range(d)
        )
        points.add(p)
    assert len(points) == subcone.index
    return tuple(sorted(points, key=_point_key))


def primal_hilbert_basis(system: ConeSystem) -> tuple[LatticePoint, ...]:
    """Hilbert basis of a cone system by the primal pipeline, uncapped.

    Candidates are all extreme rays plus all parallelepiped points of a
    placing triangulation; a candidate x is dropped iff some other
    candidate y has x - y in the cone and x != y. Points are sorted by
    degree, then coordinates.
    """
    rays = extreme_rays(system)
    subcones = triangulate(rays)

    candidates: set[LatticePoint] = set(rays)
    zero = (0,) * system.dim
    for sc in subcones:
        candidates.update(p for p in parallelepiped_points(sc) if p != zero)

    ordered = sorted(candidates, key=_point_key)
    rows = all_rows(system)
    slacks = [tuple(dot(row, c) for row in rows) for c in ordered]

    def irreducible(i: int) -> bool:
        si = slacks[i]
        return not any(
            j != i and all(a <= b for a, b in zip(slacks[j], si))
            for j in range(len(ordered))
        )

    return tuple(c for i, c in enumerate(ordered) if irreducible(i))


def decompose_lattice_point(
    basis_points: Iterable[LatticePoint],
    target: Sequence[int],
) -> dict[LatticePoint, int] | None:
    """Express a lattice point as an N-combination of basis points.

    Bounded depth-first search with memoization; unit vectors in the basis
    absorb whatever remains once the last coordinate reaches zero. Returns
    the multiplicity map, or None when no combination exists.
    """
    target = tuple(int(x) for x in target)
    d = len(target)
    units = {tuple(p) for p in basis_points if p[-1] == 0}
    positive = sorted(
        (tuple(p) for p in basis_points if p[-1] > 0),
        key=_point_key,
        reverse=True,
    )
    dead: set[tuple[LatticePoint, int]] = set()

    def finishable(rem: LatticePoint) -> dict[LatticePoint, int] | None:
        if rem[-1] != 0:
            return None
        out: dict[LatticePoint, int] = {}
        for i, e in enumerate(rem[:-1]):
            if e:
                unit = tuple(1 if j == i else 0 for j in range(d))
                if unit not in units:
                    return None
                out[unit] = e
        return out

    def search(rem: LatticePoint, start: int) -> dict[LatticePoint, int] | None:
        fin = finishable(rem)
        if fin is not None:
            return fin
        if (rem, start) in dead:
            return None
        for idx in range(start, len(positive)):
            g = positive[idx]
            if g[-1] > rem[-1] or any(a > b for a, b in zip(g, rem)):
                continue
            sub = search(tuple(b - a for a, b in zip(g, rem)), idx)
            if sub is not None:
                sub = dict(sub)
                sub[g] = sub.get(g, 0) + 1
                return sub
        dead.add((rem, start))
        return None

    return search(target, 0)
