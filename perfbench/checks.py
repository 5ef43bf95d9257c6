"""Independent checks of CLI outputs.

Nothing here imports coveralg: every expected fact is recomputed from the
definitions (facet inequalities, brute-force covers, box scans, breadth-
first search, closed forms). Each check returns None when the output is
correct and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from itertools import combinations, combinations_with_replacement, product

from corpus import Op

# Largest box [0, k]^n (or [0, W]^n) scanned point by point.
BOX_LIMIT = 60_000


def _leq(f, m) -> bool:
    return all(a <= b for a, b in zip(f, m))


def _antichain(vectors) -> set[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for v in sorted(set(vectors), key=lambda v: (sum(v), v)):
        if not any(_leq(g, v) for g in out):
            out.append(v)
    return set(out)


# --- cover algebras ---------------------------------------------------------


class CoverCone:
    """Lattice points (a, k) with a >= 0, k >= 0 and sum_F a >= k * w_F."""

    def __init__(self, op: Op):
        self.n = op.n
        self.facets = [tuple(f) for f in op.facets]
        self.weights = list(op.weights)

    def contains(self, a, k: int) -> bool:
        if k < 0 or any(x < 0 for x in a):
            return False
        return all(
            sum(a[i] for i in f) >= k * w for f, w in zip(self.facets, self.weights)
        )

    def minimal_order1_covers(self) -> set[tuple[int, ...]] | None:
        top = max(self.weights, default=1)
        if (top + 1) ** self.n > BOX_LIMIT:
            return None
        covers = {
            a for a in product(range(top + 1), repeat=self.n) if self.contains(a, 1)
        }
        return {
            a
            for a in covers
            if not any(
                a[i] and a[:i] + (a[i] - 1,) + a[i + 1 :] in covers
                for i in range(self.n)
            )
        }


def bipartite(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    color = [-1] * n
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = [root]
        for u in queue:
            for v in adj[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def skeleton_closed_form(n: int, j: int) -> set[tuple[tuple[int, ...], int]]:
    """Generators of skeleton(n, j): for q = 1..j+1, 0/1 vectors on n-j+q-1 vertices."""
    out = set()
    for q in range(1, j + 2):
        for verts in combinations(range(n), n - j + q - 1):
            out.add((tuple(1 if i in verts else 0 for i in range(n)), q))
    return out


def degree_bound_holds(n: int, d: int) -> bool:
    """d < (n+1)^((n+3)/2) / 2^n, squared to stay in integers."""
    return d * d * 4**n < (n + 1) ** (n + 3)


def check_basis(op: Op, data: dict) -> str | None:
    if data.get("n") != op.n or data.get("truncated") is not False:
        return "wrong n or truncated output"
    gens = []
    for item in data.get("basis", []):
        a, k = tuple(item["a"]), item["k"]
        if len(a) != op.n or not isinstance(k, int) or k < 1:
            return f"malformed generator {item}"
        gens.append((a, k))
    if len(set(gens)) != len(gens):
        return "duplicate generator"
    cone = CoverCone(op)
    for a, k in gens:
        if not cone.contains(a, k):
            return f"{a} is not a cover of order {k}"
    units = [(tuple(1 if j == i else 0 for j in range(op.n)), 0) for i in range(op.n)]
    for a, k in gens:
        for b, j in gens + units:
            if (b, j) == (a, k) or j > k:
                continue
            diff = tuple(x - y for x, y in zip(a, b))
            if cone.contains(diff, k - j):
                return f"{(a, k)} is {(b, j)} plus the cone point {(diff, k - j)}"
    minimal = cone.minimal_order1_covers()
    if minimal is not None and {a for a, k in gens if k == 1} != minimal:
        return "degree-1 part differs from the minimal order-1 covers"
    top = max((k for _, k in gens), default=0)
    if op.n >= 1 and not degree_bound_holds(op.n, top):
        return f"degree {top} exceeds (n+1)^((n+3)/2)/2^n"
    summary = data.get("summary", {})
    if summary.get("max_degree") != top or summary.get("standard_graded") != (top <= 1):
        return "summary disagrees with the generator list"
    if op.kind == "graph":
        if top > 2:
            return f"graph generator of degree {top} > 2"
        if (top <= 1) != bipartite(op.n, op.facets):
            return "standard graded does not match bipartiteness"
    if op.kind.startswith("skeleton:"):
        n, j = map(int, op.kind.split(":")[1].split(","))
        if set(gens) != skeleton_closed_form(n, j):
            return f"skeleton({n},{j}) differs from its closed form"
    if op.kind == "family":
        m, kk = op.family
        cover = tuple(kk if i < m else 1 for i in range(op.n))
        if (cover, m * kk + kk + 1) not in set(gens):
            return f"family cover {cover} of order {m * kk + kk + 1} missing"
    return None


# --- symbolic and ordinary powers -------------------------------------------


def minimal_primes(op: Op) -> list[tuple[int, ...]]:
    """Minimal vertex sets meeting every generator's support, by full scan."""
    supports = [sum(1 << i for i, e in enumerate(g) if e) for g in op.gens]
    hitting = {s for s in range(1 << op.n) if all(s & m for m in supports)}
    minimal = [
        s
        for s in hitting
        if not any(s >> i & 1 and (s & ~(1 << i)) in hitting for i in range(op.n))
    ]
    return [tuple(i for i in range(op.n) if s >> i & 1) for s in sorted(minimal)]


def in_symbolic(primes, v, k: int) -> bool:
    return all(sum(v[i] for i in p) >= k for p in primes)


def symbolic_box_scan(op: Op, primes, k: int) -> set[tuple[int, ...]] | None:
    """Minimal points of {v : every prime sum >= k}; they lie in [0, k]^n."""
    if (k + 1) ** op.n > BOX_LIMIT:
        return None
    member = {v for v in product(range(k + 1), repeat=op.n) if in_symbolic(primes, v, k)}
    return {
        v
        for v in member
        if not any(v[i] and v[:i] + (v[i] - 1,) + v[i + 1 :] in member for i in range(op.n))
    }


def ordinary_power(op: Op, k: int) -> set[tuple[int, ...]]:
    """Minimal sums of k generators."""
    return _antichain(
        tuple(map(sum, zip(*choice)))
        for choice in combinations_with_replacement(op.gens, k)
    )


def check_symbolic(op: Op, data: dict, primes) -> str | None:
    k = op.order
    gens = [tuple(g) for g in data.get("gens", [])]
    if data.get("n") != op.n or len(set(gens)) != len(gens):
        return "wrong n or duplicate generator"
    for g in gens:
        if not in_symbolic(primes, g, k):
            return f"{g} misses a minimal prime with sum >= {k}"
        for i in range(op.n):
            if g[i] and in_symbolic(primes, g[:i] + (g[i] - 1,) + g[i + 1 :], k):
                return f"{g} is not minimal (coordinate {i + 1} can be lowered)"
    expected = symbolic_box_scan(op, primes, k)
    if expected is not None and set(gens) != expected:
        return "generator set differs from the box scan"
    return None


def check_power(op: Op, data: dict) -> str | None:
    gens = [tuple(g) for g in data.get("gens", [])]
    if data.get("n") != op.n or len(set(gens)) != len(gens):
        return "wrong n or duplicate generator"
    if set(gens) != ordinary_power(op, op.order):
        return "power differs from the minimal sums of k generators"
    return None


def check_compare(op: Op, data: dict, primes) -> str | None:
    k = op.order
    if data.get("k") != k or not isinstance(data.get("equal"), bool):
        return "malformed comparison"
    if op.cycle_len:
        m = op.cycle_len // 2
        expected = op.cycle_len % 2 == 0 or k <= m
        if data["equal"] != expected:
            return f"C_{op.cycle_len} at k={k}: equal should be {expected}"
    if data["equal"]:
        if data.get("witness") is not None:
            return "equal powers with a witness"
        if not op.cycle_len:
            scan = symbolic_box_scan(op, primes, k)
            ordinary = ordinary_power(op, k)
            if scan is not None and not all(any(_leq(g, v) for g in ordinary) for v in scan):
                return "reported equal, but a symbolic generator lies outside I^k"
        return None
    w = data.get("witness")
    if not isinstance(w, list) or len(w) != op.n:
        return "missing witness"
    w = tuple(w)
    if not in_symbolic(primes, w, k):
        return f"witness {w} is not in the symbolic power"
    if any(_leq(g, w) for g in ordinary_power(op, k)):
        return f"witness {w} lies in the ordinary power"
    return None


class Checker:
    """Checks one operation's stdout; caches the per-op oracle data."""

    def __init__(self):
        self._primes: dict[str, list] = {}

    def primes(self, op: Op):
        if op.name not in self._primes:
            self._primes[op.name] = minimal_primes(op)
        return self._primes[op.name]

    def check(self, op: Op, stdout: str) -> str | None:
        try:
            data = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        try:
            if op.command == "basis":
                return check_basis(op, data)
            if op.command == "symbolic":
                return check_symbolic(op, data, self.primes(op))
            if op.command == "power":
                return check_power(op, data)
            return check_compare(op, data, self.primes(op))
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed output: {exc!r}"


def _corruptions(op: Op, data: dict):
    """Outputs that a correct checker must reject, derived from a good one."""
    if op.command == "basis":
        gens = data["basis"]
        ones = [i for i, g in enumerate(gens) if g["k"] == 1]
        if ones:
            yield "dropped degree-1 generator", dict(data, basis=gens[: ones[-1]] + gens[ones[-1] + 1 :])
        if len(gens) >= 2:
            a = [x + y for x, y in zip(gens[0]["a"], gens[1]["a"])]
            extra = {"a": a, "k": gens[0]["k"] + gens[1]["k"]}
            yield "added reducible generator", dict(data, basis=gens + [extra])
    elif op.command in ("symbolic", "power"):
        gens = data["gens"]
        yield "dropped generator", dict(data, gens=gens[:-1])
        bumped = [gens[0][0] + 1] + gens[0][1:]
        yield "added non-minimal generator", dict(data, gens=gens + [bumped])
    else:
        flipped = dict(data, equal=not data["equal"])
        flipped["witness"] = None if data["equal"] is False else [0] * op.n
        yield "flipped verdict", flipped


def self_test(checker: Checker, samples: list[tuple[Op, str]]) -> str | None:
    """Corrupt one good output per command and require the checker to reject it."""
    seen = set()
    for op, stdout in samples:
        if op.command in seen:
            continue
        if op.command == "symbolic" and symbolic_box_scan(op, checker.primes(op), op.order) is None:
            continue
        seen.add(op.command)
        for label, bad in _corruptions(op, json.loads(stdout)):
            if checker.check(op, json.dumps(bad)) is None:
                return f"checker accepted a {label} on {op.name}"
    return None
