"""Seeded corpora for the three workloads.

Everything here is built from the benchmark's own constructions; nothing
imports coveralg. An operation is a CLI argument list plus the facts the
checker needs to verify the output independently of the program's code.
Input files are written by `write_inputs`; the program sees only those
files and the command line.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import combinations

WORKLOADS = ("graphs", "weighted", "symbolic")


@dataclass
class Op:
    name: str
    command: str  # basis | symbolic | power | compare
    # Complex (0-indexed facets, weights) or ideal (exponent vectors).
    n: int
    facets: list[tuple[int, ...]] = field(default_factory=list)
    weights: list[int] = field(default_factory=list)
    gens: list[tuple[int, ...]] = field(default_factory=list)
    order: int = 0
    family: tuple[int, int] | None = None
    kind: str = ""  # graph | complex | family | skeleton:<n>,<j> | ideal
    cycle_len: int = 0  # length of the cycle whose edge ideal this is, else 0
    path: str = ""

    def argv(self) -> list[str]:
        if self.family is not None:
            return ["basis", "--family", str(self.family[0]), str(self.family[1]), "--json"]
        if self.command == "basis":
            return ["basis", self.path, "--json"]
        return [self.command, self.path, "-n", str(self.order), "--json"]

    def input_dict(self) -> dict:
        if self.command == "basis":
            return {
                "n": self.n,
                "facets": [[v + 1 for v in sorted(f)] for f in self.facets],
                "weights": list(self.weights),
            }
        return {"n": self.n, "gens": [list(g) for g in self.gens]}


# --- graphs -----------------------------------------------------------------


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def petersen_edges() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def minimal_vertex_cover_count(n: int, edges: list[tuple[int, int]]) -> int:
    """Number of minimal vertex covers: the complements of the maximal
    independent sets, counted by Bron-Kerbosch with pivoting on bitmasks."""
    full = (1 << n) - 1
    free = [full & ~(1 << v) for v in range(n)]  # vertices not adjacent to v
    for a, b in edges:
        free[a] &= ~(1 << b)
        free[b] &= ~(1 << a)

    def count(p: int, x: int) -> int:
        if not p:
            return 0 if x else 1
        u = max((v for v in range(n) if (p | x) >> v & 1), key=lambda v: bin(p & free[v]).count("1"))
        total = 0
        rest = p & ~free[u]
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            total += count(p & free[v], x & free[v])
            p &= ~(1 << v)
            x |= 1 << v
        return total

    return count(full, 0)


def family_facets(m: int, k: int) -> list[tuple[int, ...]]:
    """The complex of the paper's family on n = m + 2k + 1 vertices.

    Vertices 1..m are hubs; the facets are V minus one hub and V minus each
    wrapped run {i, ..., i+k-1} for i in m+1..n, where an index h above n
    wraps to h - n + m. Its cover (k on hubs, 1 elsewhere) has order mk+k+1.
    """
    n = m + 2 * k + 1
    everything = set(range(n))
    facets = [everything - {i} for i in range(m)]
    for i in range(m + 1, n + 1):
        run = {(h if h <= n else h - n + m) - 1 for h in range(i, i + k)}
        facets.append(everything - run)
    return [tuple(sorted(f)) for f in facets]


# Random graphs are drawn on 8, 9 and 10 vertices with n edges and kept
# only when their number of minimal vertex covers lies in this band. The
# cone's ray count, and with it the placing triangulation's cost, grows
# with that number; the band keeps one seed's random part comparable in
# size to another's, so the corpus time measures the program, not the draw.
GRAPH_COVER_BAND = (5, 6)
RANDOM_GRAPHS = 9


def random_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    pairs = list(combinations(range(n), 2))
    lo, hi = GRAPH_COVER_BAND
    while True:
        edges = sorted(rng.sample(pairs, m))
        if lo <= minimal_vertex_cover_count(n, edges) <= hi:
            return edges


def graphs_corpus(seed: int) -> list[Op]:
    ops = []
    for n in range(7, 12):
        ops.append(Op(f"C{n}", "basis", n, cycle_edges(n), [1] * n, kind="graph"))
    ops.append(Op("petersen", "basis", 10, petersen_edges(), [1] * 15, kind="graph"))
    fam = family_facets(2, 2)
    ops.append(Op("family-2-2", "basis", 7, fam, [1] * len(fam), family=(2, 2), kind="family"))
    rng = random.Random(seed)
    for i in range(RANDOM_GRAPHS):
        n = 8 + i % 3
        edges = random_graph(rng, n, n)
        ops.append(Op(f"random-graph-{i}", "basis", n, edges, [1] * len(edges), kind="graph"))
    return ops


# --- weighted complexes -----------------------------------------------------


def skeleton_facets(n: int, j: int) -> list[tuple[int, ...]]:
    return list(combinations(range(n), j + 1))


# (n, j, c): skeleton(n, j) with every weight c. c = 5 is left out for
# skeleton(6,1), skeleton(6,2) and skeleton(5,3), which take 10 s, 515 s and
# 50 s; the other scalings keep a pass at a few seconds.
VERONESE = [
    (5, 1, 1), (5, 1, 3), (5, 1, 4), (5, 1, 5),
    (6, 1, 1), (6, 1, 3), (6, 1, 4),
    (6, 2, 1), (6, 2, 3), (6, 2, 4),
    (5, 3, 1), (5, 3, 3), (5, 3, 4),
]

# Random weighted complexes: 5 vertices, 3 or 4 facets of 2 to 4 vertices,
# weights 1 to 4, kept when sum(w_F * (|F| - 1)) <= WEIGHTED_SIZE_CAP. The
# cap bounds the simplex indices (parallelepiped sizes) that one draw can
# bring; without it a single draw can cost more than the fixed corpus.
RANDOM_COMPLEXES = 36
WEIGHTED_SIZE_CAP = 14


def random_complex(rng: random.Random, n: int) -> tuple[list[tuple[int, ...]], list[int]]:
    while True:
        want = rng.choice((3, 4))
        facets: list[frozenset[int]] = []
        for _ in range(100):
            f = frozenset(rng.sample(range(n), rng.randint(2, 4)))
            if not any(f <= g or g <= f for g in facets):
                facets.append(f)
            if len(facets) == want:
                break
        if len(facets) != want:
            continue
        weights = [rng.randint(1, 4) for _ in facets]
        if sum(w * (len(f) - 1) for f, w in zip(facets, weights)) <= WEIGHTED_SIZE_CAP:
            return [tuple(sorted(f)) for f in facets], weights


def weighted_corpus(seed: int) -> list[Op]:
    ops = []
    for n, j, c in VERONESE:
        fs = skeleton_facets(n, j)
        kind = f"skeleton:{n},{j}" if c == 1 else "complex"
        ops.append(Op(f"skeleton-{n}-{j}-x{c}", "basis", n, fs, [c] * len(fs), kind=kind))
    rng = random.Random(seed)
    for i in range(RANDOM_COMPLEXES):
        fs, ws = random_complex(rng, 5)
        ops.append(Op(f"random-complex-{i}", "basis", 5, fs, ws, kind="complex"))
    return ops


# --- squarefree ideals ------------------------------------------------------


def face_ideal(rng: random.Random, n: int, faces: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """0/1 generators of the faces, listed in a seeded order.

    Vertex labels stay fixed: relabeling moves the (degree, lex) order the
    program sorts by, and with it the cost of one ideal by up to half
    (C_7 at k = 4 in compare: 2.3 s to 3.4 s), which would measure the draw.
    """
    gens = [tuple(1 if i in face else 0 for i in range(n)) for face in faces]
    rng.shuffle(gens)
    return gens


# (label, n, faces, cycle length or 0, command, k). Left out for size: C_8
# at k = 3 (4.7 s) and k = 4 (43 s), the Petersen graph (2.7 s at k = 2,
# 79 s at k = 3), the triangle ideal at k = 4 (8.6 s) and C_7 at k = 4 as
# `symbolic`, which the `compare` on C_7 at k = 4 computes anyway.
def _symbolic_specs():
    k6 = list(combinations(range(6), 2))
    k5 = list(combinations(range(5), 2))
    tri7 = list(combinations(range(7), 3))
    specs = []
    for k in (2, 3, 4):
        specs.append((f"C6-k{k}", 6, cycle_edges(6), 6, "symbolic", k))
    for k in (2, 3):
        specs.append((f"C7-k{k}", 7, cycle_edges(7), 7, "symbolic", k))
    specs.append(("C8-k2", 8, cycle_edges(8), 8, "symbolic", 2))
    for k in (2, 3, 4):
        specs.append((f"K6-k{k}", 6, k6, 0, "symbolic", k))
    for k in (2, 3):
        specs.append((f"triangles7-k{k}", 7, tri7, 0, "symbolic", k))
    specs.append(("compare-C7-k4", 7, cycle_edges(7), 7, "compare", 4))
    specs.append(("compare-C9-k2", 9, cycle_edges(9), 9, "compare", 2))
    specs.append(("compare-K5-k3", 5, k5, 0, "compare", 3))
    specs.append(("power-C9-k4", 9, cycle_edges(9), 9, "power", 4))
    return specs


def symbolic_corpus(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for label, n, faces, clen, command, k in _symbolic_specs():
        gens = face_ideal(rng, n, faces)
        ops.append(Op(label, command, n, gens=gens, order=k, kind="ideal", cycle_len=clen))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    return {"graphs": graphs_corpus, "weighted": weighted_corpus, "symbolic": symbolic_corpus}[workload](seed)


def write_inputs(ops: list[Op], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for op in ops:
        if op.family is not None:
            continue
        op.path = os.path.join(directory, op.name + ".json")
        with open(op.path, "w", encoding="utf-8") as fh:
            json.dump(op.input_dict(), fh)
