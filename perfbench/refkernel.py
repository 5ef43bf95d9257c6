"""Reference kernel: a fixed piece of pure-Python work in the program's idiom.

Half of it is the monomial layer's idiom: integer tuples joined pairwise,
deduplicated through a set and reduced to an antichain with generator
comparisons in (degree, lex) order. The other half is the cone layer's:
fraction-free (Bareiss) elimination of fixed integer matrices, with the
intermediate big integers that brings. It never imports coveralg and must
never change: its time in a run is the unit in which `corpus_ref`
expresses the corpus time, so that host speed drift, which slows both
alike, cancels. With both halves it slows with the host as the program
does; the antichain half alone overreacted to the host's fast state.
"""

from __future__ import annotations

_VECTORS = [tuple((3 * i + 5 * j + i * j) % 4 for j in range(6)) for i in range(120)]
_MATRIX = [[(7 * i + 3 * j + i * j * j) % 97 - 48 for j in range(12)] for i in range(12)]


def _antichain_part() -> int:
    seen: set[tuple[int, ...]] = set()
    joins = []
    for u in _VECTORS:
        for v in _VECTORS[:8]:
            w = tuple(max(a, b) for a, b in zip(u, v))
            if w not in seen:
                seen.add(w)
                joins.append(w)
    out: list[tuple[int, ...]] = []
    for v in sorted(joins, key=lambda v: (sum(v), v)):
        if not any(all(a <= b for a, b in zip(g, v)) for g in out):
            out.append(v)
    return len(out)


def _bareiss_part() -> int:
    acc = 0
    for shift in range(24):
        a = [row[shift:] + row[:shift] for row in _MATRIX]
        n = len(a)
        prev, sign = 1, 1
        for k in range(n - 1):
            if a[k][k] == 0:
                swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if swap is None:
                    break
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
            pivot = a[k][k]
            for i in range(k + 1, n):
                ri, rk = a[i], a[k]
                f = ri[k]
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * pivot - f * rk[j]) // prev
                ri[k] = 0
            prev = pivot
        acc += sign * a[n - 1][n - 1]
    return acc


def ref_kernel() -> int:
    return _bareiss_part() + _antichain_part()
