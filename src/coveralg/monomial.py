"""Exact monomial ideal arithmetic in n variables.

An ideal is stored as its unique minimal generating set: an antichain of
exponent vectors under componentwise <=, sorted by (total degree, lex) so
that equal ideals compare equal and output is reproducible bit for bit.
The zero ideal has no generators; the unit ideal is generated by the zero
vector. Values are immutable and every operation returns a new ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DimensionMismatch, ZeroIdealColon

ExpVec = tuple[int, ...]


def degree_lex_key(v: ExpVec) -> tuple[int, ExpVec]:
    return (sum(v), v)


def divides(f: ExpVec, m: ExpVec) -> bool:
    """True iff x^f divides x^m, i.e. f <= m componentwise."""
    return all(a <= b for a, b in zip(f, m))


def _antichain(vectors: Iterable[ExpVec]) -> tuple[ExpVec, ...]:
    # Ascending degree order means earlier vectors can never be divisible
    # by later ones, so a single forward pass suffices.
    out: list[ExpVec] = []
    for v in sorted(set(vectors), key=degree_lex_key):
        if not any(divides(g, v) for g in out):
            out.append(v)
    return tuple(out)


def _checked(n: int, vectors: Iterable[Iterable[int]]) -> list[ExpVec]:
    vecs = []
    for raw in vectors:
        v = tuple(int(x) for x in raw)
        if len(v) != n:
            raise DimensionMismatch(
                f"exponent vector {v} has length {len(v)}, expected {n}"
            )
        if any(x < 0 for x in v):
            raise ValueError(f"negative exponent in {v}")
        vecs.append(v)
    return vecs


@dataclass(frozen=True)
class MonomialIdeal:
    n: int
    gens: tuple[ExpVec, ...]

    @classmethod
    def from_gens(cls, n: int, vectors: Iterable[Iterable[int]]) -> MonomialIdeal:
        return cls(n, _antichain(_checked(n, vectors)))

    @classmethod
    def zero(cls, n: int) -> MonomialIdeal:
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> MonomialIdeal:
        return cls(n, ((0,) * n,))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for g in self.gens for e in g)

    def _same_ring(self, other: MonomialIdeal) -> None:
        if self.n != other.n:
            raise DimensionMismatch(
                f"ideals live in {self.n} and {other.n} variables"
            )

    def contains(self, m: Iterable[int]) -> bool:
        """Membership of the monomial x^m."""
        v = tuple(int(x) for x in m)
        if len(v) != self.n:
            raise DimensionMismatch(
                f"monomial {v} has length {len(v)}, expected {self.n}"
            )
        return any(divides(g, v) for g in self.gens)

    def __contains__(self, m: Iterable[int]) -> bool:
        return self.contains(m)

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        self._same_ring(other)
        joins = (
            tuple(max(a, b) for a, b in zip(f, g))
            for f in self.gens
            for g in other.gens
        )
        return MonomialIdeal(self.n, _antichain(joins))

    __and__ = intersect

    def multiply(self, other: MonomialIdeal) -> MonomialIdeal:
        self._same_ring(other)
        sums = (
            tuple(a + b for a, b in zip(f, g))
            for f in self.gens
            for g in other.gens
        )
        return MonomialIdeal(self.n, _antichain(sums))

    __mul__ = multiply

    def sum(self, other: MonomialIdeal) -> MonomialIdeal:
        self._same_ring(other)
        return MonomialIdeal(self.n, _antichain(self.gens + other.gens))

    __add__ = sum

    def power(self, k: int) -> MonomialIdeal:
        """k-th ordinary power by square-and-multiply, k=0 gives the unit ideal."""
        if k < 0:
            raise ValueError(f"power exponent must be >= 0, got {k}")
        result = MonomialIdeal.unit(self.n)
        base = self
        e = k
        while e:
            if e & 1:
                result = result.multiply(base)
            e >>= 1
            if e:
                base = base.multiply(base)
        return result

    def __pow__(self, k: int) -> MonomialIdeal:
        return self.power(k)

    def colon(self, other: MonomialIdeal) -> MonomialIdeal:
        """Ideal quotient (self : other)."""
        self._same_ring(other)
        if other.is_zero:
            raise ZeroIdealColon("colon by the zero ideal is undefined")
        result: MonomialIdeal | None = None
        for g in other.gens:
            shifted = MonomialIdeal(
                self.n,
                _antichain(
                    tuple(max(a - b, 0) for a, b in zip(f, g)) for f in self.gens
                ),
            )
            result = shifted if result is None else result.intersect(shifted)
        assert result is not None
        return result

    def saturate(self, other: MonomialIdeal) -> MonomialIdeal:
        """(self : other^infinity), reached as a finite colon chain."""
        self._same_ring(other)
        if other.is_zero:
            raise ZeroIdealColon("saturation by the zero ideal is undefined")
        current = self
        while True:
            nxt = current.colon(other)
            if nxt == current:
                return current
            current = nxt

    def symbolic_power(self, k: int, wrt: MonomialIdeal) -> MonomialIdeal:
        """k-th power saturated by wrt."""
        if k < 1:
            raise ValueError(f"symbolic power order must be >= 1, got {k}")
        return self.power(k).saturate(wrt)

    def to_dict(self) -> dict:
        return {"n": self.n, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_dict(cls, data: dict) -> MonomialIdeal:
        n = int(data["n"])
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        return cls.from_gens(n, data.get("gens", []))

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(monomial_str(g) for g in self.gens) + ")"


def minimalize(vectors: Iterable[Iterable[int]], n: int | None = None) -> MonomialIdeal:
    """Canonical ideal generated by the given exponent vectors.

    The ambient dimension is read off the vectors; it must be passed
    explicitly when the input is empty.
    """
    vecs = [tuple(int(x) for x in v) for v in vectors]
    if n is None:
        if not vecs:
            raise ValueError("ambient dimension required for empty input")
        n = len(vecs[0])
    return MonomialIdeal.from_gens(n, vecs)


def monomial_str(v: ExpVec, t_degree: int | None = None) -> str:
    """Render an exponent vector as x1^a1*...*xn^an, optionally with a t^k tail."""
    parts = []
    for i, e in enumerate(v):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    if t_degree is not None and t_degree > 0:
        parts.append("t" if t_degree == 1 else f"t^{t_degree}")
    return "*".join(parts) if parts else "1"
