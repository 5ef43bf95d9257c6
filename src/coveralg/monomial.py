"""Exact monomial ideal arithmetic in n variables.

An ideal is stored as its unique minimal generating set: an antichain of
exponent vectors under componentwise <=, sorted by (total degree, lex) so
that equal ideals compare equal and output is reproducible bit for bit.
The zero ideal has no generators; the unit ideal is generated by the zero
vector. Values are immutable and every operation returns a new ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Iterable

from .errors import DimensionMismatch, InternalError, ZeroIdealColon

ExpVec = tuple[int, ...]


def degree_lex_key(v: ExpVec) -> tuple[int, ExpVec]:
    return (sum(v), v)


def divides(f: ExpVec, m: ExpVec) -> bool:
    """True iff x^f divides x^m, i.e. f <= m componentwise."""
    return all(map(le, f, m))


def minimal_elements(vectors: Iterable[ExpVec]) -> tuple[ExpVec, ...]:
    """Distinct vectors that lie above no other one, in (degree, lex) order.

    If g <= v componentwise and g != v, then sum(g) < sum(v): a vector can
    only lie above one of strictly lower total degree. So one pass in
    (degree, lex) order tests each vector against the kept vectors of
    lower degree only, never against those of its own degree; vectors
    that all share one degree need no test at all.
    """
    lower: list[ExpVec] = []  # kept vectors of lower degree than v
    level: list[ExpVec] = []  # kept vectors of v's degree
    degree: int | None = None
    for d, v in sorted((sum(v), v) for v in set(vectors)):
        if d != degree:
            degree = d
            lower += level
            level = []
        if not any(all(map(le, g, v)) for g in lower):
            level.append(v)
    return tuple(lower + level)


_SHAPES = ("an integer", "a list of integers", "a list of lists of integers")


def _ints(value: object, depth: int) -> bool:
    if depth == 0:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, list) and all(_ints(v, depth - 1) for v in value)


def file_field(data: object, key: str, depth: int, error: type, default=...):
    """data[key] of a file's JSON object, checked to be ints nested depth deep.

    Nothing is coerced: a bool, float or string is not an int. A missing
    field without a default, a malformed one, or a top level that is not
    an object raises `error` naming the field. Other keys are ignored.
    """
    if not isinstance(data, dict):
        raise error(f"file must hold a JSON object, got {type(data).__name__}")
    if key not in data:
        if default is ...:
            raise error(f"missing field '{key}'")
        return default
    value = data[key]
    if not _ints(value, depth):
        got = f", got {value!r}" if depth == 0 else ""
        raise error(f"field '{key}' must be {_SHAPES[depth]}{got}")
    return value


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
        return cls(n, minimal_elements(_checked(n, vectors)))

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
        return MonomialIdeal(self.n, minimal_elements(joins))

    __and__ = intersect

    def multiply(self, other: MonomialIdeal) -> MonomialIdeal:
        self._same_ring(other)
        sums = (
            tuple(a + b for a, b in zip(f, g))
            for f in self.gens
            for g in other.gens
        )
        return MonomialIdeal(self.n, minimal_elements(sums))

    __mul__ = multiply

    def sum(self, other: MonomialIdeal) -> MonomialIdeal:
        self._same_ring(other)
        return MonomialIdeal(self.n, minimal_elements(self.gens + other.gens))

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
                minimal_elements(
                    tuple(max(a - b, 0) for a, b in zip(f, g)) for f in self.gens
                ),
            )
            result = shifted if result is None else result.intersect(shifted)
        if result is None:
            raise InternalError("colon by a nonzero ideal left no result")
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
        n = file_field(data, "n", 0, ValueError)
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        return cls.from_gens(n, file_field(data, "gens", 2, ValueError, []))

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(monomial_str(g) for g in self.gens) + ")"


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
