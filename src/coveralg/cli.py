"""Batch command line front end.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 usage error, 2 invalid input, 3 the degree cap may have cut the output
short, 4 internal error (a failed invariant: a bug, never bad input).
Identical invocations on identical inputs produce byte-identical output.
Each command returns its JSON record and its text lines, the lines as a
lazy iterable, and `main` alone prints one of the two and picks the exit
code, so `--json` formats no text.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Iterable, Iterator, Sequence

from . import algebra
from .complexes import CoverPoint, WeightedComplex, skeleton_generators
from .errors import DimensionMismatch, InternalError
from .monomial import MonomialIdeal, monomial_str

# The graph commands import from .graphs inside their functions: the other
# commands never call it, and each process pays for what it imports.

USAGE_EXIT = 1
INPUT_EXIT = 2
CAP_EXIT = 3
INTERNAL_EXIT = 4

# A command's output: its JSON record and its text lines.
Output = tuple[dict, Iterable[str]]

# Every input error of the package derives from ValueError, and so does
# json.JSONDecodeError; a missing or unreadable file is an OSError.
_INPUT_ERRORS = (ValueError, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_complex(path: str) -> WeightedComplex:
    return WeightedComplex.from_dict(_load_json(path))


def _load_ideal(path: str) -> MonomialIdeal:
    return MonomialIdeal.from_dict(_load_json(path))


def _parse_cover(text: str, n: int) -> tuple[tuple[int, ...], int]:
    try:
        coords, order = text.split(";")
        a = tuple(int(x) for x in coords.split(",")) if coords else ()
        k = int(order)
    except ValueError as exc:
        raise ValueError(f"cover must look like '1,1,0;2', got {text!r}") from exc
    if len(a) != n:
        raise DimensionMismatch(f"cover has {len(a)} coordinates for {n} vertices")
    return a, k


def _resolve_complex(args: argparse.Namespace) -> WeightedComplex:
    if args.family:
        from .graphs import family_instance
        if args.complex_file:
            m, k = args.family
            raise ValueError(
                f"complex file {args.complex_file} and --family {m} {k} "
                "both given; pass one"
            )
        return family_instance(*args.family).complex
    if not args.complex_file:
        raise ValueError("either a complex file or --family M K is required")
    return _load_complex(args.complex_file)


def _point(g: CoverPoint) -> dict:
    return {"a": list(g.a), "k": g.k}


def _lines(points: Sequence[CoverPoint]) -> Iterator[str]:
    return (monomial_str(g.a, g.k) for g in points)


def _standard_graded(d: int) -> bool:
    """Standard graded: no minimal generator has degree above 1."""
    return d <= 1


def _bound(n: int, d: int) -> tuple[bool | None, int | None]:
    """Verdict and limit of the degree bound for max generator degree d.

    The bound is stated for n >= 1; at n = 0 both are null, not a failure.
    """
    if n < 1:
        return None, None
    limit = algebra.degree_limit(n)
    return d <= limit, limit


def _summary(pres: algebra.AlgebraPresentation) -> dict:
    d = algebra.max_degree(pres)
    verdict, _ = _bound(pres.n, d)
    word = "satisfied" if verdict else "violated"
    return {
        "max_degree": d,
        "standard_graded": _standard_graded(d),
        "gorenstein": algebra.gorenstein_report(pres.complex).verdict,
        "bound_n": None if verdict is None else f"(n+1)^((n+3)/2)/2^n {word}",
    }


def cmd_basis(args: argparse.Namespace) -> Output:
    pres = algebra.generators(_resolve_complex(args), args.cap)
    record = {
        "n": pres.n,
        "basis": [_point(g) for g in pres.generators],
        "truncated": pres.truncated,
        "summary": {} if pres.truncated else _summary(pres),
    }
    return record, _lines(pres.generators)


def _ideal(ideal: MonomialIdeal) -> Output:
    return ideal.to_dict(), (monomial_str(g) for g in ideal.gens)


def cmd_symbolic(args: argparse.Namespace) -> Output:
    ideal = _load_ideal(args.ideal_file)
    if args.wrt:
        return _ideal(ideal.symbolic_power(args.order, _load_ideal(args.wrt)))
    if not ideal.is_squarefree:
        raise ValueError(
            "ordinary symbolic powers need a squarefree ideal; "
            "pass --wrt J-file to saturate with respect to J instead"
        )
    return _ideal(algebra.squarefree_symbolic_power(ideal, args.order))


def cmd_power(args: argparse.Namespace) -> Output:
    return _ideal(_load_ideal(args.ideal_file).power(args.order))


def cmd_compare(args: argparse.Namespace) -> Output:
    k = args.order
    result = algebra.compare_powers(_load_ideal(args.ideal_file), k)
    witness = result.witness

    def text() -> Iterator[str]:
        yield f"power {k}: " + (
            "symbolic equals ordinary" if result.equal
            else f"symbolic strictly larger, witness {monomial_str(witness)}"
        )

    witness_a = list(witness) if witness else None
    return {"k": k, "equal": result.equal, "witness": witness_a}, text()


def _check_bipartite(complex_: WeightedComplex) -> Output:
    from .graphs import bipartition
    bip = bipartition(complex_)
    parts = [sorted(v + 1 for v in p) for p in bip.parts] if bip.is_bipartite else None
    odd_cycle = None if bip.is_bipartite else [v + 1 for v in bip.odd_cycle]
    record = {"check": "bipartite", "verdict": bip.is_bipartite, "parts": parts,
              "odd_cycle": odd_cycle}

    def text() -> Iterator[str]:
        if parts is None:
            yield "bipartite: false"
            yield "odd cycle: " + " ".join(map(str, odd_cycle))
        else:
            yield "bipartite: true"
            yield "parts: " + " ".join(f"{{{','.join(map(str, p))}}}" for p in parts)

    return record, text()


def _check_standard(complex_: WeightedComplex) -> Output:
    pres = algebra.generators(complex_)
    d = algebra.max_degree(pres)
    verdict = _standard_graded(d)
    witness = None if verdict else pres.generators[-1]  # the last in degree order
    record = {"check": "standard", "verdict": verdict, "max_degree": d,
              "witness": None if witness is None else _point(witness)}

    def text() -> Iterator[str]:
        yield f"standard graded: {str(verdict).lower()}"
        if witness is not None:
            yield f"witness generator: {monomial_str(witness.a, witness.k)}"

    return record, text()


def _check_gorenstein(complex_: WeightedComplex) -> Output:
    report = algebra.gorenstein_report(complex_)
    record: dict = {"check": "gorenstein", "verdict": None, "stripped_facets": [],
                    "offending_facets": []}
    if report.verdict is None:
        return record, (
            "gorenstein: not applicable (needs a facet with at least two vertices)",
        )
    record["verdict"] = report.verdict
    record["stripped_facets"] = [[v + 1] for v, _ in report.stripped]
    record["offending_facets"] = [
        {"facet": [v + 1 for v in f], "weight": w} for f, w in report.offending
    ]

    def text() -> Iterator[str]:
        yield f"gorenstein: {str(report.verdict).lower()}"
        if report.stripped:
            yield "stripped singleton facets: " + " ".join(
                f"{{{v + 1}}}" for v, _ in report.stripped
            )
        for f, w in report.offending:
            yield (
                f"facet {{{','.join(str(v + 1) for v in f)}}} has weight {w}, "
                f"needs {len(f) - 1}"
            )

    return record, text()


def _check_bound(complex_: WeightedComplex) -> Output:
    n = complex_.n
    d = algebra.max_degree(algebra.generators(complex_))
    verdict, limit = _bound(n, d)
    record = {"check": "bound", "verdict": verdict, "max_degree": d,
              "bound_limit": limit}

    def text() -> Iterator[str]:
        if verdict is None:
            yield (f"max generator degree {d}; degree bound for n={n}: "
                   "not applicable (needs n >= 1)")
        else:
            yield (f"max generator degree {d} within degree bound for n={n} "
                   f"(limit {limit}): {str(verdict).lower()}")

    return record, text()


_CHECKS = {
    "bipartite": _check_bipartite,
    "standard": _check_standard,
    "gorenstein": _check_gorenstein,
    "bound": _check_bound,
}


def cmd_check(args: argparse.Namespace) -> Output:
    return _CHECKS[args.kind](_load_complex(args.complex_file))


def cmd_decompose(args: argparse.Namespace) -> Output:
    from .graphs import decompose, family_instance
    if args.family and not (args.cover or args.complex_file):
        inst = family_instance(*args.family)  # with its distinguished cover
        complex_, a, k = inst.complex, inst.cover, inst.order
    else:
        complex_ = _resolve_complex(args)
        if not args.cover:
            raise ValueError("--cover 'a1,...,an;k' is required")
        a, k = _parse_cover(args.cover, complex_.n)
    r = decompose(complex_, a, k)
    if r is None:
        return {"decomposable": False}, ("indecomposable",)

    def text() -> Iterator[str]:
        yield f"decomposable: {monomial_str(r.b, r.i)} + {monomial_str(r.c, r.j)}"

    record = {"decomposable": True, "b": list(r.b), "i": r.i, "c": list(r.c),
              "j": r.j}
    return record, text()


def cmd_split(args: argparse.Namespace) -> Output:
    from .graphs import neighbors, split
    complex_ = _load_complex(args.complex_file)
    neighbors(complex_)  # a facet that is no edge outranks a malformed cover
    parts = split(complex_, *_parse_cover(args.cover, complex_.n))
    return {"parts": [_point(p) for p in parts]}, _lines(parts)


def cmd_skeleton(args: argparse.Namespace) -> Output:
    gens = skeleton_generators(args.n, args.j)
    record = {"n": args.n, "basis": [_point(g) for g in gens], "truncated": False}
    return record, _lines(gens)


def cmd_family(args: argparse.Namespace) -> Output:
    from .graphs import family_instance
    inst = family_instance(args.m, args.k)
    data = inst.complex.to_dict()
    data["cover"] = {"a": list(inst.cover), "k": inst.order}
    data["edges"] = [sorted(v + 1 for v in e) for e in inst.graph.facets]
    return data, ()


def cmd_bound(args: argparse.Namespace) -> Output:
    n = args.n
    limit = algebra.degree_limit(n)

    def text() -> Iterator[str]:
        yield (f"generator degrees for n={n} are provably <= {limit} "
               "(d^2*4^n < (n+1)^(n+3))")

    return {"n": n, "max_degree": limit}, text()


def _add_family(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        nargs=2,
        type=int,
        metavar=("M", "K"),
        help="use the built-in family instance instead of a file",
    )


@cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coveralg",
        description="Vertex cover algebras and monomial symbolic powers, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="minimal algebra generators of a complex")
    p.add_argument("complex_file", nargs="?")
    _add_family(p)
    p.add_argument("--cap", type=int, help="stop at degree N; exit 3 if cut short")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("symbolic", help="symbolic power of a monomial ideal")
    p.add_argument("ideal_file")
    p.add_argument("-n", dest="order", type=int, required=True)
    p.add_argument("--wrt", help="ideal file to saturate with respect to")
    p.set_defaults(func=cmd_symbolic)

    p = sub.add_parser("power", help="ordinary power of a monomial ideal")
    p.add_argument("ideal_file")
    p.add_argument("-n", dest="order", type=int, required=True)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("compare", help="symbolic versus ordinary power")
    p.add_argument("ideal_file")
    p.add_argument("-n", dest="order", type=int, required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check", help="predicates with witnesses")
    p.add_argument("complex_file")
    p.add_argument("kind", choices=_CHECKS)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="split a cover or certify it indecomposable")
    p.add_argument("complex_file", nargs="?")
    _add_family(p)
    p.add_argument("--cover", help="cover as 'a1,...,an;k'")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("split", help="constructive cover splittings for graphs")
    p.add_argument("complex_file")
    p.add_argument("--cover", required=True, help="cover as 'a1,...,an;k'")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("skeleton", help="closed-form skeleton generators")
    p.add_argument("n", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("family", help="emit a family instance as a complex file")
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_family, json=True)  # a complex file is JSON

    p = sub.add_parser("bound", help="provable degree limit for n vertices")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_bound)

    # --json comes last, after each command's own arguments, in usage and help
    for p in sub.choices.values():
        if p.get_default("json") is None:
            p.add_argument("--json", action="store_true")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        record, lines = args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        for line in lines:
            print(line)
    if record.get("truncated"):
        print("warning: output truncated at degree cap", file=sys.stderr)
        return CAP_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
