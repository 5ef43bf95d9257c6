"""Batch command line front end.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 usage error, 2 invalid input, 3 the degree cap cut the computation
short, 4 internal error (a failed invariant: a bug, never bad input).
Identical invocations on identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import algebra
from .complexes import (
    CoverPoint,
    WeightedComplex,
    skeleton_generators,
)
from .errors import DimensionMismatch, InternalError, InvalidComplex
from .graphs import (
    WeightedGraph,
    bipartite_split,
    bipartition,
    decompose,
    family_instance,
    split_order2,
)
from .monomial import MonomialIdeal, monomial_str

USAGE_EXIT = 1
INPUT_EXIT = 2
CAP_EXIT = 3
INTERNAL_EXIT = 4

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
        a = tuple(int(x) for x in coords.split(","))
        k = int(order)
    except ValueError as exc:
        raise ValueError(f"cover must look like '1,1,0;2', got {text!r}") from exc
    if len(a) != n:
        raise DimensionMismatch(
            f"cover has {len(a)} coordinates for {n} vertices"
        )
    return a, k


def _resolve_complex(args: argparse.Namespace) -> WeightedComplex:
    if getattr(args, "family", None):
        m, k = args.family
        return family_instance(m, k).complex
    if not args.complex_file:
        raise ValueError("either a complex file or --family M K is required")
    return _load_complex(args.complex_file)


def _emit_json(data: dict) -> None:
    print(json.dumps(data, indent=2))


def _presentation_json(pres: algebra.AlgebraPresentation) -> dict:
    out = {
        "n": pres.n,
        "basis": [{"a": list(g.a), "k": g.k} for g in pres.generators],
        "truncated": pres.truncated,
    }
    summary: dict = {}
    if not pres.truncated:
        d = algebra.max_degree(pres)
        summary["max_degree"] = d
        summary["standard_graded"] = d <= 1
        try:
            summary["gorenstein"] = algebra.is_gorenstein(pres.complex)
        except InvalidComplex:
            summary["gorenstein"] = None
        summary["bound_n"] = None  # the bound is stated for n >= 1
        if pres.n >= 1:
            holds = algebra.degree_bound(pres.n).holds(d)
            verdict = "satisfied" if holds else "violated"
            summary["bound_n"] = f"(n+1)^((n+3)/2)/2^n {verdict}"
    out["summary"] = summary
    return out


def _print_points(points: Sequence[CoverPoint]) -> None:
    for g in points:
        print(monomial_str(g.a, g.k))


def cmd_basis(args: argparse.Namespace) -> int:
    complex_ = _resolve_complex(args)
    pres = algebra.generators(complex_, args.cap)
    if args.json:
        _emit_json(_presentation_json(pres))
    else:
        _print_points(pres.generators)
    if pres.truncated:
        print("warning: output truncated at degree cap", file=sys.stderr)
        return CAP_EXIT
    return 0


def _print_ideal(ideal: MonomialIdeal, as_json: bool) -> None:
    if as_json:
        _emit_json(ideal.to_dict())
    else:
        for g in ideal.gens:
            print(monomial_str(g))


def cmd_symbolic(args: argparse.Namespace) -> int:
    ideal = _load_ideal(args.ideal_file)
    if args.wrt:
        result = ideal.symbolic_power(args.order, _load_ideal(args.wrt))
    else:
        if not ideal.is_squarefree:
            print(
                "error: ordinary symbolic powers need a squarefree ideal; "
                "pass --wrt J-file to saturate with respect to J instead",
                file=sys.stderr,
            )
            return INPUT_EXIT
        result = algebra.squarefree_symbolic_power(ideal, args.order)
    _print_ideal(result, args.json)
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    ideal = _load_ideal(args.ideal_file)
    _print_ideal(ideal.power(args.order), args.json)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    ideal = _load_ideal(args.ideal_file)
    result = algebra.compare_powers(ideal, args.order)
    if args.json:
        _emit_json(
            {
                "k": args.order,
                "equal": result.equal,
                "witness": list(result.witness) if result.witness else None,
            }
        )
    elif result.equal:
        print(f"power {args.order}: symbolic equals ordinary")
    else:
        print(
            f"power {args.order}: symbolic strictly larger, "
            f"witness {monomial_str(result.witness)}"
        )
    return 0


def _check_bipartite(complex_: WeightedComplex, as_json: bool) -> int:
    graph = WeightedGraph.from_complex(complex_)
    bip = bipartition(graph)
    if as_json:
        _emit_json(
            {
                "check": "bipartite",
                "verdict": bip.is_bipartite,
                "parts": (
                    [sorted(v + 1 for v in p) for p in bip.parts]
                    if bip.is_bipartite
                    else None
                ),
                "odd_cycle": (
                    None
                    if bip.is_bipartite
                    else [v + 1 for v in bip.odd_cycle]
                ),
            }
        )
    elif bip.is_bipartite:
        u, v = bip.parts
        print("bipartite: true")
        print(
            f"parts: {{{','.join(str(i + 1) for i in sorted(u))}}} "
            f"{{{','.join(str(i + 1) for i in sorted(v))}}}"
        )
    else:
        print("bipartite: false")
        print("odd cycle: " + " ".join(str(v + 1) for v in bip.odd_cycle))
    return 0


def _check_standard(complex_: WeightedComplex, as_json: bool) -> int:
    pres = algebra.generators(complex_)
    d = algebra.max_degree(pres)
    verdict = d <= 1
    witness = None
    if not verdict:
        witness = max(pres.generators, key=lambda g: (g.k, g.a))
    if as_json:
        _emit_json(
            {
                "check": "standard",
                "verdict": verdict,
                "max_degree": d,
                "witness": (
                    {"a": list(witness.a), "k": witness.k} if witness else None
                ),
            }
        )
    else:
        print(f"standard graded: {str(verdict).lower()}")
        if witness:
            print(f"witness generator: {monomial_str(witness.a, witness.k)}")
    return 0


def _check_gorenstein(complex_: WeightedComplex, as_json: bool) -> int:
    report = algebra.gorenstein_report(complex_)
    if as_json:
        _emit_json(
            {
                "check": "gorenstein",
                "verdict": report.verdict,
                "stripped_facets": [[v + 1] for v, _ in report.stripped],
                "offending_facets": [
                    {"facet": [v + 1 for v in f], "weight": w}
                    for f, w in report.offending
                ],
            }
        )
    else:
        print(f"gorenstein: {str(report.verdict).lower()}")
        if report.stripped:
            print(
                "stripped singleton facets: "
                + " ".join(f"{{{v + 1}}}" for v, _ in report.stripped)
            )
        for f, w in report.offending:
            print(
                f"facet {{{','.join(str(v + 1) for v in f)}}} has weight {w}, "
                f"needs {len(f) - 1}"
            )
    return 0


def _check_bound(complex_: WeightedComplex, as_json: bool) -> int:
    """Max generator degree against the degree bound.

    The bound is stated for n >= 1; with no vertices it is not applicable,
    and the verdict and limit are null, not a failure.
    """
    pres = algebra.generators(complex_)
    d = algebra.max_degree(pres)
    verdict = limit = None
    if complex_.n >= 1:
        bound = algebra.degree_bound(complex_.n)
        verdict, limit = bound.holds(d), bound.max_degree()
    if as_json:
        _emit_json(
            {
                "check": "bound",
                "verdict": verdict,
                "max_degree": d,
                "bound_limit": limit,
            }
        )
    elif verdict is None:
        print(
            f"max generator degree {d}; degree bound for n={complex_.n}: "
            "not applicable (needs n >= 1)"
        )
    else:
        print(
            f"max generator degree {d} within degree bound for n={complex_.n} "
            f"(limit {limit}): {str(verdict).lower()}"
        )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    complex_ = _load_complex(args.complex_file)
    handler = {
        "bipartite": _check_bipartite,
        "standard": _check_standard,
        "gorenstein": _check_gorenstein,
        "bound": _check_bound,
    }[args.kind]
    return handler(complex_, args.json)


def cmd_decompose(args: argparse.Namespace) -> int:
    if getattr(args, "family", None):
        inst = family_instance(*args.family)
        complex_ = inst.complex
        if args.cover:
            a, k = _parse_cover(args.cover, complex_.n)
        else:
            a, k = inst.cover, inst.order
    else:
        complex_ = _resolve_complex(args)
        if not args.cover:
            raise ValueError("--cover 'a1,...,an;k' is required")
        a, k = _parse_cover(args.cover, complex_.n)
    result = decompose(complex_, a, k)
    if args.json:
        if result is None:
            _emit_json({"decomposable": False})
        else:
            _emit_json(
                {
                    "decomposable": True,
                    "b": list(result.b),
                    "i": result.i,
                    "c": list(result.c),
                    "j": result.j,
                }
            )
    elif result is None:
        print("indecomposable")
    else:
        print(
            f"decomposable: {monomial_str(result.b, result.i)} + "
            f"{monomial_str(result.c, result.j)}"
        )
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    complex_ = _load_complex(args.complex_file)
    graph = WeightedGraph.from_complex(complex_)
    a, k = _parse_cover(args.cover, complex_.n)
    bip = bipartition(graph)
    parts: list[CoverPoint] = []
    if bip.is_bipartite:
        rest, order = a, k
        while order >= 2:
            b, c = bipartite_split(graph, rest, order)
            parts.append(CoverPoint(b, 1))
            rest, order = c, order - 1
        parts.append(CoverPoint(tuple(rest), order))
    else:
        if k < 3:
            print(
                "error: non-bipartite split needs a cover of order >= 3",
                file=sys.stderr,
            )
            return INPUT_EXIT
        eps, rest = split_order2(graph, a, k)
        parts = [CoverPoint(eps, 2), CoverPoint(rest, k - 2)]
    if args.json:
        _emit_json({"parts": [{"a": list(p.a), "k": p.k} for p in parts]})
    else:
        _print_points(parts)
    return 0


def cmd_skeleton(args: argparse.Namespace) -> int:
    gens = skeleton_generators(args.n, args.j)
    if args.json:
        _emit_json(
            {
                "n": args.n,
                "basis": [{"a": list(g.a), "k": g.k} for g in gens],
                "truncated": False,
            }
        )
    else:
        _print_points(gens)
    return 0


def cmd_family(args: argparse.Namespace) -> int:
    inst = family_instance(args.m, args.k)
    data = inst.complex.to_dict()
    data["cover"] = {"a": list(inst.cover), "k": inst.order}
    data["edges"] = [
        sorted(v + 1 for v in e) for e in inst.graph.edges
    ]
    _emit_json(data)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    bound = algebra.degree_bound(args.n)
    if args.json:
        _emit_json({"n": args.n, "max_degree": bound.max_degree()})
    else:
        print(
            f"generator degrees for n={args.n} are provably <= "
            f"{bound.max_degree()} (d^2*4^n < (n+1)^(n+3))"
        )
    return 0


def _add_family(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        nargs=2,
        type=int,
        metavar=("M", "K"),
        help="use the built-in family instance instead of a file",
    )


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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("symbolic", help="symbolic power of a monomial ideal")
    p.add_argument("ideal_file")
    p.add_argument("-n", dest="order", type=int, required=True)
    p.add_argument("--wrt", help="ideal file to saturate with respect to")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_symbolic)

    p = sub.add_parser("power", help="ordinary power of a monomial ideal")
    p.add_argument("ideal_file")
    p.add_argument("-n", dest="order", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("compare", help="symbolic versus ordinary power")
    p.add_argument("ideal_file")
    p.add_argument("-n", dest="order", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check", help="predicates with witnesses")
    p.add_argument("complex_file")
    p.add_argument(
        "kind", choices=["bipartite", "standard", "gorenstein", "bound"]
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="split a cover or certify it indecomposable")
    p.add_argument("complex_file", nargs="?")
    _add_family(p)
    p.add_argument("--cover", help="cover as 'a1,...,an;k'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("split", help="constructive cover splittings for graphs")
    p.add_argument("complex_file")
    p.add_argument("--cover", required=True, help="cover as 'a1,...,an;k'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("skeleton", help="closed-form skeleton generators")
    p.add_argument("n", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("family", help="emit a family instance as a complex file")
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("bound", help="provable degree limit for n vertices")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
