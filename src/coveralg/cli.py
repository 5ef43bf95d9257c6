"""Batch command line front end.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 usage error, 2 invalid input, 3 degree cap or search budget exceeded.
Identical invocations on identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product as iter_product
from typing import Sequence

from . import algebra
from .complexes import (
    CoverPoint,
    WeightedComplex,
    is_cover,
    skeleton_generators,
)
from .errors import (
    DimensionMismatch,
    InvalidComplex,
    NonSquarefreeIdeal,
    NotAGraph,
    SearchBudgetExceeded,
    ZeroIdealColon,
)
from .graphs import (
    WeightedGraph,
    bipartite_split,
    bipartition,
    decompose,
    default_budget,
    family_instance,
    split_order2,
)
from .intlinalg import det
from .monomial import MonomialIdeal, monomial_str

USAGE_EXIT = 1
INPUT_EXIT = 2
BUDGET_EXIT = 3

_INPUT_ERRORS = (
    InvalidComplex,
    NotAGraph,
    DimensionMismatch,
    NonSquarefreeIdeal,
    ZeroIdealColon,
    ValueError,
    OSError,
    json.JSONDecodeError,
    KeyError,
)


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
        bound = algebra.degree_bound(pres.n) if pres.n >= 1 else None
        if bound is not None:
            verdict = "satisfied" if bound.holds(d) else "violated"
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
        return BUDGET_EXIT
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
        from .complexes import squarefree_symbolic_power

        result = squarefree_symbolic_power(ideal, args.order)
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
    pres = algebra.generators(complex_)
    d = algebra.max_degree(pres)
    bound = algebra.degree_bound(complex_.n)
    verdict = bound.holds(d)
    if as_json:
        _emit_json(
            {
                "check": "bound",
                "verdict": verdict,
                "max_degree": d,
                "bound_limit": bound.max_degree(),
            }
        )
    else:
        print(
            f"max generator degree {d} within degree bound for n={complex_.n} "
            f"(limit {bound.max_degree()}): {str(verdict).lower()}"
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
    budget = args.budget if args.budget else default_budget()
    try:
        result = decompose(complex_, a, k, budget)
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_EXIT
    if args.json:
        if result is None:
            _emit_json({"decomposable": False, "budget": budget})
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
        print(f"indecomposable (exhaustive, budget={budget})")
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


def _repro_checks(quick: bool):
    tri = WeightedComplex.validate(3, [(0, 1), (0, 2), (1, 2)])
    sq = WeightedComplex.validate(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

    def triangle_basis() -> tuple[bool, str]:
        got = algebra.generators(tri).generators
        want = (
            CoverPoint((0, 1, 1), 1),
            CoverPoint((1, 0, 1), 1),
            CoverPoint((1, 1, 0), 1),
            CoverPoint((1, 1, 1), 2),
        )
        return got == want, f"{len(got)} generators"

    def square_basis() -> tuple[bool, str]:
        got = algebra.generators(sq).generators
        want = (CoverPoint((0, 1, 0, 1), 1), CoverPoint((1, 0, 1, 0), 1))
        return got == want, f"{len(got)} generators"

    def skeleton_forms() -> tuple[bool, str]:
        from .complexes import skeleton

        top = 5 if quick else 6
        for n in range(2, top + 1):
            for j in range(0, n - 1):
                pres = algebra.generators(skeleton(n, j))
                if pres.generators != skeleton_generators(n, j):
                    return False, f"mismatch at n={n}, j={j}"
        return True, f"all n <= {top}"

    def triangle_indecomposable() -> tuple[bool, str]:
        ok = is_cover(tri, (1, 1, 1), 2) and decompose(tri, (1, 1, 1), 2) is None
        return ok, "order-2 cover (1,1,1)"

    def symbolic_square_products() -> tuple[bool, str]:
        from .complexes import squarefree_symbolic_power

        ideal = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        sym = {j: squarefree_symbolic_power(ideal, j) for j in (2, 3, 4, 6)}
        ok = sym[2] * sym[2] == sym[4] and sym[2] * sym[4] == sym[6]
        xyz3 = (3, 3, 3)
        ok = ok and sym[6].contains(xyz3) and not (sym[3] * sym[3]).contains(xyz3)
        return ok, "even products multiply, (xyz)^3 separates"

    def second_veronese() -> tuple[bool, str]:
        planes = [
            MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 1, 0)]),
            MonomialIdeal.from_gens(3, [(0, 1, 0), (0, 0, 1)]),
            MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 0, 1)]),
        ]
        search = algebra.find_veronese_d(planes, 3, 6)
        ok = search.d == 2
        ok = ok and algebra.is_standard_graded(algebra.veronese(tri, 2))
        ok = ok and not algebra.is_standard_graded(algebra.veronese(tri, 3))
        return ok, f"d = {search.d} (verified to k = {search.verified_up_to})"

    def bipartite_iff_standard() -> tuple[bool, str]:
        ok = not algebra.is_standard_graded(tri)
        ok = ok and algebra.is_standard_graded(sq)
        return ok, "triangle false, square true"

    def gorenstein_checks() -> tuple[bool, str]:
        big1 = WeightedComplex.validate(3, [(0, 1, 2)], [1])
        big2 = WeightedComplex.validate(3, [(0, 1, 2)], [2])
        ok = algebra.is_gorenstein(tri)
        ok = ok and not algebra.is_gorenstein(big1)
        ok = ok and algebra.is_gorenstein(big2)
        return ok, "graphs yes, 2-face needs weight 2"

    def family22() -> tuple[bool, str]:
        inst = family_instance(2, 2)
        from .cone import build_cone, hilbert_basis

        basis = hilbert_basis(build_cone(inst.complex))
        top = [p for p in basis.points if p[-1] == max(q[-1] for q in basis.points)]
        ok = len(basis.points) == 52
        ok = ok and top == [(2, 2, 1, 1, 1, 1, 1, 7)]
        return ok, f"{len(basis.points)} basis points, top {top[0][-1]}"

    def family42() -> tuple[bool, str]:
        inst = family_instance(4, 2)
        result = decompose(inst.complex, inst.cover, inst.order)
        ok = result is None and inst.order > inst.complex.n - 1
        return ok, f"order {inst.order} > n-1 = {inst.complex.n - 1}"

    def fs_scan(n: int) -> tuple[bool, str]:
        best = 0
        for bits in iter_product((0, 1), repeat=n * n):
            m = [bits[i * n : (i + 1) * n] for i in range(n)]
            best = max(best, abs(det(m)))
        bound = algebra.fs_determinant_bound(n)
        return (
            best == bound.max_value() and bound.holds(best),
            f"max |det| = {best}",
        )

    def weighted_bipartite_split() -> tuple[bool, str]:
        g = WeightedGraph.validate(2, [(0, 1)], [3])
        b, c = bipartite_split(g, (4, 2), 2)
        return (b, c) == ((2, 1), (2, 1)), f"b={b}, c={c}"

    checks = [
        ("triangle basis", triangle_basis),
        ("square basis", square_basis),
        ("skeleton closed forms", skeleton_forms),
        ("triangle (1,1,1) indecomposable", triangle_indecomposable),
        ("symbolic square products", symbolic_square_products),
        ("second veronese standard", second_veronese),
        ("bipartite iff standard graded", bipartite_iff_standard),
        ("gorenstein criteria", gorenstein_checks),
        ("family(4,2) indecomposable", family42),
        ("determinant scan n=3", lambda: fs_scan(3)),
        ("weighted bipartite split", weighted_bipartite_split),
    ]
    if not quick:
        checks.append(("family(2,2) 52 generators", family22))
        checks.append(("determinant scan n=4", lambda: fs_scan(4)))
    return checks


def cmd_repro(args: argparse.Namespace) -> int:
    checks = _repro_checks(args.quick)
    failures = 0
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<34} {detail}")
        if not ok:
            failures += 1
    print(f"{len(checks) - failures} passed, {failures} failed")
    return 0 if failures == 0 else 1


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
    p.add_argument("--cap", type=int, help="truncate output above this degree")
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
    p.add_argument("--budget", type=int)
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

    p = sub.add_parser("repro", help="run the worked examples end to end")
    p.add_argument("--quick", action="store_true", help="skip the slow checks")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_EXIT
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT


if __name__ == "__main__":
    sys.exit(main())
