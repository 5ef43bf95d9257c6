from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import coveralg
from coveralg import cli, graphs
from coveralg.cli import main
from coveralg.complexes import WeightedComplex, is_cover
from coveralg.errors import InternalError
from coveralg.graphs import decompose
from coveralg.monomial import MonomialIdeal

TRIANGLE = {"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]}
SQUARE = {"n": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]}
TRIANGLE_IDEAL = {"n": 3, "gens": [[1, 1, 0], [0, 1, 1], [1, 0, 1]]}


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE), encoding="utf-8")
    return str(path)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"n": 2, "facets": [[1, 2]]}), encoding="utf-8")
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE), encoding="utf-8")
    return str(path)


@pytest.fixture
def ideal_file(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(TRIANGLE_IDEAL), encoding="utf-8")
    return str(path)


@pytest.fixture
def empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "facets": []}), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python_process(*args, **env):
    """`python args` in a fresh interpreter that imports this coveralg."""
    path = str(Path(coveralg.__file__).parents[1])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


def coveralg_process(*argv, **env):
    """`python -m coveralg.cli argv` in a fresh interpreter."""
    return python_process("-m", "coveralg.cli", *argv, **env)


class TestBasis:
    def test_triangle_text(self, capsys, triangle_file):
        code, out, err = run(capsys, "basis", triangle_file)
        assert code == 0
        assert out.splitlines() == [
            "x2*x3*t",
            "x1*x3*t",
            "x1*x2*t",
            "x1*x2*x3*t^2",
        ]
        assert err == ""

    def test_square_json(self, capsys, square_file):
        code, out, _ = run(capsys, "basis", square_file, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 4
        assert data["basis"] == [
            {"a": [0, 1, 0, 1], "k": 1},
            {"a": [1, 0, 1, 0], "k": 1},
        ]
        assert data["truncated"] is False
        assert data["summary"]["max_degree"] == 1
        assert data["summary"]["standard_graded"] is True
        assert data["summary"]["gorenstein"] is True
        assert "satisfied" in data["summary"]["bound_n"]

    def test_family_basis_count(self, capsys):
        code, out, _ = run(capsys, "basis", "--family", "2", "2")
        assert code == 0
        assert len(out.splitlines()) == 45  # 52 total minus 7 unit vectors

    @pytest.mark.parametrize("command", ["basis", "decompose"])
    def test_file_and_family_together_exit_2(self, capsys, triangle_file, command):
        code, out, err = run(capsys, command, triangle_file, "--family", "2", "2")
        assert (code, out) == (2, "")
        assert err == (
            f"error: complex file {triangle_file} and --family 2 2 both given; "
            "pass one\n"
        )

    def test_cap_truncates_with_exit_3(self, capsys, triangle_file):
        code, out, err = run(capsys, "basis", triangle_file, "--cap", "1")
        assert code == 3
        assert len(out.splitlines()) == 3
        assert "truncated" in err

    def test_negative_cap_is_input_error(self, capsys, triangle_file):
        code, out, err = run(capsys, "basis", triangle_file, "--cap", "-1")
        assert code == 2
        assert out == ""
        assert "degree cap must be >= 0, got -1" in err

    def test_no_vertices_has_basis_t(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 0, "facets": []}), encoding="utf-8")
        code, out, err = run(capsys, "basis", str(path), "--json")
        assert code == 0
        assert err == ""
        data = json.loads(out)
        assert data["basis"] == [{"a": [], "k": 1}]
        assert data["truncated"] is False

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "basis", str(tmp_path / "nope.json"))
        assert code == 2
        assert err

    def test_byte_identical_reruns(self, capsys, triangle_file):
        _, out1, _ = run(capsys, "basis", triangle_file, "--json")
        _, out2, _ = run(capsys, "basis", triangle_file, "--json")
        assert out1 == out2

    def test_round_trip_reverifies(self, capsys, triangle_file):
        _, out, _ = run(capsys, "basis", triangle_file, "--json")
        data = json.loads(out)
        c = WeightedComplex.from_dict(TRIANGLE)
        for g in data["basis"]:
            assert is_cover(c, g["a"], g["k"])
            if g["k"] >= 2:
                assert decompose(c, tuple(g["a"]), g["k"]) is None


class TestSymbolicAndPower:
    def test_symbolic_contains_xyz(self, capsys, ideal_file):
        code, out, _ = run(capsys, "symbolic", ideal_file, "-n", "2")
        assert code == 0
        assert "x1*x2*x3" in out.splitlines()

    def test_symbolic_n1_is_identity(self, capsys, ideal_file):
        code, out, _ = run(capsys, "symbolic", ideal_file, "-n", "1", "--json")
        assert code == 0
        assert json.loads(out) == TRIANGLE_IDEAL | {
            "gens": sorted(TRIANGLE_IDEAL["gens"])
        }

    def test_non_squarefree_succeeds(self, capsys, tmp_path):
        # (x1^2, x1 x2) = (x1) ∩ (x1^2, x2), and only the minimal prime counts
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"n": 2, "gens": [[2, 0], [1, 1]]}), encoding="utf-8")
        code, out, _ = run(capsys, "symbolic", str(path), "-n", "2", "--json")
        assert (code, json.loads(out)) == (0, {"n": 2, "gens": [[2, 0]]})

    def test_power(self, capsys, ideal_file):
        code, out, _ = run(capsys, "power", ideal_file, "-n", "2", "--json")
        assert code == 0
        gens = json.loads(out)["gens"]
        assert [1, 1, 1] not in gens
        assert [2, 2, 0] in gens


class TestCompare:
    def test_non_squarefree_succeeds(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"n": 2, "gens": [[2, 0], [1, 1]]}), encoding="utf-8")
        code, out, err = run(capsys, "compare", str(path), "-n", "1")
        want = "power 1: symbolic strictly larger, witness x1\n"
        assert (code, out, err) == (0, want, "")

    def test_squarefree_forms_no_ordinary_power(self, capsys, monkeypatch, ideal_file):
        # membership in I^k is read off the pass that builds I^(k)
        def no_power(self, k):
            raise AssertionError("compare formed an ordinary power")

        monkeypatch.setattr(MonomialIdeal, "power", no_power)
        code, out, _ = run(capsys, "compare", ideal_file, "-n", "3", "--json")
        assert code == 0
        assert json.loads(out) == {"k": 3, "equal": False, "witness": [1, 2, 2]}

    def test_triangle_proper(self, capsys, ideal_file):
        code, out, _ = run(capsys, "compare", ideal_file, "-n", "2")
        assert code == 0
        assert "strictly larger" in out
        assert "x1*x2*x3" in out

    def test_json(self, capsys, ideal_file):
        _, out, _ = run(capsys, "compare", ideal_file, "-n", "2", "--json")
        assert json.loads(out) == {"k": 2, "equal": False, "witness": [1, 1, 1]}


class TestCheck:
    def test_standard_with_witness(self, capsys, triangle_file):
        code, out, _ = run(capsys, "check", triangle_file, "standard")
        assert code == 0
        assert "standard graded: false" in out
        assert "x1*x2*x3*t^2" in out

    def test_square_standard(self, capsys, square_file):
        _, out, _ = run(capsys, "check", square_file, "standard")
        assert "standard graded: true" in out

    def test_bipartite_json_witness(self, capsys, triangle_file):
        _, out, _ = run(capsys, "check", triangle_file, "bipartite", "--json")
        data = json.loads(out)
        assert data["verdict"] is False
        assert sorted(data["odd_cycle"]) == [1, 2, 3]

    def test_gorenstein(self, capsys, triangle_file):
        _, out, _ = run(capsys, "check", triangle_file, "gorenstein")
        assert "gorenstein: true" in out

    def test_bound(self, capsys, triangle_file):
        _, out, _ = run(capsys, "check", triangle_file, "bound")
        assert "limit 7" in out
        assert "true" in out

    def test_bound_not_applicable_without_vertices(self, capsys, tmp_path):
        # the bound is stated for n >= 1; {t} is still the basis at n = 0
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 0, "facets": []}), encoding="utf-8")
        code, out, err = run(capsys, "check", str(path), "bound")
        assert (code, err) == (0, "")
        assert "not applicable" in out
        code, out, err = run(capsys, "check", str(path), "bound", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "check": "bound",
            "verdict": None,
            "max_degree": 1,
            "bound_limit": None,
        }
        _, out, _ = run(capsys, "basis", str(path), "--json")
        assert json.loads(out)["summary"]["bound_n"] is None

    @pytest.mark.parametrize(
        "data", [{"n": 2, "facets": [[1], [2]]}, {"n": 0, "facets": []}]
    )
    def test_gorenstein_not_applicable_without_an_edge(self, capsys, tmp_path, data):
        # the criterion needs a facet with two vertices; valid input all the same
        path = tmp_path / "no-edge.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "check", str(path), "gorenstein")
        assert (code, err) == (0, "")
        assert out == (
            "gorenstein: not applicable (needs a facet with at least two vertices)\n"
        )
        code, out, err = run(capsys, "check", str(path), "gorenstein", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "check": "gorenstein",
            "verdict": None,
            "stripped_facets": [],
            "offending_facets": [],
        }
        _, out, _ = run(capsys, "basis", str(path), "--json")
        assert json.loads(out)["summary"]["gorenstein"] is None

    def test_non_graph_bipartite_check_exits_2(self, capsys, tmp_path):
        path = tmp_path / "tetra.json"
        path.write_text(
            json.dumps({"n": 3, "facets": [[1, 2, 3]]}), encoding="utf-8"
        )
        code, _, err = run(capsys, "check", str(path), "bipartite")
        assert code == 2
        assert "not an edge" in err


class TestDecompose:
    def test_indecomposable(self, capsys, triangle_file):
        code, out, _ = run(
            capsys, "decompose", triangle_file, "--cover", "1,1,1;2"
        )
        assert code == 0
        assert out == "indecomposable\n"

    def test_witness_reverified(self, capsys, triangle_file):
        code, out, _ = run(
            capsys, "decompose", triangle_file, "--cover", "2,2,2;2", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["decomposable"] is True
        c = WeightedComplex.from_dict(TRIANGLE)
        assert is_cover(c, data["b"], data["i"])
        assert is_cover(c, data["c"], data["j"])
        assert [x + y for x, y in zip(data["b"], data["c"])] == [2, 2, 2]
        assert data["i"] + data["j"] == 2

    def test_family_distinguished_cover(self, capsys):
        code, out, _ = run(capsys, "decompose", "--family", "4", "2")
        assert code == 0
        assert "indecomposable" in out

    def test_indecomposable_json(self, capsys, triangle_file):
        code, out, _ = run(
            capsys, "decompose", triangle_file, "--cover", "1,1,1;2", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"decomposable": False}

    def test_negative_coordinate_is_not_a_cover(self, capsys, edge_file):
        # 4 + (-1) meets the edge twice, but a cover lies in N^n
        code, out, err = run(capsys, "decompose", edge_file, "--cover", "4,-1;2")
        assert code == 2
        assert out == ""
        assert "is not a cover of order 2" in err

    def test_invalid_cover_syntax_exits_2(self, capsys, triangle_file):
        code, _, err = run(
            capsys, "decompose", triangle_file, "--cover", "banana"
        )
        assert code == 2
        assert err

    @pytest.mark.parametrize("cover", ["1_0,1,1;2", " 1,1,1;2", "1,1,1;\u0662"])
    def test_cover_fields_are_ascii_digits(self, capsys, triangle_file, cover):
        # int() would read "1_0" as 10, take spaces and read the Arabic-Indic 2
        for command in ("decompose", "split"):
            code, out, err = run(capsys, command, triangle_file, "--cover", cover)
            assert (code, out) == (2, "")
            assert err == f"error: cover must look like '1,1,0;2', got {cover!r}\n"

    def test_no_vertices_cover(self, capsys, empty_file):
        code, out, err = run(capsys, "decompose", empty_file, "--cover", ";2")
        assert (code, out, err) == (0, "decomposable: t + t\n", "")

    def test_empty_coordinates_for_vertices_exits_2(self, capsys, triangle_file):
        code, out, err = run(capsys, "decompose", triangle_file, "--cover", ";2")
        assert (code, out) == (2, "")
        assert err == "error: cover has 0 coordinates for 3 vertices\n"


class TestSplit:
    def test_bipartite_chain(self, capsys, square_file):
        code, out, _ = run(
            capsys, "split", square_file, "--cover", "2,2,2,2;3", "--json"
        )
        assert code == 0
        parts = json.loads(out)["parts"]
        assert len(parts) == 3
        assert all(p["k"] == 1 for p in parts)
        c = WeightedComplex.from_dict(SQUARE)
        total = [0] * 4
        for p in parts:
            assert is_cover(c, p["a"], 1)
            total = [x + y for x, y in zip(total, p["a"])]
        assert total == [2, 2, 2, 2]

    def test_non_bipartite_order2_split(self, capsys, triangle_file):
        code, out, _ = run(
            capsys, "split", triangle_file, "--cover", "3,3,3;3", "--json"
        )
        assert code == 0
        parts = json.loads(out)["parts"]
        assert [p["k"] for p in parts] == [2, 1]

    def test_negative_coordinate_is_not_a_cover(self, capsys, edge_file):
        code, out, err = run(capsys, "split", edge_file, "--cover", "5,-2;3")
        assert code == 2
        assert out == ""
        assert "is not a cover of order 3" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--cover", "0,0;1"], "(0, 0) is not a cover of order 1"),
            (["--cover=-1,5;1", "--json"], "(-1, 5) is not a cover of order 1"),
            (["--cover", "0,0;-1"], "cover order must be >= 0, got -1"),
        ],
        ids=["zero", "negative-coordinate", "negative-order"],
    )
    def test_low_order_input_is_checked(self, capsys, edge_file, argv, message):
        # at order k <= 1 the bipartite chain splits nothing, so only the
        # command's own check stands between the input and the output
        code, out, err = run(capsys, "split", edge_file, *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_no_vertices_cover(self, capsys, empty_file):
        code, out, err = run(capsys, "split", empty_file, "--cover", ";3")
        assert (code, out, err) == (0, "t\nt\nt\n", "")

    def test_non_edge_facet_is_reported_before_the_cover(self, capsys, tmp_path):
        path = tmp_path / "tetra.json"
        path.write_text(json.dumps({"n": 3, "facets": [[1, 2, 3]]}), encoding="utf-8")
        code, out, err = run(capsys, "split", str(path), "--cover", "1,1;2")
        assert (code, out, err) == (2, "", "error: facet [1, 2, 3] is not an edge\n")

    def test_weighted_non_bipartite_exits_2(self, capsys, tmp_path):
        data = dict(TRIANGLE, weights=[2, 1, 1])
        path = tmp_path / "weighted.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "split", str(path), "--cover", "4,4,4;3")
        assert (code, out) == (2, "")
        assert err == "error: order-2 split requires canonical weights\n"

    def test_non_bipartite_low_order_exits_2(self, capsys, triangle_file):
        code, _, err = run(
            capsys, "split", triangle_file, "--cover", "1,1,1;2"
        )
        assert code == 2
        assert "order >= 3" in err


class TestSkeletonFamilyBound:
    def test_skeleton_example(self, capsys):
        code, out, _ = run(capsys, "skeleton", "3", "1")
        assert code == 0
        assert out.splitlines() == [
            "x2*x3*t",
            "x1*x3*t",
            "x1*x2*t",
            "x1*x2*x3*t^2",
        ]

    def test_skeleton_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "skeleton", "3", "5")
        assert code == 2
        assert err

    def test_family_emits_loadable_complex(self, capsys, tmp_path):
        code, out, _ = run(capsys, "family", "2", "2")
        assert code == 0
        data = json.loads(out)
        c = WeightedComplex.from_dict(data)
        assert c.n == 7
        assert is_cover(c, data["cover"]["a"], data["cover"]["k"])
        # emitted file feeds straight back into basis
        path = tmp_path / "family.json"
        path.write_text(out, encoding="utf-8")
        code, out2, _ = run(capsys, "basis", str(path))
        assert code == 0
        assert len(out2.splitlines()) == 45

    def test_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "3", "--json")
        assert code == 0
        assert json.loads(out) == {"n": 3, "max_degree": 7}


ints = st.one_of(st.integers(-300, 300), st.integers(-(2**80), 2**80))
# quotes, backslashes, newlines and control characters next to any character
texts = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f'), st.characters()),
                max_size=5)
keys = st.one_of(texts, ints)


def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(keys, inner, max_size=4),
        st.lists(ints, max_size=5),
        st.lists(st.lists(ints, max_size=4), max_size=4),
        # dicts that share one tuple of keys, as the rows of a table
        st.lists(texts, max_size=3, unique=True).flatmap(
            lambda ks: st.lists(st.fixed_dictionaries({k: inner for k in ks}), max_size=4)
        ),
    )


json_values = st.recursive(st.one_of(st.none(), st.booleans(), ints, texts), _containers,
                           max_leaves=25)

LAYOUT_CORNERS = [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[]], {"a": [{}]}], [[], [[1]]],
    [1, True], [True, False], [[1], []], [[1], [True]], [[1, None]], {"a": (1, 2)},
    [(1, 2), (3,)], [-1, 2**70, -(2**70)], {1: [1], "1": [2]},
    [{"b": 1, "a": [2]}, {"b": 3, "a": [4, 5]}],  # a table
    [{"a": 1, "b": 2}, {"b": 2, "a": 1}],  # one key set in two orders
    [{"a": 1}, {"a": True}], [{"a": []}, {"a": [1]}], [{}, {}], [{1: 2}, {1: 3}],
    [{"a": [[1], [2]]}, {"a": [[3]]}], [{'"é': 1}, {'"é': 2}],
    [1.5, float("inf")], {"x": float("nan")}, "é\n\"", 0, None, (),
]


class TestJsonLayout:
    """`--json` prints exactly `json.dumps(record, indent=2)`."""

    @pytest.mark.parametrize("value", LAYOUT_CORNERS, ids=repr)
    def test_corner_cases(self, value):
        assert cli._render(value) == json.dumps(value, indent=2)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(json_values)
    def test_render_is_json_dumps_indent_2(self, value):
        assert cli._render(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("argv", [
        ["basis", "{square}"],
        ["basis", "--family", "2", "2"],
        ["basis", "{triangle}", "--cap", "1"],  # truncated, exit 3
        ["basis", "{empty}"],
        ["symbolic", "{ideal}", "-n", "3"],
        ["power", "{ideal}", "-n", "3"],
        ["compare", "{ideal}", "-n", "2"],
        ["check", "{triangle}", "bipartite"],
        ["check", "{square}", "bipartite"],
        ["check", "{triangle}", "standard"],
        ["check", "{square}", "standard"],
        ["check", "{weighted}", "gorenstein"],
        ["check", "{empty}", "gorenstein"],
        ["check", "{triangle}", "bound"],
        ["decompose", "--family", "2", "2"],
        ["decompose", "{triangle}", "--cover", "1,1,1;2"],
        ["split", "{square}", "--cover", "2,2,2,2;2"],
        ["skeleton", "4", "2"],
        ["family", "2", "2"],
        ["bound", "3"],
    ], ids=" ".join)
    def test_stdout_is_json_dumps_indent_2(
        self, capsys, tmp_path, triangle_file, square_file, ideal_file, empty_file, argv
    ):
        weighted = tmp_path / "weighted.json"
        weighted.write_text(json.dumps(
            {"n": 5, "facets": [[1], [2, 3, 4], [4, 5]], "weights": [2, 1, 3]}
        ), encoding="utf-8")
        files = {"triangle": triangle_file, "square": square_file, "ideal": ideal_file,
                 "empty": empty_file, "weighted": str(weighted)}
        argv = [a.format(**files) for a in argv]
        if argv[0] != "family":
            argv.append("--json")
        args = cli.build_parser().parse_args(argv)
        record, _ = args.func(args)
        code, out, _ = run(capsys, *argv)
        assert code == (3 if record.get("truncated") else 0)
        assert out == json.dumps(record, indent=2) + "\n"


class TestInternalErrors:
    def test_failed_invariant_exits_4(self, capsys, triangle_file, monkeypatch):
        # is_cover answers wrongly for order 2, so the order-2 split's own
        # check fails: a bug in the package, never reported as bad input
        real = graphs.is_cover
        monkeypatch.setattr(
            graphs, "is_cover", lambda c, a, k: k != 2 and real(c, a, k)
        )
        code, out, err = run(
            capsys, "split", triangle_file, "--cover", "2,2,2;3"
        )
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: order-2 part")

    def test_internal_error_is_not_an_input_error(self):
        assert not issubclass(InternalError, cli._INPUT_ERRORS)

    def test_package_has_no_assert(self):
        # python -O strips assert statements, and the invariants must hold
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(Path(coveralg.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


MALFORMED_FILES = {
    "float-vertex": ("complex", {"n": 3, "facets": [[1.7, 2], [2, 3]]}, "facets"),
    "bool-weight": (
        "complex",
        {"n": 3, "facets": [[1, 2], [2, 3]], "weights": [True, 1]},
        "weights",
    ),
    "string-n": ("complex", {"n": "3", "facets": [[1, 2]]}, "'n'"),
    "float-n": ("complex", {"n": 3.9, "facets": [[1, 2]]}, "'n'"),
    "bool-n": ("complex", {"n": True, "facets": [[1]]}, "'n'"),
    "string-facets": ("complex", {"n": 3, "facets": "12"}, "facets"),
    "complex-array": ("complex", [[1, 2], [2, 3]], "JSON object"),
    "complex-no-n": ("complex", {"facets": [[1, 2]]}, "missing field 'n'"),
    "vertex-zero": ("complex", {"n": 2, "facets": [[0, 1]]}, "vertex 0 out of range"),
    "repeated-vertex": (
        "complex",
        {"n": 3, "facets": [[1, 1, 2]]},
        "facet [1, 1, 2] lists a vertex twice",
    ),
    "float-exponent": ("ideal", {"n": 2, "gens": [[1.5, 1]]}, "gens"),
    "bool-exponent": ("ideal", {"n": 2, "gens": [[True, 1]]}, "gens"),
    "flat-gens": ("ideal", {"n": 2, "gens": [1, 1]}, "gens"),
    "ideal-float-n": ("ideal", {"n": 2.0, "gens": [[1, 1]]}, "'n'"),
    "ideal-array": ("ideal", [[1, 1]], "JSON object"),
    "ideal-no-n": ("ideal", {"gens": [[1, 1]]}, "missing field 'n'"),
}


@pytest.mark.parametrize(
    "kind, data, field", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys()
)
def test_malformed_file_exits_2_naming_the_field(
    capsys, tmp_path, kind, data, field
):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    if kind == "complex":
        code, out, err = run(capsys, "basis", str(path))
    else:
        code, out, err = run(capsys, "power", str(path), "-n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and field in err


REFUSAL_FILES = {
    "IDEAL": TRIANGLE_IDEAL,
    "TRIANGLE": TRIANGLE,
    "NEGATIVE_EXPONENT": {"n": 2, "gens": [[1, -1]]},
    "NO_VARIABLES": {"n": 0, "gens": []},
    "NEGATIVE_VERTICES": {"n": -1, "facets": []},
}

# one row per refusal: the argv, with file names as REFUSAL_FILES keys, and
# the message that exit 2 carries on stderr
REFUSALS = [
    (["symbolic", "IDEAL", "-n", "0"], "symbolic power order must be >= 1, got 0"),
    (["compare", "IDEAL", "-n", "0"], "power must be >= 1, got 0"),
    (["power", "NEGATIVE_EXPONENT", "-n", "2"], "negative exponent in (1, -1)"),
    (["power", "IDEAL", "-n", "-1"], "power exponent must be >= 0, got -1"),
    (["power", "NO_VARIABLES", "-n", "1"], "variable count must be >= 1, got 0"),
    (["basis", "NEGATIVE_VERTICES"], "vertex count must be >= 0, got -1"),
    (["basis"], "either a complex file or --family M K is required"),
    (["decompose", "TRIANGLE"], "--cover 'a1,...,an;k' is required"),
    (
        ["decompose", "TRIANGLE", "--cover", "1,1,1;1"],
        "decomposition needs order k >= 2, got 1",
    ),
]


@pytest.mark.parametrize(
    "argv, message", REFUSALS, ids=[" ".join(argv) for argv, _ in REFUSALS]
)
def test_refusal_exits_2_with_its_message(capsys, tmp_path, argv, message):
    paths = {}
    for name, data in REFUSAL_FILES.items():
        paths[name] = tmp_path / f"{name.lower()}.json"
        paths[name].write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, *(str(paths.get(a, a)) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


TEXT_FILES = {
    "IDEAL": TRIANGLE_IDEAL,
    "TRIANGLE": TRIANGLE,
    "SQUARE": SQUARE,
    "PENTAGON": {"n": 5, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]},
    "EMPTY": {"n": 0, "facets": []},
    "SINGLETONS": {"n": 2, "facets": [[1], [2]]},
    "STRIPPED": {"n": 4, "facets": [[1], [2, 3], [3, 4]], "weights": [3, 1, 1]},
    "OFFENDING": {"n": 5, "facets": [[1], [2, 3], [3, 4, 5]], "weights": [1, 2, 1]},
}

# one row per branch of the commands that build their few text lines in
# place: the argv, with file names as TEXT_FILES keys, and the whole stdout
TEXTS = [
    (["check", "SQUARE", "bipartite"], "bipartite: true\nparts: {1,3} {2,4}\n"),
    (["check", "PENTAGON", "bipartite"], "bipartite: false\nodd cycle: 3 2 1 5 4\n"),
    (["check", "SQUARE", "standard"], "standard graded: true\n"),
    (
        ["check", "TRIANGLE", "standard"],
        "standard graded: false\nwitness generator: x1*x2*x3*t^2\n",
    ),
    (
        ["check", "SINGLETONS", "gorenstein"],
        "gorenstein: not applicable (needs a facet with at least two vertices)\n",
    ),
    (
        ["check", "STRIPPED", "gorenstein"],
        "gorenstein: true\nstripped singleton facets: {1}\n",
    ),
    (
        ["check", "OFFENDING", "gorenstein"],
        "gorenstein: false\nstripped singleton facets: {1}\n"
        "facet {2,3} has weight 2, needs 1\nfacet {3,4,5} has weight 1, needs 2\n",
    ),
    (
        ["check", "EMPTY", "bound"],
        "max generator degree 1; degree bound for n=0: not applicable (needs n >= 1)\n",
    ),
    (
        ["check", "TRIANGLE", "bound"],
        "max generator degree 2 within degree bound for n=3 (limit 7): true\n",
    ),
    (["compare", "IDEAL", "-n", "1"], "power 1: symbolic equals ordinary\n"),
    (
        ["compare", "IDEAL", "-n", "2"],
        "power 2: symbolic strictly larger, witness x1*x2*x3\n",
    ),
    (
        ["decompose", "SQUARE", "--cover", "2,2,2,2;2"],
        "decomposable: x2*x4*t + x1^2*x2*x3^2*x4*t\n",
    ),
    (["decompose", "TRIANGLE", "--cover", "1,1,1;2"], "indecomposable\n"),
    (
        ["bound", "3"],
        "generator degrees for n=3 are provably <= 7 (d^2*4^n < (n+1)^(n+3))\n",
    ),
]


@pytest.mark.parametrize("argv, out", TEXTS, ids=[" ".join(argv) for argv, _ in TEXTS])
def test_text_output_is_exact(capsys, tmp_path, argv, out):
    paths = {}
    for name, data in TEXT_FILES.items():
        paths[name] = tmp_path / f"{name.lower()}.json"
        paths[name].write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, *(str(paths.get(a, a)) for a in argv)) == (0, out, "")


def test_process_exit_codes(tmp_path, triangle_file):
    # `python -m coveralg.cli`: main's return value is the process status
    proc = coveralg_process("bound", "3", "--json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"n": 3, "max_degree": 7}
    proc = coveralg_process("frobnicate")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("usage: coveralg")
    proc = coveralg_process("basis", str(tmp_path / "nope.json"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ")
    proc = coveralg_process("basis", triangle_file, "--cap", "1")
    assert proc.returncode == 3
    assert proc.stdout.splitlines() == ["x2*x3*t", "x1*x3*t", "x1*x2*t"]
    assert proc.stderr == "warning: output truncated at degree cap\n"


def test_calls_in_one_process_match_fresh_processes(
    capsys, monkeypatch, triangle_file, empty_file
):
    # one parser serves every call of a process; each call must still read
    # its own arguments and defaults, as a fresh process does
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at this width
    calls = [
        ["basis", triangle_file, "--cap", "1"],
        ["basis", triangle_file],
        ["family", "2", "2"],
        ["bound", "3"],
        ["decompose", "--family", "2", "2", "--json"],
        ["decompose", empty_file, "--cover", ";2"],
        ["bound", "0"],
        ["check", triangle_file, "nope"],
        ["basis", "--help"],
        ["basis", triangle_file, "--json"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = coveralg_process(*argv, COLUMNS="80")
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv


# Spans of the benchmark's tracer that per-layer metrics read. The tracer
# reports a target it cannot resolve as absent, so a rename would zero its
# metric with no error.
LIVE_SPANS = [
    "cli.main",
    "algebra.generators",
    "algebra.compare_powers",
    "cone.hilbert_basis",
    "complexes.cover_complex",
    "monomial.MonomialIdeal.intersect",
]


def test_live_tracer_spans_resolve():
    tracing = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "TARGETS"
    )
    traced = {f"{module}.{path}" for module, path, _ in targets}
    unresolved = []
    for name in LIVE_SPANS:
        module, *path = name.split(".")
        obj = importlib.import_module(f"coveralg.{module}")
        for part in path:
            obj = getattr(obj, part, None)
        if name not in traced or not callable(obj):
            unresolved.append(name)
    assert unresolved == []


# argv, and whether the call loads coveralg.graphs
START_UP_CALLS = {
    "basis-family": (["basis", "--family", "2", "2"], True),
    "check-bipartite": (["check", "{triangle}", "bipartite"], True),
    "decompose-family": (["decompose", "--family", "2", "2"], True),
    "split": (["split", "{edge}", "--cover", "2,1;3"], True),
    "family": (["family", "2", "2"], True),
    "basis-file": (["basis", "{triangle}"], False),
    "check-standard": (["check", "{triangle}", "standard"], False),
    "symbolic": (["symbolic", "{ideal}", "-n", "2"], False),
    "power": (["power", "{ideal}", "-n", "2"], False),
    "compare": (["compare", "{ideal}", "-n", "2"], False),
}


class TestStartUp:
    """Each command is one process, so what `coveralg.cli` imports is paid on every call."""

    def test_import_loads_neither_dataclasses_nor_graphs(self):
        proc = python_process("-c", (
            "import sys, coveralg.cli; "
            "print([m for m in ('dataclasses', 'coveralg.graphs') if m in sys.modules])"
        ))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize(
        "argv, graphs_loaded", START_UP_CALLS.values(), ids=START_UP_CALLS.keys()
    )
    def test_graphs_loads_for_the_graph_commands_only(
        self, triangle_file, edge_file, ideal_file, argv, graphs_loaded
    ):
        files = {"triangle": triangle_file, "edge": edge_file, "ideal": ideal_file}
        proc = python_process("-c", (
            "import sys; from coveralg.cli import main; status = main(sys.argv[1:]); "
            "print('coveralg.graphs' in sys.modules, file=sys.stderr); sys.exit(status)"
        ), *(a.format(**files) for a in argv))
        assert (proc.returncode, proc.stderr) == (0, f"{graphs_loaded}\n")
        assert proc.stdout


class TestUsageErrors:
    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_threads_option_is_gone(self, capsys, triangle_file):
        with pytest.raises(SystemExit) as exc:
            main(["basis", triangle_file, "--threads", "2"])
        assert exc.value.code == 1

    def test_budget_option_is_gone(self, capsys, triangle_file):
        # decompose reads its answer off the capped basis, with no search
        with pytest.raises(SystemExit) as exc:
            main(["decompose", triangle_file, "--cover", "2,2,2;2", "--budget", "5"])
        assert exc.value.code == 1
        assert "--budget" in capsys.readouterr().err

    def test_repro_command_is_gone(self, capsys):
        # the worked examples run as tests/test_acceptance.py instead
        with pytest.raises(SystemExit) as exc:
            main(["repro", "--quick"])
        assert exc.value.code == 1

    def test_missing_required_argument_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["symbolic", "file.json"])  # no -n
        assert exc.value.code == 1

    @pytest.mark.parametrize("command, usage", [
        ("symbolic", "usage: coveralg symbolic [-h] -n ORDER [--json] ideal_file"),
        ("power", "usage: coveralg power [-h] -n ORDER [--json] ideal_file"),
        ("compare", "usage: coveralg compare [-h] -n ORDER [--json] ideal_file"),
    ])
    def test_ideal_command_usage(self, capsys, monkeypatch, command, usage):
        monkeypatch.setenv("COLUMNS", "80")  # usage wraps at this width
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[0] == usage

