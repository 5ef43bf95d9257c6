from __future__ import annotations

import json

import pytest

from coveralg.cli import main
from coveralg.complexes import WeightedComplex, is_cover
from coveralg.graphs import decompose

TRIANGLE = {"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]}
SQUARE = {"n": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]}
TRIANGLE_IDEAL = {"n": 3, "gens": [[1, 1, 0], [0, 1, 1], [1, 0, 1]]}


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE), encoding="utf-8")
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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_cap_truncates_with_exit_3(self, capsys, triangle_file):
        code, out, err = run(capsys, "basis", triangle_file, "--cap", "1")
        assert code == 3
        assert len(out.splitlines()) == 3
        assert "truncated" in err

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

    def test_non_squarefree_without_wrt_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "gens": [[2, 0]]}), encoding="utf-8")
        code, _, err = run(capsys, "symbolic", str(path), "-n", "2")
        assert code == 2
        assert "squarefree" in err

    def test_symbolic_wrt_matches_squarefree_route(
        self, capsys, ideal_file, tmp_path
    ):
        maxl = tmp_path / "max.json"
        maxl.write_text(
            json.dumps({"n": 3, "gens": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
            encoding="utf-8",
        )
        _, with_wrt, _ = run(
            capsys, "symbolic", ideal_file, "-n", "2", "--wrt", str(maxl), "--json"
        )
        _, plain, _ = run(capsys, "symbolic", ideal_file, "-n", "2", "--json")
        assert json.loads(with_wrt) == json.loads(plain)

    def test_power(self, capsys, ideal_file):
        code, out, _ = run(capsys, "power", ideal_file, "-n", "2", "--json")
        assert code == 0
        gens = json.loads(out)["gens"]
        assert [1, 1, 1] not in gens
        assert [2, 2, 0] in gens


class TestCompare:
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
        assert out.startswith("indecomposable (exhaustive, budget=")

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

    def test_budget_exceeded_exits_3(self, capsys, triangle_file):
        code, _, err = run(
            capsys,
            "decompose",
            triangle_file,
            "--cover",
            "2,2,2;2",
            "--budget",
            "3",
        )
        assert code == 3
        assert "budget" in err

    def test_invalid_cover_syntax_exits_2(self, capsys, triangle_file):
        code, _, err = run(
            capsys, "decompose", triangle_file, "--cover", "banana"
        )
        assert code == 2
        assert err


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


class TestBudgetEnvVar:
    def test_env_var_sets_default_budget(self, capsys, triangle_file, monkeypatch):
        monkeypatch.setenv("COVERALG_BUDGET", "3")
        code, _, err = run(
            capsys, "decompose", triangle_file, "--cover", "2,2,2;2"
        )
        assert code == 3
        assert "budget 3" in err

    def test_flag_overrides_env_var(self, capsys, triangle_file, monkeypatch):
        monkeypatch.setenv("COVERALG_BUDGET", "3")
        code, out, _ = run(
            capsys,
            "decompose",
            triangle_file,
            "--cover",
            "2,2,2;2",
            "--budget",
            "100000",
        )
        assert code == 0
        assert out.startswith("decomposable")


class TestUsageErrors:
    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_threads_option_is_gone(self, capsys, triangle_file):
        with pytest.raises(SystemExit) as exc:
            main(["basis", triangle_file, "--threads", "2"])
        assert exc.value.code == 1

    def test_missing_required_argument_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["symbolic", "file.json"])  # no -n
        assert exc.value.code == 1


def test_repro_quick(capsys):
    code = main(["repro", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 10
