"""CLI behaviour: output shapes, parse-back to library results, exit codes."""

import json
import math

import numpy as np
import pytest

from magraph import (
    SubDetermination,
    adjacency_matrix,
    bfs,
    builtin_example,
    combinatorial_laplacian,
    degree,
    dfs,
    elimination_matrix,
    incidence_matrix,
    main_components,
    read_matrix_market,
    load_mag,
    save_mag,
    sub_determine_mag,
)
from magraph.cli import main
import expected_builtin as ref


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", "builtin:T")
    assert code == 0
    assert out == "ok: T\n"
    assert err == ""


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", "--input", "builtin:T", "--json")
    assert code == 0
    assert json.loads(out) == {"name": "T", "ok": True}


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", "builtin:T")
    assert code == 0
    assert out.splitlines() == [
        "name: T",
        "order: 3",
        "tau: 3,2,3",
        "vertices: 18",
        "edges: 22",
        "trivial: 1 6 7 12 13 18",
    ]


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "builtin:R", "--json")
    assert json.loads(out) == {
        "name": "R",
        "order": 2,
        "tau": [3, 2],
        "vertices": 6,
        "edges": 5,
        "trivial": [],
    }


def test_degree_table_parses_back(capsys):
    code, out, _ = run(capsys, "degree", "builtin:T")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["vertex", "in", "out", "labels"]
    result = degree(builtin_example("T"))
    assert len(lines) == 19
    for row in lines[1:]:
        idx, ind, outd, labels = row.split()
        i = int(idx) - 1
        assert int(ind) == result.indegree[i]
        assert int(outd) == result.outdegree[i]
    assert lines[2].split()[3] == "(2,Bus,t1)"


def test_degree_selfloop_column(capsys):
    code, out, _ = run(
        capsys, "degree", "builtin:T", "--zeta", "011", "--separate-loops"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["vertex", "in", "out", "self", "labels"]
    self_col = [int(r.split()[3]) for r in lines[1:]]
    assert tuple(self_col) == ref.DEGREE_SUB_LOCMODE_SELF


def test_degree_algebraic_identical_output(capsys):
    _, plain, _ = run(capsys, "degree", "builtin:T", "--zeta", "100")
    _, algebraic, _ = run(
        capsys, "degree", "builtin:T", "--zeta", "100", "--algebraic"
    )
    assert plain == algebraic
    rows = [r.split() for r in plain.splitlines()[1:]]
    assert [int(r[1]) for r in rows] == list(ref.DEGREE_SUB_TIME_IN)
    assert [int(r[2]) for r in rows] == list(ref.DEGREE_SUB_TIME_OUT)


def test_degree_json(capsys):
    code, out, _ = run(
        capsys, "degree", "builtin:T", "--zeta", "011", "--separate-loops", "--json"
    )
    payload = json.loads(out)
    assert payload["selfdegree"] == list(ref.DEGREE_SUB_LOCMODE_SELF)
    assert tuple(payload["indegree"]) == tuple(
        a - s
        for a, s in zip(ref.DEGREE_SUB_LOCMODE_IN, ref.DEGREE_SUB_LOCMODE_SELF)
    )


def test_bfs_text(capsys):
    code, out, _ = run(capsys, "bfs", "builtin:T", "--source", "2,Bus,t1")
    assert code == 0
    assert out.splitlines() == [
        "vertices: 2 5 8 9 10 11 14 15 16 17",
        "distance: inf 0 inf inf 1 inf inf 1 1 2 2 inf inf 2 2 3 3 inf",
        "pred: nil nil nil nil 2 nil nil 2 2 5 5 nil nil 8 8 10 10 nil",
    ]


def test_bfs_json_round_trips(capsys):
    _, out, _ = run(capsys, "bfs", "builtin:T", "--source", "2,Bus,t1", "--json")
    payload = json.loads(out)
    result = bfs(
        adjacency_matrix(builtin_example("T")),
        builtin_example("T").aspects.vertex(("2", "Bus", "t1")),
    )
    assert tuple(payload["vertices"]) == result.vertices
    distances = tuple(
        math.inf if x == "inf" else x for x in payload["distance"]
    )
    assert distances == result.distance
    assert tuple(payload["pred"]) == result.pred


def test_bfs_sub_text(capsys):
    _, out, _ = run(
        capsys, "bfs", "builtin:T", "--zeta", "011", "--source", "2,Bus"
    )
    assert out.splitlines()[0] == "vertices: 2 5 3 4"
    _, out_r, _ = run(capsys, "bfs", "builtin:R", "--zeta", "01", "--source", "1")
    assert out_r.splitlines() == [
        "vertices: 1 2",
        "distance: 0 1 inf",
        "pred: nil 1 nil",
    ]


def test_dfs_text(capsys):
    code, out, _ = run(capsys, "dfs", "builtin:T")
    result = dfs(adjacency_matrix(builtin_example("T")))
    lines = out.splitlines()
    assert lines[0] == "d: " + " ".join(str(x) for x in result.disc_time)
    assert lines[1] == "f: " + " ".join(str(x) for x in result.fin_time)
    assert lines[2].startswith("pred: nil nil nil nil 2")


def test_dfs_sub_json(capsys):
    _, out, _ = run(capsys, "dfs", "builtin:T", "--zeta", "011", "--json")
    payload = json.loads(out)
    assert tuple(payload["d"]) == ref.DFS_SUB_T_LOCMODE["d"]
    assert tuple(payload["f"]) == ref.DFS_SUB_T_LOCMODE["f"]
    assert payload["pred"] == [None, None, 2, 5, 2, None]


def test_export_laplacian_main_components(capsys, tmp_path):
    out_path = tmp_path / "lap.mtx"
    code, out, _ = run(
        capsys,
        "export",
        "--input",
        "builtin:T",
        "--matrix",
        "laplacian",
        "--main-components",
        "-o",
        str(out_path),
    )
    assert code == 0 and out == ""
    exported = read_matrix_market(out_path.read_text())
    mag = builtin_example("T")
    expected = main_components(
        combinatorial_laplacian(incidence_matrix(mag)[0].matrix),
        elimination_matrix(mag),
        "adjacency",
    )
    assert exported == expected
    assert np.array_equal(exported.to_dense(), ref.LAPLACIAN_MAIN_T)


def test_export_subdet_adjacency(capsys, tmp_path):
    out_path = tmp_path / "sub.mtx"
    code, _, _ = run(
        capsys,
        "export",
        "builtin:T",
        "--matrix",
        "subdet-adjacency",
        "--zeta",
        "100",
        "-o",
        str(out_path),
    )
    assert code == 0
    assert np.array_equal(
        read_matrix_market(out_path.read_text()).to_dense(), ref.SUBDET_ADJ_T_TIME
    )


def test_export_all_matrix_kinds(capsys, tmp_path):
    from magraph import (
        elimination_matrix as elim_of,
        normalized_laplacian,
        weighted_laplacian,
    )

    weighted = tmp_path / "w.mag"
    weighted.write_text(
        "*mag w\n*aspect A\na\nb\nc\n*edges\na -> b : 0.5\nb -> c\n"
    )
    mag = load_mag(weighted)
    c = incidence_matrix(mag)[0].matrix
    expected = {
        "adjacency": adjacency_matrix(mag).matrix,
        "incidence": c,
        "laplacian": combinatorial_laplacian(c),
        "weighted-laplacian": weighted_laplacian(c, (0.5, 1.0)),
        "normalized-laplacian": normalized_laplacian(c),
        "elimination": elim_of(mag),
    }
    for kind, matrix in expected.items():
        out_path = tmp_path / f"{kind}.mtx"
        code, _, _ = run(
            capsys, "export", str(weighted), "--matrix", kind, "-o", str(out_path)
        )
        assert code == 0
        assert read_matrix_market(out_path.read_text()) == matrix


def test_export_zeta_misuse_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        main(
            ["export", "builtin:T", "--matrix", "adjacency", "--zeta", "011",
             "-o", str(tmp_path / "x.mtx")]
        )
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_info_no_trivial_line(capsys):
    _, out, _ = run(capsys, "info", "builtin:R")
    assert out.splitlines()[-1] == "trivial:"


def test_subdet_writes_mag(capsys, tmp_path):
    out_path = tmp_path / "r01.mag"
    code, _, _ = run(
        capsys, "subdet", "builtin:R", "--zeta", "01", "-o", str(out_path)
    )
    assert code == 0
    written = load_mag(out_path)
    assert written == sub_determine_mag(
        builtin_example("R"), SubDetermination.from_bits("01")
    )


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "dfs", "builtin:T", "--zeta", "011")
    _, second, _ = run(capsys, "dfs", "builtin:T", "--zeta", "011")
    assert first == second


# ---------------------------------------------------------------------------
# error handling


def test_domain_error_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path / "missing.mag"))
    assert code == 1
    assert out == "" and err.startswith("error:")

    bad = tmp_path / "bad.mag"
    bad.write_text("*mag x\n*aspect A\na\nb\n*edges\na -> a\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "line 6" in err


def test_invalid_zeta_exits_1(capsys):
    code, _, err = run(capsys, "dfs", "builtin:T", "--zeta", "111")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "bfs", "builtin:R", "--zeta", "012", "--source", "1")
    assert code == 1


def test_unknown_source_exits_1(capsys):
    code, _, err = run(capsys, "bfs", "builtin:T", "--source", "9,Bus,t1")
    assert code == 1


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bfs", "builtin:T"])  # missing --source
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["degree"])  # no input at all
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["degree", "a.mag", "--input", "b.mag"])  # input given twice
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["degree", "builtin:T", "--separate-loops"])  # needs --zeta
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        # subdet-adjacency needs --zeta
        main(["export", "builtin:T", "--matrix", "subdet-adjacency", "-o", "x.mtx"])
    assert exit_info.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# every command works from the edge arrays


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["info"],
        ["info", "--json"],
        ["degree"],
        ["degree", "--algebraic"],
        ["degree", "--zeta", "011", "--separate-loops"],
        ["degree", "--zeta", "011", "--algebraic"],
        ["bfs", "--source", "2,Bus,t1"],
        ["bfs", "--zeta", "011", "--source", "2,Bus"],
        ["dfs"],
        ["dfs", "--zeta", "101"],
        ["export", "--matrix", "subdet-adjacency", "--zeta", "011", "-o", "OUT"],
        ["export", "--matrix", "adjacency", "--main-components", "-o", "OUT"],
        ["export", "--matrix", "laplacian", "--main-components", "-o", "OUT"],
        ["subdet", "--zeta", "011", "-o", "OUT"],
    ]
    + [
        ["export", "--matrix", kind, "-o", "OUT"]
        for kind in ("adjacency", "incidence", "laplacian", "weighted-laplacian",
                     "normalized-laplacian", "elimination")
    ],
)
def test_commands_never_build_edge_objects(argv, capsys, tmp_path, monkeypatch):
    import magraph.cli

    path = tmp_path / "t.mag"
    save_mag(builtin_example("T"), path)
    loaded = []

    def load(target):
        loaded.append(load_mag(target))
        return loaded[-1]

    monkeypatch.setattr(magraph.cli, "load_mag", load)
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    code, _, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, err) == (0, "")
    assert len(loaded) == 1
    assert "edges" not in loaded[0].__dict__
