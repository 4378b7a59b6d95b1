"""End-to-end command-line behavior, exit codes, and output determinism."""

import json


from theta_refine.cli import main
from theta_refine.geometry import Cone, cone_from_json_dict, cones_closed_equal


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_refine_table_output(capsys):
    code, out = run_cli(capsys, "refine", "--a", "1", "--b", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split()[1:] == ["1", "3", "9", "29", "58", "30", "0"]
    assert lines[2].split()[1:] == ["1", "3", "9", "16", "6", "0", "0"]
    assert "seconds" not in out


def run_cli_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_refine_invalid_pair(capsys):
    code, out, err = run_cli_error(capsys, "refine", "--a", "0", "--b", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_bad_input_exits_2_with_one_line(capsys):
    # exit 1 means "relation fails" for verify; bad input must not look like it
    for argv in (
        ("verify", "--q1", "1,0,1", "--q2", "1,0,2", "--q3", "1,0,-1",
         "--a", "1", "--b", "1", "--max-coeff", "10"),
        ("verify", "--q1", "1,0,1", "--q2", "1,0,2", "--q3", "1,0,3",
         "--a", "1", "--b", "1", "--max-coeff", "-1"),
        ("classify", "--alphas", "0,0,0", "--q1", "1,0,1", "--q2", "1,0,1",
         "--q3", "1,0,1", "--max-coeff", "-5"),
        ("refine", "--a", "1", "--b", "1", "--max-iter", "-1"),
        ("ycheck", "--max-iter", "-1"),
        ("decompose", "--a", "1", "--b", "2", "--triple", "1,2"),
    ):
        code, out, err = run_cli_error(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, argv


def test_refine_json_and_determinism(capsys):
    code, out1 = run_cli(capsys, "refine", "--a", "3", "--b", "1", "--emit", "json")
    assert code == 0
    payload = json.loads(out1)
    assert payload["totals"] == [1, 3, 3, 5, 0]
    _, out2 = run_cli(capsys, "refine", "--a", "3", "--b", "1", "--emit", "json")
    _, out3 = run_cli(
        capsys, "refine", "--a", "3", "--b", "1", "--emit", "json", "--threads", "3"
    )
    assert out1 == out2 == out3
    _, text1 = run_cli(capsys, "refine", "--a", "3", "--b", "1")
    _, text2 = run_cli(capsys, "refine", "--a", "3", "--b", "1", "--threads", "3")
    assert text1 == text2


def test_refine_dumps_round_trip(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "refine", "--a", "3", "--b", "1", "--out", str(tmp_path / "run")
    )
    assert code == 0
    pair0 = json.loads((tmp_path / "run" / "gen_0" / "pair_0.json").read_text())
    cone = cone_from_json_dict(pair0["cone"])
    assert cone.dim == 9 and len(cone.edges()) == 9
    assert pair0["param"] == {"X": [], "Y": [], "Z": []}
    gen3 = sorted((tmp_path / "run" / "gen_3").glob("pair_*.json"))
    assert len(gen3) == 5
    reload_ = cone_from_json_dict(json.loads(gen3[0].read_text())["cone"])
    original = Cone(9, [[int(x) for x in row] for row in json.loads(gen3[0].read_text())["cone"]["A"]])
    assert cones_closed_equal(reload_, original)


def test_verify_exit_codes(capsys):
    code, out = run_cli(
        capsys, "verify", "--q1", "1,1,1", "--q2", "4,4,4", "--q3", "1,0,3",
        "--a", "1", "--b", "2", "--max-coeff", "500",
    )
    assert code == 0 and "verified" in out
    code, out = run_cli(
        capsys, "verify", "--q1", "1,0,1", "--q2", "1,0,2", "--q3", "1,0,3",
        "--a", "1", "--b", "1", "--max-coeff", "10",
    )
    assert code == 1 and "m=1" in out


def test_verify_degenerate_weights_exit_2(capsys):
    code, out, err = run_cli_error(
        capsys, "verify", "--q1", "1,0,1", "--q2", "1,0,2", "--q3", "1,0,3",
        "--a", "0", "--b", "0",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_classify_output(capsys):
    code, out = run_cli(
        capsys, "classify", "--alphas", "1/3,2/3,-1",
        "--q1", "1,1,1", "--q2", "4,4,4", "--q3", "1,0,3", "--max-coeff", "500",
    )
    assert code == 0 and out.startswith("non-trivial")


def test_decompose_output(capsys):
    code, out = run_cli(capsys, "decompose", "--a", "1", "--b", "2", "--triple", "5,2,3")
    assert code == 0 and out.strip() == "2,1,0"
    code, out = run_cli(capsys, "decompose", "--a", "1", "--b", "2", "--triple", "1,1,2")
    assert code == 1 and out.strip() == "none"


def test_min_output(capsys):
    code, out = run_cli(capsys, "min", "--exclude", "(1,0)")
    assert code == 0 and out.strip() == "(0, 1)"
    code, out = run_cli(capsys, "min", "--exclude", "", "--n", "6")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_kset_output(capsys):
    code, out = run_cli(capsys, "kset", "--sets", "{(1,0),(0,1)};{};{(-1,1)}")
    assert code == 0 and "A =" in out and "rays =" in out
    code, out = run_cli(capsys, "kset", "--sets", "{(1,0),(0,1)};{};{(-1,1)}", "--emit", "json")
    payload = json.loads(out)
    back = cone_from_json_dict(payload)
    golden = Cone(3, [(-1, 1, 0), (1, 0, -1), (0, 0, 2), (1, -1, 0)])
    assert cones_closed_equal(back, golden)


def test_reduce_and_theta(capsys):
    code, out = run_cli(capsys, "reduce", "--form", "4,4,4")
    assert code == 0 and "reduced: 4,4,4" in out
    code, out = run_cli(capsys, "theta", "--form", "1,0,3", "--max-coeff", "4")
    assert code == 0 and out.split() == ["1", "2", "0", "2", "6"]
    code, out = run_cli(
        capsys, "theta", "--form", "1,0,3", "--max-coeff", "4", "--emit", "json",
        "--variant", "sp",
    )
    # strongly primitive: one of each sign pair survives at m = 1 and 3
    assert json.loads(out) == ["0", "1", "0", "1", "2"]


def test_fixtures_command(capsys):
    code, out = run_cli(capsys, "fixtures")
    assert code == 0
    assert "FAIL" not in out
    code, out = run_cli(capsys, "fixtures", "--emit", "json")
    results = json.loads(out)
    assert all(r["ok"] for r in results) and len(results) > 25


def test_fixture_comparison_detects_corruption():
    # negative control: a deliberately wrong golden value must not pass the
    # member-set comparison
    from theta_refine import fixtures as fx

    good = fx.Cone(3, [(-1, 1, 0), (1, 0, -1), (0, 0, 2)])
    corrupted = fx.Cone(3, [(-1, 1, 0), (1, 0, -1), (0, 0, 1), (1, -1, 0)])
    assert not fx.cones_closed_equal(fx.kset_chain([(1, 0), (0, 1), (-1, 1)]), corrupted)
    assert fx.cones_closed_equal(fx.kset_chain([(1, 0), (0, 1), (-1, 1)]), good)


def test_env_threads_fallback(capsys, monkeypatch):
    monkeypatch.setenv("THETA_REFINE_THREADS", "2")
    code, out = run_cli(capsys, "refine", "--a", "3", "--b", "1", "--emit", "json")
    assert code == 0
    assert json.loads(out)["totals"] == [1, 3, 3, 5, 0]
