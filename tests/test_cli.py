"""End-to-end command-line behavior, exit codes, and output determinism."""

import hashlib
import json

import pytest

from theta_refine import cli, refinement
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


def test_refine_warns_in_one_line_when_not_in_lowest_terms(capsys):
    # run_algorithm raises a UserWarning; the command prints it as one
    # stderr line and leaves the table and the exit code as they are.
    code, out, err = run_cli_error(capsys, "refine", "--a", "2", "--b", "4", "--max-iter", "3")
    assert code == 0
    assert err == "warning: gcd(2, 4) != 1; the relation is not in lowest terms\n"
    assert out.splitlines()[1].split() == ["pairs", "1", "3", "11", "21"]


def test_form_help_says_how_to_write_a_negative_first_entry(capsys):
    for command in ("reduce", "theta"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--form=-1,0,-1" in capsys.readouterr().out
    assert main(["reduce", "--form=-1,0,-1"]) == 2


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
        ("refine", "--a", "1", "--b", "1", "--out", ""),
        ("ycheck", "--max-iter", "-1"),
        ("decompose", "--a", "1", "--b", "2", "--triple", "1,2"),
        ("classify", "--alphas", "1/0,1,-2", "--q1", "1,0,1", "--q2", "1,0,1",
         "--q3", "1,0,1"),
        ("kset", "--sets", "(1,0"),
        ("min", "--exclude", "1,2,3"),
        ("classify", "--alphas", "1,2,3", "--q1", "1,0,1", "--q2", "1,0,1",
         "--q3", "1,0,1"),
        # a form that is not positive-definite, with coefficient zero
        ("classify", "--alphas", "0,1,-1", "--q1", "0,0,0", "--q2", "1,0,1",
         "--q3", "1,0,2"),
        ("classify", "--alphas", "0,0,0", "--q1", "0,0,0", "--q2", "1,0,1",
         "--q3", "1,0,2"),
        ("classify", "--alphas", "1,-1,0", "--q1", "1,0,1", "--q2", "1,0,1",
         "--q3", "0,0,0"),
    ):
        code, out, err = run_cli_error(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, argv
        assert "Fraction" not in err, argv
        if argv[0] in ("kset", "min"):
            assert "x,y" in err, argv


def test_unwritable_out_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    # The --out directory is checked before the run, so a path under a
    # regular file fails at once with a one-line error instead of after the
    # run.
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(cli, "run_algorithm", None)
    code, out, err = run_cli_error(
        capsys, "refine", "--a", "1", "--b", "1", "--out", str(blocker / "run")
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [("--a", "-1", "--b", "1"), ("--a", "1", "--b", "1", "--max-iter", "-2")])
def test_bad_input_leaves_no_out_directory(argv, tmp_path, capsys):
    # --out is made only after the run returns, so a run refused as bad
    # input leaves neither the directory nor its new parent behind.
    out = tmp_path / "new" / "run"
    code, stdout, err = run_cli_error(capsys, "refine", *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "new").exists()


def test_out_naming_a_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    # --out naming an existing file is refused on its own terms, in one
    # line, before the run, and nothing is made.
    out = tmp_path / "file"
    out.write_text("")
    monkeypatch.setattr(cli, "run_algorithm", None)
    code, stdout, err = run_cli_error(capsys, "refine", "--a", "1", "--b", "2", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == f"error: --out path {out} is not a directory\n"
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == ""


def test_nonempty_out_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    # A second dump into the same directory would leave the first run's
    # extra generations and pairs behind, so a non-empty --out is refused
    # before the run, and the first dump is left as it was.
    out = tmp_path / "run"
    code, _ = run_cli(capsys, "refine", "--a", "1", "--b", "2", "--max-iter", "3", "--out", str(out))
    assert code == 0
    before = sorted(p.relative_to(out) for p in out.rglob("*"))
    assert (out / "gen_3").is_dir()
    monkeypatch.setattr(cli, "run_algorithm", None)
    code, stdout, err = run_cli_error(capsys, "refine", "--a", "3", "--b", "1", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and "not empty" in err and len(err.splitlines()) == 1
    assert sorted(p.relative_to(out) for p in out.rglob("*")) == before


def test_refine_json_and_determinism(capsys):
    code, out1 = run_cli(capsys, "refine", "--a", "3", "--b", "1", "--emit", "json")
    assert code == 0
    payload = json.loads(out1)
    assert payload["totals"] == [1, 3, 3, 5, 0]
    _, out2 = run_cli(capsys, "refine", "--a", "3", "--b", "1", "--emit", "json")
    assert out1 == out2
    _, text1 = run_cli(capsys, "refine", "--a", "3", "--b", "1")
    _, text2 = run_cli(capsys, "refine", "--a", "3", "--b", "1")
    assert text1 == text2


def test_refine_class_counters(capsys):
    # refine -v and --emit json report each generation's live classes and
    # the children of empty chains counted without being built.
    code, out = run_cli(capsys, "refine", "--a", "3", "--b", "1", "-v")
    assert code == 0
    rows = {line.rsplit(None, 5)[0]: line.split()[-5:] for line in out.splitlines()}
    assert rows["live classes"] == ["1", "1", "1", "0", "0"]
    assert rows["counted"] == ["0", "2", "2", "4", "0"]
    code, out = run_cli(
        capsys, "refine", "--a", "1", "--b", "0", "--stop-set", "q1q3", "--max-iter", "8",
        "--emit", "json",
    )
    payload = json.loads(out)
    assert payload["non_empty"] == [1, 2, 4, 7, 11, 16, 23, 38, 86]
    assert payload["live_classes"] == [1, 2, 3, 3, 3, 3, 4, 6, 11]
    assert payload["counted"] == [0] * 9


def test_dump_streams_the_replay(tmp_path):
    # --out replays the pairs one generation at a time and keeps none of
    # them on the result.
    result = cli.run_algorithm(3, 1, "diagonal", 13)
    cli._dump_run(result, tmp_path)
    assert result._pairs is None
    counts = [len(list((tmp_path / f"gen_{i}").iterdir())) for i in range(5)]
    assert counts == result.totals()


def _tree_digest(root):
    """SHA-256 of every file under ``root``, by sorted relative path: each
    path and the file's bytes, each followed by a zero byte."""
    digest = hashlib.sha256()
    for path in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        digest.update(path.encode() + b"\0" + (root / path).read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "argv, files, digest",
    [
        (("--a", "1", "--b", "1"), 130, "076094b1de0b4fccde5cb04643a8cfad78a3cfe1060885d39a169ac9b2d9d62b"),
        (
            ("--a", "1", "--b", "2", "--max-iter", "14"),
            676,
            "ded874aa2d25d4b558d3ee13532d9fb6ed2071f405afcd26101ea6d244ab96f4",
        ),
        (
            ("--a", "1", "--b", "0", "--stop-set", "q1q3", "--max-iter", "13"),
            10558,
            "213ca5b93d6d468771ab6959ff0f59cd55ae7cfcd7d32dfce262adc68dd1ce27",
        ),
        (("--a", "3", "--b", "1"), 12, "391fee79c6b8e5a433f7cb13ff6990e68ee435ca05ea1f16658f79a46d930fe4"),
        (("--a", "19", "--b", "1"), 8923, "206536306254f11250956259f22357a4bcfbf35a9e0441d20d6472c87e2ebd1b"),
    ],
)
def test_dump_digests(argv, files, digest, tmp_path, capsys):
    # The --out trees of three reference runs and two runs that the 4-choice
    # rule counts from cold memos, as a fresh process makes them, byte for
    # byte: a change to the rows, their order, the rays or the parameters of
    # any pair shows here.  The (1, 0) run factors, and its replay runs the
    # class loop in the table its (1, 0, 1) process filled.  The (3, 1) and
    # (19, 1) replays give the children of a dead shape the empty cone.
    refinement.clear_caches()
    code, _ = run_cli(capsys, "refine", *argv, "--out", str(tmp_path / "run"))
    assert code == 0
    assert len(list((tmp_path / "run").rglob("pair_*.json"))) == files
    assert _tree_digest(tmp_path / "run") == digest


def test_threads_flag_is_gone(capsys):
    # runs are single-threaded; argparse rejects the old flag with exit 2
    for argv in (("refine", "--a", "1", "--b", "1", "--threads", "2"), ("ycheck", "--threads", "2")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


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


@pytest.mark.parametrize("bound", [str(2**62), str(2**63)])
def test_an_unallocatable_max_coeff_exits_2_unless_the_sturm_bound_decides(capsys, bound):
    # A list of 2**62 + 1 entries is refused before any allocation
    # (MemoryError), one of 2**63 + 1 cannot be indexed (OverflowError).
    code, out = run_cli(
        capsys, "verify", "--q1", "1,1,1", "--q2", "4,4,4", "--q3", "1,0,3",
        "--a", "1", "--b", "2", "--max-coeff", bound,
    )
    assert (code, out) == (0, f"verified for all m <= {bound}\n")
    code, out = run_cli(
        capsys, "verify", "--q1", "1,0,1", "--q2", "1,0,2", "--q3", "1,0,3",
        "--a", "1", "--b", "1", "--max-coeff", bound,
    )
    assert (code, out) == (1, "fails at m=1\n")
    # N = 4 * 10**10: N^2 >= 24 (m_max + 1), so the walk goes to m_max; a
    # failure within the first 1024 coefficients is found without that list
    big = f"1,0,{10**10}"
    code, out = run_cli(
        capsys, "verify", "--q1", "1,0,1", "--q2", "1,0,2", "--q3", big,
        "--a", "1", "--b", "1", "--max-coeff", bound,
    )
    assert (code, out) == (1, "fails at m=1\n")
    for argv in (
        ("verify", "--q1", big, "--q2", big, "--q3", big, "--a", "1", "--b", "1"),
        ("theta", "--form", "1,0,1"),
        ("theta", "--form", "1,0,1", "--variant", "sp"),
    ):
        code, out, err = run_cli_error(capsys, *argv, "--max-coeff", bound)
        assert code == 2 and out == "", argv
        assert err == f"error: --max-coeff {bound} is too large to allocate\n", argv
    # a form that is not positive-definite is reported as such at any bound
    for form, variant in (("0,0,0", "ordinary"), ("1,0,-1", "sp")):
        code, out, err = run_cli_error(
            capsys, "theta", "--form", form, "--variant", variant, "--max-coeff", bound
        )
        assert (code, out) == (2, ""), form
        assert err == f"error: form {form} is not positive-definite\n", form


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


def test_ycheck_fails_to_depth_2_and_holds_from_3(capsys):
    # The (1, 0, 1) process of the (1, 0) run has a live class at steps 0-2
    # and none from step 3 on, so the check fails, exit 1, and then holds.
    for n, (word, code) in enumerate([("fails", 1)] * 3 + [("holds", 0)] * 2):
        assert run_cli(capsys, "ycheck", "--max-iter", str(n)) == (code, f"y-projection check: {word}\n")


def test_fixture_comparison_detects_corruption():
    # negative control: a deliberately wrong golden value must not pass the
    # member-set comparison
    from theta_refine import fixtures as fx

    good = fx.Cone(3, [(-1, 1, 0), (1, 0, -1), (0, 0, 2)])
    corrupted = fx.Cone(3, [(-1, 1, 0), (1, 0, -1), (0, 0, 1), (1, -1, 0)])
    assert not fx.cones_closed_equal(fx.kset_chain([(1, 0), (0, 1), (-1, 1)]), corrupted)
    assert fx.cones_closed_equal(fx.kset_chain([(1, 0), (0, 1), (-1, 1)]), good)
