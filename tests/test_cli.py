import json
import subprocess
import sys

import pytest

from crlab.cli import main
from crlab.commrank import satisfies_rank_condition
from crlab.constructions import extremal_space, flanders_space
from crlab.linalg import Mat
from crlab.serialize import (SchemaError, read_subspace, subspace_from_dict,
                             subspace_to_dict, to_jsonable, write_subspace)
from crlab.subspace import span


def run_cli(*argv):
    return main(list(argv))


# -- file format ---------------------------------------------------------------

def test_subspace_file_round_trip(tmp_path):
    v = extremal_space(5, 2, 1)
    path = tmp_path / "v.json"
    write_subspace(path, v)
    assert read_subspace(path) == v


def test_subspace_file_write_is_canonical(tmp_path):
    v = extremal_space(4, 1, 1)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_subspace(p1, v)
    write_subspace(p2, read_subspace(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_entry_format():
    v = span([Mat.from_rows([[1, 2], [0, 4]]) * __import__("fractions").Fraction(1, 3)])
    d = subspace_to_dict(v)
    # canonical basis rescales to pivot 1; entries are reduced p/q strings
    assert d["basis"][0][0][0] == "1"
    back = subspace_from_dict(d)
    assert back == v


def test_schema_validation_errors():
    with pytest.raises(SchemaError):
        subspace_from_dict({"ambient": 2, "field": "R", "basis": []})
    with pytest.raises(SchemaError):
        subspace_from_dict({"ambient": 0, "field": "Q", "basis": []})
    with pytest.raises(SchemaError):
        subspace_from_dict({"field": "Q", "basis": []})
    with pytest.raises(SchemaError):
        subspace_from_dict({"ambient": 2, "field": "Q", "basis": [[["1"]]]})
    with pytest.raises(SchemaError):
        subspace_from_dict({"ambient": 1, "field": "Q", "basis": [[["0.5"]]]})
    with pytest.raises(SchemaError):
        subspace_to_dict(flanders_space(2, 3, 1))


# -- subcommands ------------------------------------------------------------------

def test_construct_then_analyze(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run_cli("construct", "--family", "vk", "--n", "5", "--k", "2",
                   "--l", "1", "-o", str(out)) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    code = run_cli("analyze", str(out), "--trials", "32", "--seed", "7",
                   "-o", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["results"]["dim"] == 13
    assert report["results"]["bound_report"]["bound"] == 13
    assert report["results"]["bound_report"]["status"] == "PASS"


def test_analyze_every_family(tmp_path, capsys):
    families = [("schur", ["--n", "6"]),
                ("vk", ["--n", "5", "--k", "2", "--l", "2"]),
                ("vk-t", ["--n", "4", "--k", "1", "--l", "1"]),
                ("thm2-lastrow", ["--n", "4"]),
                ("thm2-firstcol", ["--n", "4"]),
                ("rank1max", ["--n", "4", "--variant", "diag3"]),
                ("flanders", ["--n", "4", "--k", "2"])]
    for fam, extra in families:
        out = tmp_path / f"{fam}.json"
        assert run_cli("construct", "--family", fam, *extra, "-o", str(out)) == 0
        capsys.readouterr()
        code = run_cli("analyze", str(out), "--trials", "16", "--seed", "5")
        captured = capsys.readouterr()
        assert json.loads(captured.out)["results"]["dim"] >= 0
        assert code in (0, 1)  # flanders full band can exceed a sampled level


def test_search_command(tmp_path, capsys):
    code = run_cli("search", "--n", "3", "--k", "1", "--seed", "1")
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["results"]["max_dim"] == 5
    assert report["results"]["matches_bound"] is True


def test_search_rules_flag(capsys):
    # 'full' is the only closure rule set; any other name is a usage error
    assert run_cli("search", "--n", "2", "--k", "1", "--rules", "full") == 0
    assert json.loads(capsys.readouterr().out)["args"]["rules"] == "full"
    with pytest.raises(SystemExit) as exc:
        run_cli("search", "--n", "2", "--k", "1", "--rules", "three-case")
    assert exc.value.code == 2


def test_search_guard_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CRLAB_MAX_N", "2")
    code = run_cli("search", "--n", "3", "--k", "1")
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_analyze_rank_condition_equals_a_separate_sampling(tmp_path, capsys):
    # analyze --k reads its verdict off the profile scan; it must be the
    # verdict a separate satisfies_rank_condition call returns
    q = Mat.from_rows([[2, 1, 0, 0, 1], [0, 3, 1, 0, 0], [1, 0, 5, 0, 0],
                       [0, 0, 1, 7, 0], [1, 0, 0, 0, 1]])
    path = tmp_path / "v.json"
    write_subspace(path, extremal_space(5, 2, 1).conjugate(q))
    for k, status in ((2, "PROBABLE_YES"), (1, "CERTIFIED_NO")):
        code = run_cli("analyze", str(path), "--k", str(k), "--trials", "12", "--seed", "17")
        got = json.loads(capsys.readouterr().out)["results"]["rank_condition"]
        assert got["status"] == status and code == (0 if status == "PROBABLE_YES" else 1)
        want = satisfies_rank_condition(read_subspace(path), k, 12, 17)
        assert got == to_jsonable(want)  # status, witness pair and witness rank


def test_triangularize_command(tmp_path, capsys):
    out = tmp_path / "r.json"
    run_cli("construct", "--family", "rank1max", "--n", "4", "--variant",
            "nilrank2", "-o", str(out))
    capsys.readouterr()
    code = run_cli("triangularize", str(out))
    captured = capsys.readouterr()
    assert code == 0
    res = json.loads(captured.out)["results"]
    assert res["verified_upper_triangular"] is True
    assert res["chain_dims"] == [1, 2, 3, 4]


def test_triangularize_inconsistent_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    write_subspace(path, span([Mat.unit(2, 0, 1), Mat.unit(2, 1, 0)]))
    code = run_cli("triangularize", str(path))
    captured = capsys.readouterr()
    assert code == 1
    err = json.loads(captured.out)["results"]["error"]
    assert err["code"] == "INCONSISTENT"
    assert err["witness_commutator_rank"] == 2


def test_verify_structure_command(tmp_path, capsys):
    out = tmp_path / "v.json"
    run_cli("construct", "--family", "vk", "--n", "4", "--k", "1", "--l", "2",
            "-o", str(out))
    capsys.readouterr()
    code = run_cli("verify-structure", str(out), "--seed", "3")
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["results"]["status"] == "MATCHES_VK"


def test_invalid_input_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli("analyze", str(missing)) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"]["code"] == "INVALID_INPUT"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("analyze", str(bad)) == 2


def test_report_reproducibility(tmp_path):
    out = tmp_path / "v.json"
    run_cli("construct", "--family", "vk", "--n", "4", "--k", "1", "--l", "1",
            "-o", str(out))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli("analyze", str(out), "--trials", "16", "--seed", "9", "-o", str(r1))
    run_cli("analyze", str(out), "--trials", "16", "--seed", "9", "-o", str(r2))
    d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
    d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
    assert d1 == d2


def test_analyze_accepts_every_valid_construction(tmp_path, capsys):
    from crlab.constructions import valid_splits
    combos = []
    for n in range(2, 7):
        combos.append(("schur", {"--n": n}))
        combos.append(("thm2-lastrow", {"--n": n}))
        combos.append(("thm2-firstcol", {"--n": n}))
        for k in range(n):
            combos.append(("flanders", {"--n": n, "--k": k}))
            for l in valid_splits(n, k):
                combos.append(("vk", {"--n": n, "--k": k, "--l": l}))
                combos.append(("vk-t", {"--n": n, "--k": k, "--l": l}))
    for variant, n in (("generic", 5), ("diag3", 4), ("nilrank1_plus_C", 4),
                       ("nilrank2", 4), ("diag2", 3), ("scalar", 2)):
        c = {"--n": n, "--variant": variant}
        if variant == "generic":
            c["--l"] = 2
        combos.append(("rank1max", c))
    for fam, params in combos:
        out = tmp_path / "space.json"
        argv = ["construct", "--family", fam, "-o", str(out)]
        for flag, val in params.items():
            argv += [flag, str(val)]
        assert run_cli(*argv) == 0, (fam, params)
        code = run_cli("analyze", str(out), "--trials", "4", "--seed", "3")
        assert code in (0, 1), (fam, params)  # a verdict, never a crash
        capsys.readouterr()


def test_search_report_reproducibility(tmp_path):
    r1, r2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for path in (r1, r2):
        assert run_cli("search", "--n", "3", "--k", "1", "--seed", "11",
                       "--trials", "16", "-o", str(path)) == 0
    d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
    d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
    assert d1 == d2
    # argmax specs are serialized with their position set and diagonal partition
    spec = d1["results"]["argmax"][0]
    assert {"n", "units", "diag_blocks", "forced_diffs"} <= set(spec)


def test_selftest_command(capsys):
    assert run_cli("selftest") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "crlab.cli", "selftest"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
