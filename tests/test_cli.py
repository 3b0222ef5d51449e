import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlab.cli import main
from crlab.commrank import satisfies_rank_condition
from crlab.constructions import FAMILIES, _RANK1_VARIANTS, extremal_space, flanders_space
from crlab.invariant_spaces import search_max_dimension
from crlab.linalg import Mat, commutator, mat_from_columns
from crlab.numberfield import NumberField
from crlab.serialize import (SchemaError, read_subspace, scalar_to_str, str_to_scalar,
                             subspace_from_dict, subspace_to_dict, to_jsonable,
                             write_subspace)
from crlab.subspace import span


def run_cli(*argv):
    return main(list(argv))


# -- file format ---------------------------------------------------------------

def _conjugated(v, seed):
    """v conjugated by U diag(1, 2, 3, 5, 7, ...) with U unimodular: a
    permutation times unit lower and unit upper triangular factors with
    entries in [-1, 1], so the conjugate carries several denominators."""
    rng = random.Random(seed)
    n = v.n

    def unit_triangular(lower):
        return Mat.from_rows([[1 if i == j else rng.randint(-1, 1) if (i > j) == lower else 0
                               for j in range(n)] for i in range(n)])

    perm = rng.sample(range(n), n)
    u = Mat.from_rows([[int(perm[i] == j) for j in range(n)] for i in range(n)])
    u = u @ unit_triangular(True) @ unit_triangular(False)
    return v.conjugate(u @ Mat.diagonal((1, 2, 3, 5, 7, 11, 13)[:n]))


def _round_trip_spaces():
    yield extremal_space(5, 2, 1)
    yield extremal_space(4, 1, 1)
    for n, k, l, seed in ((4, 1, 1, 2), (5, 2, 1, 3), (6, 1, 3, 3), (7, 3, 2, 3)):
        v = _conjugated(extremal_space(n, k, l), seed)
        assert v.integer_basis()[0] > 1  # the conjugator's seed is picked for this
        yield v


def _reference_encoding(v):
    """The file of v built from each entry's Fraction, whose str is p or p/q."""
    return {"ambient": v.n, "field": "Q",
            "basis": [[[str(b[i, j]) for j in range(v.n)] for i in range(v.n)]
                      for b in v.basis]}


def test_subspace_file_round_trip(tmp_path):
    path = tmp_path / "v.json"
    for v in _round_trip_spaces():
        assert subspace_to_dict(v) == _reference_encoding(v)
        write_subspace(path, v)
        assert read_subspace(path) == v


def test_subspace_file_write_is_canonical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for v in _round_trip_spaces():
        write_subspace(p1, v)
        write_subspace(p2, read_subspace(p1))
        assert p1.read_bytes() == p2.read_bytes()


def test_matrix_encoding_matches_each_scalar():
    m = Mat.from_rows([[Fraction(-3, 4), 0, 5], [Fraction(7, 6), -2, Fraction(-1, 12)]])
    assert m.scale == 12 and min(m.entries) < 0
    assert to_jsonable(m) == [[scalar_to_str(x) for x in m.row(i)] for i in range(m.rows)]
    assert to_jsonable(m) == [["-3/4", "0", "5"], ["7/6", "-2", "-1/12"]]


def test_rejected_write_leaves_the_file_alone(tmp_path):
    path = tmp_path / "v.json"
    write_subspace(path, extremal_space(4, 1, 1))
    before = path.read_bytes()
    with pytest.raises(SchemaError):
        write_subspace(path, flanders_space(2, 3, 1))
    assert path.read_bytes() == before


def test_number_field_space_is_not_written(tmp_path):
    # its entries are coefficient lists, which no "field": "Q" file can hold
    k = NumberField([-2, 0, 1])
    v = span([k.embed_matrix(Mat.identity(2)) * k.theta()])
    path = tmp_path / "v.json"
    write_subspace(path, extremal_space(4, 1, 1))
    before = path.read_bytes()
    with pytest.raises(SchemaError, match="rational"):
        write_subspace(path, v)
    assert path.read_bytes() == before


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
    # a trailing newline and a non-ASCII digit are not "p" or "p/q" strings
    for entry in ("3\n", "\u0663", "1/2\n"):
        with pytest.raises(SchemaError):
            subspace_from_dict({"ambient": 1, "field": "Q", "basis": [[[entry]]]})
    with pytest.raises(SchemaError):
        subspace_to_dict(flanders_space(2, 3, 1))


def test_noncanonical_entries_read_exactly():
    d = {"ambient": 1, "field": "Q", "basis": [[["2/4"]]]}
    assert subspace_from_dict(d) == span([Mat.identity(1)])
    for entry, value in (("2/4", Fraction(1, 2)), ("+3", Fraction(3)), ("-0", Fraction(0)),
                         ("-6/9", Fraction(-2, 3)), ("007", Fraction(7))):
        assert str_to_scalar(entry) == value


def _reference_scalar(s):
    """The reader's rule, written apart from it: an ASCII string p or p/q
    with p optionally signed digits and q digits without a leading zero."""
    if not (isinstance(s, str) and s.isascii()):
        raise SchemaError(f"entry {s!r}")
    p, slash, q = s.partition("/")
    digits = p[1:] if p[:1] in ("+", "-") else p
    if not digits.isdigit() or slash and not (q.isdigit() and q[0] != "0"):
        raise SchemaError(f"entry {s!r}")
    return Fraction(int(p), int(q or 1))


def _reference_read(d):
    n = d["ambient"]
    return span([Mat.from_rows([[_reference_scalar(x) for x in r] for r in b])
                 for b in d["basis"]], n, n)


_BAD_ENTRIES = ("1/0", "1/-2", "1.5", "", " 1", "3\n", "\u0663", "1/2/3",
                1, None, True, ["1"])


@st.composite
def _entry(draw, integer):
    sign = draw(st.sampled_from(("", "", "+", "-")))
    p = "0" * draw(st.integers(0, 2)) + str(draw(st.integers(0, 10 ** 12)))
    if integer or draw(st.booleans()):
        return sign + p
    return f"{sign}{p}/{draw(st.integers(1, 10 ** 6))}"


@st.composite
def _subspace_files(draw):
    n = draw(st.integers(1, 4))
    basis = []
    for _ in range(draw(st.integers(0, 3))):
        integer = draw(st.booleans())
        basis.append([[draw(_entry(integer)) for _ in range(n)] for _ in range(n)])
    return {"ambient": n, "field": "Q", "basis": basis}


@settings(max_examples=150, deadline=None)
@given(_subspace_files())
def test_reader_matches_a_fraction_reader(d):
    assert subspace_from_dict(d) == _reference_read(d)


@settings(max_examples=150, deadline=None)
@given(_subspace_files().filter(lambda d: d["basis"]), st.data())
def test_reader_refuses_what_a_fraction_reader_refuses(d, data):
    bad = data.draw(st.one_of(st.sampled_from(_BAD_ENTRIES), st.text(max_size=4)))
    b = data.draw(st.integers(0, len(d["basis"]) - 1))
    i, j = (data.draw(st.integers(0, d["ambient"] - 1)) for _ in range(2))
    d["basis"][b][i][j] = bad
    try:
        want = _reference_read(d)
    except SchemaError:
        with pytest.raises(SchemaError) as exc:
            subspace_from_dict(d)
        assert str(exc.value) == f"entry {bad!r} is not a rational 'p' or 'p/q' string"
    else:
        assert subspace_from_dict(d) == want


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
    assert report["results"]["bound_report"]["dim"] == 13
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
        assert json.loads(captured.out)["results"]["bound_report"]["dim"] >= 0
        assert code in (0, 1)  # flanders full band can exceed a sampled level


@pytest.mark.parametrize("argv, unread", [
    (["--family", "schur", "--n", "4", "--k", "2", "--l", "9", "--variant", "bogus"],
     "k, l, variant"),
    (["--family", "vk", "--n", "5", "--k", "2", "--variant", "diag3"], "variant"),
    (["--family", "rank1max", "--n", "5", "--k", "3"], "k"),
    (["--family", "flanders", "--n", "3", "--k", "2", "--variant", "diag3"], "variant")],
    ids=("schur", "vk", "rank1max", "flanders"))
def test_construct_rejects_arguments_its_family_does_not_read(tmp_path, capsys, argv, unread):
    out = tmp_path / "v.json"
    assert run_cli("construct", *argv, "-o", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    message = json.loads(captured.err)["error"]["message"]
    assert message == f"family {argv[1]} does not read {unread}"


def test_construct_writes_only_files_that_read_back(tmp_path, capsys):
    # every family at n = 0..3, with each value of the arguments it reads:
    # construct refuses (exit 2, no file) or writes a file every reader takes
    values = {"k": (None, -1, 0, 1, 2, 3), "l": (None, -1, 0, 1, 2, 3),
              "variant": (None, "generic", *_RANK1_VARIANTS, "bogus")}
    out = tmp_path / "v.json"
    written = 0
    for family, reads in FAMILIES.items():
        for n in range(4):
            for args in itertools.product(*(values[name] for name in reads)):
                argv = ["construct", "--family", family, "--n", str(n), "-o", str(out)]
                for name, value in zip(reads, args):
                    argv += [] if value is None else [f"--{name}", str(value)]
                code = run_cli(*argv)
                capsys.readouterr()
                if code == 0:
                    assert read_subspace(out).n == n, argv
                    out.unlink()
                    written += 1
                else:
                    assert code == 2 and not out.exists(), argv
    assert written == 50


def test_search_command(tmp_path, capsys):
    code = run_cli("search", "--n", "3", "--k", "1", "--seed", "1")
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["results"]["max_dim"] == 5
    assert report["results"]["matches_bound"] is True
    counts = report["results"]["counts"]
    assert counts["probable_yes"] == 0
    assert counts["certified_yes"] == len(report["results"]["argmax"])


def test_search_rules_flag(capsys):
    # 'full' is the only closure rule set; any other name is a usage error
    assert run_cli("search", "--n", "2", "--k", "1", "--rules", "full") == 0
    assert json.loads(capsys.readouterr().out)["args"]["rules"] == "full"
    with pytest.raises(SystemExit) as exc:
        run_cli("search", "--n", "2", "--k", "1", "--rules", "three-case")
    assert exc.value.code == 2


def test_search_rejects_trials_below_one(capsys):
    # checked before the walk, so also where nothing would be sampled (n = 1)
    for n, k in ((1, 0), (3, 1)):
        with pytest.raises(ValueError):
            search_max_dimension(n, k, trials=0)
        assert run_cli("search", "--n", str(n), "--k", str(k), "--trials", "0") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["code"] == "INVALID_INPUT"


def test_search_guard_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CRLAB_MAX_N", "2")
    code = run_cli("search", "--n", "3", "--k", "1")
    captured = capsys.readouterr()
    assert code == 2
    message = json.loads(captured.err)["error"]["message"]
    assert message == "n=3 exceeds the resource guard 2; override max_n (or CRLAB_MAX_N) to force"


def test_analyze_rank_condition_equals_a_separate_sampling(tmp_path, capsys):
    # analyze --k reads its verdict off the profile scan.  Only the status is
    # guaranteed to match a separate satisfies_rank_condition call; on this
    # input the first draw reaches the maximum, so the whole verdicts agree
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


def test_triangularize_whose_check_fails_exits_one(tmp_path, capsys, monkeypatch):
    path = tmp_path / "v.json"
    write_subspace(path, span([Mat.diagonal([1, 2])]))
    monkeypatch.setattr("crlab.cli.verify_triangular", lambda v, p: False)
    assert run_cli("triangularize", str(path)) == 1
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["verified_upper_triangular"] is False and res["P"] == [["1", "0"], ["0", "1"]]


def test_triangularize_inconsistent_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    write_subspace(path, span([Mat.unit(2, 0, 1), Mat.unit(2, 1, 0)]))
    code = run_cli("triangularize", str(path))
    captured = capsys.readouterr()
    assert code == 1
    err = json.loads(captured.out)["results"]["error"]
    assert err["code"] == "INCONSISTENT"
    assert err["witness_commutator_rank"] == 2
    assert "reference_pair" not in err


def test_triangularize_inconsistent_directions_carry_the_reference_pair(tmp_path, capsys):
    # [E11+E33, E12] = E12 and [E11+E33, E34] = E34: each of rank one, but
    # with neither a column nor a row direction in common
    path = tmp_path / "bad.json"
    write_subspace(path, span([Mat.unit(4, 0, 0) + Mat.unit(4, 2, 2),
                               Mat.unit(4, 0, 1), Mat.unit(4, 2, 3)]))
    code = run_cli("triangularize", str(path))
    assert code == 1
    err = json.loads(capsys.readouterr().out)["results"]["error"]
    assert err["code"] == "INCONSISTENT"
    assert err["witness_commutator_rank"] == 1
    comms = [commutator(*(Mat.from_rows([map(str_to_scalar, r) for r in m]) for m in err[key]))
             for key in ("witness_pair", "reference_pair")]
    assert all(c.rank() == 1 for c in comms)
    for a, b in (comms, [c.transpose() for c in comms]):  # columns, then rows
        columns = [m.block(0, 4, j, j + 1) for m in (a, b) for j in range(4)]
        assert mat_from_columns(columns).rank() == 2


def test_verify_structure_command(tmp_path, capsys):
    out = tmp_path / "v.json"
    run_cli("construct", "--family", "vk", "--n", "4", "--k", "1", "--l", "2",
            "-o", str(out))
    capsys.readouterr()
    code = run_cli("verify-structure", str(out), "--seed", "3")
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["results"]["status"] == "MATCHES_VK"


def test_verify_structure_on_band_instances(tmp_path, capsys):
    cases = [(["--family", "rank1max", "--n", "4", "--variant", "diag3"], "EXCEPTIONAL"),
             (["--family", "thm2-lastrow", "--n", "5"], "MATCHES_VK")]
    for argv, status in cases:
        out = tmp_path / "v.json"
        assert run_cli("construct", *argv, "-o", str(out)) == 0
        capsys.readouterr()
        assert run_cli("verify-structure", str(out)) == 0
        assert json.loads(capsys.readouterr().out)["results"]["status"] == status


def test_invalid_input_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli("analyze", str(missing)) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"]["code"] == "INVALID_INPUT"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("analyze", str(bad)) == 2


@pytest.mark.parametrize("entry", ["1\n", "\u0663"])
def test_entry_outside_the_schema_is_invalid_input(tmp_path, capsys, entry):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"ambient": 1, "field": "Q", "basis": [[[entry]]]}))
    assert run_cli("analyze", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["code"] == "INVALID_INPUT"


def test_analyze_rank_level_out_of_range_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "v.json"
    write_subspace(path, extremal_space(4, 1, 1))
    for k in ("-1", "4"):
        assert run_cli("analyze", str(path), "--k", k) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["code"] == "INVALID_INPUT"


def test_boolean_ambient_is_invalid_input(tmp_path, capsys):
    # JSON true is an int in Python; it must not pass as ambient 1
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"ambient": True, "field": "Q", "basis": [[["1"]]]}))
    assert run_cli("analyze", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["code"] == "INVALID_INPUT"


def test_report_reproducibility(tmp_path):
    # in-process calls share one parser; a report must not depend on the call
    out = tmp_path / "v.json"
    run_cli("construct", "--family", "vk", "--n", "4", "--k", "1", "--l", "1",
            "-o", str(out))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for argv in (["analyze", str(out), "--trials", "16", "--seed", "9"],
                 ["triangularize", str(out)],
                 ["verify-structure", str(out), "--trials", "16", "--seed", "9"]):
        assert run_cli(*argv, "-o", str(r1)) == run_cli(*argv, "-o", str(r2))
        d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
        d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
        assert d1 == d2, argv


def test_report_envelope_of_each_verb(tmp_path, capsys):
    v, bad = tmp_path / "v.json", tmp_path / "bad.json"
    write_subspace(v, extremal_space(4, 1, 1))
    write_subspace(bad, span([Mat.unit(2, 0, 1), Mat.unit(2, 1, 0)]))
    sampled = ["--trials", "8", "--seed", "5"]
    # the results keys of each verb are pinned: a field that comes back fails here
    structure = {"status", "k_hat", "l", "tag", "chain_dims", "witness_basis", "transposed",
                 "detail"}
    cases = [(["analyze", str(v), "--k", "1", *sampled], {"file": str(v), "k": 1},
              {"bound_report", "rank_condition"}),
             (["triangularize", str(v)], {"file": str(v)},
              {"P", "field", "verified_upper_triangular"}),
             (["triangularize", str(bad)], {"file": str(bad)}, {"error"}),
             (["search", "--n", "3", "--k", "1", *sampled], {"n": 3, "k": 1, "rules": "full"},
              {"n", "k", "bound", "max_dim", "argmax", "matches_bound", "trials", "seed",
               "counts"}),
             (["verify-structure", str(v), *sampled], {"file": str(v)}, structure)]
    for argv, echo, results in cases:
        run_cli(*argv)
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == argv[0]
        assert report["args"] == echo
        assert set(report["results"]) == results, argv[0]
        if argv[0] == "triangularize":
            assert set(report) == {"command", "args", "results", "wall_time_ms"}
        else:
            assert set(report) == {"command", "args", "results", "wall_time_ms",
                                   "seed", "trials"}
            assert (report["seed"], report["trials"]) == (5, 8)


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


def test_selftest_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("crlab.commrank.dimension_bound", lambda n, k: 0)
    assert run_cli("selftest") == 1
    out = capsys.readouterr().out
    assert "FAIL  closed forms: bound(n,0) = floor(n^2/4)+1 for n <= 50" in out
    assert "PASS  bidiagonal witness commutator matches the closed form" in out


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "crlab.cli", "selftest"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_cli_import_leaves_sympy_unloaded():
    # sympy is slow to load: the CLI imports it only when a verb needs it
    proc = subprocess.run(
        [sys.executable, "-c", "import crlab.cli, sys; assert 'sympy' not in sys.modules"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
