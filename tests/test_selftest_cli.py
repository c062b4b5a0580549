from __future__ import annotations

import json
import re
import time

import pytest

import btbranch.cli as cli
import btbranch.existence as existence
import btbranch.selftest as selftest
import btbranch.tree as tree
from btbranch.cli import main
from btbranch.existence import algebra_spec, search_pair, search_zero_divisor
from btbranch.gf2 import field
from btbranch.mat2 import m_parse, make_pair
from btbranch.selftest import compare_pair, run_selftest
from btbranch.series import UndeterminedAtPrecision, s_parse, s_zero


# the randomised self test


def test_small_run_passes_and_accounts_for_every_pair():
    report = run_selftest(seed=11, tau=1, count=25, radius=6)
    assert report.passing
    assert report.pair_attempted == 25
    assert report.pair_safe == report.pair_matched + report.pair_mismatched
    assert report.pair_attempted == report.pair_safe + report.pair_skipped
    assert report.pair_mismatched == 0
    assert report.branch_attempted > 0 and report.branch_mismatched == 0


def test_fixed_seed_runs_render_identically():
    a = run_selftest(seed=11, tau=1, count=25, radius=6).render()
    b = run_selftest(seed=11, tau=1, count=25, radius=6).render()
    assert a == b
    assert a.splitlines()[0].startswith("selftest seed=11")


def test_report_names_the_sign_convention_that_survived():
    report = run_selftest(seed=11, tau=1, count=40, radius=6)
    text = report.render()
    assert "corrections enter negatively" in text


def test_empty_run_is_trivially_green():
    report = run_selftest(seed=1, count=0)
    assert report.passing
    assert report.pair_attempted == 0
    assert report.defect_checked == 0


def test_a_foliage_leaf_on_the_window_boundary_is_a_skip():
    # the foliage (end t^-4 + t^-2, level -8) has its lowest leaf on the
    # radius-8 boundary, where the branch suite drops every leaf, so the
    # lowest leaf it sees there sits higher and proves nothing
    fld = field(1)
    q = m_parse(fld, "[[1+t^2+t^4+t^6,1+t^4],[t^8,1+t^2+t^4+t^6]]")
    for radius, want in ((8, ("skipped", "lowest leaf not visible")),
                         (9, ("matched", ""))):
        window = tree.enumerate_window(fld, radius)
        assert selftest._run_branch_instance(q, window, 2, 64) == want
    assert run_selftest(seed=55, count=30).passing


@pytest.mark.parametrize("prec", (4, 6, 8, 10, 16, 64))
def test_low_precision_skips_instead_of_mismatching(prec):
    report = run_selftest(seed=7, tau=1, count=30, radius=6, prec=prec)
    assert report.passing
    assert report.pair_mismatched == 0
    assert report.branch_mismatched == 0
    symbol_skips = sum(line.startswith("symbol #")
                       for line in report.skipped_list)
    assert (len(report.skipped_list)
            == report.pair_skipped + report.branch_skipped + symbol_skips)
    for line in report.skipped_list + report.mismatch_list:
        assert _OUTCOME_LINE.fullmatch(line), line


# every skip and mismatch line: "{suite} #{idx}[ {label}]: {reason}"
_OUTCOME_LINE = re.compile(r"(pair|branch|defect|symbol) #\d+( \S+)?: .*\S.*")


def _undetermined(*args, **kw):
    raise UndeterminedAtPrecision("patched")


@pytest.mark.parametrize("suite, name", [("pair", "compare_pair"),
                                         ("branch", "branch_shape"),
                                         ("defect", "as_defect"),
                                         ("symbol", "decide")])
def test_an_undetermined_instance_in_any_suite_is_a_skip(monkeypatch, suite,
                                                         name):
    monkeypatch.setattr(selftest, name, _undetermined)
    report = run_selftest(seed=7, count=10, radius=6)
    reason = "undetermined at precision: patched"
    skips = [line for line in report.skipped_list
             if line.startswith(f"{suite} #")]
    assert skips and all(line.endswith(f": {reason}") for line in skips)
    assert report.passing and report.mismatch_list == []


def test_a_symbol_suite_that_draws_only_delta_zero_skips(monkeypatch):
    # lambda = a1 = a2 = 0 makes Delta = 0 for every b1, b2
    real = selftest.algebra_spec

    def traceless(lam, a1, b1, a2, b2, prec):
        zero = s_zero(lam.field)
        return real(zero, zero, b1, zero, b2, prec)
    monkeypatch.setattr(selftest, "algebra_spec", traceless)
    report = run_selftest(seed=7, count=10, radius=6)
    assert report.symbol_specs == 4 and report.symbol_disagreements == 0
    assert report.symbol_conclusive == 0 and report.passing
    assert [line for line in report.skipped_list
            if line.startswith("symbol #")] == [
        f"symbol #{idx}: could not draw a nondegenerate datum"
        for idx in range(4)]


@pytest.mark.parametrize("prec", (1, 2, 3, 4))
@pytest.mark.parametrize("tau, radius", [(1, 5), (2, 3)])
@pytest.mark.parametrize("seed", (1, 2, 8))
def test_a_run_at_any_precision_renders_a_report(prec, tau, radius, seed):
    # an instance whose very generation needs more precision is a skip
    report = run_selftest(seed=seed, tau=tau, count=10, radius=radius,
                          prec=prec)
    assert report.render().startswith(f"selftest seed={seed} tau={tau}")
    assert report.pair_attempted == 10
    assert report.pair_safe == report.pair_matched + report.pair_mismatched
    assert report.pair_attempted == report.pair_safe + report.pair_skipped
    assert report.branch_attempted == (report.branch_matched
                                       + report.branch_mismatched
                                       + report.branch_skipped)
    symbol_skips = sum(line.startswith("symbol #")
                       for line in report.skipped_list)
    assert (len(report.skipped_list)
            == report.pair_skipped + report.branch_skipped + symbol_skips)
    for line in report.skipped_list:
        assert line.partition(": ")[2].strip(), line


def test_oracle_tests_a_few_thousand_vertices_not_every_one(monkeypatch):
    # a scan of the whole radius-8 window makes 53,620 membership tests
    # here; growing each branch from one member makes 2,488
    calls = 0
    real = tree._oracle_test

    def counting(q, w):
        expand = real(q, w)

        def counted(p, ks):
            nonlocal calls
            calls += len(ks)
            return expand(p, ks)
        return counted
    monkeypatch.setattr(tree, "_oracle_test", counting)
    run_selftest(seed=7, count=30)
    assert calls <= 8000


def test_the_oracle_touches_only_what_it_reads(monkeypatch):
    # the radius-6 ball over F_8 holds 337,042 vertices; a run touches the
    # vertices the walks test, the neighbours they read and the vertices
    # made for the returned sets and the predicted side's tests
    touched = set()
    real_test, real_nbrs = tree._oracle_test, tree.Window._nbrs
    real_vertex = tree.Window.vertex

    def oracle_test(q, w):
        expand = real_test(q, w)

        def counted(p, ks):
            touched.update(ks)
            return expand(p, ks)
        return counted

    def nbrs(self, k):
        touched.add(k)
        touched.update(real_nbrs(self, k))
        return real_nbrs(self, k)

    def vertex(self, k):
        touched.add(k)
        return real_vertex(self, k)
    monkeypatch.setattr(tree, "_oracle_test", oracle_test)
    monkeypatch.setattr(tree.Window, "_nbrs", nbrs)
    monkeypatch.setattr(tree.Window, "vertex", vertex)
    run_selftest(seed=5, tau=3, count=20, radius=6)
    assert 0 < len(touched) <= 40_000


def test_the_oracle_makes_no_vertex(monkeypatch):
    # the oracle and the measurement speak keys: neither the pair suite's
    # comparisons nor the branch suite's oracle sets decode a key into a
    # Vertex; only the predicted side and the stem checks do
    made, running, calls = [], [], {"compare_pair": 0, "oracle_branch": 0}
    real_vertex = tree.Window.vertex

    def vertex(self, k):
        if running:
            made.append((running[-1], k))
        return real_vertex(self, k)

    def watched(name):
        real = getattr(selftest, name)

        def run(*args, **kw):
            calls[name] += 1
            running.append(name)
            try:
                return real(*args, **kw)
            finally:
                running.pop()
        return run
    monkeypatch.setattr(tree.Window, "vertex", vertex)
    for name in calls:
        monkeypatch.setattr(selftest, name, watched(name))
    run_selftest(seed=7, count=30)
    assert calls["compare_pair"] == 30 and calls["oracle_branch"] > 0
    assert made == []


@pytest.mark.parametrize("tau, radius", [(3, 7), (4, 5)])
def test_a_window_one_level_past_the_listing_limit_is_walked(capsys, tau,
                                                             radius):
    code, out, _ = run_cli(capsys, ["selftest", "--tau", str(tau), "--radius",
                                    str(radius), "--count", "2"])
    assert code == 0
    assert out.startswith(f"selftest seed=7 tau={tau} radius={radius} ")


def test_a_walk_past_the_vertex_limit_is_refused(capsys, monkeypatch):
    # the branch of the first matrix lies 20 levels up, out of the window,
    # so the scan for a first member runs past the limit
    code, out, err = run_cli(capsys, ["oracle", "[[0,t^20],[t^-20,1]]",
                                      "[[t,1],[t^2,t]]", "--tau", "3",
                                      "--radius", "7"])
    assert code == 2 and out == ""
    assert err == ("error: a walk in the window of radius 7 touches more "
                   "than 400,000 vertices\n")
    # in the self-test such a walk is a skip with its reason
    monkeypatch.setattr(tree, "MAX_WINDOW_VERTICES", 12)
    rep = run_selftest(seed=7, count=20, radius=3)
    assert any(line.endswith("touches more than 12 vertices")
               for line in rep.skipped_list)
    assert rep.pair_mismatched == rep.branch_mismatched == 0


def test_render_is_built_from_the_record():
    report = run_selftest(seed=11, tau=1, count=10, radius=6)
    rec = report.record()
    text = report.render()
    pairs = rec["pairs"]
    assert (f"pairs: attempted={pairs['attempted']} safe={pairs['safe']} "
            f"matched={pairs['matched']}") in text
    assert text.endswith(f"verdict: {'PASS' if rec['passing'] else 'FAIL'}\n")


# command line: exit codes


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_defect_roundtrip(capsys):
    code, out, _ = run_cli(capsys, ["defect", "as", "t^-1", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["ideal"] == "(t^-1)" and rec["ideal_val"] == -1


def test_cli_classify_reports_the_cell(capsys):
    code, out, _ = run_cli(capsys, ["classify", "0", "t", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["class"] == "ramified_insep"
    assert rec["cell"] == "B^i" and rec["t"] == 0


def test_cli_branch_describes_the_shape(capsys):
    code, out, _ = run_cli(capsys, ["branch", "[[0,0],[1,1]]",
                                    "--radius", "3", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["shape"] == "thick" and rec["stem_kind"] == "maxpath"
    assert sorted(rec["ends"]) == ["0", "1"]


@pytest.mark.parametrize("q, line, stem_kind, stem", [
    ("[[0,1],[1,1]]", "vertex B[0]^0 depth 0", "vertex", ["B[0]^0"]),
    ("[[0,t],[1,0]]", "edge B[0]^0 -- B[0]^1 depth 0", "edge",
     ["B[0]^0", "B[0]^1"]),
])
def test_cli_branch_prints_a_vertex_or_edge_stem(capsys, q, line, stem_kind,
                                                 stem):
    code, out, _ = run_cli(capsys, ["branch", q])
    assert code == 0 and out == line + "\n"
    code, out, _ = run_cli(capsys, ["branch", q, "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"shape": "thick", "stem_kind": stem_kind,
                               "depth": 0, "stem": stem}


def test_cli_relpos_predicts_a_blob(capsys):
    code, out, _ = run_cli(capsys, ["relpos", "[[0,1],[0,0]]",
                                    "[[t,1],[t^2,t]]", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec == {"kind": "blob", "diameter": 2, "depth": 1,
                   "stem_is_edge": False}


@pytest.mark.parametrize("q1,q2,kind", [
    ("[[0,1],[0,0]]", "[[0,0],[t^-1,0]]", "disjoint"),
    ("[[1,0],[0,0]]", "[[0,1],[1,1]]", "path"),
    ("[[1,0],[0,0]]", "[[1,0],[1,0]]", "ray"),
    ("[[1,0],[0,0]]", "[[0,0],[0,1]]", "maxpath"),
    ("[[0,1],[0,0]]", "[[t,1],[t^2,t]]", "blob"),
    ("[[0,1],[0,0]]", "[[0,t],[0,0]]", "contained"),
])
def test_cli_relpos_and_oracle_report_one_kind(capsys, q1, q2, kind):
    code, out, _ = run_cli(capsys, ["relpos", q1, q2, "--format", "json"])
    assert code == 0
    assert json.loads(out)["kind"] == kind
    code, out, _ = run_cli(capsys, ["oracle", q1, q2, "--radius", "6",
                                    "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["predicted"]["kind"] == rec["measured"]["kind"] == kind


def test_cli_builds_residue_fields_up_to_degree_sixteen(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--tau", "9", "0", "t"])
    assert code == 0
    assert "ramified_insep" in out
    for tau in ("17", "1000"):
        code, _, err = run_cli(capsys, ["classify", "--tau", tau, "0", "t"])
        assert code == 2
        assert "out of supported range" in err


def test_cli_classify_over_a_modulus_whose_root_is_not_primitive(capsys):
    # modulo x^4 + x^3 + x^2 + x + 1 the root g has order 5, not 15
    code, out, _ = run_cli(capsys, ["classify", "--tau", "4", "--modulus",
                                    "0b11111", "g^3*t^-1 + g", "g + t"])
    assert code == 0
    assert out == "reducible_sep (cell A^s), jump t=None, defect (0)\n"


@pytest.mark.parametrize("datum, value, kind, twice", [
    (["t^-2", "1,0", "1,0"], "2", "fin", 4),
    (["0", "0,t", "1,1"], "-1/2", "fin", -1),
    (["t^3", "t,1", "t,1"], "-5/2", "fin", -5),
    (["0", "0,t", "0,t"], "-inf", "neg_inf", 0),
])
def test_cli_distance_prints_integers_halves_and_minus_infinity(
        capsys, datum, value, kind, twice):
    lam, m1, m2 = datum
    argv = ["df", "--lambda", lam, "--m1", m1, "--m2", m2]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out == f"stem distance {value}\n"
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"kind": kind, "twice": twice, "value": value}


@pytest.mark.parametrize("argv, ideal, val, witness", [
    (["as", "--tau", "2", "t^-3"], "(t^-3)", -3, "0"),
    (["as", "--tau", "2", "g"], "O", 0, "0"),
    (["as", "--tau", "2", "1"], "(0)", None, "g"),
    (["quad", "t^3"], "(t^3)", 3, "0"),
])
def test_cli_defect_prints_each_kind_of_ideal(capsys, argv, ideal, val,
                                              witness):
    code, out, _ = run_cli(capsys, ["defect", *argv])
    assert code == 0 and out == f"defect {ideal}  witness {witness}\n"
    code, out, _ = run_cli(capsys, ["defect", *argv, "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"ideal": ideal, "ideal_val": val,
                               "witness": witness}


@pytest.mark.parametrize("a, b, line, record", [
    ("t", "1", "ramified_sep (cell B^s), jump t=1, defect (t^-1)",
     {"class": "ramified_sep", "cell": "B^s", "t": 1, "ideal_val": -1,
      "witness": "t^-1"}),
    ("0", "t^2", "reducible_insep (cell A^i), jump t=None, defect (0)",
     {"class": "reducible_insep", "cell": "A^i", "t": None,
      "ideal_val": None, "witness": "t"}),
])
def test_cli_classify_prints_the_defect_ideal(capsys, a, b, line, record):
    code, out, _ = run_cli(capsys, ["classify", a, b])
    assert code == 0 and out == line + "\n"
    code, out, _ = run_cli(capsys, ["classify", a, b, "--format", "json"])
    assert code == 0 and json.loads(out) == record


def test_cli_exists_on_the_division_datum(capsys):
    code, out, _ = run_cli(capsys, ["exists", "--lambda", "0",
                                    "--m1", "1,1", "--m2", "0,t",
                                    "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["exists"] is False and rec["condition"] == "none"


def test_cli_exists_prints_the_witness_of_condition_i(capsys):
    datum = ["exists", "--lambda", "0", "--m1", "1,0", "--m2", "0,t",
             "--witness"]
    code, out, _ = run_cli(capsys, datum)
    assert code == 0
    assert out.splitlines() == ["exists: yes (condition i)",
                                "q1 = [[1,0],[0,0]]", "q2 = [[0,1],[t,0]]"]
    code, out, _ = run_cli(capsys, [*datum, "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"exists": True, "condition": "i",
                               "commutative_note": False,
                               "witness": ["[[1,0],[0,0]]", "[[0,1],[t,0]]"]}


def test_cli_exists_refuses_a_commuting_datum_without_a_witness(capsys):
    # X^2 + 1 and X^2 + t: a square and a non-square, which no commuting
    # linearly independent pair realises
    code, out, _ = run_cli(capsys, ["exists", "--lambda", "0", "--m1", "0,1",
                                    "--m2", "0,t", "--search-box=-1,1"])
    assert code == 0
    assert out.splitlines()[0] == "exists: no (condition none)"
    assert "note:" not in out


def test_cli_exists_notes_that_condition_v_is_commutative(capsys):
    # the note and the JSON key are read off the condition
    datum = ["exists", "--lambda", "0", "--m1", "0,t", "--m2", "0,t^2+t^3"]
    code, out, _ = run_cli(capsys, datum)
    assert code == 0
    assert out.splitlines() == ["exists: yes (condition v)",
                                "note: every realising pair is commutative"]
    code, out, _ = run_cli(capsys, [*datum, "--format", "json"])
    assert json.loads(out)["commutative_note"] is True
    code, out, _ = run_cli(capsys, ["exists", "--lambda", "0", "--m1", "1,1",
                                    "--m2", "0,t", "--format", "json"])
    assert json.loads(out)["commutative_note"] is False


@pytest.mark.parametrize("box, zero_divisor, pair_hit", [
    ("--search-box=-1,1", ["0", "t^-1", "0", "0"],
     ["0", "t^-1", "0", "1"]),
    ("--search-box=0,0", ["0", "1", "0", "0"], None),
])
def test_cli_exists_runs_the_searches_on_the_box(capsys, box, zero_divisor,
                                                 pair_hit):
    # Delta = t^2 + t + 1 is not 0, so the searches run
    code, out, _ = run_cli(capsys, ["exists", "--lambda", "t",
                                    "--m1", "1,0", "--m2", "1,1",
                                    box, "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["zero_divisor"] == zero_divisor
    assert rec["pair_hit"] == pair_hit


@pytest.mark.parametrize("datum", [
    ["--lambda", "0", "--m1", "0,1", "--m2", "0,t"],
    ["--lambda", "t^2", "--m1", "t,1", "--m2", "t,1"],
])
def test_cli_exists_runs_no_search_at_delta_zero(capsys, datum):
    # a degenerate algebra always has zero divisors, so a hit there
    # proves nothing: one line says so, and the JSON has no search keys
    code, out, _ = run_cli(capsys, ["exists", *datum, "--search-box=-1,1"])
    assert code == 0
    assert out.splitlines()[1:] == [
        "searches: not run (Delta = 0: the algebra is degenerate, so a hit "
        "proves nothing)"]
    code, out, _ = run_cli(capsys, ["exists", *datum, "--search-box=-1,1",
                                    "--format", "json"])
    assert code == 0
    assert not {"zero_divisor", "pair_hit"} & set(json.loads(out))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_exists_takes_a_negative_box_after_a_space(capsys, fmt):
    argv = ["exists", "--lambda", "t", "--m1", "1,0", "--m2", "1,1",
            "--format", fmt]
    code, glued, _ = run_cli(capsys, argv + ["--search-box=-1,1"])
    assert code == 0
    code, spaced, _ = run_cli(capsys, argv + ["--search-box", "-1,1"])
    assert code == 0
    assert spaced == glued


def test_cli_exists_refuses_a_discriminant_zero_to_precision_only(capsys):
    code, out, err = run_cli(capsys, ["exists", "--lambda", "0 (mod t^4)",
                                      "--m1", "1,0", "--m2", "1,0"])
    assert code == 3
    assert out == "" and "discriminant vanishes to precision only" in err
    code, out, _ = run_cli(capsys, ["exists", "--lambda", "0",
                                    "--m1", "1,0", "--m2", "1,0"])
    assert code == 0 and "condition iii" in out


@pytest.mark.parametrize("box", ["1", "2,1", "a,b", "1,2,3", ""])
def test_cli_exists_rejects_a_malformed_search_box(capsys, box):
    code, _, err = run_cli(capsys, ["exists", "--lambda", "0",
                                    "--m1", "1,1", "--m2", "0,t",
                                    f"--search-box={box}"])
    assert code == 2
    assert "argument --search-box: expected LO,HI" in err


def test_cli_branch_rejects_a_non_integral_matrix(capsys):
    code, out, err = run_cli(capsys, ["branch", "[[t^-1,0],[0,0]]"])
    assert code == 2
    assert out == "" and "integral" in err


def test_cli_oracle_agrees_on_an_honest_pair(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "[[0,1],[0,0]]",
                                    "[[t,1],[t^2,t]]", "--radius", "6"])
    assert code == 0
    assert "verdict: MATCH" in out


def test_cli_oracle_flags_an_uncertified_window(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "[[0,1],[0,0]]",
                                    "[[t^-2,1],[t^-4,t^-2]]", "--radius", "3"])
    assert code == 3
    assert "measured:  kind=contained, certified=False" in out
    assert ("verdict: UNDETERMINED (measurement uncertified: a foliage "
            "misses the window)") in out


@pytest.mark.parametrize("radius", range(7))
def test_cli_oracle_compares_like_the_selftest(capsys, radius):
    q1, q2 = "[[0,1],[0,0]]", "[[t,1],[t^2,t]]"
    fld = field(1)
    pair = make_pair(m_parse(fld, q1), m_parse(fld, q2), 64)
    status, why, _, _ = compare_pair(pair, tree.enumerate_window(fld, radius),
                                     2)
    code, out, _ = run_cli(capsys, ["oracle", q1, q2,
                                    "--radius", str(radius)])
    verdict = out.splitlines()[-1]
    # the meet has diameter 2: a window of radius 0-2 sees one foliage
    # inside the other, a lower bound no larger than the prediction
    kind = "contained" if radius < 3 else "blob"
    if radius < 3:
        assert f"kind=contained, certified=True, diameter={radius}" in out
        assert why.startswith("window too small: measured contained, "
                              f"visible diameter {radius}")
    if radius < 5:
        assert status == "skipped" and code == 3
        assert verdict == f"verdict: UNDETERMINED ({why})"
    else:
        assert status == "matched" and code == 0
        assert verdict == "verdict: MATCH"
    code, out, _ = run_cli(capsys, ["oracle", q1, q2, "--radius", str(radius),
                                    "--format", "json"])
    rec = json.loads(out)
    assert rec["match"] == (status == "matched")
    assert rec["note"] == ("" if status == "matched" else why)
    assert rec["measured"]["kind"] == kind


def test_cli_rejects_garbage_input(capsys):
    code, _, err = run_cli(capsys, ["defect", "as", "t^**"])
    assert code == 2
    assert "error" in err


def test_cli_rejects_unknown_subcommands(capsys):
    code, _, _ = run_cli(capsys, ["frobnicate"])
    assert code == 2


def test_cli_reports_insufficient_precision(capsys):
    code, _, err = run_cli(capsys, ["df", "--lambda", "0 (mod t^4)",
                                    "--m1", "0,t", "--m2", "0,t"])
    assert code == 3
    assert "precision" in err


def test_a_low_precision_selftest_reports_instead_of_aborting(capsys):
    code, out, err = run_cli(capsys, ["selftest", "--prec", "4"])
    assert code in (0, 1)
    assert out.startswith("selftest seed=7") and "\nverdict: " in out
    assert "precision:" not in err


def test_negative_count_is_a_usage_error(capsys):
    with pytest.raises(ValueError, match="count must be nonnegative"):
        run_selftest(count=-1)
    code, out, err = run_cli(capsys, ["selftest", "--count", "-5"])
    assert code == 2
    assert out == "" and "count must be nonnegative" in err


@pytest.mark.parametrize("argv", [
    ["selftest", "--prec", "0"],
    ["oracle", "[[0,1],[0,0]]", "[[t,1],[t^2,t]]", "--radius", "-1"],
    ["selftest", "--margin", "-1"],
])
def test_an_out_of_range_flag_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: btbranch {argv[0]} ")


@pytest.mark.parametrize("argv", [
    ["oracle", "[[0,1],[0,0]]", "[[t,1],[t^2,t]]", "--radius", "30"],
    ["selftest", "--tau", "3", "--radius", "8"],  # 21,570,706 vertices
    ["selftest", "--radius", "1000000000", "--count", "1"],
    ["branch", "[[0,0],[1,1]]", "--tau", "16", "--radius", "2", "--dot"],
], ids=["oracle-r30", "selftest-tau3", "selftest-r1e9", "branch-tau16"])
def test_a_window_too_large_to_build_is_refused_at_once(capsys, tmp_path,
                                                        argv):
    target = tmp_path / "window.dot"
    if argv[-1] == "--dot":
        argv = argv + [str(target)]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and not target.exists()
    assert err.startswith("error: a window of radius ")
    assert "holds more than 400,000 vertices" in err
    assert "Traceback" not in err


_DIVISION = ["exists", "--lambda", "0", "--m1", "1,1", "--m2", "0,t"]


@pytest.mark.parametrize("argv", [
    _DIVISION + ["--search-box=-1000000,1000000"],
    _DIVISION + ["--search-box=-1000000,1000000", "--format", "json"],
    _DIVISION + ["--tau", "8", "--search-box", "-1,1"],
    _DIVISION + ["--tau", "5", "--search-box", "-1,1"],
], ids=["tau1-1e6", "tau1-1e6-json", "tau8", "tau5"])
def test_a_search_box_too_large_to_build_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: a search box ")
    assert "holds more than 2,000,000 candidates" in err
    assert "Traceback" not in err


def test_the_symbol_suite_leaves_out_a_search_box_over_the_limit(
        monkeypatch):
    # at tau 8 both of the suite's boxes are over the limit: each search
    # is refused before it builds anything and counts as no hit
    def refuse(*args):
        raise AssertionError("built a search box")
    monkeypatch.setattr(existence, "_box_terms", refuse)
    fld = field(8)
    spec = algebra_spec(*(s_parse(fld, x) for x in ("t", "1", "t", "t", "1")),
                        64)
    for search, lo, hi in ((search_zero_divisor, -2, 2), (search_pair, -1, 1)):
        assert selftest._hits(search, spec, lo, hi) is False
    rep = run_selftest(seed=7, tau=8, count=5, radius=1)
    assert rep.symbol_specs >= 1 and rep.symbol_disagreements == 0


def _ball(q, r):
    """Vertices within r of a vertex of the (q + 1)-regular tree."""
    return 1 + sum((q + 1) * q ** (k - 1) for k in range(1, r + 1))


def test_the_default_radius_is_8_where_its_window_fits(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a window")
    monkeypatch.setattr(tree, "enumerate_window", refuse)
    monkeypatch.setattr(cli, "enumerate_window", refuse)
    got = [cli.default_radius(tau) for tau in range(1, 17)]
    assert got == [8, 8, 6, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1]
    for tau, r in enumerate(got, 1):
        q = 2 ** tau
        assert _ball(q, r) <= tree.MAX_WINDOW_VERTICES
        assert r == 8 or _ball(q, r + 1) > tree.MAX_WINDOW_VERTICES


def test_a_bare_selftest_runs_from_tau_3_up(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, ["selftest", "--tau", "4", "--count", "1"])
    assert time.perf_counter() - start < 10.0
    assert code == 0
    assert out.startswith("selftest seed=7 tau=4 radius=4 ")


def test_branch_reads_the_radius_only_for_its_dot_file(capsys):
    # without --dot no window is built, so the radius limit does not apply
    code, out, _ = run_cli(capsys, ["branch", "[[0,0],[1,1]]", "--tau", "16",
                                    "--radius", "2"])
    assert code == 0 and out.startswith("line(")


def test_cli_selftest_smoke(capsys):
    code, out, _ = run_cli(capsys, ["selftest", "--count", "5",
                                    "--radius", "6", "--seed", "11"])
    assert code == 0
    assert "pairs:" in out


def test_cli_writes_a_dot_file(tmp_path, capsys):
    target = tmp_path / "window.dot"
    code, _, _ = run_cli(capsys, ["branch", "[[0,t],[0,0]]",
                                  "--radius", "2", "--dot", str(target)])
    assert code == 0
    text = target.read_text()
    assert text.startswith("graph") and "lightblue" in text


def test_cli_oracle_dot_builds_each_oracle_set_once(tmp_path, capsys,
                                                   monkeypatch):
    q1, q2 = "[[0,1],[0,0]]", "[[t,1],[t^2,t]]"
    argv = ["oracle", q1, q2, "--radius", "6"]
    _, plain, _ = run_cli(capsys, argv)
    built = []
    real = tree.oracle_branch

    def counting(q, w):
        built.append(q)
        return real(q, w)
    monkeypatch.setattr(tree, "oracle_branch", counting)
    monkeypatch.setattr(cli, "oracle_branch", counting)
    target = tmp_path / "oracle.dot"
    code, out, _ = run_cli(capsys, argv + ["--dot", str(target)])
    assert code == 0 and out == plain
    assert len(built) == 2
    fld = field(1)
    w = tree.enumerate_window(fld, 6)
    s1 = real(m_parse(fld, q1), w)
    s2 = real(m_parse(fld, q2), w)
    groups = {"violet": s1 & s2, "lightblue": s1 - s2, "salmon": s2 - s1}
    assert target.read_text() == tree.dot_export(w, groups, "oracle")


# each subcommand takes only the flags it reads

_BASE_ARGV = {
    "defect": ["defect", "as", "t"],
    "classify": ["classify", "0", "t"],
    "branch": ["branch", "[[0,0],[1,1]]"],
    "relpos": ["relpos", "[[0,1],[0,0]]", "[[t,1],[t^2,t]]"],
    "df": ["df", "--lambda", "t^-2", "--m1", "1,0", "--m2", "1,0"],
    "oracle": ["oracle", "[[0,1],[0,0]]", "[[t,1],[t^2,t]]"],
    "exists": ["exists", "--lambda", "0", "--m1", "1,1", "--m2", "0,t"],
    "selftest": ["selftest", "--count", "1"],
}
_FLAGS = {"--tau": "1", "--modulus": "0b11", "--format": "text",
          "--prec": "64", "--radius": "2", "--margin": "2", "--seed": "7",
          "--dot": "window.dot"}
_READS = {
    "defect": set(),
    "classify": {"--prec"},
    "branch": {"--prec", "--radius", "--dot"},
    "relpos": {"--prec"},
    "df": {"--prec"},
    "oracle": {"--prec", "--radius", "--margin", "--dot"},
    "exists": {"--prec"},
    "selftest": {"--prec", "--radius", "--margin", "--seed"},
}


def test_each_subcommand_has_exactly_the_flags_it_reads(capsys):
    parser = cli._build_parser()
    accepted = 0
    for command, argv in _BASE_ARGV.items():
        for flag, value in _FLAGS.items():
            try:
                parser.parse_args(argv + [flag, value])
                ok = True
            except SystemExit:
                ok = False
            assert ok == (flag in _READS[command]
                          | {"--tau", "--modulus", "--format"})
            accepted += ok
    capsys.readouterr()
    assert accepted == 39  # of 8 subcommands x 8 flags


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in _BASE_ARGV
    for flag in ("--prec", "--radius", "--margin", "--seed", "--dot")
    if flag not in _READS[command]])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(
        tmp_path, capsys, command, flag):
    value = str(tmp_path / "out.dot") if flag == "--dot" else _FLAGS[flag]
    code, out, err = run_cli(capsys, _BASE_ARGV[command] + [flag, value])
    assert code == 2
    assert out == "" and f"unrecognized arguments: {flag}" in err
    assert err.startswith(f"usage: btbranch {command} ")
    assert not (tmp_path / "out.dot").exists()


def test_an_unknown_flag_is_reported_with_the_subcommand_usage(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, ["selftest", "--count", "2",
                                      "--dot", "x"])
    assert code == 2 and out == ""
    usage, message = err.split("\nbtbranch selftest: error: ")
    assert usage.startswith("usage: btbranch selftest ")
    for flag in ("--count", "--seed", "--radius", "--margin", "--prec"):
        assert flag in usage
    assert message == "unrecognized arguments: --dot x\n"
    assert list(tmp_path.iterdir()) == []
