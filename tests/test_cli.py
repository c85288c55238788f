import argparse
import json
import re

import pytest

from bosonfermion import cli, symgroup
from bosonfermion.cli import (
    MAX_COEFF_SIZE,
    MAX_DET_K,
    MAX_DET_ROWS,
    MAX_FOCK_CHARGE,
    MAX_FOCK_ENTRY,
    MAX_FOCK_INDEX,
    MAX_STRIP_SIZE,
    main,
    parse_partition,
    parse_sequence,
)
from bosonfermion.partitions import ChargedSequence
from bosonfermion.suites import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_partition():
    assert parse_partition("(2,1)") == (2, 1)
    assert parse_partition("()") == ()
    assert parse_partition(" (3, 1) ") == (3, 1)
    with pytest.raises(ValueError):
        parse_partition("2,1")
    with pytest.raises(ValueError):
        parse_partition("(1,2)")


def test_parse_sequence():
    assert parse_sequence("vac:0") == ChargedSequence.vacuum(0)
    assert parse_sequence("seq:0:0,2") == ChargedSequence.of(0, (0, 2))
    assert parse_sequence("seq:1:") == ChargedSequence.vacuum(1)
    with pytest.raises(ValueError):
        parse_sequence("nope")


def test_act_examples(capsys):
    code, out, _ = run(capsys, "act", "--op", "q", "--on", "(2,1)")
    assert code == 0 and out.strip() == "(2) + (1,1)"
    code, out, _ = run(capsys, "act", "--op", "t1", "--on", "vac:0")
    assert code == 0 and out.strip() == "(4,6,...)"
    code, out, _ = run(capsys, "act", "--op", "q", "--on", "()")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "act", "--op", "p_row2", "--on", "(1)")
    assert code == 0 and out.strip() == "(3) + (2,1)"


def test_act_json(capsys):
    code, out, _ = run(capsys, "act", "--op", "q", "--on", "(2,1)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["vector"] == [
        {"partition": [1, 1], "coefficient": "1"},
        {"partition": [2], "coefficient": "1"},
    ]


def test_act_parse_error(capsys):
    code, _, err = run(capsys, "act", "--op", "q", "--on", "oops")
    assert code == 2 and "error" in err


def test_act_help_names_every_operator():
    (flag, spec), _ = cli.SUBCOMMANDS["act"][2]
    assert flag == "--op"
    names = [re.sub(r"<\w+>$", "", token) for token in spec["help"].split(", ")]
    assert sorted(names) == sorted(cli._ACT)


@pytest.mark.parametrize("op, on", [("p_row:2", "(1)"), ("p_row 2", "(1)"), ("t 3", "vac:0")])
def test_act_rejects_a_separator_before_the_index(capsys, op, on):
    code, out, err = run(capsys, "act", "--op", op, "--on", on)
    assert code == 2 and out == ""
    assert err == f"error: unknown operator {op!r}\n"


@pytest.mark.parametrize("op", ["t", "psi*", "gq"])
def test_act_rejects_an_index_over_the_cap(capsys, op):
    code, out, err = run(capsys, "act", "--op", f"{op}{MAX_FOCK_INDEX + 1}", "--on", "vac:0")
    assert code == 2 and out == ""
    assert f"|index| <= {MAX_FOCK_INDEX}" in err


def test_act_accepts_the_cap(capsys):
    for idx in (MAX_FOCK_INDEX, -MAX_FOCK_INDEX):
        code, out, _ = run(capsys, "act", "--op", f"t{idx}", "--on", "vac:0", "--json")
        assert code == 0 and "vector" in json.loads(out)


@pytest.mark.parametrize("op", ["p_row", "p_col", "q_row", "q_col"])
def test_act_rejects_a_strip_length_over_the_cap(capsys, op):
    code, out, err = run(capsys, "act", "--op", f"{op}{MAX_FOCK_INDEX + 1}", "--on", "()")
    assert code == 2 and out == ""
    assert f"|index| <= {MAX_FOCK_INDEX}" in err


@pytest.mark.parametrize("on", ["vac:{k}", "seq:{k}:"])
def test_act_charge_cap(capsys, on):
    for k in (MAX_FOCK_CHARGE, -MAX_FOCK_CHARGE):
        code, out, _ = run(capsys, "act", "--op", "t1", "--on", on.format(k=k), "--json")
        assert code == 0 and "vector" in json.loads(out), k
    for k in (MAX_FOCK_CHARGE + 1, -MAX_FOCK_CHARGE - 1):
        code, out, err = run(capsys, "act", "--op", "t1", "--on", on.format(k=k))
        assert code == 2 and out == "", k
        assert f"|charge| <= {MAX_FOCK_CHARGE}" in err


def test_act_entry_cap(capsys):
    for on in (f"seq:0:-{MAX_FOCK_ENTRY}", f"seq:{MAX_FOCK_CHARGE}:-{MAX_FOCK_ENTRY},{MAX_FOCK_ENTRY}"):
        code, out, _ = run(capsys, "act", "--op", "t1", "--on", on, "--json")
        assert code == 0 and "vector" in json.loads(out), on
    for entry in (-MAX_FOCK_ENTRY - 2, MAX_FOCK_ENTRY + 2):
        code, out, err = run(capsys, "act", "--op", "t1", "--on", f"seq:{MAX_FOCK_CHARGE}:{entry}")
        assert code == 2 and out == "", entry
        assert f"|entry| <= {MAX_FOCK_ENTRY}" in err


@pytest.mark.parametrize("on, cap", [("vac:1000000000", "|charge| <= "), ("seq:0:-2000000000", "|entry| <= "),
                                     ("seq:-1000000000:0", "|charge| <= ")])
def test_act_bounds_a_sequence_before_building_it(monkeypatch, capsys, on, cap):
    # a mask has a bit per value up to the farthest one: 10^9 bits here
    monkeypatch.setattr(cli, "ChargedSequence", None)
    code, out, err = run(capsys, "act", "--op", "t1", "--on", on)
    assert code == 2 and out == "" and cap in err


@pytest.mark.parametrize("op", ["p_row", "p_col", "q_row", "q_col"])
def test_act_caps_the_partition_a_strip_operator_reads_or_builds(monkeypatch, capsys, op):
    def unreachable(m, v):
        raise AssertionError("the strip images were built")

    cap, m, apply = MAX_STRIP_SIZE, 1, f"apply_{op}"
    adds = op.startswith("p_")
    boxes = cap - m if adds else cap
    real = getattr(cli.schur, apply)
    # one row and one column: the row and the column strips walk either one
    for shape in (lambda k: f"({k})", lambda k: "(" + ",".join(["1"] * k) + ")"):
        monkeypatch.setattr(cli.schur, apply, unreachable)
        code, out, err = run(capsys, "act", "--op", f"{op}{m}", "--on", shape(boxes + 1))
        assert code == 2 and out == ""
        assert err == f"error: {op}{m} works on a partition of size {cap + 1}, above the cap {cap}\n"
        monkeypatch.setattr(cli.schur, apply, real)
        code, out, _ = run(capsys, "act", "--op", f"{op}{m}", "--on", shape(boxes), "--json")
        images = [term["partition"] for term in json.loads(out)["vector"]]
        assert code == 0 and images
        assert {sum(p) for p in images} == {cap if adds else cap - m}


_STRIP_ACT_PINNED = {
    ("p_row2", "(3,1)"): [[3, 2, 1], [3, 3], [4, 1, 1], [4, 2], [5, 1]],
    ("p_row2", "(2,2,1)"): [[2, 2, 2, 1], [3, 2, 1, 1], [3, 2, 2], [4, 2, 1]],
    ("p_col2", "(3,1)"): [[3, 1, 1, 1], [3, 2, 1], [4, 1, 1], [4, 2]],
    ("p_col2", "(2,2,1)"): [[2, 2, 1, 1, 1], [2, 2, 2, 1], [3, 2, 1, 1], [3, 2, 2], [3, 3, 1]],
    ("q_row2", "(3,1)"): [[1, 1], [2]],
    ("q_row2", "(2,2,1)"): [[2, 1]],
    ("q_col2", "(3,1)"): [[2]],
    ("q_col2", "(2,2,1)"): [[1, 1, 1], [2, 1]],
}


@pytest.mark.parametrize("op, on", sorted(_STRIP_ACT_PINNED))
def test_strip_act_json_pinned(capsys, op, on):
    code, out, _ = run(capsys, "act", "--op", op, "--on", on, "--json")
    assert code == 0
    vector = [{"partition": p, "coefficient": "1"} for p in _STRIP_ACT_PINNED[op, on]]
    assert out == json.dumps({"op": op, "vector": vector}) + "\n"


def test_coeff_table(capsys):
    code, out, _ = run(capsys, "coeff", "--lam1", "(1)", "--lam", "(2)", "--mu", "(2,1)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == -2
    assert payload["h_lam_mu"] == "2"
    assert payload["h_lam1_lam"] == "-1/2"
    by_branch = {row["branch"]: row for row in payload["branches"]}
    assert by_branch["lam"]["a"] == by_branch["lam"]["a_tilde"] == "2"
    assert by_branch["nu"]["a"] == by_branch["nu"]["a_tilde"] == "1"


def test_coeff_invalid_path(capsys):
    code, _, err = run(capsys, "coeff", "--lam1", "(2)", "--lam", "(1)", "--mu", "(2,1)")
    assert code == 2 and "error" in err


def test_coeff_rejects_a_size_over_the_cap(capsys):
    n = MAX_COEFF_SIZE + 1
    path = ["--lam1", f"({n - 2})", "--lam", f"({n - 1})", "--mu", f"({n})"]
    code, out, err = run(capsys, "coeff", *path)
    assert code == 2 and out == ""
    assert f"|mu| <= {MAX_COEFF_SIZE}" in err


def test_complex_output(capsys):
    code, out, _ = run(capsys, "complex", "--lam", "(2)")
    assert code == 0
    assert "1*R(1) + 1/2*R(2)" in out
    assert "quotient labels: (1)" in out


def test_resolve_output(capsys):
    code, out, _ = run(capsys, "resolve", "--kind", "q", "--lam", "(1,0)", "--n", "2")
    assert code == 0 and out.splitlines()[0].startswith("P(()) -> P((2)) -> P((2,1))")
    code, out, _ = run(capsys, "resolve", "--kind", "simple", "--lam", "(1)", "--n", "1")
    assert code == 0 and "L(1)" in out
    code, out, _ = run(capsys, "resolve", "--kind", "dfp", "--lam", "(1,1)", "--n", "2")
    assert code == 0 and "oo" in out


@pytest.mark.parametrize("kind", ["q", "dfp", "simple"])
def test_resolve_rejects_an_n_over_the_cap(monkeypatch, capsys, kind):
    def unreachable(*args):
        raise AssertionError("the resolution was built")

    for name in ("resolution_q", "resolution_df_p", "resolution_simple"):
        monkeypatch.setattr(cli.quiver, name, unreachable)
    cap = cli.MAX_RESOLVE_N
    code, out, err = run(capsys, "resolve", "--kind", kind, "--lam", "()", "--n", str(cap + 1))
    assert code == 2 and out == ""
    assert f"--n <= {cap}" in err


@pytest.mark.parametrize("kind", ["q", "dfp", "simple"])
def test_resolve_rejects_a_negative_n(monkeypatch, capsys, kind):
    def unreachable(*args):
        raise AssertionError("the resolution was built")

    for name in ("resolution_q", "resolution_df_p", "resolution_simple"):
        monkeypatch.setattr(cli.quiver, name, unreachable)
    code, out, err = run(capsys, "resolve", "--kind", kind, "--lam", "()", "--n", "-1")
    assert code == 2 and out == ""
    assert err == "error: --n must be non-negative, got -1\n"


def test_resolve_dfp_without_rows_is_a_usage_error(capsys):
    code, out, err = run(capsys, "resolve", "--kind", "dfp", "--lam", "()", "--n", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "n >= 1" in err


@pytest.mark.parametrize("args", [["--lam", "()", "--k", str(MAX_DET_K + 1)], ["--lam", f"({MAX_DET_K + 1})"]])
def test_det_rejects_a_k_over_the_cap(capsys, args):
    code, out, err = run(capsys, "det", *args)
    assert code == 2 and out == ""
    assert f"k <= {MAX_DET_K}" in err


def test_complex_rejects_a_first_row_over_the_cap(capsys, monkeypatch):
    def unbounded(lam):
        raise AssertionError(f"wtq_tensor ran on {lam}")

    monkeypatch.setattr(cli.co, "wtq_tensor", unbounded)
    code, out, err = run(capsys, "complex", "--lam", f"({MAX_DET_K + 1})")
    assert code == 2 and out == ""
    assert err == f"error: lam_1 = {MAX_DET_K + 1} exceeds the cap lam_1 <= {MAX_DET_K}\n"


def test_complex_runs_at_the_cap(capsys):
    code, out, _ = run(capsys, "complex", "--lam", f"({MAX_DET_K})", "--json")
    assert code == 0
    assert json.loads(out)["copies"] == MAX_DET_K


def rows_of(row, count):
    return "(" + ",".join([str(row)] * count) + ")"


@pytest.mark.parametrize("command", [["det", "--k", str(MAX_DET_K)], ["complex"]])
def test_det_and_complex_bound_the_rows(monkeypatch, capsys, command):
    # the worst input at the cap prints a determinant of 3955 digits
    code, out, _ = run(capsys, *command, "--lam", rows_of(MAX_DET_K, MAX_DET_ROWS), "--json")
    assert code == 0 and json.loads(out)
    monkeypatch.setattr(cli.co, "matrix_c", lambda *args: pytest.fail("C was built past the cap"))
    for row in (1, MAX_DET_K):
        code, out, err = run(capsys, *command, "--lam", rows_of(row, MAX_DET_ROWS + 1))
        assert code == 2 and out == ""
        assert err == f"error: len(lam) = {MAX_DET_ROWS + 1} exceeds the cap len(lam) <= {MAX_DET_ROWS}\n"


def test_det_names_the_cap_where_printing_the_determinant_would_fail(capsys):
    # 3000 rows of 1 with k = 1: a determinant of 1/3000!, 9131 digits
    code, out, err = run(capsys, "det", "--lam", rows_of(1, 3000), "--k", "1")
    assert code == 2 and out == "" and "exceeds the cap" in err and "digits" not in err


def test_det_rejects_a_negative_k(capsys):
    code, out, err = run(capsys, "det", "--lam", "()", "--k", "-1")
    assert code == 2 and out == ""
    assert err == "error: k must be non-negative, got -1\n"


def test_det_output(capsys):
    code, out, _ = run(capsys, "det", "--lam", "(2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["c_matrix"] == [["1", "1"], ["1/2", "1"]]
    assert payload["det_direct"] == payload["det_closed"] == "1/2"


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--max-size", "4")
    assert code == 0 and out.strip().endswith("PASS")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2


def test_partition_error_names_the_parts(capsys):
    code, out, err = run(capsys, "act", "--op", "q", "--on", "(1,2)")
    assert code == 2 and out == ""
    assert "not weakly decreasing: (1, 2)" in err and "generator" not in err


def test_verify_rejects_negative_size(capsys):
    code, out, err = run(capsys, "verify", "--suite", "bfhcl", "--max-size", "-1")
    assert code == 2 and out == ""
    assert "--max-size must be non-negative" in err


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_rejects_a_size_over_the_suite_cap(monkeypatch, capsys, suite):
    def unreachable(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_suite", unreachable)
    cap = SUITES[suite][2]
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-size", str(cap + 1))
    assert code == 2 and out == ""
    assert f"--max-size <= {cap}" in err and suite in err


def test_internal_failure_is_not_a_usage_error(monkeypatch):
    from bosonfermion import symgroup

    def broken(*args):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(symgroup, "_a_oracle", broken)
    with pytest.raises(RuntimeError):
        main(["coeff", "--lam1", "(1)", "--lam", "(2)", "--mu", "(2,1)"])


@pytest.mark.parametrize("error", [ValueError, RuntimeError, KeyError, AssertionError])
def test_verify_reports_an_aborted_suite_as_a_failure(monkeypatch, capsys, error):
    def broken(*args):
        raise error("broken invariant")

    monkeypatch.setattr(symgroup, "_a_oracle", broken)
    code, out, err = run(capsys, "verify", "--suite", "bfhcl", "--max-size", "3")
    assert code == 1 and out == ""
    # str(KeyError(x)) is repr(x), so the message is the exception's own text
    assert err == f"error: suite bfhcl aborted: {error.__name__}: {error('broken invariant')}\n"


def test_oracle_outside_the_span_is_not_a_usage_error(monkeypatch):
    from bosonfermion import symgroup

    act = symgroup._act
    # one image on no side of the composites, for every tableau alike
    monkeypatch.setattr(symgroup, "_act", lambda i, cv: act(i, cv) + (((), 1),))
    # a square and a domino path: the oracle's decomposition fails on both
    for lam1, lam, mu in (("(1)", "(2)", "(2,1)"), ("()", "(1)", "(2)")):
        with pytest.raises(RuntimeError, match="swapped composite"):
            main(["coeff", "--lam1", lam1, "--lam", lam, "--mu", mu])


def test_coeff_json_pinned(capsys):
    golden = ["coeff", "--lam1", "(1)", "--lam", "(2)", "--mu", "(2,1)", "--json"]
    code1, out1, _ = run(capsys, *golden)
    code2, out2, _ = run(capsys, *golden)
    assert code1 == code2 == 0 and out1 == out2
    assert json.loads(out1) == {
        "lam1": [1],
        "lam": [2],
        "mu": [2, 1],
        "d": -2,
        "h_lam_mu": "2",
        "h_lam1_lam": "-1/2",
        "branches": [
            {"branch": "lam", "a": "2", "a_oracle": "2", "a_tilde": "2"},
            {"branch": "nu", "a": "1", "a_oracle": "1", "a_tilde": "1"},
        ],
    }
    domino = ["coeff", "--lam1", "(2)", "--lam", "(2,1)", "--mu", "(2,1,1)", "--json"]
    code, out, _ = run(capsys, *domino)
    assert code == 0
    assert json.loads(out) == {
        "lam1": [2],
        "lam": [2, 1],
        "mu": [2, 1, 1],
        "d": -1,
        "h_lam_mu": "3",
        "h_lam1_lam": "2",
        "branches": [{"branch": "lam", "a": "-3/2", "a_oracle": "-3/2", "a_tilde": "-3/2"}],
    }


def test_coeff_exits_one_when_the_routes_disagree(capsys, monkeypatch):
    closed = symgroup._a_coeff
    monkeypatch.setattr(symgroup, "_a_coeff", lambda path: tuple(a + 1 for a in closed(path)))
    path = ["coeff", "--lam1", "(1)", "--lam", "(2)", "--mu", "(2,1)"]
    code, out, _ = run(capsys, *path, "--json")
    assert code == 1
    branches = json.loads(out)["branches"]
    assert [(b["a"], b["a_oracle"], b["a_tilde"]) for b in branches] == [("3", "2", "2"), ("2", "1", "1")]
    code, out, _ = run(capsys, *path)
    assert code == 1 and "a =        3  oracle =        2" in out


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "resolutions", "--max-size", "3", "--json")
    code2, out2, _ = run(capsys, "verify", "--suite", "resolutions", "--max-size", "3", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True and payload["failures"] == []


def test_act_json_deterministic(capsys):
    # odd and even generators, the Serre sums and both quadratic truncations
    on = "seq:0:-4,0,2"
    for op in ("t3", "t-1", "t4", "t-2", "sbar3", "sn3", "gq4", "gp4"):
        code1, out1, _ = run(capsys, "act", "--op", op, "--on", on, "--json")
        code2, out2, _ = run(capsys, "act", "--op", op, "--on", on, "--json")
        assert code1 == code2 == 0
        assert out1 == out2, op
        assert json.loads(out1)["vector"], op


@pytest.mark.parametrize("size", [0, 1])
def test_bfhcl_sweep_without_coefficient_cases_fails(capsys, size):
    code, out, _ = run(capsys, "verify", "--suite", "bfhcl", "--max-size", str(size), "--json")
    payload = json.loads(out)
    assert code == 1 and payload["passed"] is False
    assert payload["failures"] == [f"no coefficient case up to size {size}"]
    code, out, _ = run(capsys, "verify", "--suite", "bfhcl", "--max-size", str(size))
    assert code == 1 and f"FAIL no coefficient case up to size {size}" in out


def test_bfhcl_sweep_at_size_two_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bfhcl", "--max-size", "2", "--json")
    assert code == 0 and json.loads(out)["passed"] is True


def test_output_determinism(capsys):
    runs = [run(capsys, "complex", "--lam", "(3,1)")[1] for _ in range(2)]
    assert runs[0] == runs[1]


def test_every_suite_runs_and_passes_small():
    from bosonfermion.suites import SUITES, run_suite

    for name in sorted(SUITES):
        result = run_suite(name, 3)
        assert result.cases > 0, name
        assert result.passed, (name, result.failures[:3])


def test_coeff_branches_are_the_sweep_rows(capsys):
    # coeff and the bfhcl sweep check a path with the same function
    from bosonfermion.correspondence import verify_bf_hcl
    from bosonfermion.partitions import partitions_up_to
    from bosonfermion.ratmat import format_fraction

    paths = 0
    for mu in partitions_up_to(6):
        rows = {}
        for case in verify_bf_hcl(sum(mu)):
            if case.pop("mu") != mu:
                continue
            key = (cli.label_text(case.pop("lam1")), cli.label_text(case.pop("lam")))
            assert case.pop("pass") is True
            formatted = {name: value if name == "branch" else format_fraction(value) for name, value in case.items()}
            rows.setdefault(key, []).append(formatted)
        for (lam1, lam), branches in rows.items():
            path = ["--lam1", lam1, "--lam", lam, "--mu", cli.label_text(mu)]
            code, out, _ = run(capsys, "coeff", *path, "--json")
            assert code == 0 and json.loads(out)["branches"] == branches, (lam1, lam, mu)
            paths += 1
    assert paths == 68


def test_resolve_rejects_a_simple_resolution_over_the_label_cap(monkeypatch, capsys):
    built = []

    def unreachable(*args):
        raise AssertionError("the resolution was built")

    def recorded(lam, n):
        built.append((lam, n))
        return cli.quiver.Resolution([(0, (lam,))])

    monkeypatch.setattr(cli.quiver, "resolution_simple", unreachable)
    staircase = "(" + ",".join(str(k) for k in range(15, 0, -1)) + ")"
    code, out, err = run(capsys, "resolve", "--kind", "simple", "--lam", staircase, "--n", "15")
    assert code == 2 and out == ""
    assert f"has {2 ** 15} labels" in err and str(cli.MAX_SIMPLE_LABELS) in err
    assert cli.MAX_SIMPLE_LABELS == 2 ** 14
    monkeypatch.setattr(cli.quiver, "resolution_simple", recorded)
    staircase = "(" + ",".join(str(k) for k in range(14, 0, -1)) + ")"
    code, out, _ = run(capsys, "resolve", "--kind", "simple", "--lam", staircase, "--n", "14")
    assert code == 0 and built == [(tuple(range(14, 0, -1)), 14)]
    # the count is the product of (multiplicity + 1): 200 rows of 1 have 201 labels
    ones = "(" + ",".join(["1"] * 200) + ")"
    code, out, _ = run(capsys, "resolve", "--kind", "simple", "--lam", ones, "--n", "200")
    assert code == 0 and built[-1] == ((1,) * 200, 200)


def test_resolve_rejects_a_simple_first_row_over_the_cap(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("the resolution was built")

    cap = cli.MAX_SIMPLE_FIRST_ROW
    monkeypatch.setattr(cli.quiver, "resolution_simple", unreachable)
    code, out, err = run(capsys, "resolve", "--kind", "simple", "--lam", f"({cap + 1})", "--n", "1")
    assert code == 2 and out == ""
    assert err == f"error: lam_1 = {cap + 1} exceeds the cap lam_1 <= {cap}\n"
    monkeypatch.undo()
    code, out, _ = run(capsys, "resolve", "--kind", "simple", "--lam", f"({cap})", "--n", "1", "--json")
    assert code == 0 and json.loads(out)["lam"] == [cap]
    # the other kinds walk no strips of --lam
    code, out, _ = run(capsys, "resolve", "--kind", "q", "--lam", f"({cap + 1})", "--n", "1", "--json")
    assert code == 0 and json.loads(out)["lam"] == [cap + 1]


# Calls that argparse itself answers or rejects, plus one that runs: each must
# print and exit as the parser with every subcommand does.
_ARGPARSE_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["nosuch"],
    ["co"],
    ["--json", "coeff", "--lam1", "(1)", "--lam", "(2)", "--mu", "(2,1)"],
    *[[name, "-h"] for name in cli.SUBCOMMANDS],
    ["coeff", "--lam1", "(1)", "--lam", "(2)"],
    ["verify"],
    ["coeff", "--lam1", "(1)", "--lam", "(2)", "--mu", "(2,1)", "--bogus"],
    ["coeff", "--lam1", "(1)", "--lam", "(2)", "--mu", "(2,1)", "stray"],
    ["act", "--op", "q", "--on", "(1)", "-x"],
    ["verify", "--suite", "nosuch"],
    ["resolve", "--kind", "z", "--lam", "()", "--n", "1"],
    ["resolve", "--kind", "q", "--lam", "()", "--n", "x"],
    ["det", "--lam", "(2)", "--k", "x"],
    ["det", "--la", "(2)", "--json"],
]


def _outcome(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reference(argv):
    args = cli.build_parser().parse_args(argv)
    return args.fn(args)


@pytest.mark.parametrize("columns", ["80", "40"])
def test_one_subcommand_parser_answers_as_the_full_parser(monkeypatch, capsys, columns):
    monkeypatch.setenv("COLUMNS", columns)
    for argv in _ARGPARSE_ARGVS:
        got = _outcome(capsys, lambda: main(list(argv)))
        assert got == _outcome(capsys, lambda: _reference(list(argv))), argv
    _, out, _ = _outcome(capsys, lambda: main(["-h"]))
    assert "{" + ",".join(cli.SUBCOMMANDS) + "}" in out


@pytest.mark.parametrize("argv", [
    ["coeff", "--lam1", "(1)", "--lam", "(2)", "--mu", "(2,1)", "--json"],
    ["verify", "--suite", "identities", "--max-size", "1", "--json"],
])
def test_a_call_builds_two_parsers(monkeypatch, capsys, argv):
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)
    assert len(made) == 2  # the top level and the named subcommand


def test_build_parser_offers_only_the_named_subcommands():
    assert "{coeff}" in cli.build_parser(["coeff"]).format_usage()
