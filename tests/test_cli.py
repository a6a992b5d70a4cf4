import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latref.cli import (
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    ParseError,
    _jsonable,
    emit_instance,
    main,
    parse_instance,
)
from latref import lattice
from latref.exact import DomainError, IntMatrix
from latref.reformulate import EqualitySystem, IntegralityError
from support import full_row_rank, lattice_hnf

CUWW1_TEXT = "1 5\n12223 12224 36674 61119 85569\n89643481\n"
TWOROW_TEXT = "2 5\n1 -5 -4 11 5\n-13 -2 -12 -11 1\n8 -37\n"


def write(tmp_path, text, name="inst.txt"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def run_json(tmp_path, argv, text=None):
    """Run main() with --json -, return (exit code, parsed stdout)."""
    if text is not None:
        argv = [argv[0], write(tmp_path, text)] + argv[1:]
    import io
    import sys as _sys

    buf = io.StringIO()
    old = _sys.stdout
    _sys.stdout = buf
    try:
        rc = main(argv + ["--json", "-"])
    finally:
        _sys.stdout = old
    return rc, json.loads(buf.getvalue())


# ---------------------------------------------------------------------------
# instance parsing


def test_parse_minimal():
    sys_ = parse_instance("1 2\n2 3\n7\n")
    assert (sys_.m, sys_.n) == (1, 2)
    assert sys_.a.data == ((2, 3),)
    assert sys_.b == (7,)
    assert sys_.var_lower is None and sys_.var_upper is None


def test_parse_comments_and_bounds():
    text = "# title\n2 2  # dims\n1 0\n0 1\n3 4\nbounds -2 9\n"
    sys_ = parse_instance(text)
    assert sys_.a.data == ((1, 0), (0, 1))
    assert sys_.var_lower == (-2, -2)
    assert sys_.var_upper == (9, 9)


def test_parse_binary():
    sys_ = parse_instance("1 3\n4 5 6\n9\nbinary\n")
    assert sys_.var_lower == (0, 0, 0)
    assert sys_.var_upper == (1, 1, 1)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("1 2\n2 x\n7\n", 2, "expected an integer"),
        ("0 2\n", 1, "m >= 1"),
        ("1 2\n1 2 3\n7\n", 2, "got 3 tokens"),
        ("1 2\n1 2\n", 2, "unexpected end of file"),
        ("1 1\n2\n4\nfoo\n", 4, "expected `bounds`"),
        ("1 1\n2\n4\nbinary 3\n", 4, "takes no arguments"),
        ("1 1\n2\n4\nbounds 0\n", 4, "exactly L and U"),
        ("1 1\n2\n4\nbounds 0 1\nmore\n", 5, "trailing content"),
    ],
)
def test_parse_errors_carry_positions(text, line, fragment):
    with pytest.raises(ParseError) as ei:
        parse_instance(text)
    assert ei.value.line == line
    assert fragment in str(ei.value)


def test_parse_error_column_points_at_token():
    with pytest.raises(ParseError) as ei:
        parse_instance("1 2\n12 zz\n7\n")
    assert (ei.value.line, ei.value.column) == (2, 4)


def test_parse_rejects_bad_system():
    with pytest.raises(ParseError, match="cross"):
        parse_instance("1 1\n2\n4\nbounds 5 1\n")
    with pytest.raises(ParseError):
        parse_instance("2 2\n1 1\n1 1\n2 2\n")


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(1, 4)
        n = rng.randrange(m, 6)
        while True:
            rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
            b = tuple(rng.randrange(-20, 21) for _ in range(m))
            kind = rng.randrange(3)
            bounds = {}
            if kind == 1:
                bounds = dict(var_lower=(0,) * n, var_upper=(1,) * n)
            elif kind == 2:
                lo = rng.randrange(-3, 1)
                bounds = dict(var_lower=(lo,) * n, var_upper=(lo + 5,) * n)
            try:
                sys_ = EqualitySystem(IntMatrix.from_rows(rows), b, **bounds)
            except Exception:
                continue
            break
        assert parse_instance(emit_instance(sys_)) == sys_


@st.composite
def instance_systems(draw):
    """A full row rank system with small or 40-digit entries and either
    no bounds, `binary`, or uniform bounds L <= U."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 6))
    entry = st.one_of(st.integers(-9, 9), st.integers(-10**40, 10**40))
    rows = draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
        .filter(full_row_rank)
    )
    b = draw(st.lists(entry, min_size=m, max_size=m))
    kind = draw(st.sampled_from(("none", "binary", "uniform")))
    bounds = {}
    if kind == "binary":
        bounds = dict(var_lower=(0,) * n, var_upper=(1,) * n)
    elif kind == "uniform":
        lo = draw(st.integers(-50, 50))
        hi = lo + draw(st.integers(0, 50))
        bounds = dict(var_lower=(lo,) * n, var_upper=(hi,) * n)
    return EqualitySystem(IntMatrix.from_rows(rows), tuple(b), **bounds)


# any run of non-space characters that is neither an integer nor a keyword
bad_tokens = st.text(
    st.characters(blacklist_categories=("Z", "C"), blacklist_characters="#"),
    min_size=1,
    max_size=6,
).filter(lambda t: not re.fullmatch(r"[+-]?\d+", t) and t not in ("binary", "bounds"))


@settings(max_examples=100, deadline=None)
@given(instance_systems())
def test_round_trip_property(sys_):
    assert parse_instance(emit_instance(sys_)) == sys_


@settings(max_examples=150, deadline=None)
@given(instance_systems(), st.data())
def test_fuzzed_token_reports_its_position(sys_, data):
    """One token of an emitted file replaced by garbage, after a few blank
    or comment lines: the ParseError names that token's line and column."""
    lead = data.draw(st.lists(st.sampled_from(("", "# note", "   ")), max_size=3))
    lines = [line.split(" ") for line in emit_instance(sys_).splitlines()]
    li = data.draw(st.integers(0, len(lines) - 1))
    ti = data.draw(st.integers(0, len(lines[li]) - 1))
    column = 1 + sum(len(tok) + 1 for tok in lines[li][:ti])
    lines[li][ti] = data.draw(bad_tokens)
    text = "\n".join(lead + [" ".join(toks) for toks in lines]) + "\n"
    with pytest.raises(ParseError) as ei:
        parse_instance(text)
    assert (ei.value.line, ei.value.column) == (len(lead) + li + 1, column)


def test_emit_rejects_ragged_bounds():
    sys_ = EqualitySystem(
        IntMatrix.from_rows([(1, 2)]), (3,), var_lower=(0, 1), var_upper=(4, 4)
    )
    with pytest.raises(DomainError):
        emit_instance(sys_)


# ---------------------------------------------------------------------------
# JSON emission rules


def test_jsonable_respects_precision_limit():
    big = 10**15
    assert _jsonable(big - 1) == big - 1
    assert _jsonable(big) == str(big)
    assert _jsonable(-big) == str(-big)
    assert _jsonable(Fraction(1, 3)) == "1/3"
    assert _jsonable(Fraction(4, 2)) == "2"
    assert _jsonable({"a": [True, None, (1, 2)]}) == {"a": [True, None, [1, 2]]}
    with pytest.raises(TypeError):
        _jsonable(object())


# ---------------------------------------------------------------------------
# subcommands


def test_reformulate_cuww1_json(tmp_path):
    rc, obj = run_json(tmp_path, ["reformulate", "--ratio", "100"], CUWW1_TEXT)
    assert rc == EXIT_OK
    assert set(obj) == {
        "m", "n", "policy", "s", "P", "M", "T", "x0", "px0", "decomposition",
    }
    assert (obj["m"], obj["n"], obj["s"]) == (1, 5, 1)
    assert obj["policy"] == "ratio(100)"
    assert obj["M"] == [["12225", "12224"]]
    assert all(isinstance(v, str) for row in obj["P"] for v in row)
    d = obj["decomposition"]
    assert (d["m1"], d["m2"], d["q1"], d["q2"]) == (12225, 12224, 1, -1)


def test_reformulate_two_row_fixed_s(tmp_path):
    rc, obj = run_json(tmp_path, ["reformulate", "--s", "1"], TWOROW_TEXT)
    assert rc == EXIT_OK
    t = IntMatrix.from_rows([[int(v) for v in row] for row in obj["T"]])
    want = IntMatrix.from_cols([(-5, 61, 1)])
    assert lattice_hnf(t).data == lattice_hnf(want).data
    assert obj["decomposition"] is None


def test_reformulate_text_report(tmp_path, capsys):
    rc = main(["reformulate", write(tmp_path, CUWW1_TEXT), "--ratio", "100"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "s = 1" in out
    assert "M =" in out and "12225" in out
    assert "q1 = 1" in out


def test_reformulate_infeasible_exits_2(tmp_path, capsys):
    rc = main(["reformulate", write(tmp_path, "1 2\n2 4\n3\n")])
    assert rc == EXIT_INFEASIBLE
    assert "scale_k = 2" in capsys.readouterr().err


def test_width_cuww1(tmp_path):
    rc, obj = run_json(tmp_path, ["width", "--b", "89643481"], CUWW1_TEXT)
    assert rc == EXIT_OK
    assert (obj["j"], obj["k"]) == (0, 2)
    assert (obj["floor"], obj["ceil"]) == (-7334, -7333)
    assert obj["width_raw"] == 0
    assert obj["width"] == 0


def test_width_text_report(tmp_path, capsys):
    rc = main(["width", write(tmp_path, CUWW1_TEXT), "--b", "89643481"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == (
        "j = 0, k = 2\n"
        "mu upper = -268930443/36674\n"
        "mu lower = -89643481/12223\n"
        "width raw = 0 (floor -7334 - ceil -7333 + 1)\n"
        "width = 0\n"
    )


SINGLE_ROW_ERROR = "error: this command needs a single-row instance (m = 1)\n"


def test_width_rejects_multirow(tmp_path, capsys):
    """A usage error found after parsing prints one `error:` line, not
    argparse's usage block, and exits 1."""
    path = write(tmp_path, TWOROW_TEXT)
    assert main(["width", path, "--b", "5"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", SINGLE_ROW_ERROR)


def test_frobenius_bound_cuww1(tmp_path):
    rc, obj = run_json(tmp_path, ["frobenius-bound"], CUWW1_TEXT)
    assert rc == EXIT_OK
    assert obj["case"] == "positive_q1"
    assert obj["assumptions_ok"] is True
    assert obj["failed_assumptions"] == []
    assert obj["bound"] == "1344505514/15"
    assert obj["bound_floor"] == 89633700


BOUND_TEXT = "bound = 1344505514/15 (floor 89633700), case positive_q1\n"


def test_frobenius_bound_text_report(tmp_path, capsys):
    rc = main(["frobenius-bound", write(tmp_path, CUWW1_TEXT)])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == BOUND_TEXT


def test_json_to_file_keeps_text_report(tmp_path, capsys):
    """--json PATH writes the --json - payload plus a newline to PATH and
    still prints the text report."""
    path = write(tmp_path, CUWW1_TEXT)
    dest = tmp_path / "out.json"
    assert main(["frobenius-bound", path, "--json", "-"]) == EXIT_OK
    payload = capsys.readouterr().out
    assert main(["frobenius-bound", path, "--json", str(dest)]) == EXIT_OK
    assert capsys.readouterr().out == BOUND_TEXT
    assert dest.read_text() == payload


def test_frobenius_exact_resource_limit_exits_3(tmp_path, capsys):
    rc = main(["frobenius-exact", write(tmp_path, "1 2\n1000003 1000004\n5\n")])
    captured = capsys.readouterr()
    assert rc == EXIT_RESOURCE
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_frobenius_exact_small(tmp_path, capsys):
    path = write(tmp_path, "1 2\n3 5\n1\n")
    rc = main(["frobenius-exact", path])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "7"
    rc, obj = run_json(tmp_path, ["frobenius-exact"], "1 2\n3 5\n1\n")
    assert obj == {"frobenius": 7}


def test_solve_exit_codes(tmp_path, capsys):
    no = write(tmp_path, "1 2\n3 5\n7\n", "no.txt")
    yes = write(tmp_path, "1 2\n3 5\n8\n", "yes.txt")
    assert main(["solve", no]) == EXIT_INFEASIBLE
    capsys.readouterr()
    assert main(["solve", yes]) == EXIT_OK
    out = capsys.readouterr().out
    assert "feasible" in out and "x =" in out


def test_solve_formulations_agree(tmp_path):
    path = write(tmp_path, "1 2\n3 5\n8\n")
    for args in (["--formulation", "ahl"], ["--formulation", "ext", "--s", "1"]):
        rc, obj = run_json(tmp_path, ["solve", path] + args)
        assert rc == EXIT_OK
        assert obj["status"] == "feasible"
        x = [int(v) for v in obj["x"]]
        assert 3 * x[0] + 5 * x[1] == 8 and min(x) >= 0


def test_solve_cuww1_extended_root_prune(tmp_path):
    rc, obj = run_json(
        tmp_path, ["solve", "--formulation", "ext", "--s", "1"], CUWW1_TEXT
    )
    assert rc == EXIT_INFEASIBLE
    assert obj["status"] == "infeasible"
    assert obj["nodes"] == 1


def test_solve_s_needs_extended_formulation(tmp_path, capsys):
    """--s names the long columns of --formulation ext; with orig or ahl
    it would be ignored, so it is a usage error instead: exit 1 and one
    `error:` line."""
    path = write(tmp_path, "1 2\n3 5\n8\n")
    for form in ([], ["--formulation", "orig"], ["--formulation", "ahl"]):
        assert main(["solve", path, "--s", "1"] + form) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: --s needs --formulation ext\n")


def test_solve_node_limit_exits_3(tmp_path, capsys):
    gen = main(["gen-market-split", "--m", "2", "--seed", "1"])
    text = capsys.readouterr().out
    assert gen == EXIT_OK
    path = write(tmp_path, text)
    rc, obj = run_json(tmp_path, ["solve", path, "--node-limit", "3"])
    assert rc == EXIT_RESOURCE
    assert obj["status"] == "node_limit"
    assert obj["nodes"] == 3


def _raiser(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize(
    "target,exc,command,text",
    [
        ("latref.solver._Simplex._check_farkas",
         ArithmeticError("Farkas certificate failed verification"),
         "solve", "1 2\n3 5\n9\nbinary\n"),
        ("latref.solver._Simplex._check_optimal",
         ArithmeticError("duality gap in verified optimum"),
         "solve", "1 2\n3 5\n8\n"),
        ("latref.solver._BnbSpace.verify_integral",
         ArithmeticError("integer certificate violates A x = b"),
         "solve", "1 2\n3 5\n8\n"),
        ("latref.cli.detect_decomposition",
         IntegralityError("Hermite rescaling of P produced non-integers"),
         "reformulate", CUWW1_TEXT),
    ],
)
def test_internal_consistency_failure_exits_4(
    tmp_path, capsys, monkeypatch, target, exc, command, text
):
    monkeypatch.setattr(target, _raiser(exc))
    rc = main([command, write(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert str(exc) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args,echelons",
    [(["reformulate", "--s", "1"], 4), (["solve", "--formulation", "ext"], 3)],
)
def test_cli_echelon_count(tmp_path, capsys, monkeypatch, args, echelons):
    """A, P and (for reformulate) (p1; p2) are each echelonned once, apart
    from A's rank check in EqualitySystem."""
    calls = [0]
    real = lattice._column_echelon

    def spy(a):
        calls[0] += 1
        return real(a)

    monkeypatch.setattr(lattice, "_column_echelon", spy)
    rc = main([args[0], write(tmp_path, CUWW1_TEXT)] + args[1:])
    capsys.readouterr()
    assert rc in (EXIT_OK, EXIT_INFEASIBLE)
    assert calls[0] == echelons


def test_gen_market_split_deterministic(tmp_path, capsys):
    main(["gen-market-split", "--m", "3", "--seed", "9"])
    first = capsys.readouterr().out
    main(["gen-market-split", "--m", "3", "--seed", "9"])
    assert capsys.readouterr().out == first
    out = tmp_path / "ms.txt"
    main(["gen-market-split", "--m", "3", "--seed", "9", "-o", str(out)])
    assert out.read_text() == first
    sys_ = parse_instance(first)
    assert (sys_.m, sys_.n) == (3, 20)
    assert sys_.var_lower == (0,) * 20 and sys_.var_upper == (1,) * 20
    for i in range(3):
        assert sys_.b[i] == sum(sys_.a.row(i)) // 2


def test_gen_market_split_rejects_single_row(capsys):
    assert main(["gen-market-split", "--m", "1", "--seed", "1"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_gen_market_split_memory_guard_exits_3(capsys):
    assert main(["gen-market-split", "--m", "317", "--seed", "1"]) == EXIT_RESOURCE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: m = 317 needs") and err.count("\n") == 1


def test_compare_json(tmp_path):
    rc, obj = run_json(tmp_path, ["compare", "--s", "1"], "1 2\n2 3\n7\n")
    assert rc == EXIT_OK
    labels = [r["formulation"] for r in obj["rows"]]
    assert labels == ["original", "ahl", "ext s=1"]
    for row in obj["rows"]:
        assert set(row) == {"formulation", "status", "nodes", "proof_depth"}
        assert row["status"] == "feasible"


def test_compare_node_limit_exits_3(tmp_path):
    rc, obj = run_json(
        tmp_path, ["compare", "--s", "1", "--node-limit", "50"], CUWW1_TEXT
    )
    assert rc == EXIT_RESOURCE
    by = {r["formulation"]: r["status"] for r in obj["rows"]}
    assert by["original"] == "node_limit"
    assert by["ext s=1"] == "infeasible"


def test_compare_rejects_bad_s_list(tmp_path, capsys):
    path = write(tmp_path, "1 2\n2 3\n7\n")
    assert main(["compare", path, "--s", "1,x"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: --s expects a comma-separated list of integers\n")


def test_missing_file_reports_usage(capsys):
    rc = main(["width", "/no/such/file", "--b", "1"])
    assert rc == EXIT_USAGE
    assert "cannot read" in capsys.readouterr().err


def test_knapsack_commands_need_single_row(tmp_path, capsys):
    path = write(tmp_path, TWOROW_TEXT)
    for cmd in (["frobenius-bound"], ["frobenius-exact"]):
        assert main(cmd + [path]) == EXIT_USAGE
        assert capsys.readouterr() == ("", SINGLE_ROW_ERROR)


def test_main_builds_parser_once(tmp_path, capsys, monkeypatch):
    """The parser is built by the first main call and reused after it."""
    from latref import cli

    built = []
    real = cli._build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_build_parser", counting)
    monkeypatch.setattr(cli, "_PARSER", None)
    path = write(tmp_path, "1 2\n2 3\n7\n")
    assert main(["solve", path]) == EXIT_OK
    assert main(["solve", path, "--node-limit", "5"]) == EXIT_OK
    assert len(built) == 1


def test_reused_parser_wraps_usage_to_columns(tmp_path, capsys, monkeypatch):
    """argparse reads COLUMNS when it formats a usage error, so a parser
    built at one terminal width prints what a new parser prints at the
    width of a later call."""
    from latref import cli

    monkeypatch.setattr(cli, "_PARSER", None)
    path = write(tmp_path, "1 2\n2 3\n7\n")
    argv = ["solve", path, "--formulation", "bogus"]
    errs = {}
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        for parse in (main, cli._build_parser().parse_args):
            with pytest.raises(SystemExit) as ei:
                parse(argv)
            assert ei.value.code == EXIT_USAGE
            errs.setdefault(columns, []).append(capsys.readouterr().err)
    assert errs["200"][0] == errs["200"][1]
    assert errs["40"][0] == errs["40"][1]
    assert errs["40"][0] != errs["200"][0]
