import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from extshuffle import LinComb, parse_lincomb
from extshuffle.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shuffle_text(capsys):
    code, out, _ = run(capsys, "shuffle", "[1]", "[-1]")
    assert code == 0
    assert out.strip() == "[-1,1] - [0,0]"


def test_shuffle_unit(capsys):
    code, out, _ = run(capsys, "shuffle", "1", "[5]")
    assert code == 0
    assert out.strip() == "[5]"


def test_shuffle_json_is_canonical(capsys):
    code, out, _ = run(capsys, "shuffle", "[2]", "[2]", "--json")
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"coef": "2", "comp": [2, 2]},
            {"coef": "4", "comp": [3, 1]},
        ]
    }


def test_shuffle_parse_failure_exits_2(capsys):
    code, _, err = run(capsys, "shuffle", "[1,", "[2]")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("convergent", "[\u00b2]"),
        ("shuffle", "[1]", "[1,\u00b2]"),
        ("fraction-eval", "f([1];[1])", "1=1/\u00b2"),
    ],
)
def test_non_decimal_digit_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "position" in err
    assert err.count("\n") == 1


def test_integer_over_the_digit_limit_is_a_parse_error(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "convergent", "[" + "9" * limit + "]")
    assert (code, out) == (0, "convergent\n")
    code, out, err = run(capsys, "convergent", "[" + "9" * (limit + 1) + "]")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: integer over {limit} digits at position 1 ")
    assert err.count("\n") == 1


def test_an_over_long_argument_gives_a_short_error_line(capsys):
    nines = "[" + "9" * (sys.get_int_max_str_digits() + 1) + "]"
    code, out, err = run(capsys, "convergent", nines)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and len(err) <= 201
    assert err.startswith("error: ") and " at position 1 in " in err


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "[2]", "--max-n"],
        ["verify", "[2]", "[3]", "--tol"],
        ["fraction-eval", "f([1];[1])", "--seed"],
        ["relations", "--min-entry", "1", "--max-entry", "2", "--max-depth"],
        ["relations", "--max-depth", "1", "--max-entry", "2", "--min-entry"],
        ["relations", "--max-depth", "1", "--min-entry", "1", "--max-entry"],
    ],
    ids=["max-n", "tol", "seed", "max-depth", "min-entry", "max-entry"],
)
def test_an_over_long_option_value_is_echoed_short(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "x" * 5000])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {argv[-1]}: invalid " in err and "Traceback" not in err
    assert max(map(len, err.splitlines())) <= 200


def _comp_arg(entries):
    return "[" + ",".join(map(str, entries)) + "]"


_ONES = _comp_arg([1] * 3000)
_LABELS = _comp_arg(range(1, 3001))
_BIG = "9" * 4300  # the most digits an integer argument may have


@pytest.mark.parametrize(
    "argv, code",
    [
        (["zeta", _ONES], 1),
        (["verify", _ONES, "[2]"], 1),
        (["verify", "[2]", _ONES], 1),
        (["zeta", _comp_arg([400, -397] + [1] * 2998)], 2),
        (["symbol-product", f"<{_ONES};{_ONES}>", "1"], 2),
        (["symbol-product", f"<{_ONES};{_LABELS}>", f"<{_ONES};{_LABELS}>"], 2),
        (["fraction-eval", f"f({_ONES};{_ONES})"], 2),
        (["fraction-eval", f"f({_comp_arg([1] + [0] * 2999)};{_LABELS})", "1=-2999",
          *(f"{i}=1" for i in range(2, 3001))], 1),
        (["fraction-eval", f"f([1];[{_BIG}])", f"{_BIG}=1", f"{_BIG}=2"], 2),
        (["fraction-eval", f"f([1];[{_BIG}])", "1=1"], 2),
        (["zeta", "[2]", "--max-n", _BIG], 2),
        (["verify", "[2]", "[3]", "--max-n", f"-{_BIG}"], 2),
        (["relations", "--max-depth", f"-{_BIG}", "--min-entry", "1", "--max-entry", "2"], 2),
        (["relations", "--max-depth", "1", "--min-entry", _BIG, "--max-entry", f"-{_BIG}"], 2),
    ],
    ids=["zeta divergent", "verify divergent a", "verify divergent b", "zeta overflow",
         "repeated labels", "shared labels", "repeated variables", "vanishing denominator",
         "variable twice", "unassigned variable", "cap above", "cap below", "depth", "entries"],
)
def test_an_error_that_echoes_a_long_input_is_one_short_line(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 201


def test_output_reparses_to_equal_lincomb(capsys):
    for a, b in [("[2]", "[3]"), ("[-2,1]", "[0,4]"), ("[1]", "[-1]")]:
        code, out, _ = run(capsys, "shuffle", a, b)
        assert code == 0
        reparsed = parse_lincomb(out.strip())
        code, out_json, _ = run(capsys, "shuffle", a, b, "--json")
        assert reparsed == LinComb.from_json_dict(json.loads(out_json))


def test_stuffle(capsys):
    code, out, _ = run(capsys, "stuffle", "[2]", "[3]")
    assert code == 0
    assert out.strip() == "[5] + [2,3] + [3,2]"


def test_symbol_product(capsys):
    code, out, _ = run(capsys, "symbol-product", "<[1];[1]>", "<[1];[2]>")
    assert code == 0
    assert out.strip() == "<[1,1];[1,2]> + <[1,1];[2,1]>"


def test_symbol_product_shared_labels_is_usage_error(capsys):
    code, _, err = run(capsys, "symbol-product", "<[1];[1]>", "<[2];[1]>")
    assert code == 2
    assert "not independent" in err


def test_fraction_eval_at_point(capsys):
    code, out, _ = run(capsys, "fraction-eval", "f([1,1];[1,2])", "1=1", "2=1")
    assert code == 0
    assert out.strip() == "1/2"


def test_fraction_eval_vanishing_denominator(capsys):
    code, _, err = run(capsys, "fraction-eval", "f([1];[1])", "1=0")
    assert code == 1
    assert "x1" in err and "vanishes" in err


def test_fraction_eval_missing_assignment(capsys):
    code, _, err = run(capsys, "fraction-eval", "f([1];[1])", "2=1")
    assert code == 2
    assert "no value assigned" in err


def test_fraction_eval_rejects_a_repeated_variable(capsys):
    code, out, err = run(capsys, "fraction-eval", "f([1];[1])", "1=1", "1=2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "variable 1" in err and err.count("\n") == 1


def test_fraction_eval_json(capsys):
    code, out, _ = run(capsys, "fraction-eval", "f([1,1];[1,2])", "1=1", "2=1", "--json")
    assert code == 0
    assert json.loads(out) == {"fraction": "f([1,1];[1,2])", "value": "1/2"}
    code, out, _ = run(capsys, "fraction-eval", "f([1,1];[1,2])", "--json")
    assert code == 0
    panel = json.loads(out)["panel"]
    assert len(panel) == 8
    assert all(set(row) == {"point", "value"} for row in panel)


def test_fraction_eval_panel_mode_is_seeded(capsys):
    code, out1, _ = run(capsys, "fraction-eval", "f([1];[1])", "--seed", "9")
    assert code == 0
    assert len(out1.strip().splitlines()) == 8
    _, out2, _ = run(capsys, "fraction-eval", "f([1];[1])", "--seed", "9")
    assert out1 == out2
    _, out3, _ = run(capsys, "fraction-eval", "f([1];[1])", "--seed", "10")
    assert out1 != out3


def test_convergent_pass(capsys):
    code, out, _ = run(capsys, "convergent", "[2]")
    assert code == 0
    assert out.strip() == "convergent"


def test_convergent_fail_reports_first_violation(capsys):
    code, out, _ = run(capsys, "convergent", "[3,-1]")
    assert code == 1
    assert out.strip() == "partial weight at j=2 is 2, requires > 2"


def test_zeta_command(capsys):
    code, out, _ = run(capsys, "zeta", "[2]", "--tol", "1e-6")
    assert code == 0
    assert out.startswith("1.64493")
    assert "converged = True" in out


def test_zeta_divergent_input(capsys):
    code, _, err = run(capsys, "zeta", "[1]")
    assert code == 1
    assert "divergent" in err


def test_verify_divergent_input(capsys):
    code, out, err = run(capsys, "verify", "[1]", "[2]")
    assert code == 1
    assert out == ""
    assert err == "error: divergent composition [1] (partial weight at j=1 is 1, requires > 1)\n"
    code, out, err = run(capsys, "verify", "[2]", "[3,-1]")
    assert code == 1
    assert out == ""
    assert "[3,-1] (partial weight at j=2 is 2" in err


@pytest.mark.parametrize("argv", [("zeta", "[1]"), ("verify", "[1]", "[2]")], ids=str)
def test_bad_tolerance_on_a_divergent_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--tol", "inf")
    assert code == 2
    assert out == ""
    assert err.startswith("error: tolerance")


def test_zeta_json(capsys):
    code, out, _ = run(capsys, "zeta", "[3]", "--tol", "1e-6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["converged"] is True
    assert abs(data["value"] - 1.2020569) < 1e-5
    assert set(data) == {"value", "est_error", "cutoff", "converged"}


def test_zeta_unconverged_exits_1(capsys):
    code, out, _ = run(capsys, "zeta", "[2]", "--tol", "1e-18", "--max-n", "4096")
    assert code == 1
    assert "converged = False" in out


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "[2]", "[2]", "--tol", "1e-5")
    assert code == 0
    assert "PASS" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "[4,-1]", "[2]", "--tol", "1e-4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["delta"] < data["tolerance"]


UNRESOLVED = ("[2,1,1,1,1]", "[2,1,1,1]", "--max-n", "1025")  # a depth-9 term has one fit order


def test_verify_with_an_unconverged_estimate_fails(capsys):
    code, out, _ = run(capsys, "verify", *UNRESOLVED)
    assert code == 1
    assert "(tolerance inf)" in out
    assert out.splitlines()[-1] == "FAIL"


def _strict(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize(
    "argv, field",
    [
        (("zeta", "[2,1,1,1,1,1,1,1,1]", "--max-n", "1025", "--json"), "est_error"),
        (("verify", *UNRESOLVED, "--json"), "tolerance"),
        (("relations", "--max-depth", "5", "--min-entry", "2", "--max-entry", "2",
          "--max-n", "1025", "--format", "json"), "est_error"),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_an_unresolved_error_bar_is_json_null(capsys, argv, field):
    code, out, _ = run(capsys, *argv)
    assert code == 1
    data = json.loads(out, parse_constant=_strict)
    records = data["relations"] if "relations" in data else [data]
    assert None in [record[field] for record in records]


def test_relations_text(capsys):
    code, out, _ = run(
        capsys,
        "relations",
        "--max-depth", "1", "--min-entry", "2", "--max-entry", "2",
        "--tol", "1e-4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("[4] - 4[3,1]")


def test_relations_json(capsys):
    code, out, _ = run(
        capsys,
        "relations",
        "--max-depth", "1", "--min-entry", "2", "--max-entry", "3",
        "--tol", "1e-4", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["relations"]) == 3
    assert data["skipped"] == []
    first = data["relations"][0]
    assert first["a"] == [2] and first["b"] == [2]
    assert first["residual"] < 1e-4 + first["est_error"]
    assert all(rel["passed"] is True for rel in data["relations"])


def test_relations_failing_relation_exits_1(capsys, monkeypatch):
    from extshuffle import ZetaEstimate

    def off_by_one(xs, tol, max_n):
        return [ZetaEstimate(1.0, 1024, 1e-9, True)] * len(xs)

    monkeypatch.setattr("extshuffle.relations._combine", off_by_one)
    argv = ["relations", "--max-depth", "1", "--min-entry", "2", "--max-entry", "3"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert [rel["passed"] for rel in json.loads(out)["relations"]] == [False] * 3
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert all(line.endswith(", FAIL)") for line in out.strip().splitlines())


@pytest.mark.parametrize("max_n", ["-5", "0", "1024"])
def test_zeta_cap_without_two_checkpoints_is_usage_error(capsys, max_n):
    code, out, err = run(capsys, "zeta", "[2]", "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "max_n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("zeta", "[2]"),
        ("verify", "[2]", "[3]"),
        ("relations", "--max-depth", "1", "--min-entry", "2", "--max-entry", "2"),
    ],
    ids=["zeta", "verify", "relations"],
)
def test_cap_beyond_exact_float64_n_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-n", str(2**63))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "max_n" in err and len(err.splitlines()) == 1


def test_verify_infinite_tolerance_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "[2]", "[3]", "--tol", "inf")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "tolerance" in err


def test_verify_zero_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "[2]", "[3]", "--max-n", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "max_n" in err


@pytest.mark.parametrize(
    "argv",
    [["zeta", "[400,-397]", "--json"], ["zeta", "[200,-150]"], ["verify", "[400,-397]", "[2]"]],
    ids=" ".join,
)
def test_overflowing_partial_sums_are_usage_errors(capsys, argv):
    # n**397 overflows float64 while n**-400 underflows: the sums are nan
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflow float64" in err


def test_overflow_error_shows_the_composition_as_typed(capsys):
    code, _, err = run(capsys, "zeta", "[400,-397]")
    assert code == 2
    assert "[400,-397]" in err


@pytest.mark.parametrize(
    "bounds, message",
    [
        (["--max-depth", "-2", "--min-entry", "1", "--max-entry", "3"], "--max-depth"),
        (["--max-depth", "0", "--min-entry", "1", "--max-entry", "3", "--tol", "inf"], "--max-depth"),
        (["--max-depth", "2", "--min-entry", "3", "--max-entry", "1"], "--min-entry"),
        (["--max-depth", "1", "--min-entry", "2", "--max-entry", "3", "--tol", "inf"], "tolerance"),
    ],
)
def test_relations_bad_bounds_are_usage_errors(capsys, bounds, message):
    code, out, err = run(capsys, "relations", *bounds)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_large_entries_compute(capsys):
    code, out, _ = run(capsys, "shuffle", "[200]", "[200]")
    assert code == 0
    assert len(out.strip().split(" + ")) == 200
    code, out, _ = run(capsys, "symbol-product", "<[1000];[1]>", "<[-1000];[2]>", "--json")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 1001


@pytest.mark.parametrize(
    "target, fault, argv",
    [
        ("ext_shuffle", RecursionError, ["shuffle", "[1]", "[2]"]),
        ("symbol_product", MemoryError, ["symbol-product", "<[1];[1]>", "<[1];[2]>"]),
        ("verify_homomorphism", RecursionError, ["verify", "[2]", "[3]"]),
    ],
)
def test_exhausted_resources_are_one_line_usage_errors(capsys, monkeypatch, target, fault, argv):
    def exhausted(*args, **kwargs):
        raise fault()

    monkeypatch.setattr(f"extshuffle.cli.{target}", exhausted)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and fault.__name__ in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["x" * 5000], "error: argument command: invalid choice: 'xxx"),
        (["verify", "[2]"], "error: the following arguments are required: b"),
        (["zeta", "[2]", "--tol", "small"], "error: argument --tol: invalid float value: 'small'"),
    ],
    ids=["long subcommand", "missing positional", "bad option value"],
)
def test_an_argparse_usage_error_is_one_short_error_line(capsys, argv, shown):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith(shown) and "usage" not in captured.err
    assert captured.err.count("\n") == 1 and len(captured.err) <= 201


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


def test_closed_stdout_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the first write meets a broken pipe
    try:
        done = _python(
            "-m", "extshuffle", "shuffle", "[200]", "[200]",
            stdout=write_end, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_closed_stdout_in_process_exits_1(capsys, monkeypatch):
    # the same broken pipe met by main() in this process, where a line trace sees it
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["shuffle", "[2]", "[2]"]) == 1
    assert capsys.readouterr().err == ""


def test_import_leaves_numpy_unloaded():
    done = _python(
        "-c", "import sys, extshuffle; print('numpy' in sys.modules)", capture_output=True
    )
    assert done.stdout.decode().strip() == "False"


def test_a_5000_entry_input_computes_its_one_term():
    # a depth sum of 5001: the engine keeps its pending sub-products on an
    # explicit stack, so no recursion limit cuts the product short
    deep = "[" + ",".join(["1"] * 5000) + "]"
    done = _python("-m", "extshuffle", "shuffle", deep, "[1]", capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
    assert done.stdout.decode() == "5001[" + ",".join(["1"] * 5001) + "]\n"


@pytest.mark.parametrize(
    "argv, code",
    [(("shuffle", "[1]", "[-1]"), 0), (("zeta", "[1]"), 1), (("zeta", "[2]", "--tol", "inf"), 2)],
    ids=["success", "divergent", "usage"],
)
def test_module_entry_point_returns_the_exit_code(argv, code):
    done = _python("-m", "extshuffle", *argv, capture_output=True)
    assert done.returncode == code
    assert done.stderr.decode().startswith("error:") == (code != 0)


@pytest.fixture
def lowest_digit_limit():
    """The interpreter's lowest limit on digits in int-to-text conversion,
    restored after the test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("shuffle", "[-2200]", "[5]"),
            lambda: {(k - 2200, 5 - k): (-1) ** k * comb(2200, k) for k in range(2201)},
        ),
        (("fraction-eval", "f([-300];[1])", "1=99999999"), lambda: 99999999**300),
    ],
    ids=["shuffle", "fraction-eval"],
)
def test_exact_output_over_the_digit_limit_is_printed_whole(capsys, lowest_digit_limit, argv, expected):
    # the results hold integers of over 640 digits; they print whole, as text
    # and as JSON, and the limit stays in force for parsed input
    text, as_json = run(capsys, *argv), run(capsys, *argv, "--json")
    assert sys.get_int_max_str_digits() == lowest_digit_limit
    code, _, err = run(capsys, "convergent", "[" + "9" * (lowest_digit_limit + 1) + "]")
    assert code == 2 and "digits" in err
    sys.set_int_max_str_digits(0)
    assert text[0] == as_json[0] == 0 and text[2] == as_json[2] == ""
    want = expected()
    if argv[0] == "shuffle":
        assert parse_lincomb(text[1].strip()) == LinComb(want.items())
        assert {tuple(t["comp"]): int(t["coef"]) for t in json.loads(as_json[1])["terms"]} == want
    else:
        assert int(text[1]) == want and len(text[1].strip()) > 2000
        assert json.loads(as_json[1])["value"] == str(want)


def test_a_40000_digit_value_prints_at_the_default_digit_limit():
    # a fresh process at the interpreter's default limit of 4,300 digits
    done = _python("-m", "extshuffle", "fraction-eval", "f([-5000];[1])", "1=99999999", capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    out = done.stdout.decode()
    assert out.endswith("\n") and out[:-1].isdigit() and len(out) == 40001
    assert int(out[-51:]) == pow(99999999, 5000, 10**50)
