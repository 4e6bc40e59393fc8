"""Command line behavior: exit codes, report content, determinism."""

import json
import subprocess
import sys
import time

import pytest

import jmoduli
from jmoduli.cli import main

CUBIC = "x0^3 + x1^3 + x2^3"
QUARTIC = "x0^4 + x1^4 + x2^4 + x3^4"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


def test_check_pass(capsys):
    code, report, _ = run_json(capsys, ["check", CUBIC])
    assert code == 0
    assert report["command"] == "check"
    assert report["input"] == {"f": CUBIC, "g": None, "nvars": 3, "nu": 3}
    assert report["result"]["pass"] is True
    assert report["result"]["nonsingular"] is True
    assert set(report) == {"command", "input", "result", "timing_ms", "version"}


def test_check_not_calabi_yau(capsys):
    code, report, _ = run_json(capsys, ["check", "x0^4+x1^4+x2^4", "--nvars", "3"])
    assert code == 1
    assert report["result"]["calabi_yau"] is False
    assert report["result"]["nonsingular"] is True


def test_check_singular(capsys):
    code, report, _ = run_json(capsys, ["check", "x0^3+x1^3", "--nvars", "3"])
    assert code == 1
    assert report["result"]["nonsingular"] is False


def test_check_zero_quotient(capsys):
    # a linear f has J_f = (1); moduli and deform refuse it, so check must too
    code, report, _ = run_json(capsys, ["check", "x0"])
    assert code == 1
    assert report["result"] == {
        "homogeneous": True, "nu": 1, "nvars": 1, "calabi_yau": True,
        "nonsingular": True, "pass": False}
    code, out, _ = run(capsys, ["check", "x0"])
    assert code == 1
    assert "verdict:      fail  (the quotient S/J_f is zero)\n" in out
    # with two or more variables a linear f already fails the balance
    code, out, _ = run(capsys, ["check", "x0 + x1"])
    assert code == 1
    assert out.endswith("verdict:      fail\n")


def test_check_constant_f(capsys):
    # a constant parses as homogeneous of weight 0: the wrong degree
    for f in ("1", "x0^0"):
        code, report, _ = run_json(capsys, ["check", f])
        assert code == 1
        assert report["input"]["nu"] == 0
        assert report["result"] == {
            "homogeneous": True, "nu": 0, "nvars": 1, "calabi_yau": False,
            "nonsingular": False, "pass": False}
    code, out, _ = run(capsys, ["check", "1"])
    assert code == 1
    assert out.endswith("verdict:      fail\n")


@pytest.mark.parametrize("argv", [
    ["moduli", "1"],
    ["dgla", "1", "--degree", "0", "--weight", "0"],
])
def test_constant_f_is_a_hypothesis_failure(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "hypothesis failure: f is constant\n"


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, ["check", "x0^3 + zq"])
    assert code == 2
    assert "parse error" in err


def test_budget_exit_code(capsys):
    code, out, err = run(capsys, ["moduli", QUARTIC, "--max-pairs", "2"])
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("option,value", [
    ("--timeout-s", "nan"),
    ("--timeout-s", "-1"),
    ("--timeout-s", "-0.5"),
    ("--max-pairs", "-1"),
])
def test_invalid_budget_is_a_usage_error(capsys, option, value):
    for command in (["check", CUBIC], ["deform", CUBIC, "x0*x1*x2"]):
        code, out, err = run(capsys, command + [f"{option}={value}"])
        assert code == 2
        assert out == ""
        assert err.startswith(f"invalid input: {option} must be >= 0")
        assert err.count("\n") == 1


def test_zero_timeout_disables_the_clock(capsys):
    code, report, _ = run_json(capsys, ["deform", CUBIC, "x0^6",
                                        "--timeout-s", "0"])
    assert code == 0
    assert report["result"]["dim_extended_deformed"] == 8


def test_moduli_cubic(capsys):
    code, report, _ = run_json(capsys, ["moduli", CUBIC])
    assert code == 0
    r = report["result"]
    assert r["hilbert"] == [1, 3, 3, 1]
    assert r["r_dims"] == [1, 1]
    assert r["dim_extended"] == 4
    assert r["grading"] == [0, 2, 1, 1]
    assert r["primitive_bases"] == [[0, ["1"]], [1, ["x0*x1*x2"]]]


def test_moduli_quartic(capsys):
    code, report, _ = run_json(capsys, ["moduli", QUARTIC])
    assert code == 0
    r = report["result"]
    assert r["r_dims"] == [1, 19, 1]
    assert r["dim_extended"] == 24


def test_deform_hesse(capsys):
    code, report, err = run_json(capsys, ["deform", CUBIC, "x0*x1*x2"])
    assert code == 0
    r = report["result"]
    assert r["dim_extended"] == 4
    assert r["dim_extended_deformed"] == 4
    assert r["equal"] is True
    assert "warning" not in r
    assert err == ""


def test_deform_negative_control(capsys):
    # an exact direction: dimensions differ, verdict false, but the run
    # itself succeeds and says why
    code, report, err = run_json(capsys, ["deform", CUBIC, "x0^6"])
    assert code == 0
    r = report["result"]
    assert r["dim_extended"] == 4
    assert r["dim_extended_deformed"] == 8
    assert r["equal"] is False
    assert "warning" in r
    assert "warning" in err


def test_deform_empty_g_is_zero(capsys):
    code, report, _ = run_json(capsys, ["deform", CUBIC, ""])
    assert code == 0
    assert report["input"]["g"] == "0"
    assert report["result"]["equal"] is True


def test_deform_singular_deformation(capsys):
    code, out, err = run(capsys, ["deform", CUBIC, "--", "-1*x0^3"])
    assert code == 1
    assert "singular" in err


def test_deform_bad_weight(capsys):
    code, out, err = run(capsys, ["deform", CUBIC, "x0^2"])
    assert code == 2
    assert "not divisible" in err


def test_deform_g_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("x0*x1*x2\n")
    code, report, _ = run_json(capsys, ["deform", CUBIC, "--g-file", str(path)])
    assert code == 0
    assert report["input"]["g"] == "x0*x1*x2"
    code, out, err = run(capsys,
                         ["deform", CUBIC, "x0^6", "--g-file", str(path)])
    assert code == 2


def test_deform_unreadable_g_file(tmp_path, capsys):
    # a missing file and a directory: exit 2 with one line, no traceback
    for path in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run(capsys, ["deform", CUBIC, "--g-file", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("invalid input: cannot read --g-file: ")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("degree,weight,h_dim", [(1, -3, 1), (-1, 0, 0), (1, 0, 1)])
def test_dgla_spot_values(capsys, degree, weight, h_dim):
    code, report, _ = run_json(
        capsys, ["dgla", CUBIC, "--degree", str(degree), f"--weight={weight}"])
    assert code == 0
    r = report["result"]
    assert r["h_dim"] == h_dim
    if degree == 1:
        assert r["crosscheck_pass"] is True


def test_dgla_piece_dims(capsys):
    code, report, _ = run_json(
        capsys, ["dgla", CUBIC, "--degree", "1", "--weight=-3"])
    assert report["result"]["dim_piece"] == 1
    assert report["result"]["dim_ker"] == 1
    assert report["result"]["dim_im_in"] == 0


def test_json_determinism(capsys):
    argv = ["moduli", CUBIC, "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    strip = lambda text: "\n".join(
        line for line in text.splitlines() if "timing_ms" not in line)
    assert code1 == code2 == 0
    assert strip(out1) == strip(out2)


@pytest.mark.parametrize("argv,ring", [
    (["moduli", "x0"], "S/J_f"),
    (["deform", "x0"], "S/J_(f+g)"),
])
def test_zero_quotient_is_a_hypothesis_failure(capsys, argv, ring):
    # a linear f has J_f = (1): no standard monomials and no unit class
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"hypothesis failure: the quotient {ring} is zero\n"


def test_inhomogeneous_f_is_a_hypothesis_failure(capsys):
    code, out, err = run(capsys, ["moduli", "x0^3 + x1^2", "--nvars", "3"])
    assert code == 1
    assert "homogeneous" in err


def test_console_script_entry_point(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "jmoduli.cli", "check", CUBIC, "--json"],
        capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["pass"] is True


# a quintic whose Groebner basis runs far past any small limit
SLOW_QUINTIC = ("x0^5 + x1^5 + x2^5 + x3^5 + x4^5 + 2*x0^3*x1*x2"
                " - x1^2*x2^2*x3 + 3*x0*x2*x3*x4^2 - x0^2*x4^3 + x1*x3^4"
                " - 2*x2^3*x4^2")


def test_timeout_stops_buchberger(src_env):
    limit = 1.0
    started = time.perf_counter()
    subprocess.run([sys.executable, "-m", "jmoduli.cli", "--version"],
                   capture_output=True, env=src_env, check=True)
    startup = time.perf_counter() - started

    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "jmoduli.cli", "moduli", SLOW_QUINTIC,
         "--timeout-s", str(limit)],
        capture_output=True, text=True, env=src_env, timeout=60)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 3
    assert proc.stderr.startswith("budget exceeded: ")
    assert elapsed < 2 * limit + startup


def test_timeout_binds_inside_the_cohomology(capsys):
    code, out, err = run(capsys, ["dgla", "x0^5 + x1^5 + x2^5 + x3^5 + x4^5",
                                  "--degree", "0", "--weight", "8",
                                  "--timeout-s", "1e-9"])
    assert code == 3
    assert out == ""
    assert err == "budget exceeded: wall clock budget exceeded in the graded pieces\n"


def test_human_output_mentions_dimensions(capsys):
    code, out, _ = run(capsys, ["moduli", CUBIC])
    assert code == 0
    assert "dim R~:       4" in out
    code, out, _ = run(capsys, ["dgla", CUBIC, "--degree", "1", "--weight=-3"])
    assert "hilbert check: pass" in out


def count_calls(monkeypatch, name):
    """Count calls of a jmoduli function through every module binding."""
    calls = []
    original = getattr(jmoduli, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for key, mod in sys.modules.items():
        if key.startswith("jmoduli") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("argv,groebner_bases,closures", [
    (["check", QUARTIC], 1, 0),
    (["moduli", QUARTIC], 1, 0),
    (["deform", QUARTIC, "x0*x1*x2*x3"], 2, 1),  # J_f and J_(f+g)
])
def test_each_stage_runs_once_per_command(monkeypatch, capsys, argv,
                                          groebner_bases, closures):
    gbs = count_calls(monkeypatch, "buchberger")
    closure_calls = count_calls(monkeypatch, "deformed_subalgebra")
    # the closure and both product tables read the quotient's memo instead
    normal_forms = count_calls(monkeypatch, "normal_form")
    code, _, _ = run_json(capsys, argv)
    assert code == 0
    assert len(gbs) == groebner_bases
    assert len(closure_calls) == closures
    assert normal_forms == []
