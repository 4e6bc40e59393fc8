"""Command line behavior: exit codes, report content, determinism."""

import contextlib
import gc
import importlib
import io
import json
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


@pytest.mark.parametrize("argv", [["check", "x99999999"],
                                  ["check", "x0^3", "--nvars", "100000000"]])
def test_arity_above_the_cap_is_a_parse_error(capsys, argv):
    # refused before any exponent tuple of that length is built
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == ("parse error: nvars=100000000 exceeds the limit 64 "
                   "(at position 0)\n")


@pytest.mark.parametrize("value", ["-3", "0"])
def test_arity_below_one_is_a_parse_error(capsys, value):
    code, out, err = run(capsys, ["check", "1", "--nvars", value])
    assert code == 2
    assert out == ""
    assert err == f"parse error: nvars={value} is below 1 (at position 0)\n"


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


def test_every_public_name_is_its_home_modules_object():
    assert set(jmoduli.__all__) <= set(dir(jmoduli))
    for name in jmoduli.__all__:
        if name != "__version__":
            home = importlib.import_module(f"jmoduli.{jmoduli._HOME[name]}")
            assert getattr(jmoduli, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        jmoduli.no_such_name


# a child interpreter runs main(argv) and prints the jmoduli modules loaded
LOADED_AFTER_MAIN = (
    "import contextlib, io, sys\n"
    "from jmoduli.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main(sys.argv[1:]) == 0\n"
    "print(*sorted(m for m in sys.modules if m.startswith('jmoduli')))\n")


@pytest.mark.parametrize("argv,unused", [
    (["check", CUBIC], {"jmoduli.dgla", "jmoduli.extended"}),
    (["moduli", CUBIC], {"jmoduli.dgla", "jmoduli.extended"}),
    (["dgla", CUBIC, "--degree", "1", "--weight=-3"], {"jmoduli.extended"}),
    (["deform", CUBIC, "x0*x1*x2"], {"jmoduli.dgla"}),
])
def test_each_command_imports_only_what_it_runs(src_env, argv, unused):
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER_MAIN, *argv],
                          capture_output=True, text=True, env=src_env,
                          timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "jmoduli.jacobian" in loaded
    assert not loaded & unused


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


def test_timeout_binds_on_a_padded_singular_form(capsys):
    code, out, err = run(capsys, ["check", "x0^10*x1^10 + x0^11*x1^9",
                                  "--nvars", "8", "--timeout-s", "1e-9"])
    assert code == 3
    assert out == ""
    assert err == "budget exceeded: wall clock budget exceeded in Buchberger\n"


def test_human_output_mentions_dimensions(capsys):
    code, out, _ = run(capsys, ["moduli", CUBIC])
    assert code == 0
    assert "dim R~:       4" in out
    code, out, _ = run(capsys, ["dgla", CUBIC, "--degree", "1", "--weight=-3"])
    assert "hilbert check: pass" in out


NOT_TRANSVERSE = (
    "warning: dim R~_(f+g) = 8 differs from dim R~ = 4; the deformation "
    "direction is not transverse (g may be exact in the Jacobian ideal, or "
    "of weight 2*nu or higher)\n")


@pytest.mark.parametrize("argv,code,out,err", [
    (["check", CUBIC], 0,
     "f = x0^3 + x1^3 + x2^3  (nvars 3)\n"
     "homogeneous:  yes  (weight 3)\n"
     "calabi-yau:   yes\n"
     "nonsingular:  yes\n"
     "verdict:      pass\n", ""),
    (["check", "x0^3 + x1^3", "--nvars", "3"], 1,
     "f = x0^3 + x1^3  (nvars 3)\n"
     "homogeneous:  yes  (weight 3)\n"
     "calabi-yau:   yes\n"
     "nonsingular:  no\n"
     "verdict:      fail\n", ""),
    (["moduli", CUBIC], 0,
     "f = x0^3 + x1^3 + x2^3  (nvars 3, nu 3)\n"
     "hilbert:      [1, 3, 3, 1]\n"
     "r_dims:       [1, 1]\n"
     "dim R~:       4\n"
     "grading:      [0, 2, 1, 1]\n"
     "R^0 basis:    1\n"
     "R^1 basis:    x0*x1*x2\n", ""),
    (["deform", CUBIC, "x0*x1*x2"], 0,
     "f = x0^3 + x1^3 + x2^3  (nvars 3, nu 3)\n"
     "g = x0*x1*x2\n"
     "dim R~:        4\n"
     "dim R~_(f+g):  4\n"
     "verdict:       equal\n"
     "basis:         [1], [x2^3], e_0, e_1\n", ""),
    (["deform", CUBIC, "x0^6"], 0,
     "f = x0^3 + x1^3 + x2^3  (nvars 3, nu 3)\n"
     "g = x0^6\n"
     "dim R~:        4\n"
     "dim R~_(f+g):  8\n"
     "verdict:       NOT equal\n"
     "basis:         [1], [x0*x1*x2], [x0^2*x2], [x0^2*x1], [x0^3], "
     "[x0^4*x1*x2], e_0, e_1\n", NOT_TRANSVERSE),
    (["dgla", CUBIC, "--degree", "1", "--weight=-3"], 0,
     "f = x0^3 + x1^3 + x2^3  (nvars 3, nu 3)\n"
     "piece L^(1,-3):  dim 1\n"
     "kernel:        1\n"
     "image in:      0\n"
     "H^(1,-3):       1\n"
     "hilbert check: pass (expected 1)\n", ""),
])
def test_text_output_is_pinned(capsys, argv, code, out, err):
    assert run(capsys, argv) == (code, out, err)


def count_calls(monkeypatch, name, module=jmoduli):
    """Count calls of a jmoduli function through every module binding.

    Every submodule is imported first, so a binding in a module that a
    command imports only when it runs is counted whichever test ran first.
    """
    for info in pkgutil.iter_modules(jmoduli.__path__):
        importlib.import_module(f"jmoduli.{info.name}")
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for key, mod in sys.modules.items():
        if key.startswith("jmoduli") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_count_calls_leaves_no_counter_behind(src_env):
    # a child interpreter has not loaded jmoduli.dgla.  Were dgla first
    # imported while groebner.check_deadline was patched, it would keep the
    # counter after the undo, and a second count through dgla would then
    # miss the checks bound in the other modules
    code = ("import contextlib, importlib, io, sys, pytest\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import test_cli\n"
            "assert 'jmoduli.dgla' not in sys.modules\n"
            "for home in ('groebner', 'dgla'):\n"
            "    patch = pytest.MonkeyPatch()\n"
            "    calls = test_cli.count_calls(patch, 'check_deadline', "
            "importlib.import_module('jmoduli.' + home))\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert test_cli.main(sys.argv[2:]) == 0\n"
            "    patch.undo()\n"
            "    print(len(calls))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent),
         "dgla", CUBIC, "--degree", "0", "--weight", "4"],
        capture_output=True, text=True, env=src_env, timeout=60, check=True)
    first, second = map(int, proc.stdout.split())
    assert first == second > 0


@pytest.mark.parametrize("argv,renders", [
    (["check", CUBIC], 1),
    (["moduli", CUBIC], 1),
    (["dgla", CUBIC, "--degree", "1", "--weight=-3"], 1),
    (["deform", CUBIC, "x0*x1*x2"], 2),  # f and g
])
def test_each_command_renders_f_and_g_once(monkeypatch, capsys, argv,
                                           renders):
    import jmoduli.extended as extended

    # the deform basis labels render through extended; only f and g count
    labels = extended.render_polynomial
    calls = count_calls(monkeypatch, "render_polynomial")
    monkeypatch.setattr(extended, "render_polynomial", labels)
    for flags in ([], ["--json"]):
        assert run(capsys, argv + flags)[0] == 0
    assert len(calls) == 2 * renders


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


def test_deform_fails_fast_on_a_singular_f(monkeypatch, capsys):
    # the graded quotient of f comes first, so a singular f costs no
    # closure and no product table
    closures = count_calls(monkeypatch, "deformed_subalgebra")
    code, _, err = run(capsys, ["deform", "--nvars", "4", "x0^4 + x1^4 + x2^4",
                                "--", "x3^4 + x0^2*x1^2*x2^2*x3^2"])
    assert code == 1
    assert err == "hypothesis failure: singular hypersurface\n"
    assert closures == []


def test_moduli_builds_no_product_table(monkeypatch, capsys):
    # moduli prints dim R~ and its grading, both read off the Hilbert data
    import jmoduli.cli as cli
    import jmoduli.extended as extended

    tables = count_calls(monkeypatch, "extended_from_quotient", extended)
    quotients = []
    real = cli.graded_quotient
    monkeypatch.setattr(cli, "graded_quotient", lambda *args, **kwargs:
                        quotients.append(real(*args, **kwargs)) or quotients[-1])
    code, report, _ = run_json(capsys, ["moduli", QUARTIC])
    assert code == 0
    assert report["result"]["dim_extended"] == 24
    assert tables == []
    assert len(quotients) == 1
    assert quotients[0].quotient.rows == {}


@pytest.mark.parametrize("argv,packs", [
    (["moduli", QUARTIC], False),
    (["dgla", CUBIC, "--degree", "1", "--weight", "0"], False),
    (["dgla", CUBIC, "--degree", "2", "--weight", "0"], False),
    (["deform", CUBIC, "x0*x1*x2"], True),
])
def test_only_deform_packs_monomials(monkeypatch, capsys, argv, packs):
    # Quotient packs its monomials on the first row or product, which only
    # the closure and the table ask for
    import functools
    from jmoduli.groebner import Quotient

    built = []
    packing = Quotient.__dict__["_packing"]

    def spy(quotient):
        built.append(quotient)
        return packing.func(quotient)

    spying = functools.cached_property(spy)
    spying.__set_name__(Quotient, "_packing")
    monkeypatch.setattr(Quotient, "_packing", spying)
    assert run(capsys, argv)[0] == 0
    assert bool(built) is packs


def test_deform_text_serializes_no_products(monkeypatch, capsys):
    # the text report prints the basis labels but no structure constants
    import jmoduli.extended as extended

    dumps = count_calls(monkeypatch, "to_json_dict", extended)
    assert main(["deform", CUBIC, "x0*x1*x2"]) == 0
    assert "basis:         [1], [x2^3], e_0, e_1\n" in capsys.readouterr().out
    assert dumps == []
    code, report, _ = run_json(capsys, ["deform", CUBIC, "x0*x1*x2"])
    assert code == 0 and report["result"]["products"]
    assert dumps == ["to_json_dict"]


ONE_VARIABLE = ("hypothesis failure: f has one variable: R~ is zero, with "
                "no unit\n")


def test_one_variable_form(capsys):
    # n = 0: R~ has no primitive class and no e-class
    code, report, err = run_json(capsys, ["moduli", "x0^3"])
    assert code == 0
    assert err == ""
    assert report["result"] == {
        "hilbert": [1, 1], "r_dims": [], "primitive_bases": [],
        "dim_extended": 0, "grading": []}
    # so there is no product table to build, and deform refuses
    assert run(capsys, ["deform", "x0^3"]) == (1, "", ONE_VARIABLE)


@pytest.mark.parametrize("argv", [["deform", "x0^2", ""],
                                  ["deform", "x0^2", "", "--json"]])
def test_one_variable_deform_is_a_hypothesis_failure(capsys, argv):
    # the closure of the zero deformation is R = Q, but R~ has no unit
    assert run(capsys, argv) == (1, "", ONE_VARIABLE)


@pytest.mark.parametrize("argv,limit", [
    # Buchberger ends in time; the staircase (160,000 standard monomials)
    # does not
    (["moduli", "x0^400*x1 + x1^401"], 0.05),
    (["moduli", "x0^2000000"], 0.2),
    # the first word of each piece has about 180,000 monomials
    (["dgla", CUBIC, "--degree", "1", "--weight", "600"], 0.1),
])
def test_timeout_binds_inside_the_staircase_and_the_pieces(capsys, argv,
                                                           limit):
    # a gen-2 sweep of the whole session heap inside the timed call would
    # time the test run, not the program
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        code, out, err = run(capsys, argv + ["--timeout-s", str(limit)])
        elapsed = time.perf_counter() - started
    finally:
        gc.unfreeze()
    assert code == 3
    assert out == ""
    assert err.startswith("budget exceeded: ")
    assert elapsed < 2 * limit


def test_passed_deadline_stops_a_large_piece_before_it_is_built():
    from jmoduli import BudgetExceeded, graded_piece, parse_polynomial

    started = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="in the graded pieces$"):
        graded_piece(parse_polynomial(CUBIC), 1, 3000,
                     deadline=time.perf_counter() - 1)
    assert time.perf_counter() - started < 1


def test_graded_piece_checks_the_deadline_inside_a_word(monkeypatch):
    import jmoduli.dgla as dgla
    from jmoduli import graded_piece, parse_polynomial

    checks = count_calls(monkeypatch, "check_deadline", dgla)
    piece = graded_piece(parse_polynomial(CUBIC), 1, 300)
    # at most 4096 monomials between two checks
    assert piece.dimension > 4 * 4096
    assert len(checks) >= piece.dimension / 4096


# -- fuzzing: every input ends in an exit code, never a traceback ------------

COEFFS = ("1", "2", "-1", "-3", "1/2", "-3/2", "0")


@st.composite
def forms(draw, nvars):
    """A form in nvars variables of degree at most 4, homogeneous or not,
    often a Fermat form plus a few terms."""
    degree = draw(st.integers(0, 4))
    homogeneous = draw(st.booleans())
    text = " + ".join(f"x{i}^{degree}" for i in range(nvars)
                      if draw(st.booleans()))
    for _ in range(draw(st.integers(0 if text else 1, 3))):
        d = degree if homogeneous else draw(st.integers(0, degree))
        exps = [0] * nvars
        for _ in range(d):
            exps[draw(st.integers(0, nvars - 1))] += 1
        factors = [f"x{i}^{e}" for i, e in enumerate(exps) if e]
        term = "*".join([draw(st.sampled_from(COEFFS))] + factors)
        if text:
            term = f"- {term[1:]}" if term[0] == "-" else f"+ {term}"
        text = f"{text} {term}" if text else term
    return text


@st.composite
def argvs(draw):
    nvars = draw(st.integers(1, 3))
    command = draw(st.sampled_from(["check", "moduli", "deform", "dgla"]))
    options = ["--timeout-s", "2", "--max-pairs", "50"]
    if draw(st.booleans()):
        options += ["--nvars", str(nvars)]
    if draw(st.booleans()):
        options.append("--json")
    if command == "dgla":
        options += [f"--degree={draw(st.integers(-2, 2))}",
                    f"--weight={draw(st.integers(-6, 6))}"]
    positional = [draw(forms(nvars))]
    if command == "deform":
        positional.append(draw(st.just("") | forms(nvars)))
    # after "--" a form with a leading minus is not read as an option
    return [command, *options, "--", *positional]


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_fuzz_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code and not out.getvalue():  # check and dgla report a failed verdict
        assert len(err.getvalue().splitlines()) == 1


def run_sequence(argvs):
    """(exit code, stdout, stderr) of main over each argv in turn, with
    timing_ms zeroed; a usage error and --version end in SystemExit."""
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
        results.append((code, re.sub(r'"timing_ms": \d+', '"timing_ms": 0',
                                     out.getvalue()), err.getvalue()))
    return results


def test_one_parser_serves_every_call_like_a_fresh_one(monkeypatch, tmp_path):
    from jmoduli import cli

    path = tmp_path / "g.txt"
    path.write_text("x0*x1*x2\n")
    sequence = [
        ["check", CUBIC], ["check", CUBIC, "--json"],
        ["moduli", CUBIC], ["moduli", CUBIC, "--json"],
        ["deform", CUBIC, "--g-file", str(path), "--json"],
        ["deform", CUBIC, "x0^2*x1"], ["deform", CUBIC, "x0^2*x1", "--json"],
        ["dgla", CUBIC, "--degree", "1", "--weight=-3"],
        ["dgla", CUBIC, "--degree", "1", "--weight=-3", "--json"],
        ["moduli"], ["--version"], ["check", "x0^3+x1^3", "--nvars", "3"],
    ]
    cached = run_sequence(sequence)
    assert [code for code, _, _ in cached] == [
        0, 0, 0, 0, 0, 0, 0, 0, 0, ("exit", 2), ("exit", 0), 1]
    # the g of the --g-file call does not carry over to the next deform
    assert '"g": "x0*x1*x2"' in cached[4][1]
    assert "g = x0^2*x1" in cached[5][1]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run_sequence(sequence) == cached
