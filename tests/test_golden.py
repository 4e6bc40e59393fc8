"""Golden --json outputs: the byte-stable part of the report must not change.

Each case is a CLI argv; its golden file under tests/golden/ holds the
``--json`` report with ``timing_ms`` removed, dumped the way the CLI
dumps it.  Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from jmoduli.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CUBIC = "x0^3 + x1^3 + x2^3"
QUARTIC = "x0^4 + x1^4 + x2^4 + x3^4"
QUINTIC = "x0^5 + x1^5 + x2^5 + x3^5 + x4^5"
DENSE_QUARTIC = (
    QUARTIC + " + 2*x0^2*x1*x2 - x1*x2*x3^2 + 3*x0*x1*x2*x3 - x0^2*x3^2"
    " + x1^3*x3 - 2*x0*x2^3 + x0*x1^2*x3 - 3*x2^2*x3^2 + x0*x1*x2^2"
    " + 2*x1^2*x2*x3")

CASES = {
    "check_dense_quartic": ["check", DENSE_QUARTIC],
    "moduli_cubic": ["moduli", CUBIC],
    "moduli_quartic": ["moduli", QUARTIC],
    "moduli_quintic": ["moduli", QUINTIC],
    "moduli_dense_quartic": ["moduli", DENSE_QUARTIC],
    "deform_cubic_hesse": ["deform", CUBIC, "x0*x1*x2"],
    "deform_quartic_transverse": ["deform", QUARTIC, "x0*x1*x2*x3"],
    "deform_quartic_jump": ["deform", QUARTIC, "x0^8"],
    # rational coefficients in f and g: the closure and the product table
    # carry denominators into the printed structure constants
    "deform_quartic_pencil": ["deform", QUARTIC, "5/3*x0^8"],
    "deform_cubic_rational": ["deform", "x0^3 + x1^3 + x2^3 - 3/2*x0*x1*x2",
                              "2/7*x0^3*x1^3*x2^3 - 1/3*x0^3"],
    "deform_cubic_weighted": ["deform", "1/2*x0^3 + 1/3*x1^3 + 1/5*x2^3",
                              "7/11*x0*x1*x2"],
    "dgla_quintic": ["dgla", QUINTIC, "--degree", "1", "--weight", "2"],
    "dgla_quartic_low": ["dgla", QUARTIC, "--degree", "-1", "--weight", "6"],
    "dgla_quartic_mid": ["dgla", QUARTIC, "--degree", "0", "--weight", "4"],
    "dgla_quintic_perturbed": ["dgla", QUINTIC + " + 2*x0^2*x1^2*x2",
                               "--degree", "1", "--weight", "2"],
    # one-letter words of L in two and one variables, where F has no room
    # for words at all
    "dgla_conic": ["dgla", "x0^2 + x1^2", "--degree", "0", "--weight", "0"],
    "dgla_linear": ["dgla", "x0", "--degree", "0", "--weight", "0"],
    # rational coefficients: the differential clears their denominators
    "dgla_cubic_rational": ["dgla", "x0^3 + x1^3 + x2^3 - 3/2*x0*x1*x2",
                            "--degree", "1", "--weight=-3"],
    "dgla_quartic_rational": ["dgla", QUARTIC + " + 2/3*x0^2*x1*x2",
                              "--degree", "0", "--weight", "4"],
}


def stable_report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    assert code == 0
    report = json.loads(out.getvalue())
    del report["timing_ms"]
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert stable_report(CASES[name]) == expected


@pytest.mark.parametrize("name", [n for n in sorted(CASES)
                                  if n.startswith("deform_")])
def test_products_template_matches_json_dumps(name):
    from jmoduli.cli import _dumps

    report = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert report["result"]["products"]
    assert _dumps(report) == json.dumps(report, indent=2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(CASES[name] + ["--json"]) == 0
    assert out.getvalue() == json.dumps(json.loads(out.getvalue()),
                                        indent=2) + "\n"
    report["result"]["products"] = []
    assert _dumps(report) == json.dumps(report, indent=2)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.json").write_text(stable_report(argv),
                                             encoding="utf-8")
        print(f"wrote {case}")
