"""What the CI check of the ledger layout (bench/ledger.py --check) does
not cover: the counters of the cases, that the case script still runs on
this tree's library, and that check() finds a broken file."""

import copy
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_ledger():
    spec = importlib.util.spec_from_file_location(
        "bench_ledger", ROOT / "bench" / "ledger.py")
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    return ledger


# case name prefix -> counters its cases must carry
COUNTERS = {
    "deform_": {"closure_products", "closure_distinct", "table_products",
                "table_distinct"},
    "moduli_": {"pairs", "basis_len", "divisor_memo", "standard_monomials"},
    "dgla_": {"piece_dim", "out_nnz", "out_rank", "in_nnz", "in_rank"},
}


def assert_counters(cases):
    for name, case in cases.items():
        for prefix, want in COUNTERS.items():
            if name.startswith(prefix):
                assert want <= set(case["counters"]), name


def test_committed_ledger_cases_carry_the_deform_counters():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        assert_counters(json.loads(path.read_text())["cases"])


def test_case_script_runs_on_this_tree():
    # a library signature that the script no longer fits fails here, not
    # at the end of a ledger run
    cubic = "x0^3 + x1^3 + x2^3"
    cases = load_ledger().run_cases(ROOT, {
        "deform_cubic": (cubic, "x0*x1*x2"), "moduli_cubic": (cubic, None),
        "dgla_cubic": (cubic, [0, 0])})
    assert sorted(cases) == ["deform_cubic", "dgla_cubic", "moduli_cubic"]
    assert_counters(cases)


def test_check_reports_a_broken_layout():
    ledger = load_ledger()
    doc = json.loads(sorted(ROOT.glob("BENCH_*.json"))[-1].read_text())
    broken = copy.deepcopy(doc)
    del broken["workloads"]["deform_pencil"]
    broken["parent"]["commit"] = "HEAD"
    broken["digests"]["differ"] = 1
    broken["settings"]["seconds"] = 5
    assert ledger.check(doc) == []
    assert len(ledger.check(broken)) == 4
