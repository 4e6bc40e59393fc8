"""What the CI check of the ledger layout (bench/ledger.py --check) does
not cover: the counters of the cases, and that check() finds a broken
file."""

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


def test_committed_ledger_cases_carry_the_deform_counters():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        doc = json.loads(path.read_text())
        for name, case in doc["cases"].items():
            if name.startswith("deform_"):
                assert {"closure_products", "closure_distinct",
                        "table_products", "table_distinct"} <= set(
                            case["counters"])
            if name.startswith("moduli_"):
                assert {"pairs", "basis_len", "divisor_memo",
                        "standard_monomials"} <= set(case["counters"])
            if name.startswith("dgla_"):
                assert {"piece_dim", "out_nnz", "out_rank", "in_nnz",
                        "in_rank"} <= set(case["counters"])


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
