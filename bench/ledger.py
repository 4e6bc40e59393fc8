"""Benchmark ledger: one JSON file of end-to-end medians and case timings
for a commit and its parent, measured in the same session.

Usage, from the root of a git checkout:

    python3 bench/ledger.py --out BENCH_13.json
    python3 bench/ledger.py --check BENCH_*.json

The parent (HEAD~1) and HEAD are each exported with ``git archive``
into a fresh temporary directory.  Every workload of BENCHMARK.json runs
there through ``perfbench/run.py`` as a subprocess, for the benchmark's
run_seconds, once per seed 61-70, as pairs of runs whose order
alternates from seed to seed, so that drifts in machine speed hit both
revisions alike.
``.bench_build/`` is removed after each run, so no run reads the result
digests of an earlier one; the digests of argvs that both revisions ran
must agree, or the ledger exits 1.  A workload's entry is the median of
each end-to-end metric over the seeds; runs keeps every run, by seed.

The cases time library stages in a child interpreter on the copy's
src/: the deform stages (closure, then product table) of two deform
cases, graded_quotient of the dense quartic of the golden files for
moduli_dense_quartic, and cohomology_report at the largest dgla_spots
piece: the minimum of three wall times, and the Stats counters of one
run.  A revision whose graded_quotient or cohomology_report takes no
stats records no counters for that case, and a stage is given a
RingContext only in a revision whose signature still has ctx.

File layout: {commit, python, settings, workloads: {name: {metric:
median}}, runs: {name: [{metric: value}]}, cases: {name: {wall_ms,
counters}}, parent: {commit, workloads, runs, cases}, digests: {shared,
differ}}.  check() validates it, and its settings against the seeds and
run_seconds above, without looking at the timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REVS = {"parent": "HEAD~1", "head": "HEAD"}
SETTINGS = {"seeds": list(range(61, 71)), "seconds": BENCH["run_seconds"]}
QUARTIC = "x0^4 + x1^4 + x2^4 + x3^4"
DENSE_QUARTIC = (
    QUARTIC + " + 2*x0^2*x1*x2 - x1*x2*x3^2 + 3*x0*x1*x2*x3 - x0^2*x3^2"
    " + x1^3*x3 - 2*x0*x2^3 + x0*x1^2*x3 - 3*x2^2*x3^2 + x0*x1*x2^2"
    " + 2*x1^2*x2*x3")
QUINTIC = "x0^5 + x1^5 + x2^5 + x3^5 + x4^5"
# name: (f, g) to deform f along g, (f, None) for graded_quotient of f, or
# (f, [degree, weight]) for cohomology_report at that spot
CASES = {
    "deform_quartic_jump": (QUARTIC, "x0^8"),
    "deform_quartic_square": (QUARTIC, "x0^2*x1^2*x2^2*x3^2"),
    "moduli_dense_quartic": (DENSE_QUARTIC, None),
    "dgla_quintic_perturbed": (QUINTIC + " + 2*x0^2*x1^2*x2", [0, 3]),
}
CASE_SCRIPT = """
import inspect, json, sys, time
from jmoduli import (cohomology_report, deformed_subalgebra, graded_quotient,
                     parse_polynomial, weight_of_or_none)
from jmoduli.extended import extended_from_closure
from jmoduli.stats import Stats


def counted(stage, stats):
    return ({"stats": stats} if "stats" in inspect.signature(stage).parameters
            else {})


# (RingContext,) for a revision whose stage still takes ctx, else ()
def ring(stage, f):
    if "ctx" not in inspect.signature(stage).parameters:
        return ()
    from jmoduli.polys import RingContext
    return (RingContext(f.nvars, weight_of_or_none(f)),)


out = {}
for name, (f_text, g_text) in json.loads(sys.argv[1]).items():
    f = parse_polynomial(f_text)
    walls = []
    for _ in range(3):
        stats = Stats()
        start = time.perf_counter()
        if g_text is None:
            graded_quotient(f, *ring(graded_quotient, f),
                            **counted(graded_quotient, stats))
        elif isinstance(g_text, list):
            cohomology_report(f, *g_text, **counted(cohomology_report, stats))
        else:
            g = parse_polynomial(g_text, f.nvars)
            data = deformed_subalgebra(f, g, *ring(deformed_subalgebra, f),
                                       stats=stats)
            extended_from_closure(data, *ring(extended_from_closure, f),
                                  stats=stats)
        walls.append(time.perf_counter() - start)
    out[name] = {"wall_ms": round(min(walls) * 1e3, 3),
                 "counters": stats.counters}
print(json.dumps(out))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """A fresh copy of the tree of rev, with no build or digest files."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_workload(copy: Path, workload: str, seed: int, seconds: float,
                 digests: dict) -> dict:
    """End-to-end metrics of one run; its digests are merged into digests."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=copy, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{copy.name} {workload} seed {seed}: failed jobs")
    build = copy / ".bench_build"
    with open(build / "perfbench" / f"digests-{workload}.json",
              encoding="utf-8") as handle:
        digests.update(json.load(handle))
    shutil.rmtree(build)
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_cases(copy: Path, cases: dict = CASES) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CASE_SCRIPT, json.dumps(cases)],
        cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
        check=True,
        capture_output=True, text=True)
    return json.loads(proc.stdout)


def measure() -> dict:
    names = [w["name"] for w in BENCH["workloads"]]
    revs = {side: git("rev-parse", rev) for side, rev in REVS.items()}
    runs = {side: {name: [] for name in names} for side in revs}
    digests = {side: {name: {} for name in names} for side in revs}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {side: export(rev, Path(tmp) / side)
                  for side, rev in revs.items()}
        for name in names:
            for i, seed in enumerate(SETTINGS["seeds"]):
                # which side runs first alternates from seed to seed
                for side in sorted(copies, reverse=i % 2 == 1):
                    print(f"{side} {name} seed {seed}", file=sys.stderr)
                    runs[side][name].append(run_workload(
                        copies[side], name, seed, SETTINGS["seconds"],
                        digests[side][name]))
        cases = {side: run_cases(copy) for side, copy in copies.items()}
    shared = differ = 0
    for name in names:
        a, b = digests["parent"][name], digests["head"][name]
        common = a.keys() & b.keys()
        shared += len(common)
        differ += sum(a[k] != b[k] for k in common)

    def medians(side: str) -> dict:
        return {name: {metric: statistics.median(r[metric] for r in rs)
                       for metric in rs[0]}
                for name, rs in runs[side].items()}

    return {
        "commit": revs["head"],
        "python": platform.python_version(),
        "settings": SETTINGS,
        "workloads": medians("head"),
        "runs": runs["head"],
        "cases": cases["head"],
        "parent": {"commit": revs["parent"], "workloads": medians("parent"),
                   "runs": runs["parent"], "cases": cases["parent"]},
        "digests": {"shared": shared, "differ": differ},
    }


def check(doc: dict) -> list[str]:
    """Problems with the layout of a ledger file; timings are not judged."""
    workloads = {w["name"] for w in BENCH["workloads"]}
    metrics = {m["name"] for m in BENCH["end_to_end"]}
    problems = []

    def side(part: dict, where: str) -> None:
        if not (isinstance(part.get("commit"), str)
                and len(part["commit"]) == 40):
            problems.append(f"{where}commit is not a full sha")
        got = part.get("workloads", {})
        if set(got) != workloads:
            problems.append(f"{where}workloads {sorted(got)}")
        for name, values in got.items():
            if set(values) != metrics or not all(
                    isinstance(v, (int, float)) for v in values.values()):
                problems.append(f"{where}{name}: metrics {sorted(values)}")
        cases = part.get("cases", {})
        if not cases:
            problems.append(f"{where}no cases")
        for name, case in cases.items():
            if not (isinstance(case.get("wall_ms"), (int, float))
                    and isinstance(case.get("counters"), dict)
                    and all(type(v) is int
                            for v in case["counters"].values())):
                problems.append(f"{where}case {name}")

    side(doc, "")
    side(doc.get("parent", {}), "parent.")
    if doc.get("settings") != SETTINGS:
        problems.append(f"settings {doc.get('settings')}, not {SETTINGS}")
    if not isinstance(doc.get("python"), str):
        problems.append("python version missing")
    digests = doc.get("digests", {})
    if not (isinstance(digests.get("shared"), int)
            and digests.get("differ") == 0):
        problems.append(f"digests {digests}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--check", type=Path, nargs="+")
    args = parser.parse_args(argv)
    if args.check:
        bad = False
        for path in args.check:
            for problem in check(json.loads(path.read_text())):
                print(f"{path}: {problem}")
                bad = True
        return 1 if bad else 0
    if args.out is None:
        parser.error("pass --out FILE or --check FILE...")
    doc = measure()
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if doc["digests"]["differ"]:
        print(f"{doc['digests']['differ']} result digests differ",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
