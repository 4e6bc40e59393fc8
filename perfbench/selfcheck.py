"""Self-check of the benchmark harness, at the shortest run length.

    python3 perfbench/selfcheck.py

For every workload it runs one untraced and one traced round and asserts
that every metric named in BENCHMARK.json appears with its unit, and that
each job's spans form trees rooted at cli.main.  It then runs one job
with a wrong expectation and asserts that the failure reaches
error_rate.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads


def result_of(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    child = subprocess.run(cmd, capture_output=True, text=True, check=True,
                           cwd=run.ROOT, timeout=600)
    return json.loads(child.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics {sorted(set(got) ^ set(want))} differ"


def check_span_roots(workload: str) -> None:
    with open(run.OUT / f"spans-{workload}-1.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    spans, names = doc["spans"], doc["names"]
    main_id = names.index("cli.main")
    roots_per_job: dict[int, int] = {}
    for nid, parent, job in zip(spans["name"], spans["parent"], spans["job"]):
        assert job >= 0, f"{workload}: span {names[nid]} outside a job"
        if parent < 0:
            assert nid == main_id, f"{workload}: span tree rooted at {names[nid]}"
            roots_per_job[job] = roots_per_job.get(job, 0) + 1
        else:
            assert spans["job"][parent] == job, f"{workload}: parent in another job"
    for job in doc["jobs"]:
        assert roots_per_job.get(job["id"]) == len(job["argv"]), job


def check_injected_failure() -> None:
    sys.path.insert(0, str(run.SRC))
    from jmoduli import cli

    f, direction, dim, dim_deformed = workloads.DEFORM_DIRECTIONS["cubic_jump"]
    argv = ("deform", "--json", f, "--", direction)
    right = {"dim_extended": dim, "dim_extended_deformed": dim_deformed}
    wrong = {"dim_extended": dim, "dim_extended_deformed": dim_deformed + 1}
    runner = run.Runner(cli, {})
    for expect, want_rate in ((right, 0.0), (wrong, 1.0)):
        job = workloads.Job("cubic_jump", (workloads.Call(argv, expect),))
        summary = run.summarize(runner.run_jobs([[job]]))
        assert summary["error_rate"] == want_rate, (expect, summary)


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        check_metrics(result_of(workload, 0), bench["end_to_end"], workload)
        check_metrics(result_of(workload, 1), bench["per_layer"], f"{workload} traced")
        check_span_roots(workload)
        print(f"{workload}: metrics and span roots ok", flush=True)
    check_injected_failure()
    print("injected wrong expectation counted in error_rate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
