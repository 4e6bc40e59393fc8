"""Benchmark of the jmoduli command line pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload moduli_mix --seed 1 --seconds 25 --trace 0

One client in one process and one thread runs a closed loop of jobs; each
job is one or two in-process calls to ``jmoduli.cli.main(argv)`` with
``--json``.  Jobs come in rounds of fixed family proportions (see
``workloads.py``) and the run stops at the first round boundary after
``--seconds`` of scaled job time.  Results are checked outside the timed region.

The machine this was written on changes speed by up to 1.7x, for all
code alike, in spells of seconds to minutes.  So a fixed probe of about
2 ms (``probe_s``) is timed every 50 ms while a job runs, and each job
time is scaled to a machine on which the probe takes PROBE_NOMINAL_S:
wall time * nominal / mean probe time.  The probes add about 4% to the
wall time.  The unscaled wall-clock figures are printed next to the
scaled ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop with every layer wrapped (see ``layers.py``), replays the same jobs
untraced to measure the tracing overhead, and prints the per-layer
metrics.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Spans and result digests are written under ``.bench_build/perfbench/``.
The exit code is 2, with no result line, when the program's sources are
not in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_SPAWNS = 20
# Reported times are scaled to a machine on which probe_s() takes this long.
PROBE_NOMINAL_S = 0.0018
PROBE_INTERVAL_S = 0.05
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import jmoduli.cli\n"
    "jmoduli.cli.build_parser()\n"
    "print(time.monotonic())\n"
)


def probe_s() -> float:
    """Seconds this machine takes now for a fixed sliver of exact arithmetic
    (about 2 ms): Fraction sums into a dict keyed by tuples, the program's
    inner loop in miniature.  It lives here, so no program change moves it."""
    started = time.perf_counter()
    acc: dict = {}
    for i in range(400):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i, 3)
    return time.perf_counter() - started


class SpeedProbe:
    """Samples probe_s() every PROBE_INTERVAL_S while a job runs, from a
    SIGALRM handler, plus once just before and once just after the job."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe_s())

    def __enter__(self) -> "SpeedProbe":
        self.samples = [probe_s()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe_s())

    def mean(self) -> float:
        return statistics.fmean(self.samples)


def measure_setup_s(spawns: int) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter until it has imported
    jmoduli.cli and built the parser, scaled and unscaled.

    The child reports the monotonic clock, which all processes share, so
    its exit is not counted.  Each spawn is scaled by probes taken just
    before and just after it.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)  # writes .pyc files
    scaled, wall = [], []
    for _ in range(spawns):
        before = [probe_s() for _ in range(4)]
        started = time.monotonic()
        child = subprocess.run(cmd, check=True, capture_output=True, text=True,
                               timeout=60)
        elapsed = float(child.stdout) - started
        speed = statistics.fmean(before + [probe_s() for _ in range(4)])
        wall.append(elapsed)
        scaled.append(elapsed * PROBE_NOMINAL_S / speed)
    return statistics.median(scaled), statistics.median(wall)


def run_call(cli, argv) -> tuple[int | None, float, dict | None]:
    """Run one argv in-process; returns (exit code, seconds, JSON report).

    The exit code is None when main raised; the traceback goes to stderr.
    """
    out = io.StringIO()
    rc = failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            failure = traceback.format_exc()
        elapsed = time.perf_counter() - started
    if failure is not None:
        print(f"job {argv!r} raised:\n{failure}", file=sys.stderr)
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    return rc, elapsed, report


def digest(report: dict | None) -> str:
    result = report.get("result") if report else None
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Record:
    job: workloads.Job
    wall_s: float  # time spent in cli.main
    probe_s: float  # mean probe_s() while the job ran
    problems: list[str]

    @property
    def scaled_s(self) -> float:
        return self.wall_s * PROBE_NOMINAL_S / self.probe_s


class Runner:
    """Runs jobs, checks their results, and keeps result digests.

    A digest is kept per argv.  An argv seen before, in this run or in an
    earlier run in this checkout, must give a byte-identical result.
    """

    def __init__(self, cli, digests: dict[str, str], tracer=None) -> None:
        self.cli = cli
        self.digests = digests
        self.tracer = tracer

    def passes_check(self, form: str) -> bool:
        rc, _, report = run_call(self.cli, ("check", "--json", form))
        return rc == 0 and bool(report) and report["result"].get("pass") is True

    def run_job(self, job: workloads.Job, index: int) -> Record:
        gc.collect()
        seconds = 0.0
        outcomes = []
        tracing = (self.tracer.recording(index) if self.tracer is not None
                   else contextlib.nullcontext())
        with tracing, SpeedProbe() as speed:
            for call in job.calls:
                rc, elapsed, report = run_call(self.cli, call.argv)
                seconds += elapsed
                outcomes.append((call, rc, report))
        problems = []
        for call, rc, report in outcomes:
            found = workloads.check_result(call, rc, report)
            result_digest = digest(report)
            if not found and self.digests.setdefault(json.dumps(call.argv),
                                                     result_digest) != result_digest:
                found.append("result differs from an earlier run of the same argv")
            problems += [f"{' '.join(call.argv)}: {p}" for p in found]
        return Record(job, seconds, speed.mean(), problems)

    def run_jobs(self, jobs, seconds: float | None = None) -> list[Record]:
        """Run jobs round by round; with seconds set, stop at the first round
        boundary after that much scaled time in main.  Counting scaled time
        keeps the number of rounds, and so the mix, the same whatever the
        machine's speed."""
        records = []
        spent = 0.0
        for round_jobs in jobs:
            for job in round_jobs:
                record = self.run_job(job, len(records))
                for problem in record.problems:
                    print(f"FAILED {problem}", file=sys.stderr)
                records.append(record)
                spent += record.scaled_s
            if seconds is not None and spent >= seconds:
                break
        return records


def load_digests(path: Path) -> dict[str, str]:
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def save_digests(path: Path, digests: dict[str, str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)


def summarize(records: list[Record]) -> dict:
    scaled = [r.scaled_s for r in records]
    failed = sum(1 for r in records if r.problems)
    return {
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "jobs_per_s": len(scaled) / sum(scaled),
        "job_s.p50": statistics.median(scaled),
        "wall_jobs_per_s": len(records) / sum(r.wall_s for r in records),
        "wall_job_s.p50": statistics.median(r.wall_s for r in records),
        "probe_s": statistics.median(r.probe_s for r in records),
    }


def end_to_end(args, runner: Runner, stats: dict) -> dict:
    stream = workloads.rounds(args.workload, args.seed, runner.passes_check, stats)
    records = runner.run_jobs(stream, args.seconds)
    summary = summarize(records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s, wall_setup_s = measure_setup_s(SETUP_SPAWNS)
    values = {
        "jobs_per_s": summary["jobs_per_s"],
        "job_s.p50": summary["job_s.p50"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{args.workload} seed {args.seed}: {summary['attempted']} jobs, "
          f"{sum(r.wall_s for r in records):.2f} s in main, "
          f"{stats['redraws']} redraws, speed probe "
          f"{summary['probe_s'] * 1e3:.4f} ms (nominal {PROBE_NOMINAL_S * 1e3} ms)")
    for name, value in values.items():
        note = f"  (n={summary['attempted']})" if name == "job_s.p50" else ""
        print(f"  {name:12s} {value:.6g} {END_TO_END_UNITS[name]}{note}")
    print(f"  {'error_rate':12s} {summary['error_rate']:.6g} ratio"
          f"  ({summary['failed']}/{summary['attempted']})")
    print(f"  unscaled wall clock: jobs_per_s {summary['wall_jobs_per_s']:.6g}, "
          f"job_s.p50 {summary['wall_job_s.p50']:.6g} s, setup_s {wall_setup_s:.6g} s")
    families: dict[str, list[float]] = {}
    for r in records:
        families.setdefault(r.job.family, []).append(r.scaled_s)
    for family, times in families.items():
        print(f"  family {family:14s} n={len(times):3d} "
              f"median {statistics.median(times):.3f} s")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in values.items()}
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def traced(args, runner: Runner, stats: dict) -> dict:
    from layers import PER_LAYER, Tracer

    tracer = Tracer()
    traced_runner = Runner(runner.cli, runner.digests, tracer)
    stream = workloads.rounds(args.workload, args.seed, runner.passes_check, stats)
    records = traced_runner.run_jobs(stream, args.seconds)
    replay = runner.run_jobs([[r.job for r in records]])
    summary = summarize(records)
    untraced = summarize(replay)
    metrics = tracer.metrics()
    overhead = untraced["jobs_per_s"] / summary["jobs_per_s"] - 1
    failed = sum(1 for a, b in zip(records, replay) if a.problems or b.problems)
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    metrics["trace.absent"] = {"value": len(tracer.absent), "unit": "count"}
    metrics["error_rate"] = {"value": failed / len(records), "unit": "ratio"}
    roots = tracer.root_names()
    jobs = [{"id": i, "family": r.job.family, "wall_s": r.wall_s,
             "argv": [list(call.argv) for call in r.job.calls]}
            for i, r in enumerate(records)]
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
    tracer.write(spans_path, jobs)
    print(f"{args.workload} seed {args.seed} traced: {summary['attempted']} jobs, "
          f"{len(tracer.span_name)} spans, roots {sorted(roots)}, "
          f"{stats['redraws']} redraws, spans in {spans_path.relative_to(ROOT)}")
    print(f"  traced jobs_per_s {summary['jobs_per_s']:.6g}, untraced replay "
          f"{untraced['jobs_per_s']:.6g}, overhead {overhead:.1%}")
    if tracer.absent:
        print(f"  absent: {', '.join(tracer.absent)}")
    if tracer.unobservable:
        print(f"  unobservable counters: {', '.join(sorted(tracer.unobservable))}")
    for name in PER_LAYER:
        print(f"  {name:44s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    return {"correct": failed == 0 and roots <= {"cli.main"},
            "attempted": summary["attempted"], "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jmoduli" / "cli.py").is_file():
        print(f"error: no jmoduli sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from jmoduli import cli

    digests_path = OUT / f"digests-{args.workload}.json"
    runner = Runner(cli, load_digests(digests_path))
    stats: dict = {}
    if args.trace:
        result = traced(args, runner, stats)
    else:
        result = end_to_end(args, runner, stats)
    save_digests(digests_path, runner.digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
