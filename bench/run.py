"""Benchmark of the exchase chase engine.

Usage, from the root of a checkout:

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs all four workloads, one after another. Each
workload runs in its own fresh subprocess (never in parallel); with
--trace 0 it is preceded by SETUP_PROBES - 1 further subprocesses that only
do the set-up, so that `setup_s` is a median. The command prints every
metric by name and unit, and as its last line one JSON object: the result
of the workload, or with all workloads a mapping from workload name to
result.

With --trace 0 the result holds the end-to-end metrics: wall_ref_s and
cpu_ref_s (lower quartile over calls of the wall and CPU time of one
command, each call divided by the CPU slowdown measured during it; see
worker.SpeedProbe), peak_rss_mb, and setup_s (set-up time, likewise
divided by its slowdown). The raw
medians wall_s, cpu_s and raw_setup_s and the slowdown are printed above
it. With --trace 1 the result holds the per-layer metrics of traced calls
and the raw wall_s, cpu_s and slowdown of the untraced calls between them.
`correct` is false when any command failed or reported a wrong
result; `failed / attempted` is the fail share.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import CALL_TIMEOUT_S  # noqa: E402
from workloads import NAMES  # noqa: E402

SETUP_PROBES = 9
# The measuring time in BENCHMARK.json is the default of --seconds.
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

UNITS = {"wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class WorkerError(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def _worker(args, name: str, *extra: str) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    # The program's work follows set and dict order: classify-corpus, whose
    # input is fixed, makes up to 7% more calls under one hash seed than
    # another. So every worker hashes strings alike and only the inputs
    # follow --seed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    # The last call may start just before the measuring time ends, and with
    # --trace 1 it is an untraced/traced pair: two calls of at most
    # CALL_TIMEOUT_S each.
    timeout = args.seconds + 2 * CALL_TIMEOUT_S + 20
    try:
        proc = subprocess.run(cmd + list(extra), capture_output=True, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        raise WorkerError("%s: worker ran longer than %d s" % (name, timeout))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError("%s: worker exit %d\n%s" % (name, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(walls: list[float]) -> str:
    """Highest percentile with at least ten samples above it."""
    n = len(walls)
    p = 100 * (n - 10) // n
    if p <= 50:
        return "no tail percentile: %d samples, needs 20 or more" % n
    q = statistics.quantiles(walls, n=100, method="inclusive")[p - 1]
    return "p%d %.4f s" % (p, q)


def _lower_quartile(values: list[float]) -> float:
    """Every call of a run does the same work, so their times differ only by
    host noise, which adds time: spells where other tenants slow the program
    more than the speed probe last tens of seconds. The lower quartile drops
    the calls that overlap such a spell without resting on the single
    fastest call."""
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def run_workload(args, name: str) -> dict:
    # setup_s is only reported with --trace 0.
    probes = [] if args.trace else [_worker(args, name, "--setup-only") for _ in range(SETUP_PROBES - 1)]
    res = _worker(args, name)
    probes.append(res)
    setups = [r["setup_s"] / r["setup_slowdown"] for r in probes]
    failed = len(res["failures"])
    attempted = res["attempted"]
    for problem in res["failures"][:5]:
        print("%s: FAILED %s" % (name, problem[:500]))
    if failed > 5:
        print("%s: ... and %d more failed calls" % (name, failed - 5))
    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(res["metrics"].items())}
        shares = sorted(res["shares"].items(), key=lambda kv: -kv[1])
        print("%s: %d traced calls; self-time shares of traced wall: %s" % (
            name, res["traced_calls"],
            ", ".join("%s %.1f%%" % (k, 100 * v) for k, v in shares if v >= 0.005),
        ))
    else:
        slow = res["slowdowns"]
        values = {
            "wall_ref_s": _lower_quartile([w / x for w, x in zip(res["walls"], slow)]),
            "cpu_ref_s": _lower_quartile([c / x for c, x in zip(res["cpus"], slow)]),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        print("%s: wall_s median of %d calls; %s" % (name, len(res["walls"]), _tail(res["walls"])))
        raw = (
            ("wall_s", statistics.median(res["walls"])),
            ("cpu_s", statistics.median(res["cpus"])),
            ("slowdown", statistics.median(slow)),
            ("raw_setup_s", statistics.median(r["setup_s"] for r in probes)),
        )
        for k, v in raw:
            print("%-16s %-28s %14.6g %s" % (name, k, v, "ratio" if k == "slowdown" else "s"))
    for k, m in metrics.items():
        print("%-16s %-28s %14.6g %s" % (name, k, m["value"], m["unit"]))
    print("%-16s %-28s %14.6g %s (%d of %d)" % (name, "fail_share", failed / attempted, "ratio", failed, attempted))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric == "normalize.s":
        return "s"
    if metric == "slowdown" or metric.endswith(("_yield", "_rate", "_share", "_growth")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="exchase chase benchmark")
    parser.add_argument("--workload", choices=NAMES, help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (classify-corpus ignores it)")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(NAMES)
    try:
        results = {name: run_workload(args, name) for name in names}
    except WorkerError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
