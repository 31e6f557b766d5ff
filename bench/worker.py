"""Run one workload in this fresh process and print its result as JSON.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S
       [--trace 0|1] [--setup-only] [--tiny]

Set-up imports `exchase` from the checkout's `src/` and generates the input.
Then the process calls `exchase.cli.main` on it repeatedly, each call checked
against the workload's expected report, until the next call would end after
`--seconds` (at least MIN_CALLS calls). With `--trace 1` untraced and traced
calls alternate: the traced ones give the per-layer numbers, the untraced
ones the raw wall_s, cpu_s and slowdown. `run.py`
starts this script; it is not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_CALLS = 3
CALL_TIMEOUT_S = 60.0
PROBE_INTERVAL_S = 0.002
# Duration of one speed probe on an uncontended core of a 2.1 GHz Xeon; the
# reference-speed times below are expressed against it.
PROBE_REF_S = 5e-6


class CallTimeout(BaseException):
    """Raised by the alarm when one command runs longer than CALL_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise CallTimeout()


def _load_program():
    """Import the checkout's `exchase.cli`; refuse any other copy."""
    if not (SRC / "exchase" / "__init__.py").is_file():
        raise SystemExit("no exchase sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import exchase.cli

    if SRC.resolve() not in Path(exchase.__file__).resolve().parents:
        raise SystemExit("exchase imported from %s, not from %s" % (exchase.__file__, SRC))
    return exchase.cli


class SpeedProbe:
    """Samples how fast the CPU runs while a command runs.

    On a shared host other tenants slow every instruction by up to 2x, in
    spells of milliseconds to minutes.
    Every PROBE_INTERVAL_S of CPU time a SIGPROF handler times a fixed
    100-step loop; the mean of those times over a call, divided by
    PROBE_REF_S, is the call's slowdown. The loop is the benchmark's own
    code, so no change to the program moves it.
    """

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100):
            acc += i * i
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def slowdown(self) -> Optional[float]:
        if not self.samples:
            return None
        return statistics.mean(self.samples) / PROBE_REF_S


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Calls the command line and checks each report."""

    def __init__(self, cli, prepared):
        self.cli = cli
        self.prepared = prepared
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, probe: Optional[SpeedProbe] = None) -> tuple[float, float, dict]:
        """One checked command: (wall seconds, cpu seconds, report or {})."""
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        code, problem = None, None
        signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with probe or contextlib.nullcontext():
                    code = self.cli.main(self.prepared.argv)
        except CallTimeout:
            problem = "timeout after %.0f s" % CALL_TIMEOUT_S
        except (Exception, SystemExit) as e:  # any failure of the program is a failed call
            problem = "%s: %s" % (type(e).__name__, e)
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
            signal.setitimer(signal.ITIMER_REAL, 0)
        report: dict = {}
        if problem is None:
            try:
                report = json.loads(out.getvalue())
                self.prepared.check(code, report)
            except Exception as e:  # malformed or wrong report
                problem = "%s: %s (stderr: %s)" % (type(e).__name__, e, err.getvalue()[:200])
        if problem is not None:
            self.failures.append(problem)
        return wall, cpu, report


def _enough(start: float, seconds: float, durations: list[float], minimum: int) -> bool:
    """Stop when the next call would probably end after the time budget."""
    if len(durations) < minimum:
        return False
    return time.perf_counter() - start + statistics.median(durations) > seconds


def timed(runner: Runner, seconds: float, probe: SpeedProbe) -> dict:
    walls, cpus, slowdowns = [], [], []
    start = time.perf_counter()
    while not _enough(start, seconds, walls, MIN_CALLS):
        wall, cpu, _ = runner.call(probe)
        walls.append(wall)
        cpus.append(cpu)
        slowdowns.append(probe.slowdown())
    # A call too short for a single probe takes the run's mean slowdown.
    known = [x for x in slowdowns if x is not None] or [1.0]
    slowdowns = [statistics.mean(known) if x is None else x for x in slowdowns]
    return {"walls": walls, "cpus": cpus, "slowdowns": slowdowns}


def _layer_metrics(tracer, report: dict, wall: float) -> dict:
    st = tracer.self_times()
    incl = tracer.inclusive_times()
    c = tracer.counts
    stats = report.get("stats") or {}
    applicable = c["chase.is_applicable"]
    nodes = sum(getattr(r, "nodes", 0) for r in tracer.reports)
    hits = sum(getattr(r, "dedup_hits", 0) for r in tracer.reports)
    m = {
        "chase.discover_s": st["chase.discover"],
        "chase.discover_incl_s": incl["chase.discover"],
        "chase.discover_calls": c["chase.enumerate_triggers"],
        # The `run` report carries the program's own counters; other
        # commands report none, so the tracer counts enumerated triggers.
        "chase.triggers_considered": stats.get("triggers_considered", c["chase.triggers_considered"]),
        "chase.applicable_s": st["chase.applicable"],
        "chase.applicable_incl_s": incl["chase.applicable"],
        "chase.applicable_calls": applicable,
        "chase.applicable_yield": c["chase.applicable_true"] / applicable if applicable else 0.0,
        "chase.datalog_gate_s": st["chase.datalog_gate"],
        "chase.datalog_gate_incl_s": incl["chase.datalog_gate"],
        "chase.datalog_gate_calls": c["chase.datalog_satisfied"],
        "chase.loop_s": st["chase.loop"],
        "chase.steps": stats.get("steps", c["chase.ChaseState.apply"]),
        "chase.step_cost_growth": tracer.step_cost_growth(),
        "core.union_s": st["core.union"],
        "core.union_calls": c["core.FactBase.union"],
        "core.index_s": st["core.index"],
        "core.index_builds": c["core.FactBase.sorted_atoms"] + c["core.FactBase.by_pred"] + c["core.FactBase.by_pred_pos"],
        "hom.find_s": st["hom.find"],
        "hom.calls": c["hom.iter_homomorphisms"],
        "hom.retraction_s": st["hom.retraction"],
        "hom.retraction_calls": c["hom.exists_retraction"],
        "hom.entails_s": st["hom.entails"],
        "hom.entails_calls": c["hom.entails"],
        "hom.canonical_code_s": st["hom.canonical_code"],
        "hom.canonical_code_calls": c["hom.canonical_code"],
        "analysis.explore_s": st["analysis.explore"],
        "analysis.explore_nodes": nodes,
        "analysis.dedup_hits": hits,
        "analysis.dedup_hit_rate": hits / (hits + nodes) if nodes else 0.0,
        "analysis.find_terminating_s": st["analysis.find_terminating"],
        "analysis.entails_s": st["analysis.entails"],
        "analysis.classify_s": st["analysis.classify"],
        "normalize.s": st["normalize"],
        "textio.parse_s": st["textio.parse"],
        "cli.self_s": st["cli"],
    }
    shares = {layer: s / wall for layer, s in st.items() if wall > 0}
    return {"metrics": m, "shares": shares}


def traced(runner: Runner, seconds: float, spans_path: Path, probe: SpeedProbe) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    plain, cpus, slowdowns, walls, per_call = [], [], [], [], []
    start = time.perf_counter()
    while not _enough(start, seconds, [a + b for a, b in zip(plain, walls)], 1):
        wall, cpu, _ = runner.call(probe)
        plain.append(wall)
        cpus.append(cpu)
        slowdowns.append(probe.slowdown() or 1.0)
        tracer.reset()
        tracer.install()
        try:
            wall, _, report = runner.call()
        finally:
            tracer.uninstall()
        walls.append(wall)
        per_call.append(_layer_metrics(tracer, report, wall))
    tracer.write_spans(spans_path)
    metrics = {}
    for k, first in per_call[0]["metrics"].items():
        values = [c["metrics"][k] for c in per_call]
        # Counts stay whole numbers; they repeat exactly from call to call.
        metrics[k] = statistics.median_low(values) if isinstance(first, int) else statistics.median(values)
    base = statistics.median(plain)
    metrics["trace.overhead_share"] = (statistics.median(walls) - base) / base
    # Raw times of the untraced calls, so that a claim made on the
    # reference-speed times can be checked against unscaled figures too.
    metrics["wall_s"] = base
    metrics["cpu_s"] = statistics.median(cpus)
    metrics["slowdown"] = statistics.median(slowdowns)
    shares = {k: statistics.median(c["shares"][k] for c in per_call) for k in per_call[0]["shares"]}
    return {"metrics": metrics, "shares": shares, "traced_calls": len(walls)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        probe = SpeedProbe()
        with probe:
            t0 = time.perf_counter()
            cli = _load_program()
            prepared = workloads.prepare(args.workload, args.seed, Path(work), tiny=args.tiny)
            setup_s = time.perf_counter() - t0
        result: dict = {"setup_s": setup_s, "setup_slowdown": probe.slowdown() or 1.0}
        if not args.setup_only:
            runner = Runner(cli, prepared)
            if args.trace:
                spans = OUT / ("%s.seed%d.spans.json" % (args.workload, args.seed))
                result.update(traced(runner, args.seconds, spans, probe))
            else:
                result.update(timed(runner, args.seconds, probe))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["attempted"] = runner.attempted
            result["failures"] = runner.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
