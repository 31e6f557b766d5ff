"""The four benchmark workloads: input generation and output checks.

Each workload turns a seed into one `.erl` file (or a fixture directory),
the `exchase` command line that processes it, and a check of the command's
exit code and JSON report against a result that does not depend on the seed.

Shapes follow ChaseBench (Benedikt et al., "Benchmarking the Chase", PODS
2017): a deep recursive Datalog chain (`tc-dfr`), data-exchange-style
existentials with half of the targets already present (`emp-ent`), the
paper's Turing-machine simulation (`tm-loop`), and the shipped termination
corpus (`classify-corpus`).

This module imports `exchase` only inside the generators, so the import is
part of the measured set-up time.
"""
from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Sizes from the workload definitions; TINY sizes are for the smoke test.
FULL = {"tc-dfr": 55, "emp-ent": 160, "tm-loop": 350, "classify-corpus": None}
TINY = {"tc-dfr": 8, "emp-ent": 16, "tm-loop": 40, "classify-corpus": None}

# Fixtures the tiny classify run leaves out because they take most of its
# time (t8: about 4 s, t2a: about 0.6 s on a shared 2-vCPU Xeon VM).
_SLOW_FIXTURES = ("t8.json", "t2a.json")


class OutputMismatch(Exception):
    """A command's exit code or report differs from the expected result."""


@dataclass
class Prepared:
    """Generated input of one workload: the command line and its check."""

    argv: list[str]
    check: Callable[[int, dict], None]


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """`count` distinct constant names in random order (lower-case start)."""
    numbers = rng.sample(range(10 * count + 100, 1000 * count + 1000), count)
    return ["%s%d" % (prefix, k) for k in numbers]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise OutputMismatch(message)


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _tc_dfr(n: int, rng: random.Random, work: Path) -> Prepared:
    """Chain of n `e` edges plus linear transitive closure, Datalog only."""
    nodes = _names(rng, "v", n + 1)
    facts = ["e(%s,%s)." % (nodes[i], nodes[i + 1]) for i in range(n)]
    rng.shuffle(facts)
    path = work / "tc.erl"
    _write(path, ["[tc1] e(X,Y) -> t(X,Y).", "[tc2] t(X,Y), e(Y,Z) -> t(X,Z)."] + facts)
    pairs = n * (n + 1) // 2

    def check(code: int, report: dict) -> None:
        _expect(code == 0, "exit code %r" % code)
        _expect(report["verdict"] == "terminated_fair", "verdict %r" % report["verdict"])
        _expect(report["steps"] == pairs, "steps %r, want %d" % (report["steps"], pairs))
        _expect(report["atoms"] == n + pairs, "atoms %r, want %d" % (report["atoms"], n + pairs))

    argv = ["run", str(path), "--variant", "dfr", "--strategy", "datalog-first"]
    return Prepared(argv + ["--max-steps", str(2 * n * n), "--json"], check)


def _emp_ent(n: int, rng: random.Random, work: Path) -> Prepared:
    """n employees, a seed-chosen half already working in a department.

    The pre-assigned half gives R-blocked triggers (a retraction search that
    succeeds); the other half fires. `closed(h)` marks a department nobody
    works in, so the query is not entailed and the run ends fairly with "no".

    FIFO tests triggers in canonical (name) order and re-tests every blocked
    trigger that sorts before the next one to fire, so the work depends on how
    the two halves interleave in that order. The seed therefore picks one
    employee of each adjacent pair in name order: which half is pre-assigned
    still follows the seed, but the number of re-tests (about 3,400 at
    n=160) varies by a few from seed to seed instead of by about a tenth.
    """
    emps = sorted(_names(rng, "w", n))
    depts = _names(rng, "k", max(1, n // 8) + 1)
    hq, depts = depts[0], depts[1:]
    facts = ["emp(%s)." % e for e in emps]
    for i in range(0, n - 1, 2):
        facts.append("works(%s,%s)." % (emps[i + rng.randrange(2)], rng.choice(depts)))
    facts += ["dept(%s)." % d for d in depts + [hq]]
    facts.append("closed(%s)." % hq)
    rng.shuffle(facts)
    path = work / "emp.erl"
    _write(path, ["[emp] emp(X) -> exists D. works(X,D), dept(D)."] + facts + ["? works(X,D), closed(D)."])

    def check(code: int, report: dict) -> None:
        _expect(code == 0, "exit code %r" % code)
        _expect(report["verdict"] == "no", "answer %r, want no" % report["verdict"])

    # The budget is the number of triggers that should fire: a correct run
    # spends it exactly and its final sweep finds nothing applicable ("no"),
    # while a chase that fired R-blocked triggers would still have
    # applicable ones left and answer "unknown".
    return Prepared(["entails", str(path), "--variant", "r", "--max-steps", str(n // 2), "--json"], check)


def _tm_loop(steps: int, rng: random.Random, work: Path) -> Prepared:
    """Simulation rules of the never-halting `loop` machine on a length-1
    tape, stopped by the step budget."""
    from exchase import textio, tmgen
    from exchase.core import Atom, Const

    kb = tmgen.simulation_kb(tmgen.loop(), 1)
    consts = sorted({t for a in kb.facts.atoms for t in a.args}, key=lambda c: c.name)
    rename = dict(zip(consts, (Const(s) for s in _names(rng, "c", len(consts)))))
    facts = ["%s." % Atom(a.pred, tuple(rename[t] for t in a.args)) for a in kb.facts.atoms]
    facts.sort()
    rng.shuffle(facts)
    path = work / "tm.erl"
    _write(path, textio.serialize_rules(kb.rules).splitlines() + facts)

    def check(code: int, report: dict) -> None:
        _expect(code == 0, "exit code %r" % code)
        _expect(report["verdict"] == "budget_exhausted", "verdict %r" % report["verdict"])
        _expect(report["steps"] == steps, "steps %r, want %d" % (report["steps"], steps))

    argv = ["run", str(path), "--variant", "dfr", "--strategy", "datalog-first"]
    return Prepared(argv + ["--max-steps", str(steps), "--json"], check)


def _classify_corpus(tiny: bool, work: Path) -> Prepared:
    """The shipped fixture corpus; the seed is not used."""
    import exchase

    fixtures = Path(exchase.__file__).parent / "corpus" / "fixtures"
    paths = sorted(fixtures.glob("*.json"))
    if tiny:
        # Same layout as the shipped corpus: fixtures refer to "../<name>.erl".
        paths = [p for p in paths if p.name not in _SLOW_FIXTURES]
        (work / "fixtures").mkdir()
        for p in paths:
            shutil.copy(p, work / "fixtures" / p.name)
            erl = json.loads(p.read_text())["erl"]
            shutil.copy(fixtures / erl, work / "fixtures" / erl)
        fixtures = work / "fixtures"
    rows = sum(len(json.loads(p.read_text())["expect"]) for p in paths)

    def check(code: int, report: dict) -> None:
        _expect(code == 0, "exit code %r" % code)
        failing = [r for r in report["rows"] if not r["pass"]]
        _expect(not failing, "failing rows: %r" % failing)
        _expect(len(report["rows"]) == rows, "%d rows, want %d" % (len(report["rows"]), rows))

    return Prepared(["classify", "--fixtures", str(fixtures), "--json"], check)


NAMES = tuple(FULL)


def prepare(name: str, seed: int, work: Path, tiny: bool = False) -> Prepared:
    """Generate the workload's input under `work` from `seed`."""
    size: Optional[int] = (TINY if tiny else FULL)[name]
    rng = random.Random("%s/%d" % (name, seed))
    if name == "tc-dfr":
        return _tc_dfr(size, rng, work)
    if name == "emp-ent":
        return _emp_ent(size, rng, work)
    if name == "tm-loop":
        return _tm_loop(size, rng, work)
    if name == "classify-corpus":
        return _classify_corpus(tiny, work)
    raise ValueError("unknown workload %r" % name)
