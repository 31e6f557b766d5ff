"""Derivation goldens: `run --derivation --json` on every corpus `.erl`
under o/so/r/e/dfr with the fifo and datalog-first strategies at
`--max-steps 20`, compared with fixed reports in `goldens/derivations.json`;
`find_terminating` goldens: the derivation that `find_terminating` with
no extra strategies returns on every corpus `.erl` under o/so/r/e/dfr at
`max_steps` 3 and 5, compared with `goldens/find_terminating.json`; and
explore goldens: `explore --json --max-depth 10 --max-nodes 2000` on every
corpus `.erl` under o/so/r/e/dfr/dfso, compared with `goldens/explore.json`;
and strategy goldens: `run_chase` with each phased or scripted strategy of a
fixture, under each variant its expectations name, at the fixture's
`max_steps`, compared with `goldens/strategies.json`.

The derivation reports were made by the chase that re-enumerated every
trigger at every step, before the trigger agenda replaced it; the
`find_terminating` results by the iterative-deepening search that re-walked
its tree from the root each round, before the breadth-first search replaced
it. They leave out `stats`, whose
counters measure work rather than results, and number the null digests by
first appearance (`_ex1#1.Z`), so they fix which triggers fire and what they
add but not the digest text of the labels. The explore reports, digests
numbered alike, were made while `FactBase` still kept an index of its own
beside `Store`'s; they fix the explorer's node and dedup counts as well.
The strategy reports, digests numbered alike and without `stats`, were made
while strategies were objects that kept their position between calls, before
they became per-run generators.

Work goldens: the `stats` (steps, triggers considered, homomorphism
searches) of `run --json --max-steps 60` on every corpus `.erl` under
o/so/r/e/dfr with the fifo and datalog-first strategies, and of the
transitive closure of a 55-edge chain under dfr with datalog-first, compared
with `goldens/work.json`. They gate the work a run does, which timings
cannot, and were made before terms cached their keys and hashes and store
buckets kept lists of atom keys. A further gate checks that the chain's run
never has its store sort a bucket into canonical order, which only
homomorphism searches read, and two count the atoms built: a join whose
steps are ground builds none, and the chain's run builds only its output
atoms.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from exchase import cli, hom
from exchase.analysis import find_terminating, load_fixture
from exchase.chase import ChaseState, ChaseVariant, DatalogFirst, _join, run_chase
from exchase.core import Atom, Const, Store, Var, join_plan
from exchase.textio import parse_document

from conftest import CORPUS, load_kb

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDENS = json.loads((GOLDEN_DIR / "derivations.json").read_text())
TERMINATING = json.loads((GOLDEN_DIR / "find_terminating.json").read_text())
EXPLORE = json.loads((GOLDEN_DIR / "explore.json").read_text())
STRATEGY_RUNS = json.loads((GOLDEN_DIR / "strategies.json").read_text())
WORK = json.loads((GOLDEN_DIR / "work.json").read_text())
VARIANTS = ("o", "so", "r", "e", "dfr")
EXPLORE_VARIANTS = VARIANTS + ("dfso",)
_DIGEST = re.compile(r"#([0-9a-f]+)\.")


def number_digests(text: str) -> str:
    numbers: dict[str, int] = {}
    return _DIGEST.sub(lambda m: "#%d." % numbers.setdefault(m.group(1), len(numbers) + 1), text)


def test_goldens_cover_the_corpus():
    names = {key.split()[0] for key in GOLDENS}
    assert names == {p.name for p in CORPUS.glob("*.erl")}
    assert len(GOLDENS) == len(names) * 5 * 2


def cli_report(name: str, argv: list[str]) -> dict:
    """The JSON report of a command on a corpus file, without `stats`, with
    the file's name as `inputs` and numbered digests."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([argv[0], str(CORPUS / name), *argv[1:], "--json"]) == 0
    report = json.loads(out.getvalue())
    report.pop("stats", None)
    report["inputs"] = name
    return json.loads(number_digests(json.dumps(report, sort_keys=True, indent=2)))


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.erl")))
def test_derivation_reports_match_goldens(name):
    mismatches = [
        (variant, strategy)
        for variant in VARIANTS
        for strategy in ("fifo", "datalog-first")
        if cli_report(
            name,
            ["run", "--variant", variant, "--strategy", strategy, "--max-steps", "20", "--derivation"],
        )
        != GOLDENS["%s %s %s" % (name, variant, strategy)]
    ]
    assert not mismatches


def test_explore_goldens_cover_the_corpus():
    names = {key.split()[0] for key in EXPLORE}
    assert names == {p.name for p in CORPUS.glob("*.erl")}
    assert len(EXPLORE) == len(names) * len(EXPLORE_VARIANTS)


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.erl")))
def test_explore_reports_match_goldens(name):
    mismatches = [
        variant
        for variant in EXPLORE_VARIANTS
        if cli_report(name, ["explore", "--variant", variant, "--max-depth", "10", "--max-nodes", "2000"])
        != EXPLORE["%s %s" % (name, variant)]
    ]
    assert not mismatches


def find_terminating_report(name: str, variant: str, max_steps: int):
    """The steps of `find_terminating(kb, variant, max_steps)` on a corpus
    file as (rule, match, added) records with numbered digests, or None."""
    found = find_terminating(load_kb(name), ChaseVariant.parse(variant), max_steps)
    if found is None:
        return None
    steps = [
        {"rule": t.rule.id, "match": {n: str(v) for n, v in t.match}, "added": [str(a) for a in delta]}
        for t, delta in found.records
    ]
    return json.loads(number_digests(json.dumps(steps)))


def test_find_terminating_goldens_cover_the_corpus():
    names = {key.split()[0] for key in TERMINATING}
    assert names == {p.name for p in CORPUS.glob("*.erl")}
    assert len(TERMINATING) == len(names) * len(VARIANTS) * 2


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.erl")))
def test_find_terminating_matches_goldens(name):
    mismatches = [
        (variant, max_steps)
        for variant in VARIANTS
        for max_steps in (3, 5)
        if find_terminating_report(name, variant, max_steps)
        != TERMINATING["%s %s %d" % (name, variant, max_steps)]
    ]
    assert not mismatches


def strategy_reports() -> dict:
    """Key "fixture variant index" -> the run of the fixture's index-th
    strategy under the variant at the fixture's `max_steps`: its verdict,
    steps and (rule, match, added) records with numbered digests."""
    reports = {}
    for path in sorted((CORPUS / "fixtures").glob("*.json")):
        fixture = load_fixture(path)
        max_steps = fixture.budgets.get("max_steps", 20)
        for name in sorted({entry["variant"] for entry in fixture.expect}):
            for index, strategy in enumerate(fixture.strategies):
                outcome = run_chase(fixture.kb, ChaseVariant.parse(name), strategy, max_steps)
                records = [
                    {"rule": t.rule.id, "match": {n: str(v) for n, v in t.match}, "added": [str(a) for a in delta]}
                    for t, delta in outcome.records
                ]
                report = {"verdict": outcome.verdict, "steps": len(records), "records": records}
                reports["%s %s %d" % (fixture.id, name, index)] = json.loads(number_digests(json.dumps(report)))
    return reports


def test_strategy_runs_match_goldens():
    reports = strategy_reports()
    assert {key.split()[0] for key in reports} == {"T13_2AD", "T2F", "T5", "T6"}
    assert reports == STRATEGY_RUNS


TC_CHAIN_EDGES = 55


def tc_chain_text() -> str:
    edges = ["e(v%02d,v%02d)." % (i, i + 1) for i in range(TC_CHAIN_EDGES)]
    return "\n".join(["[tc1] e(X,Y) -> t(X,Y).", "[tc2] t(X,Y), e(Y,Z) -> t(X,Z).", *edges]) + "\n"


def run_stats(path: Path, variant: str, strategy: str, max_steps: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        argv = ["run", str(path), "--variant", variant, "--strategy", strategy]
        assert cli.main([*argv, "--max-steps", str(max_steps), "--json"]) == 0
    return json.loads(out.getvalue())["stats"]


def work_stats(scratch: Path) -> dict:
    """Key "file variant strategy" -> the `stats` of the run, for every
    corpus `.erl` at `--max-steps 60` and for the transitive closure of an
    `e` chain of TC_CHAIN_EDGES edges, written into `scratch`, run to its
    end."""
    stats = {
        "%s %s %s" % (path.name, variant, strategy): run_stats(path, variant, strategy, 60)
        for path in sorted(CORPUS.glob("*.erl"))
        for variant in VARIANTS
        for strategy in ("fifo", "datalog-first")
    }
    chain = scratch / "tc_chain.erl"
    chain.write_text(tc_chain_text())
    stats["tc_chain dfr datalog-first"] = run_stats(chain, "dfr", "datalog-first", 2 * TC_CHAIN_EDGES**2)
    return stats


def test_work_counters_match_goldens(tmp_path):
    stats = work_stats(tmp_path)
    assert stats["tc_chain dfr datalog-first"] == {"steps": 1540, "triggers_considered": 3080, "hom_calls": 1542}
    assert stats == WORK


def test_datalog_chain_builds_no_canonical_view(monkeypatch):
    """A Datalog-first run of the chain's transitive closure reads its
    store only through trigger joins and membership tests: no homomorphism
    search runs, so no candidate list is sorted into canonical order."""
    searches = []
    run = hom._Search.run

    def counted(self):
        searches.append(self)
        return run(self)

    monkeypatch.setattr(hom._Search, "run", counted)
    state = ChaseState(parse_document(tc_chain_text()).knowledge_base(), ChaseVariant.parse("dfr"))
    for t in DatalogFirst().triggers(state):
        state.apply(t)
    assert not state.scan(first=True)
    assert len(state.records) == TC_CHAIN_EDGES * (TC_CHAIN_EDGES + 1) // 2
    assert searches == []


def _count_atoms(monkeypatch) -> list[int]:
    """Make `Atom.__init__` count every atom built."""
    built = [0]
    init = Atom.__init__

    def counted(self, pred, args):
        built[0] += 1
        init(self, pred, args)

    monkeypatch.setattr(Atom, "__init__", counted)
    return built


def test_ground_join_steps_build_no_atom(monkeypatch):
    """A join step with no free variable probes the store's atom set with
    its (predicate, arguments) pair, so a plan of ground steps builds no
    atom, whether the probe finds its atom or not."""
    a, b = Const("a"), Const("b")
    x, y = Var("X"), Var("Y")
    store = Store([Atom("p", (a, b)), Atom("q", (b, a)), Atom("q", (a, a))])
    plan = join_plan([Atom("q", (y, x)), Atom("p", (x, y)), Atom("q", (x, x))], ("X", "Y"))
    assert all(not step.free for step in plan)
    built = _count_atoms(monkeypatch)
    assert list(_join(plan, store, {"X": a, "Y": b})) == [{"X": a, "Y": b}]
    assert list(_join(plan, store, {"X": b, "Y": a})) == []
    assert built == [0]


def test_datalog_chain_builds_only_its_output_atoms(monkeypatch):
    """A Datalog-first run of the chain's transitive closure builds one
    atom per trigger output, n(n+1)/2 of them, and no other: its joins and
    membership tests build none."""
    kb = parse_document(tc_chain_text()).knowledge_base()
    built = _count_atoms(monkeypatch)
    state = ChaseState(kb, ChaseVariant.parse("dfr"))
    for t in DatalogFirst().triggers(state):
        state.apply(t)
    assert not state.scan(first=True)
    assert built == [TC_CHAIN_EDGES * (TC_CHAIN_EDGES + 1) // 2] == [1540]
