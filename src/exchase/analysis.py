"""Derivation-graph exploration, terminating-derivation search, budgeted BCQ
entailment, and corpus classification.

The explorer walks the graph whose nodes are fact bases and whose edges are
applicable triggers, deduplicating states up to isomorphism. Exhausting the
graph within budget proves that *every* derivation of the chosen variant is
finite; finding a path deeper than the depth budget yields a growth witness
(a non-termination certificate only for atomic-head rule sets, where unfair
infinite derivations imply fair ones). Both searches step the
`chase.ChaseState` that `run_chase` steps, so finding a state's edges costs
a scan of the triggers still live plus a search for the new matches of the
step's delta. Each search moves one state by `ChaseState.push` and `pop`:
down a path and back, or to each path of a level (`goto`).

`find_terminating`'s search for a terminating derivation is breadth-first
with one isomorphism table across all levels, so it expands every state at
most once. It returns the path that iterative deepening over the same edges
returns: the first terminating path of the least length, in canonical edge
order.
"""
from __future__ import annotations

import json
from itertools import chain
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from . import core, hom, textio
from .core import TERMINATED_FAIR, Atom, Derivation, FactBase, KnowledgeBase, Null, Rule, Trigger, Var, search
from .chase import (
    STOPPED,
    ChaseState,
    ChaseVariant,
    DatalogFirst,
    FIFO,
    Phased,
    Scripted,
    Strategy,
    StrategyError,
    check_rule_ids,
    delta_triggers,
    run_chase,
)

ALL_FINITE = "all_finite"
GROWTH = "growth"
BUDGET_EXCEEDED = "budget_exceeded"

CERTIFIED = "non-termination certified"
UNCERTIFIED = "unbounded derivation found (fairness not certified)"


@dataclass(frozen=True)
class ExplorationReport:
    verdict: str  # all_finite | growth | budget_exceeded
    nodes: int
    max_len: Optional[int] = None
    witness: Optional[tuple[tuple[Atom, ...], ...]] = None  # per-step deltas
    witness_label: Optional[str] = None
    dedup_hits: int = 0


def explore_all(
    kb: KnowledgeBase,
    variant: ChaseVariant,
    max_depth: int,
    max_nodes: int,
    *,
    dedup: bool = True,
) -> ExplorationReport:
    """Exhaustive expansion of the derivation graph from kb.facts.

    Depth-first in canonical edge order, so a diverging system yields a
    growth witness after about `max_depth` expansions instead of after the
    whole breadth-first frontier. States are deduplicated up to isomorphism;
    a state reached again at a *smaller* depth is re-expanded, which keeps
    the all-finite verdict sound (every derivation of length <= max_depth
    is still covered). A child is looked up in the table once, before it
    is applied, so a known state costs no step. The report is returned
    where the search ends."""
    if max_depth <= 0 or max_nodes <= 0:
        raise ValueError("budgets must be positive")
    atomic_only = all(len(r.head) == 1 for r in kb.rules)
    seen_depth = hom.IsoTable()
    expansions, dedup_hits, max_len = 1, 0, 0  # the root is the first expansion
    state = ChaseState(kb, variant)
    if dedup:
        seen_depth.entry(kb.facts).value = 0
    # One frame per state on the current path, holding its remaining edges.
    # The state on top of the stack is `state`, at len(records) deep.
    stack: list[Iterator[Trigger]] = [iter(state.scan())]
    while stack:
        t = next(stack[-1], None)
        if t is None:
            stack.pop()
            if stack:
                state.pop()
            continue
        depth = len(state.records) + 1
        if depth > max_depth:
            state.push(t)
            return ExplorationReport(
                GROWTH, expansions, witness=tuple(delta for _, delta in state.records),
                witness_label=CERTIFIED if atomic_only else UNCERTIFIED, dedup_hits=dedup_hits,
            )
        if dedup:
            entry = seen_depth.entry(chain(state.store.atoms, t.output))
            if entry.value is not None and entry.value <= depth:
                dedup_hits += 1
                continue
            entry.value = depth
        state.push(t)
        expansions += 1
        if expansions > max_nodes:
            return ExplorationReport(BUDGET_EXCEEDED, expansions, dedup_hits=dedup_hits)
        max_len = max(max_len, depth)
        stack.append(iter(state.scan()))
    return ExplorationReport(ALL_FINITE, expansions, max_len=max_len, dedup_hits=dedup_hits)


def find_terminating(
    kb: KnowledgeBase,
    variant: ChaseVariant,
    max_steps: int,
    pool: Sequence[Strategy] = (),
    *,
    deepening: bool = True,
) -> Optional[Derivation]:
    """First fairly-terminating derivation found: the strategy pool first,
    then, if `deepening`, a search over trigger choices for the shortest one
    within `max_steps`. Absence is not a proof.

    The search is breadth-first: level by level, each state's edges in
    canonical order, every state up to isomorphism expanded at most once.
    It returns what iterative deepening over the same edges returns, the
    first terminating path of the least length in the order of its edges:
    a state isomorphic to one reached before it, on a shorter or an equally
    long path that comes first, cannot lie on that path, because the earlier
    state's own continuation would give a path that is shorter or that
    comes first. One state walks the search: visiting a path of a level moves
    it there (`goto`) and scans it, and a child is only a path and a table
    entry. Testing a state for being terminal when it is visited, not when
    it is made, returns the same path: states are visited in the order they
    are made, with the same table entries made before each."""
    strategies: list[Strategy] = [FIFO(), DatalogFirst()]
    strategies.extend(pool)
    for strat in strategies:
        derivation = run_chase(kb, variant, strat, max_steps)
        if derivation.verdict == TERMINATED_FAIR:
            return derivation
    if not deepening:
        return None

    seen = hom.IsoTable()
    seen.entry(kb.facts).value = 0
    state = ChaseState(kb, variant)
    level: list[tuple[Trigger, ...]] = [()]
    for depth in range(max_steps + 1):
        below = []
        for path in level:
            state.goto(path)
            # A state on the last level only needs to be known terminal.
            edges = state.scan(first=depth == max_steps)
            if not edges:
                return state.derivation(TERMINATED_FAIR)
            if depth < max_steps:
                for t in edges:
                    entry = seen.entry(chain(state.store.atoms, t.output))
                    if entry.value is None:
                        entry.value = depth + 1
                        below.append(path + (t,))
        level = below
    return None


@dataclass(frozen=True)
class TriState:
    kind: str  # yes | no | unknown
    steps: int  # the length of the run's derivation
    witness: Optional[dict] = None


def entails(
    kb: KnowledgeBase,
    query: Iterable[Atom],
    variant: ChaseVariant,
    max_steps: int,
) -> TriState:
    """Budgeted BCQ entailment via the chase.

    Yes as soon as the query maps into the current fact base (sound for the
    monotone variants even mid-run); No only on fair termination without a
    match; Unknown when the step budget runs out first. The chase runs the
    Datalog-first strategy, and `steps` is the length of its derivation.
    The query, with a variable for each null, is a goal rule's body, joined
    by its plan before the first step, then from each step's delta, which
    any new match uses (`delta_triggers`), each join up to its first match;
    one search then finds the witness.
    """
    query = tuple(query)
    as_vars = {n: Var(str(n)) for a in query for n in a.args if isinstance(n, Null)}
    goal = tuple(a.substitute(as_vars) for a in query)
    goal_rule = Rule("?", goal, goal)
    goal_kb = KnowledgeBase((goal_rule,), FactBase())
    witness = None

    def entailed(state: ChaseState) -> bool:
        nonlocal witness
        if state.records:
            matches = delta_triggers(goal_kb, state.store, state.records[-1][1])
        else:
            matches = search(state.store, {}, goal_rule.body_plan)
        if next(matches, None) is None:
            return False
        witness = hom.find_homomorphism(query, state.store)
        return True

    derivation = run_chase(kb, variant, DatalogFirst(), max_steps, stop=entailed)
    kind = {STOPPED: "yes", TERMINATED_FAIR: "no"}.get(derivation.verdict, "unknown")
    return TriState(kind, len(derivation), witness)  # a witness is found only on a yes


# --- corpus classification --------------------------------------------------


class FixtureError(core.InputError):
    """A fixture file is malformed or references unknown material."""


@dataclass
class Fixture:
    id: str
    kb: KnowledgeBase
    budgets: dict
    expect: list[dict]
    strategies: list[Strategy]


def _strategy_from_spec(spec, kb: KnowledgeBase) -> Strategy:
    """The strategy of a fixture's spec, which may name rules of `kb` only."""
    if not isinstance(spec, dict) or ("phased" not in spec and "scripted" not in spec):
        raise FixtureError("unknown strategy spec: %r" % (spec,))
    try:
        strategy = Phased(spec["phased"]) if "phased" in spec else Scripted(spec["scripted"])
        check_rule_ids(strategy, kb)
    except (ValueError, TypeError, LookupError) as e:
        raise FixtureError("malformed strategy spec %r: %s" % (spec, e))
    return strategy


# Budgets of a fixture and the least value each may take.
_BUDGET_MINIMA = {"max_depth": 1, "max_nodes": 1, "max_steps": 0}


def _shape_error(raw: dict) -> Optional[str]:
    """What is wrong with the shape of a parsed fixture that has every
    required key, or None."""
    from . import normalize  # fixtures alone use it: explore and entails never load it

    budgets, expect = raw["budgets"], raw["expect"]
    if not isinstance(raw["erl"], str):
        return "erl must be a file name"
    if raw.get("transform") not in (None, *normalize.PROCEDURES):  # not hashed: it may be a list
        return "transform must be sp, 1ad or 2ad"
    if not isinstance(raw.get("strategies", []), list):
        return "strategies must be a list"
    if not isinstance(budgets, dict):
        return "budgets must be an object"
    for name, least in _BUDGET_MINIMA.items():
        value = budgets.get(name, least)
        if type(value) is not int or value < least:
            return "budget %s must be an integer of at least %d" % (name, least)
    if not isinstance(budgets.get("deepening", True), bool):
        return "budget deepening must be true or false"
    if not isinstance(expect, list) or not all(isinstance(e, dict) for e in expect):
        return "expect must be a list of objects"
    for entry in expect:
        if entry.get("mode") not in ("forall", "exists"):
            return "bad mode in %r" % entry
        if "verdict" not in entry:
            return "no verdict in %r" % entry
        if not isinstance(entry.get("variant"), str):
            return "no variant name in %r" % entry
    return None


def load_fixture(path: Path) -> Fixture:
    """The fixture in `path`. Each error names the fixture (and its `.erl`)."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FixtureError("%s: %s" % (path, e))
    if not isinstance(raw, dict):
        raise FixtureError("%s: a fixture must be a JSON object, got %r" % (path, raw))
    missing = [key for key in ("id", "erl", "budgets", "expect") if key not in raw]
    if missing:
        raise FixtureError("%s: missing key %s" % (path, ", ".join(missing)))
    error = _shape_error(raw)
    if error is not None:
        raise FixtureError("%s: %s" % (path, error))
    erl = path.parent / raw["erl"]
    try:
        for entry in raw["expect"]:
            ChaseVariant.parse(entry["variant"])
        try:
            text = erl.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise FixtureError("%s: %s" % (erl, e))
        doc = textio.parse_document(text)
        rules = tuple(doc.rules)
        transform = raw.get("transform")
        if transform is not None:
            from . import normalize

            rules = normalize.PROCEDURES[transform](rules, reserved=doc.data_predicates()).output_rules
        kb = KnowledgeBase(rules, doc.factbase())
        strategies = [_strategy_from_spec(s, kb) for s in raw.get("strategies", [])]
    except (textio.ParseError, textio.ArityError, textio.VariableScopeError) as e:
        e.args = ("%s: %s: %s" % (path, erl, e),)  # the same error, naming the files
        raise
    except core.InputError as e:
        e.args = ("%s: %s" % (path, e),)
        raise
    return Fixture(raw["id"], kb, raw["budgets"], raw["expect"], strategies)


def classify_fixture(fixture: Fixture) -> list[dict]:
    rows = []
    b = fixture.budgets
    for entry in fixture.expect:
        variant = ChaseVariant.parse(entry["variant"])
        mode = entry["mode"]
        expected = entry["verdict"]
        if mode == "forall":
            report = explore_all(
                fixture.kb,
                variant,
                max_depth=b.get("max_depth", 12),
                max_nodes=b.get("max_nodes", 5000),
            )
            observed = report.verdict
        else:
            derivation = find_terminating(
                fixture.kb,
                variant,
                max_steps=b.get("max_steps", 20),
                pool=fixture.strategies,
                deepening=b.get("deepening", True),
            )
            observed = "terminating" if derivation is not None else "none_found"
        rows.append(
            {
                "fixture": fixture.id,
                "variant": variant.label,
                "mode": mode,
                "expected": expected,
                "observed": observed,
                "budget": dict(b),
                "pass": expected == observed,
            }
        )
    return rows


def classify(fixture_dir: Path) -> list[dict]:
    """Run every fixture's expectations; one row per (fixture, variant, mode)."""
    fixture_dir = Path(fixture_dir)
    paths = sorted(fixture_dir.glob("*.json"))
    if not paths:
        raise FixtureError("no fixture files in %s" % fixture_dir)
    rows: list[dict] = []
    for path in paths:
        fixture = load_fixture(path)
        try:
            rows.extend(classify_fixture(fixture))
        except StrategyError as e:  # a scripted step found nothing to apply
            e.args = ("%s: %s" % (path, e),)
            raise
    return rows
