"""Derivation-graph exploration, terminating-derivation search, budgeted BCQ
entailment, and corpus classification.

The explorer walks the graph whose nodes are fact bases and whose edges are
applicable triggers, deduplicating states up to isomorphism. Exhausting the
graph within budget proves that *every* derivation of the chosen variant is
finite; finding a path deeper than the depth budget yields a growth witness
(a non-termination certificate only for atomic-head rule sets, where unfair
infinite derivations imply fair ones). Every state carries a trigger agenda
derived from its parent's (see `chase`), so finding a state's edges costs a
scan of the triggers still live plus a search for the new matches of the
step's delta, not a re-enumeration of every trigger.

`find_terminating`'s search for a terminating derivation is breadth-first
with one isomorphism table across all levels, so it expands every state at
most once. It returns the path that iterative deepening over the same edges
returns: the first terminating path of the least length, in canonical edge
order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from . import hom, normalize
from .core import (
    TERMINATED_FAIR,
    Atom,
    Derivation,
    FactBase,
    KnowledgeBase,
    Trigger,
    sort_atoms,
)
from .chase import (
    STOPPED,
    Agenda,
    ChaseVariant,
    DatalogFirst,
    FIFO,
    Phased,
    Scripted,
    Strategy,
    enumerate_triggers,
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
    frontier: Optional[int] = None
    dedup_hits: int = 0
    budgets: dict = field(default_factory=dict)


class _Budget(Exception):
    pass


class _Growth(Exception):
    def __init__(self, witness):
        self.witness = witness


def _root_agenda(kb: KnowledgeBase) -> Agenda:
    return Agenda(kb.rules, enumerate_triggers(kb.rules, kb.facts))


def _step(fb: FactBase, t: Trigger) -> tuple[FactBase, tuple[Atom, ...]]:
    """The fact base that firing `t` on `fb` leads to, and the atoms it adds."""
    child = fb.union(t.output)
    return child, sort_atoms(child.atoms - fb.atoms)


def _child_agenda(agenda: Agenda, t: Trigger, child: FactBase, delta: tuple[Atom, ...]) -> Agenda:
    """The agenda of `child`: that of its parent, already scanned, minus `t`,
    plus the triggers whose match uses an atom of `delta`, with `t`'s
    frontier key among the fired ones."""
    out = agenda.fork()
    out.fire(t, child, delta)
    return out


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
    is still covered)."""
    if max_depth <= 0 or max_nodes <= 0:
        raise ValueError("budgets must be positive")
    budgets = {"max_depth": max_depth, "max_nodes": max_nodes}
    atomic_only = all(len(r.head) == 1 for r in kb.rules)
    seen_depth = hom.IsoTable()
    expansions = dedup_hits = max_len = 0
    # One frame per state on the current path: its fact base, its depth, its
    # agenda and its remaining edges. deltas[i] leads from frame i to i + 1.
    stack: list[tuple[FactBase, int, Agenda, Iterator[Trigger]]] = []
    deltas: list[tuple[Atom, ...]] = []

    def expand(fb: FactBase, depth: int, agenda: Agenda) -> None:
        nonlocal expansions, max_len
        expansions += 1
        max_len = max(max_len, depth)
        if expansions > max_nodes:
            raise _Budget()
        edges = agenda.scan(variant, fb)
        stack.append((fb, depth, agenda, iter(edges)))

    try:
        if dedup:
            seen_depth.put(kb.facts, 0)
        expand(kb.facts, 0, _root_agenda(kb))
        while stack:
            fb, depth, agenda, edges = stack[-1]
            t = next(edges, None)
            if t is None:
                stack.pop()
                if deltas:
                    deltas.pop()
                continue
            child, delta = _step(fb, t)
            if depth + 1 > max_depth:
                raise _Growth(tuple(deltas) + (delta,))
            if dedup:
                prev = seen_depth.get(child)
                if prev is not None and prev <= depth + 1:
                    dedup_hits += 1
                    continue
                seen_depth.put(child, depth + 1)
            deltas.append(delta)
            expand(child, depth + 1, _child_agenda(agenda, t, child, delta))
    except _Growth as g:
        return ExplorationReport(
            verdict=GROWTH,
            nodes=expansions,
            witness=g.witness,
            witness_label=CERTIFIED if atomic_only else UNCERTIFIED,
            dedup_hits=dedup_hits,
            budgets=budgets,
        )
    except _Budget:
        return ExplorationReport(
            verdict=BUDGET_EXCEEDED,
            nodes=expansions,
            frontier=len(deltas),
            dedup_hits=dedup_hits,
            budgets=budgets,
        )
    return ExplorationReport(
        verdict=ALL_FINITE,
        nodes=expansions,
        max_len=max_len,
        dedup_hits=dedup_hits,
        budgets=budgets,
    )


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
    comes first."""
    strategies: list[Strategy] = [FIFO(), DatalogFirst()]
    strategies.extend(pool)
    for strat in strategies:
        outcome = run_chase(kb, variant, strat, max_steps)
        if outcome.verdict == TERMINATED_FAIR:
            return outcome.derivation
    if not deepening:
        return None

    seen = hom.IsoTable()
    seen.put(kb.facts, 0)
    agenda = _root_agenda(kb)
    # The states of one level in path order: fact base, agenda, edges, and
    # the (trigger, delta) records of the path to it. The root has edges,
    # as FIFO would have ended on it otherwise.
    level = [(kb.facts, agenda, agenda.scan(variant, kb.facts), ())]
    for depth in range(1, max_steps + 1):
        last = depth == max_steps
        below = []
        for fb, agenda, edges, path in level:
            for t in edges:
                child, delta = _step(fb, t)
                if seen.get(child) is not None:
                    continue
                seen.put(child, depth)
                child_agenda = _child_agenda(agenda, t, child, delta)
                # A state on the last level only needs to be known terminal.
                child_edges = child_agenda.scan(variant, child, first=last)
                child_path = path + ((t, delta),)
                if not child_edges:
                    return Derivation(kb.facts, child_path, child, variant.label, TERMINATED_FAIR)
                below.append((child, child_agenda, child_edges, child_path))
        level = below
    return None


@dataclass(frozen=True)
class TriState:
    kind: str  # yes | no | unknown
    witness: Optional[dict] = None

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"


def entails(
    kb: KnowledgeBase,
    query: Iterable[Atom],
    variant: ChaseVariant,
    max_steps: int,
    strategy: Optional[Strategy] = None,
) -> TriState:
    """Budgeted BCQ entailment via the chase.

    Yes as soon as the query maps into the current fact base (sound for the
    monotone variants even mid-run); No only on fair termination without a
    match; Unknown when the step budget runs out first.
    """
    query = tuple(query)
    witness = None

    def entailed(fb) -> bool:
        nonlocal witness
        witness = hom.entails(fb, query)
        return witness is not None

    outcome = run_chase(kb, variant, strategy or DatalogFirst(), max_steps, stop=entailed)
    if outcome.verdict == STOPPED:
        return TriState("yes", witness)
    if outcome.verdict == TERMINATED_FAIR:
        return TriState("no")
    return TriState("unknown")


# --- corpus classification --------------------------------------------------


class FixtureError(ValueError):
    """A fixture file is malformed or references unknown material."""


_TRANSFORMS = {
    None: lambda rules: rules,
    "sp": lambda rules: normalize.single_piece(rules).output_rules,
    "1ad": lambda rules: normalize.one_way(rules).output_rules,
    "2ad": lambda rules: normalize.two_way(rules).output_rules,
}


@dataclass
class Fixture:
    id: str
    kb: KnowledgeBase
    budgets: dict
    expect: list[dict]
    strategies: list[Strategy]
    source: str


def _strategy_from_spec(spec) -> Strategy:
    try:
        if isinstance(spec, dict) and "phased" in spec:
            return Phased(spec["phased"])
        if isinstance(spec, dict) and "scripted" in spec:
            return Scripted(spec["scripted"])
    except (ValueError, TypeError, LookupError) as e:
        raise FixtureError("malformed strategy spec %r: %s" % (spec, e))
    raise FixtureError("unknown strategy spec: %r" % (spec,))


def load_fixture(path: Path) -> Fixture:
    from . import textio

    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise FixtureError("%s: %s" % (path, e))
    try:
        fixture_id = raw["id"]
        erl = raw["erl"]
        budgets = raw["budgets"]
        expect = raw["expect"]
    except KeyError as e:
        raise FixtureError("%s: missing key %s" % (path, e))
    erl_path = path.parent / erl
    doc = textio.parse_document(erl_path.read_text())
    rules = _TRANSFORMS[raw.get("transform")](tuple(doc.rules))
    kb = KnowledgeBase(tuple(rules), doc.factbase())
    strategies = [_strategy_from_spec(s) for s in raw.get("strategies", [])]
    for entry in expect:
        if entry.get("mode") not in ("forall", "exists"):
            raise FixtureError("%s: bad mode in %r" % (path, entry))
        if "verdict" not in entry:
            raise FixtureError("%s: no verdict in %r" % (path, entry))
        ChaseVariant.parse(entry.get("variant", ""))
    return Fixture(fixture_id, kb, budgets, expect, strategies, str(erl_path.name))


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
        rows.extend(classify_fixture(load_fixture(path)))
    return rows
