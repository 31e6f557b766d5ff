"""Trigger enumeration, applicability tests, derivation construction, and
the breadth-first saturation used for bounded-depth entailment checks.

Applicability of a trigger t on a fact base F:

  O   t was never applied (same rule and body match) and out(t) is not in F.
  SO  no trigger with the same rule and frontier image was applied, and
      out(t) is not in F.
  R   no retraction from F + out(t) back to F (fresh nulls may move, every
      term of F stays fixed).
  E   no homomorphism at all from F + out(t) to F (every null may move).

Because null labels are a pure function of (rule, match), "was applied" is
equivalent to "its output is already present", so O/SO can be decided either
from a History of fired keys (fast path along a derivation) or intrinsically
from the fact base alone (used by the derivation-graph explorer).

The Datalog-first modifier gates non-Datalog triggers: they only become
applicable once every Datalog rule is satisfied.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    BUDGET_EXHAUSTED,
    TERMINATED_FAIR,
    TERMINATED_UNFAIR,
    Atom,
    Derivation,
    FactBase,
    KnowledgeBase,
    Rule,
    Term,
    Trigger,
    Var,
    make_match,
    term_key,
)
from . import hom


class StrategyError(ValueError):
    """A scripted trigger choice was not applicable at its step."""


class VariantError(ValueError):
    """A chase variant name is not o, so, r or e, optionally df-prefixed."""


class BudgetError(RuntimeError):
    """A defensive step budget was exceeded (cannot happen semantically)."""


_TAGS = ("o", "so", "r", "e")


@dataclass(frozen=True)
class ChaseVariant:
    tag: str
    datalog_first: bool = False

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise VariantError("unknown chase tag %r" % self.tag)

    @classmethod
    def parse(cls, name: str) -> "ChaseVariant":
        name = name.lower().replace("-", "")
        if name.startswith("df"):
            return cls(name[2:], datalog_first=True)
        return cls(name)

    @property
    def label(self) -> str:
        base = self.tag.upper()
        return "DF-" + base if self.datalog_first else base


@dataclass
class History:
    """Fired-trigger bookkeeping along one derivation."""

    fired_o: set = field(default_factory=set)
    fired_so: set = field(default_factory=set)

    def record(self, t: Trigger) -> None:
        self.fired_o.add(t.body_key)
        self.fired_so.add(t.frontier_key)


def body_matches(rule: Rule, fb: FactBase, stats: Optional[dict] = None) -> list[dict[str, Term]]:
    """All homomorphisms from the rule body into the fact base, canonical order."""
    sols = []
    for h in hom.iter_homomorphisms(rule.body, fb, stats=stats):
        sols.append({t.name: img for t, img in h.items() if isinstance(t, Var)})
    sols.sort(key=lambda m: tuple(sorted((n, term_key(t)) for n, t in m.items())))
    return sols


def enumerate_triggers(
    rules: Sequence[Rule],
    fb: FactBase,
    counter: Optional[Iterator[int]] = None,
    stats: Optional[dict] = None,
) -> Iterator[Trigger]:
    """Every (rule, body match) pair exactly once: rule order, then canonical
    match order."""
    counter = counter or itertools.count(1)
    for rule in rules:
        for m in body_matches(rule, fb, stats=stats):
            yield Trigger(rule, make_match(m), serial=next(counter))


def datalog_satisfied(datalog_rules: Sequence[Rule], fb: FactBase, stats: Optional[dict] = None) -> bool:
    """True iff every Datalog rule's head instance is present for every match."""
    for rule in datalog_rules:
        for h in hom.iter_homomorphisms(rule.body, fb, stats=stats):
            head = [a.substitute(h) for a in rule.head]
            if any(x not in fb.atoms for x in head):
                return False
    return True


def _so_blocked_intrinsic(t: Trigger, fb: FactBase, stats: Optional[dict]) -> bool:
    """Some trigger with the same rule and frontier image has its output in F."""
    fixed = {Var(n): v for n, v in t.match if n in t.rule.frontier}
    for h in hom.iter_homomorphisms(t.rule.body, fb, fixed=fixed, stats=stats):
        m = make_match({v.name: img for v, img in h.items() if isinstance(v, Var)})
        other = Trigger(t.rule, m)
        if all(a in fb.atoms for a in other.output):
            return True
    return False


def is_applicable(
    variant: ChaseVariant,
    t: Trigger,
    fb: FactBase,
    history: Optional[History] = None,
    *,
    datalog_rules: Sequence[Rule] = (),
    datalog_ok: Optional[bool] = None,
    hom_budget: Optional[int] = None,
    stats: Optional[dict] = None,
) -> bool:
    out = t.output
    if all(a in fb.atoms for a in out):
        return False
    if variant.datalog_first and not t.rule.is_datalog:
        if datalog_ok is None:
            datalog_ok = datalog_satisfied(datalog_rules, fb, stats=stats)
        if not datalog_ok:
            return False
    tag = variant.tag
    if t.rule.is_datalog:
        # For Datalog triggers all four notions coincide with out(t) not in F.
        return True
    if tag == "o":
        if history is not None:
            return t.body_key not in history.fired_o
        return True  # content-addressed labels: applied iff output present
    if tag == "so":
        if history is not None:
            return t.frontier_key not in history.fired_so
        return not _so_blocked_intrinsic(t, fb, stats)
    if tag == "r":
        return not hom.exists_retraction(
            itertools.chain(fb.atoms, out), fb, budget=hom_budget, stats=stats
        )
    if tag == "e":
        # A retraction is a homomorphism, so check the cheap case first.
        if hom.exists_retraction(itertools.chain(fb.atoms, out), fb, budget=hom_budget, stats=stats):
            return False
        src = list(fb.sorted_atoms) + list(out)
        return hom.find_homomorphism(src, fb, budget=hom_budget, stats=stats) is None
    raise ValueError(tag)


def applicable_edges(
    kb: KnowledgeBase,
    fb: FactBase,
    variant: ChaseVariant,
    hom_budget: Optional[int] = None,
    stats: Optional[dict] = None,
) -> Iterator[Trigger]:
    """Applicable triggers on a bare fact base, in canonical order.

    History-free: O/SO applicability is decided intrinsically, which matches
    the fired-key bookkeeping because null labels are content-addressed.
    """
    datalog_ok: Optional[bool] = None
    for t in enumerate_triggers(kb.rules, fb, stats=stats):
        if variant.datalog_first and not t.rule.is_datalog and datalog_ok is None:
            datalog_ok = datalog_satisfied(kb.datalog_rules, fb, stats=stats)
        if is_applicable(
            variant,
            t,
            fb,
            None,
            datalog_rules=kb.datalog_rules,
            datalog_ok=datalog_ok,
            hom_budget=hom_budget,
            stats=stats,
        ):
            yield t


@dataclass
class ChaseState:
    """Mutable cursor over a derivation under construction."""

    kb: KnowledgeBase
    variant: ChaseVariant
    fb: FactBase
    history: History = field(default_factory=History)
    serial: Iterator[int] = field(default_factory=lambda: itertools.count(1))
    hom_budget: Optional[int] = None
    stats: dict = field(default_factory=dict)

    def iter_applicable(self, rule_ids: Optional[frozenset[str]] = None) -> Iterator[Trigger]:
        rules = self.kb.rules
        if rule_ids is not None:
            rules = tuple(r for r in rules if r.id in rule_ids)
        datalog_ok: Optional[bool] = None
        for t in enumerate_triggers(rules, self.fb, self.serial, stats=self.stats):
            self.stats["triggers_considered"] = self.stats.get("triggers_considered", 0) + 1
            if self.variant.datalog_first and not t.rule.is_datalog and datalog_ok is None:
                datalog_ok = datalog_satisfied(self.kb.datalog_rules, self.fb, stats=self.stats)
            if is_applicable(
                self.variant,
                t,
                self.fb,
                self.history,
                datalog_rules=self.kb.datalog_rules,
                datalog_ok=datalog_ok,
                hom_budget=self.hom_budget,
                stats=self.stats,
            ):
                yield t

    def first_applicable(self, rule_ids: Optional[frozenset[str]] = None) -> Optional[Trigger]:
        for t in self.iter_applicable(rule_ids):
            return t
        return None

    def apply(self, t: Trigger) -> FactBase:
        self.history.record(t)
        self.fb = self.fb.union(t.output)
        return self.fb


class Strategy:
    """Chooses the next trigger to apply; stateful within one run."""

    name = "strategy"

    def reset(self) -> None:
        pass

    def choose(self, state: ChaseState) -> Optional[Trigger]:
        raise NotImplementedError

    def exhausted_early(self) -> bool:
        """True if the strategy stopped while triggers may remain applicable."""
        return False


class FIFO(Strategy):
    """First applicable trigger in canonical order, every step."""

    name = "fifo"

    def choose(self, state: ChaseState) -> Optional[Trigger]:
        return state.first_applicable()


class DatalogFirst(Strategy):
    """Prefer applicable Datalog triggers; otherwise first applicable.

    Pending Datalog triggers found by one sweep are queued and revalidated at
    pop time (their heads may have shown up meanwhile), which keeps long
    saturation phases from re-enumerating every rule at every step.
    """

    name = "datalog-first"

    def __init__(self) -> None:
        from collections import deque

        self._queue: "deque[Trigger]" = deque()

    def reset(self) -> None:
        self._queue.clear()

    def choose(self, state: ChaseState) -> Optional[Trigger]:
        while True:
            while self._queue:
                t = self._queue.popleft()
                if any(a not in state.fb.atoms for a in t.output):
                    return t
            swept = False
            for t in enumerate_triggers(
                state.kb.datalog_rules, state.fb, state.serial, stats=state.stats
            ):
                state.stats["triggers_considered"] = (
                    state.stats.get("triggers_considered", 0) + 1
                )
                if any(a not in state.fb.atoms for a in t.output):
                    self._queue.append(t)
                    swept = True
            if not swept:
                break
        ex_ids = frozenset(r.id for r in state.kb.existential_rules)
        if not ex_ids:
            return None
        return state.first_applicable(ex_ids)


class Phased(Strategy):
    """Apply rule groups in order; each phase either exhausts its rules or
    fires one trigger. Phases that have nothing applicable are skipped."""

    name = "phased"

    def __init__(self, phases: Sequence[tuple[Iterable[str], str]]):
        self.phases = [(frozenset(ids), mode) for ids, mode in phases]
        for _, mode in self.phases:
            if mode not in ("exhaust", "once"):
                raise ValueError("phase mode must be 'exhaust' or 'once', got %r" % mode)
        self._index = 0
        self._done = False

    def reset(self) -> None:
        self._index = 0
        self._done = False

    def choose(self, state: ChaseState) -> Optional[Trigger]:
        while self._index < len(self.phases):
            ids, mode = self.phases[self._index]
            t = state.first_applicable(ids)
            if t is None:
                self._index += 1
                continue
            if mode == "once":
                self._index += 1
            return t
        self._done = True
        return None

    def exhausted_early(self) -> bool:
        return self._done


class Scripted(Strategy):
    """Explicit choices: each step names a rule and the index of the wanted
    trigger among that rule's applicable triggers in canonical order."""

    name = "scripted"

    def __init__(self, steps: Sequence):
        self.steps = [(s, 0) if isinstance(s, str) else (s[0], s[1]) for s in steps]
        self._index = 0
        self._done = False

    def reset(self) -> None:
        self._index = 0
        self._done = False

    def choose(self, state: ChaseState) -> Optional[Trigger]:
        if self._index >= len(self.steps):
            self._done = True
            return None
        rule_id, pick = self.steps[self._index]
        self._index += 1
        candidates = list(state.iter_applicable(frozenset([rule_id])))
        if pick >= len(candidates):
            raise StrategyError(
                "scripted step %d: rule %r has %d applicable trigger(s), wanted index %d"
                % (self._index, rule_id, len(candidates), pick)
            )
        return candidates[pick]

    def exhausted_early(self) -> bool:
        return self._done


class RandomChoice(Strategy):
    """Uniformly random applicable trigger; deterministic given the seed."""

    name = "random"

    def __init__(self, seed: int):
        import random

        self._rng = random.Random(seed)

    def choose(self, state: ChaseState) -> Optional[Trigger]:
        candidates = list(state.iter_applicable())
        if not candidates:
            return None
        return self._rng.choice(candidates)


@dataclass(frozen=True)
class ChaseOutcome:
    derivation: Derivation
    result: FactBase
    verdict: str
    stats: dict


def run_chase(
    kb: KnowledgeBase,
    variant: ChaseVariant,
    strategy: Optional[Strategy] = None,
    max_steps: int = 1000,
    *,
    hom_budget: Optional[int] = None,
) -> ChaseOutcome:
    """Build a derivation under the variant's applicability and the strategy's
    order. Stops fairly when nothing is applicable, unfairly when a phased or
    scripted strategy gives up early, or with a budget verdict at max_steps.
    """
    strategy = strategy or FIFO()
    strategy.reset()
    state = ChaseState(kb=kb, variant=variant, fb=kb.facts, hom_budget=hom_budget)
    steps: list[tuple[Trigger, FactBase]] = []
    verdict = None
    try:
        while len(steps) < max_steps:
            t = strategy.choose(state)
            if t is None:
                if strategy.exhausted_early() and state.first_applicable() is not None:
                    verdict = TERMINATED_UNFAIR
                else:
                    verdict = TERMINATED_FAIR
                break
            fb = state.apply(t)
            steps.append((t, fb))
        else:
            if state.first_applicable() is None:
                verdict = TERMINATED_FAIR
            else:
                verdict = BUDGET_EXHAUSTED
    except hom.HomBudgetExceeded:
        verdict = BUDGET_EXHAUSTED
    state.stats["steps"] = len(steps)
    derivation = Derivation(
        initial=kb.facts, steps=tuple(steps), variant=variant.label, verdict=verdict
    )
    return ChaseOutcome(derivation, derivation.result, verdict, dict(state.stats))


def datalog_saturate(
    rules: Sequence[Rule], fb: FactBase, max_steps: int = 100000, stats: Optional[dict] = None
) -> FactBase:
    """Least fixpoint of the Datalog subset of `rules` over `fb`."""
    datalog = [r for r in rules if r.is_datalog]
    applied = 0
    changed = True
    while changed:
        changed = False
        new: set[Atom] = set()
        for rule in datalog:
            for h in hom.iter_homomorphisms(rule.body, fb, stats=stats):
                head = [a.substitute(h) for a in rule.head]
                fresh = [x for x in head if x not in fb.atoms and x not in new]
                if fresh:
                    new.update(fresh)
                    applied += 1
                    if applied > max_steps:
                        raise BudgetError("datalog saturation exceeded %d steps" % max_steps)
        if new:
            fb = fb.union(new)
            changed = True
    return fb


def breadth_first_layer(rules: Sequence[Rule], fb: FactBase, stats: Optional[dict] = None) -> FactBase:
    """One parallel layer: `fb` plus the output of every trigger on it.

    Trigger outputs reuse the content-addressed nulls, so a trigger fired in
    an earlier layer contributes nothing new and the layers stabilize exactly
    when the oblivious chase terminates.
    """
    new: list[Atom] = []
    for t in enumerate_triggers(rules, fb, stats=stats):
        new.extend(t.output)
    return fb.union(new)


def ch_k(kb: KnowledgeBase, k: int, stats: Optional[dict] = None) -> FactBase:
    """k-fold breadth-first saturation; layer 0 is the fact base itself."""
    if k < 0:
        raise ValueError("k must be non-negative")
    fb = kb.facts
    for _ in range(k):
        fb = breadth_first_layer(kb.rules, fb, stats=stats)
    return fb
