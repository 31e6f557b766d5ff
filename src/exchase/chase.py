"""Trigger enumeration, applicability tests, the derivation state, and the
chase runner with its strategies.

Applicability of a trigger t on a fact base F:

  O   t was never applied (same rule and body match) and out(t) is not in F.
  SO  no trigger with the same rule and frontier image was applied, and
      out(t) is not in F.
  R   no retraction from F + out(t) back to F (fresh nulls may move, every
      term of F stays fixed).
  E   no homomorphism at all from F + out(t) to F (every null may move).

Because null labels are a pure function of (rule, match), "was applied" is
equivalent to "its output is already present", so O needs no record. SO
reads the frontier keys of the triggers fired along the derivation, which
the derivation state keeps (`ChaseState.fired`) under SO only, the one
variant that reads them. R is decided as head
satisfaction: a search for out(t) into F in which every term F holds is
frozen, so only the fresh nulls F lacks may move. That is the retraction
test at the cost of |out(t)| atoms instead of |F|; E runs it first as its
cheap case.

The Datalog-first modifier gates non-Datalog triggers: they only become
applicable once every Datalog rule is satisfied.

A `ChaseState` is one derivation: a mutable `Store`, the triggers on it
that may still fire (semi-naive evaluation), the fired frontier keys and
the (trigger, delta) records. Invariant: after every step it holds every
trigger on the store, per rule in canonical match order, except those that
were applied or dropped. After a step only the body matches that use an
atom of the step's delta are found and inserted. They are found by
`_join`, which follows a static order that each rule compiles once
(`Rule.join_orders`): per body position j, the other body atoms, most
bound arguments first, once atom j is bound to a delta atom. An atom whose
arguments are all bound is looked up in the store; any other walks
`Store.candidates`, the rule the homomorphism search picks its candidates
by too. Enumerating every trigger of a store joins the whole body the same
way.

`ChaseState.scan` is the one place that tests applicability along a
derivation: every strategy, the final fairness check of `run_chase` and
both searches of the explorer scan a state. A scan drops a trigger only
for a reason that cannot go away as F grows: its output is present (which
covers O), its SO frontier key has fired, or its head is satisfied (R, and
E's cheap case). An E-blocked trigger stays, because a homomorphism of
F + out(t) into F that moves nulls of F must map every later atom too, so
it can stop existing; so does a Datalog-first-gated one, because the gate
reopens once the Datalog rules are satisfied again. The gate itself is "no
live Datalog trigger is left in the state".

`run_chase` steps one state forward. The explorer's depth-first search
steps one state down a path and back (`checkpoint`, `apply`, `undo`), and
its breadth-first search `fork`s a state per child.

Strategies are per-run generators: `Strategy.triggers(state)` makes a new
one for each run, and its local variables hold where the run is in the
phases, the script or the Datalog queue. So a strategy object keeps nothing
between runs, and one object may drive any number of them.
"""
from __future__ import annotations

import operator
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from .core import (
    BUDGET_EXHAUSTED,
    TERMINATED_FAIR,
    TERMINATED_UNFAIR,
    Atom,
    Derivation,
    FactBase,
    JoinStep,
    KnowledgeBase,
    Rule,
    Store,
    Term,
    Trigger,
    Var,
    make_match,
)
from . import hom


class StrategyError(ValueError):
    """A phase's rule group is not a list of rule ids, a scripted trigger
    choice is not a trigger index or was not applicable at its step, or a
    strategy names a rule the knowledge base does not have."""


class VariantError(ValueError):
    """A chase variant name is not o, so, r or e, optionally df-prefixed."""


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


def _join(
    order: Sequence[JoinStep], fb: Store, binding: dict[str, Term], stats: Optional[dict] = None
) -> Iterator[dict[str, Term]]:
    """Every extension of `binding` (variable name -> term) that maps the
    atoms of a join order (`Rule.join_orders`) into `fb`, atom by atom in
    that order. An atom whose arguments are all bound is looked up in
    `fb.atoms`; any other walks `fb.candidates` for its bound arguments.
    Counted as one search in stats["hom_calls"]."""
    if stats is not None:
        stats["hom_calls"] = stats.get("hom_calls", 0) + 1
    return _extend(order, 0, fb, binding)


def _extend(
    order: Sequence[JoinStep], k: int, fb: Store, binding: dict[str, Term]
) -> Iterator[dict[str, Term]]:
    if k == len(order):
        yield binding
        return
    pred, args = order[k]
    bound: list[tuple[int, Term]] = []
    free: list[tuple[int, str]] = []
    for i, s in enumerate(args):
        if s.__class__ is str:
            t = binding.get(s)
            if t is None:
                free.append((i, s))
                continue
            s = t
        bound.append((i, s))
    if not free:
        if Atom(pred, tuple([t for _, t in bound])) in fb.atoms:
            yield from _extend(order, k + 1, fb, binding)
        return
    arity = len(args)
    for cand in fb.candidates(pred, bound):
        cargs = cand.args
        if len(cargs) != arity:
            continue
        for i, t in bound:
            if cargs[i] != t:
                break
        else:
            ext = dict(binding)
            for i, s in free:
                if ext.setdefault(s, cargs[i]) != cargs[i]:
                    break  # a variable repeated within the atom
            else:
                yield from _extend(order, k + 1, fb, ext)


def enumerate_triggers(rules: Sequence[Rule], fb: Store, stats: Optional[dict] = None) -> Iterator[Trigger]:
    """Every (rule, body match) pair on the store exactly once: rule order,
    then canonical match order."""
    for rule in rules:
        matches = [make_match(m) for m in _join(rule.join_orders.whole, fb, {}, stats)]
        matches.sort(key=lambda m: tuple([(n, t.key) for n, t in m]))
        for m in matches:
            yield Trigger(rule, m)


def _bind(pattern: Atom, fact: Atom) -> Optional[dict[str, Term]]:
    """The binding (variable name -> term) that maps `pattern` onto `fact`,
    or None."""
    binding: dict[str, Term] = {}
    for s, t in zip(pattern.args, fact.args):
        if isinstance(s, Var):
            if binding.setdefault(s.name, t) != t:
                return None
        elif s != t:
            return None
    return binding


def delta_triggers(
    rules: Sequence[Rule],
    fb: Store,
    delta: Sequence[Atom],
    stats: Optional[dict] = None,
) -> Iterator[Trigger]:
    """The semi-naive step: every trigger on the store `fb` whose body
    match uses an atom of `delta` (the atoms just added to `fb`), each
    exactly once, in rule order. Together with the triggers on `fb` minus
    `delta` these are all triggers on `fb`. Each delta atom that body atom j
    matches is joined with the other body atoms in the rule's static order
    for j."""
    new_by_pred: dict[str, list[Atom]] = {}
    for a in delta:
        new_by_pred.setdefault(a.pred, []).append(a)
    for rule in rules:
        seen: set = set()
        for b, order in zip(rule.body, rule.join_orders.given):
            for a in new_by_pred.get(b.pred, ()):
                binding = _bind(b, a)
                if binding is None:
                    continue
                for m in _join(order, fb, binding, stats):
                    match = make_match(m)
                    if match not in seen:
                        seen.add(match)
                        yield Trigger(rule, match)


def head_satisfied(
    t: Trigger, fb, budget: Optional[int] = None, stats: Optional[dict] = None
) -> bool:
    """True iff out(t) maps into F with every term F holds kept fixed.

    This is the restricted chase's blocking test, a retraction of
    F + out(t) onto F: only the fresh nulls of t that F does not hold may
    move, so the search covers the |out(t)| atoms, not F."""
    pending = [a for a in t.output if a not in fb.atoms]
    movable = {n for n in t.output_nulls if n not in fb.terms}
    if any(movable.isdisjoint(a.args) for a in pending):
        return False  # a rigid atom is missing from F
    frozen = frozenset(x for a in pending for x in a.args if x not in movable)
    return hom.find_homomorphism(pending, fb, frozen=frozen, budget=budget, stats=stats) is not None


# Why a trigger is not applicable. PRESENT, FIRED and SATISFIED hold for good
# once they hold, because F only grows along a derivation; FOLDED (E) and
# GATED (Datalog-first) can stop holding.
PRESENT = "output present"
FIRED = "frontier twin fired"
SATISFIED = "head satisfied"
FOLDED = "folds into F"
GATED = "Datalog rule unsatisfied"
PERMANENT = frozenset((PRESENT, FIRED, SATISFIED))


def blocking(
    variant: ChaseVariant,
    t: Trigger,
    fb,
    fired: Collection[tuple],
    *,
    datalog_ok: Optional[bool] = None,
    hom_budget: Optional[int] = None,
    stats: Optional[dict] = None,
) -> Optional[str]:
    """The reason `t` is not applicable on `fb` under the variant, or None
    if it is applicable. `fired` holds the frontier keys of the triggers
    fired along the derivation to `fb`. `datalog_ok` tells whether every
    Datalog rule is satisfied; only a non-Datalog trigger under a
    Datalog-first variant reads it, and is gated unless it is true."""
    out = t.output
    if all(a in fb.atoms for a in out):
        return PRESENT
    if t.rule.is_datalog:
        # For Datalog triggers all four notions coincide with out(t) not in F.
        return None
    if variant.datalog_first and not datalog_ok:
        return GATED
    tag = variant.tag
    if tag == "o":
        return None  # content-addressed labels: applied iff output present
    if tag == "so":
        return FIRED if t.frontier_key in fired else None
    # R, and E's cheap case first: a retraction is a homomorphism.
    if head_satisfied(t, fb, budget=hom_budget, stats=stats):
        return SATISFIED
    if tag == "e":
        h = hom.find_homomorphism([*fb, *out], fb, budget=hom_budget, stats=stats)
        if h is not None:
            return FOLDED
    return None


_MATCH_ORDER = operator.attrgetter("body_key")


class ChaseState:
    """One derivation under construction: its `store`, grown in place, the
    triggers on it that may still fire (`lists`, per rule in canonical match
    order), the frontier keys fired along it (`fired`, kept under SO only,
    the one variant that reads it, as a count so that `undo` keeps a key an
    earlier step fired too) and its (trigger, delta) `records`. Invariant:
    after every step `lists` holds every trigger on the store except those
    applied or dropped by a scan for a permanent reason.
    """

    def __init__(self, kb: KnowledgeBase, variant: ChaseVariant, hom_budget: Optional[int] = None) -> None:
        self.kb, self.variant, self.hom_budget = kb, variant, hom_budget
        self.stats: dict = {"triggers_considered": 0, "hom_calls": 0}
        self.rule_index = {r.id: i for i, r in enumerate(kb.rules)}
        self.datalog_ids = frozenset(r.id for r in kb.rules if r.is_datalog)
        self.existential_ids = frozenset(r.id for r in kb.rules if not r.is_datalog)
        self.store = Store(kb.facts.atoms)
        self.lists: list[list[Trigger]] = [[] for _ in kb.rules]
        self.fired: Counter[tuple] = Counter()
        self.records: list[tuple[Trigger, tuple[Atom, ...]]] = []
        self._insert(enumerate_triggers(kb.rules, self.store, stats=self.stats))

    def fork(self) -> "ChaseState":
        """A copy that changes apart from this state. It is built field by
        field, so no other attribute set on this state carries over."""
        child = object.__new__(ChaseState)
        child.kb, child.variant, child.hom_budget = self.kb, self.variant, self.hom_budget
        child.stats = dict(self.stats)
        child.rule_index, child.datalog_ids = self.rule_index, self.datalog_ids
        child.existential_ids = self.existential_ids
        child.store, child.fired = self.store.copy(), self.fired.copy()
        child.lists = [list(entries) for entries in self.lists]
        child.records = list(self.records)
        return child

    def _insert(self, triggers: Iterable[Trigger]) -> None:
        for t in triggers:
            insort(self.lists[self.rule_index[t.rule.id]], t, key=_MATCH_ORDER)

    def scan(self, rule_ids: Optional[frozenset[str]] = None, first: bool = False) -> list[Trigger]:
        """Applicable triggers in canonical order (only the first one if
        `first`), dropping every trigger found blocked for good. The
        Datalog-first gate is open when no live Datalog trigger is left."""
        variant, store, stats = self.variant, self.store, self.stats
        found: list[Trigger] = []
        datalog_ok: Optional[bool] = None
        considered = 0
        try:
            for rule, entries in zip(self.kb.rules, self.lists):
                if rule_ids is not None and rule.id not in rule_ids:
                    continue
                gated = variant.datalog_first and not rule.is_datalog
                if gated and datalog_ok is None and entries:
                    datalog_ok = not self.scan(self.datalog_ids, first=True)
                kept: list[Trigger] = []
                pos = 0
                try:
                    while pos < len(entries):
                        t = entries[pos]
                        considered += 1
                        reason = blocking(
                            variant,
                            t,
                            store,
                            self.fired,
                            datalog_ok=datalog_ok,
                            hom_budget=self.hom_budget,
                            stats=stats,
                        )
                        pos += 1
                        if reason in PERMANENT:
                            continue
                        kept.append(t)
                        if reason is None:
                            found.append(t)
                            if first:
                                return found
                finally:
                    entries[:pos] = kept
        finally:
            stats["triggers_considered"] += considered
        return found

    def first_applicable(self, rule_ids: Optional[frozenset[str]] = None) -> Optional[Trigger]:
        found = self.scan(rule_ids, first=True)
        return found[0] if found else None

    def apply(self, t: Trigger) -> tuple[Atom, ...]:
        """Fire `t`: add its output to the store, record its frontier key,
        take it off its list and put on the triggers whose match uses an
        atom it added."""
        delta = self.store.add(t.output)
        if self.variant.tag == "so":
            self.fired[t.frontier_key] += 1
        entries = self.lists[self.rule_index[t.rule.id]]
        i = bisect_left(entries, t.body_key, key=_MATCH_ORDER)
        if i < len(entries) and entries[i].body_key == t.body_key:
            del entries[i]
        self._insert(delta_triggers(self.kb.rules, self.store, delta, self.stats))
        self.records.append((t, delta))
        return delta

    def checkpoint(self) -> list[list[Trigger]]:
        """The trigger lists, for `undo`; the state goes on with a copy."""
        lists = self.lists
        self.lists = [list(entries) for entries in lists]
        return lists

    def undo(self, lists: list[list[Trigger]]) -> None:
        """Take back the last `apply`, given what `checkpoint` returned
        before it."""
        t, delta = self.records.pop()
        self.store.remove(delta)
        if self.variant.tag == "so":
            key = t.frontier_key
            if self.fired[key] == 1:
                del self.fired[key]
            else:
                self.fired[key] -= 1
        self.lists = lists

    def derivation(self, verdict: str) -> Derivation:
        """The derivation so far, ended with `verdict`."""
        result = self.store.snapshot() if self.records else self.kb.facts
        return Derivation(self.kb.facts, tuple(self.records), result, self.variant.label, verdict)


class Strategy:
    """`triggers(state)` makes the generator of one run: it yields the next
    trigger to apply on `state` and ends when it has none left. A strategy
    that is not `complete` may end while a trigger is still applicable."""

    complete = True

    def triggers(self, state: ChaseState) -> Iterator[Trigger]:
        raise NotImplementedError


def _check_rule_ids(state: ChaseState, ids: Iterable[str]) -> None:
    unknown = ", ".join(map(repr, sorted(set(ids).difference(state.rule_index))))
    if unknown:
        raise StrategyError("strategy names rule(s) %s that the knowledge base does not have" % unknown)


class FIFO(Strategy):
    """First applicable trigger in canonical order, every step."""

    def triggers(self, state: ChaseState) -> Iterator[Trigger]:
        while (t := state.first_applicable()) is not None:
            yield t


class DatalogFirst(Strategy):
    """Prefer applicable Datalog triggers; otherwise first applicable.

    A refill queues the state's live Datalog triggers in canonical order;
    they are revalidated at pop time (their heads may have shown up
    meanwhile), and the Datalog triggers that firing them creates wait for
    the next refill.
    """

    def triggers(self, state: ChaseState) -> Iterator[Trigger]:
        queue: "deque[Trigger]" = deque()
        while True:
            while queue:
                t = queue.popleft()
                state.stats["triggers_considered"] += 1
                if any(a not in state.store.atoms for a in t.output):
                    yield t
            queue.extend(state.scan(state.datalog_ids))
            if not queue:
                t = state.first_applicable(state.existential_ids)
                if t is None:
                    return
                yield t


class Phased(Strategy):
    """Apply rule groups in order; each phase either exhausts its rules or
    fires one trigger. Phases that have nothing applicable are skipped. A
    phase is a (group, mode) pair: a list or tuple of rule ids, and
    "exhaust" or "once"."""

    complete = False

    def __init__(self, phases: Sequence[tuple[Sequence[str], str]]):
        for ids, _ in phases:
            # a bare string would read as the set of its characters
            if not isinstance(ids, (list, tuple)) or not all(isinstance(i, str) for i in ids):
                raise StrategyError("phase rule group %r is not a list of rule ids" % (ids,))
        self.phases = [(frozenset(ids), mode) for ids, mode in phases]
        for _, mode in self.phases:
            if mode not in ("exhaust", "once"):
                raise ValueError("phase mode must be 'exhaust' or 'once', got %r" % mode)

    def triggers(self, state: ChaseState) -> Iterator[Trigger]:
        _check_rule_ids(state, (i for ids, _ in self.phases for i in ids))
        for ids, mode in self.phases:
            while (t := state.first_applicable(ids)) is not None:
                yield t
                if mode == "once":
                    break


class Scripted(Strategy):
    """Explicit choices: each step names a rule and the index of the wanted
    trigger among that rule's applicable triggers in canonical order."""

    complete = False

    def __init__(self, steps: Sequence):
        self.steps = [(s, 0) if isinstance(s, str) else (s[0], s[1]) for s in steps]
        for rule_id, pick in self.steps:
            if not isinstance(pick, int) or pick < 0:
                raise StrategyError(
                    "scripted step for rule %r: index %r is not a non-negative integer"
                    % (rule_id, pick)
                )

    def triggers(self, state: ChaseState) -> Iterator[Trigger]:
        _check_rule_ids(state, (rule_id for rule_id, _ in self.steps))
        for number, (rule_id, pick) in enumerate(self.steps, 1):
            candidates = state.scan(frozenset([rule_id]))
            if pick >= len(candidates):
                raise StrategyError(
                    "scripted step %d: rule %r has %d applicable trigger(s), wanted index %d"
                    % (number, rule_id, len(candidates), pick)
                )
            yield candidates[pick]


@dataclass(frozen=True)
class ChaseOutcome:
    derivation: Derivation
    result: FactBase
    verdict: str
    stats: dict


# Verdict of a run that its stop hook ended.
STOPPED = "stopped"


def run_chase(
    kb: KnowledgeBase,
    variant: ChaseVariant,
    strategy: Optional[Strategy] = None,
    max_steps: int = 1000,
    *,
    hom_budget: Optional[int] = None,
    stop: Optional[Callable[[Store], bool]] = None,
) -> ChaseOutcome:
    """Build a derivation under the variant's applicability and the order of
    a new generator of the strategy. Stops fairly when nothing is applicable,
    unfairly when a strategy that is not `complete` ends early, or with a
    budget verdict at max_steps.
    `stop`, if given, sees the fact base before the first and after every
    step; once it returns True the run ends with the verdict STOPPED.
    """
    strategy = strategy or FIFO()
    state = ChaseState(kb, variant, hom_budget)
    choices = strategy.triggers(state)
    verdict = None
    try:
        while verdict is None:
            if stop is not None and stop(state.store):
                verdict = STOPPED
            elif len(state.records) >= max_steps:
                nothing_left = state.first_applicable() is None
                verdict = TERMINATED_FAIR if nothing_left else BUDGET_EXHAUSTED
            else:
                t = next(choices, None)
                if t is not None:
                    state.apply(t)
                elif strategy.complete or state.first_applicable() is None:
                    verdict = TERMINATED_FAIR
                else:
                    verdict = TERMINATED_UNFAIR
    except hom.HomBudgetExceeded:
        verdict = BUDGET_EXHAUSTED
    state.stats["steps"] = len(state.records)
    derivation = state.derivation(verdict)
    return ChaseOutcome(derivation, derivation.result, verdict, dict(state.stats))

