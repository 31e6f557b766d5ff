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
variant that reads them. R is decided as head satisfaction: a join of the
rule's head from t's frontier match (`Rule.head_plan`), in which only the
fresh nulls F lacks may move, which are those the input facts lack. That is
the retraction test at the cost of |out(t)| atoms instead of |F|; E runs it
first as its cheap case. E's fold, the search for any homomorphism of
F + out(t) into F, is the one use of `hom` here, and the first one loads it:
a run under O, SO or R, or an E run whose head tests settle every trigger,
never imports `hom`.

The Datalog-first modifier gates non-Datalog triggers: they only become
applicable once every Datalog rule is satisfied.

A `ChaseState` is one derivation: a mutable `Store`, the triggers on it
that may still fire (semi-naive evaluation), the fired frontier keys and
the (trigger, delta) records. Invariant: after every step it holds every
trigger on the store, per rule in canonical match order, except those that
were applied or dropped. After a step only the body matches that use an
atom of the step's delta are found and inserted (`delta_triggers`). The
knowledge base's `body_index` gives the body atoms of each delta predicate;
each such atom j is bound to the delta atoms it matches (`Store.matches`)
and joined with the other body atoms by the plan that j's `BodyEntry`
holds (`core.join_plan`, most bound arguments first). A join (`_join`) is
`core.search` in plan order, the loop the homomorphism search runs in
fail-first order, so it reads the store's buckets as that search does,
in the order their atoms were added. Trigger order is canonical match
order, the order of `Trigger.match`: each trigger list and each rule's
batch of `enumerate_triggers` holds the triggers of one rule, so the match
alone orders it. `enumerate_triggers` sorts by it and `apply` inserts new
triggers by it, so a join sorts no bucket.
Enumerating every trigger of a store joins the whole body the same way, by
`Rule.body_plan`.

`enumerate_triggers` and `delta_triggers` take each trigger from the
knowledge base's `trigger_table`, one dict of match -> `Trigger` per rule,
and put in each one it lacks; they are the only places that make a
`Trigger`. So every state, run and explorer branch
over one knowledge base shares the trigger of a (rule, match), and with it
its output, minted nulls and keys, computed once. A scan that drops a
trigger because its output is present takes its entry out as well: such a
trigger is Datalog in practice (an existential one's output holds its own
minted nulls, so it is present only once it has fired, and firing takes
it off its list), which has no digest to share.

`ChaseState` is the one place that tests applicability along a derivation,
one `ChaseState.blocked` call per trigger considered, which reads the
state's store, fired keys, variant and budget and changes nothing but the
count: `scan` calls it for its trigger lists, for every strategy, the final
fairness check of `run_chase` and both searches of the explorer, and
Datalog-first's re-check of its batch calls it for one trigger. `blocked`
takes the Datalog-first gate from its caller: `scan` is the one place that
computes it, once per scan. A scan drops a trigger only for a reason that
cannot go away as F grows: its output is present (which covers O), its SO
frontier key has fired, or its head is satisfied (R, and E's cheap case).
An E-blocked trigger stays, because a homomorphism of
F + out(t) into F that moves nulls of F must map every later atom too, so
it can stop existing; so does a Datalog-first-gated one, because the gate
reopens once the Datalog rules are satisfied again. The gate itself is "no
live Datalog trigger is left in the state".

`run_chase` steps one state forward (`apply`); each search of the explorer
moves one state through the derivation graph (`push`, `pop`, `goto`).

Strategies are per-run generators: `Strategy.triggers(state)` makes a new
one for each run, and its local variables hold where the run is in the
phases, the script or the batch of Datalog triggers. So a strategy object
keeps nothing between runs, and one object may drive any number of them.
"""
from __future__ import annotations

import operator
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .core import (
    BUDGET_EXHAUSTED,
    TERMINATED_FAIR,
    TERMINATED_UNFAIR,
    Atom,
    Derivation,
    HomBudgetExceeded,
    InputError,
    KnowledgeBase,
    Match,
    PlanStep,
    Rule,
    Store,
    Term,
    Trigger,
    join_plan,
    make_match,
    search,
)


class StrategyError(InputError):
    """A phase's rule group is not a list of rule ids or its mode is not
    "exhaust" or "once", a script is not a list of steps, a scripted trigger
    choice is not a trigger index or was not applicable at its step, or a
    strategy names a rule the knowledge base does not have."""


class VariantError(InputError):
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
    plan: Sequence[PlanStep], fb: Store, binding: dict[str, Term], stats: Optional[dict] = None
) -> Iterator[dict[str, Term]]:
    """Every extension of `binding` (variable name -> term) mapping a join
    plan (`core.join_plan`, made for the variables of `binding`) into `fb`:
    `core.search` in plan order, counted as one in stats["hom_calls"]."""
    if stats is not None:
        stats["hom_calls"] = stats.get("hom_calls", 0) + 1
    return search(fb, binding, plan)


# Canonical trigger order within a rule: the order of the match.
_MATCH_ORDER = operator.attrgetter("match")


def enumerate_triggers(
    rules: Sequence[Rule],
    fb: Store,
    stats: Optional[dict] = None,
    table: Optional[Sequence[dict[Match, Trigger]]] = None,
) -> Iterator[Trigger]:
    """Every (rule, body match) pair on the store exactly once: rule order,
    then canonical match order. `table`, one dict per rule (the
    `KnowledgeBase.trigger_table` of the rules), gives the trigger of each
    match it holds and takes each one it lacks; without it every trigger
    is made anew."""
    for rule, triggers in zip(rules, table or [{} for _ in rules]):
        found = []
        for m in _join(rule.body_plan, fb, {}, stats):
            match = make_match(m)
            t = triggers.get(match)
            if t is None:
                t = triggers[match] = Trigger(rule, match)
            found.append(t)
        found.sort(key=_MATCH_ORDER)
        yield from found


def delta_triggers(
    kb: KnowledgeBase,
    fb: Store,
    delta: Sequence[Atom],
    stats: Optional[dict] = None,
) -> Iterator[Trigger]:
    """The semi-naive step: every trigger on the store `fb` whose body
    match uses an atom of `delta` (the atoms just added to `fb`), each
    exactly once, in rule order, over the rules of `kb`. Together with the
    triggers on `fb` minus `delta` these are all triggers on `fb`. Only the
    body atoms of the delta's predicates are visited (`kb.body_index`):
    each delta atom that body atom j matches is joined with the other body
    atoms by the rule's plan for j. Each trigger comes from
    `kb.trigger_table`, which a match it lacks goes into. Only a scan
    takes an entry out, and none runs while the call does, so a trigger
    found twice is the same object: the call tells triggers apart by
    identity."""
    index, table = kb.body_index, kb.trigger_table
    new_by_pred: dict[str, list[Atom]] = {}
    for a in delta:
        new_by_pred.setdefault(a.pred, []).append(a)
    entries = [e for pred in new_by_pred for e in index.get(pred, ())]
    if len(new_by_pred) > 1:
        entries.sort()  # by (rule_pos, body_pos), which is unique
    seen: set[int] = set()  # the ids of the triggers yielded, all held by the table
    rule_pos = None
    for entry in entries:
        if entry.rule_pos != rule_pos:
            rule_pos = entry.rule_pos
            triggers, seen = table[rule_pos], set()
        pattern = entry.pattern
        for a in fb.matches(pattern, {}, new_by_pred[pattern.pred]):
            binding = {s: a.args[i] for i, s in pattern.free}
            for m in _join(entry.plan, fb, binding, stats):
                match = make_match(m)
                t = triggers.get(match)
                if t is None:
                    t = triggers[match] = Trigger(entry.rule, match)
                if id(t) not in seen:
                    seen.add(id(t))
                    yield t


# Why a trigger is not applicable. PRESENT, FIRED and SATISFIED hold for good
# once they hold, because F only grows along a derivation; FOLDED (E) and
# GATED (Datalog-first) can stop holding.
PRESENT = "output present"
FIRED = "frontier twin fired"
SATISFIED = "head satisfied"
FOLDED = "folds into F"
GATED = "Datalog rule unsatisfied"
PERMANENT = frozenset((PRESENT, FIRED, SATISFIED))


class ChaseState:
    """One derivation under construction: its `store`, grown in place, the
    triggers on it that may still fire (`lists`, per rule in canonical match
    order), the frontier keys of its non-Datalog steps (`fired`, kept under
    SO only, the one variant that reads them; an applicable trigger's key is
    not in it yet, so `pop` removes the key its step added) and its
    (trigger, delta) `records`. Invariant: after every step `lists` holds
    every trigger on the store except those applied or dropped by a scan
    for a permanent reason. A run moves a state by `apply` alone, a search
    by `push`, `pop` and `goto` alone.
    """

    def __init__(self, kb: KnowledgeBase, variant: ChaseVariant, hom_budget: Optional[int] = None) -> None:
        self.kb, self.variant, self.hom_budget = kb, variant, hom_budget
        self.stats: dict = {"triggers_considered": 0, "hom_calls": 0}
        self.rule_index = {r.id: i for i, r in enumerate(kb.rules)}
        self.datalog_ids = frozenset(r.id for r in kb.rules if r.is_datalog)
        self.store = Store(kb.facts.atoms)
        self.lists: list[list[Trigger]] = [[] for _ in kb.rules]
        self.fired: set[tuple] = set()
        self.records: list[tuple[Trigger, tuple[Atom, ...]]] = []
        self._trail: list[list[list[Trigger]]] = []  # the lists before each push
        for t in enumerate_triggers(kb.rules, self.store, self.stats, kb.trigger_table):
            self.lists[self.rule_index[t.rule.id]].append(t)  # in match order per rule

    def scan(self, rule_ids: Optional[frozenset[str]] = None, first: bool = False) -> list[Trigger]:
        """Applicable triggers in canonical order (only the first one if
        `first`), dropping every trigger found blocked for good, and taking
        one whose output is present out of the knowledge base's
        `trigger_table` too, if its entry is that very trigger. The
        Datalog-first gate is open when no live Datalog trigger is left; a
        scan finds it once, before the first non-Datalog trigger it tests,
        and passes it to each `blocked` call. An E test over `hom_budget`
        leaves its list uncompacted but whole."""
        datalog_first, blocked = self.variant.datalog_first, self.blocked
        found: list[Trigger] = []
        datalog_ok: Optional[bool] = None
        for rule, entries, triggers in zip(self.kb.rules, self.lists, self.kb.trigger_table):
            if rule_ids is not None and rule.id not in rule_ids:
                continue
            if datalog_ok is None and entries and datalog_first and not rule.is_datalog:
                datalog_ok = not self.scan(self.datalog_ids, first=True)
            kept: list[Trigger] = []
            for pos, t in enumerate(entries):
                reason = blocked(t, datalog_ok)
                if reason in PERMANENT:
                    if reason is PRESENT and triggers.get(t.match) is t:
                        del triggers[t.match]
                    continue
                kept.append(t)
                if reason is None:
                    found.append(t)
                    if first:
                        entries[: pos + 1] = kept
                        return found
            entries[:] = kept
        return found

    def blocked(self, t: Trigger, datalog_ok: Optional[bool]) -> Optional[str]:
        """Why `t` is not applicable on the state, or None if it is: the one
        applicability test, counted as one trigger considered, and a read
        of the state that changes nothing else. `datalog_ok` tells whether
        the Datalog-first gate is open, as the caller found it; it is read
        only for a non-Datalog trigger under Datalog-first, and a scan
        passes None until it has found the gate, before the first such
        trigger it tests.

        R's test, which E runs first as its cheap case, is head
        satisfaction: a retraction of F + out(t) onto F, in which only the
        fresh nulls of t that F lacks may move, so the head is joined from
        t's match and the fresh nulls F holds. Those are the fresh nulls
        the input facts hold. The test is reached only when out(t) is not
        all in F, so t has not fired on this derivation: F only grows along
        a derivation, and `pop` undoes pushes in LIFO order. A null label
        is minted only by its own (rule, match), so no other step can have
        added one of t's fresh nulls to F."""
        variant = self.variant
        self.stats["triggers_considered"] += 1
        out, store = t.output, self.store
        if all(a in store.atoms for a in out):
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
            return FIRED if t.frontier_key in self.fired else None
        movable = t.output_nulls - self.kb.facts.nulls
        rigid_missing = any(movable.isdisjoint(a.args) for a in out if a not in store.atoms)
        if not rigid_missing:
            binding = {s: x for s, x in t.extended.items() if x not in movable}
            head = t.rule.head_plan if len(binding) == len(t.match) else join_plan(t.rule.head, binding)
            if next(_join(head, store, binding, self.stats), None) is not None:
                return SATISFIED
        if tag == "e":
            from . import hom  # E's fold is the one use of `hom` here

            self.stats["hom_calls"] += 1
            if hom.find_homomorphism([*store, *out], store, budget=self.hom_budget) is not None:
                return FOLDED
        return None

    def apply(self, t: Trigger) -> tuple[Atom, ...]:
        """Fire `t`: add its output to the store, record its frontier key,
        take it off its list and put on the triggers whose match uses an
        atom it added."""
        delta = self.store.add(t.output)
        if self.variant.tag == "so" and not t.rule.is_datalog:
            self.fired.add(t.frontier_key)
        entries = self.lists[self.rule_index[t.rule.id]]
        i = bisect_left(entries, t.match, key=_MATCH_ORDER)
        if i < len(entries) and entries[i].match == t.match:
            del entries[i]
        for new in delta_triggers(self.kb, self.store, delta, self.stats):
            insort(self.lists[self.rule_index[new.rule.id]], new, key=_MATCH_ORDER)
        self.records.append((t, delta))
        return delta

    def push(self, t: Trigger) -> None:
        """`apply` `t`, keeping the trigger lists on the trail for `pop`."""
        self._trail.append(self.lists)
        self.lists = [list(entries) for entries in self.lists]
        self.apply(t)

    def pop(self) -> None:
        """Take back the last `push`."""
        t, delta = self.records.pop()
        self.store.remove(delta)
        if self.variant.tag == "so" and not t.rule.is_datalog:
            self.fired.remove(t.frontier_key)
        self.lists = self._trail.pop()

    def goto(self, path: Sequence[Trigger]) -> None:
        """Move to the end of `path`, triggers each applicable after those
        before it: pop back to the prefix the records share with `path` (by
        trigger identity), then push the rest. Identity is equality for the
        triggers the knowledge base's `trigger_table` still holds, since
        every step that meets such a (rule, match) gets the same object; a
        trigger made again after a scan took its entry out is a new object,
        which costs only a pop and a push more."""
        records = self.records
        k, n = 0, min(len(records), len(path))
        while k < n and records[k][0] is path[k]:
            k += 1
        for _ in range(len(records) - k):
            self.pop()
        for t in path[k:]:
            self.push(t)

    def derivation(self, verdict: str) -> Derivation:
        """The derivation so far, ended with `verdict`, carrying a copy of
        the state's stats with its `steps`."""
        result = self.store.snapshot() if self.records else self.kb.facts
        stats = {**self.stats, "steps": len(self.records)}
        return Derivation(self.kb.facts, tuple(self.records), result, verdict, stats)


class Strategy:
    """`triggers(state)` makes the generator of one run: it yields the next
    trigger to apply on `state` and ends when it has none left. A strategy
    that is not `complete` may end while a trigger is still applicable.
    `rule_ids` are the rule ids the strategy names."""

    complete = True
    rule_ids: frozenset[str] = frozenset()

    def triggers(self, state: ChaseState) -> Iterator[Trigger]:
        raise NotImplementedError


def check_rule_ids(strategy: Strategy, kb: KnowledgeBase) -> None:
    """Raise StrategyError if `strategy` names a rule that `kb` does not have."""
    unknown = ", ".join(map(repr, sorted(strategy.rule_ids.difference(r.id for r in kb.rules))))
    if unknown:
        raise StrategyError("strategy names rule(s) %s that the knowledge base does not have" % unknown)


class FIFO(Strategy):
    """First applicable trigger in canonical order, every step."""

    def triggers(self, state: ChaseState) -> Iterator[Trigger]:
        while found := state.scan(first=True):
            yield found[0]


class DatalogFirst(Strategy):
    """Prefer applicable Datalog triggers; otherwise first applicable.

    A refill scans the state's live Datalog triggers in canonical order, and
    `ChaseState.blocked` checks each again before it is yielded (its head
    may have shown up meanwhile), with the gate open, which no Datalog
    trigger reads. The Datalog triggers that firing the batch creates wait
    for the next refill.
    """

    def triggers(self, state: ChaseState) -> Iterator[Trigger]:
        while True:
            batch = state.scan(state.datalog_ids)
            for t in batch:
                if state.blocked(t, True) is None:
                    yield t
            if not batch:
                found = state.scan(first=True)  # no Datalog trigger is applicable
                if not found:
                    return
                yield found[0]


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
        self.rule_ids = frozenset().union(*(ids for ids, _ in self.phases))
        for _, mode in self.phases:
            if mode not in ("exhaust", "once"):
                raise StrategyError("phase mode must be 'exhaust' or 'once', got %r" % mode)

    def triggers(self, state: ChaseState) -> Iterator[Trigger]:
        check_rule_ids(self, state.kb)
        for ids, mode in self.phases:
            while found := state.scan(ids, first=True):
                yield found[0]
                if mode == "once":
                    break


class Scripted(Strategy):
    """Explicit choices, one per step: a [rule id, index] pair names the
    wanted trigger by its index among the rule's applicable triggers in
    canonical order, and a bare rule id stands for index 0."""

    complete = False

    def __init__(self, steps: Sequence):
        # a string would read as its characters, an object as its keys
        if not isinstance(steps, (list, tuple)):
            raise StrategyError("scripted steps %r are not a list" % (steps,))
        self.steps = [(s, 0) if isinstance(s, str) else s for s in steps]
        for step in self.steps:
            if not isinstance(step, (list, tuple)) or len(step) != 2 or not isinstance(step[0], str):
                raise StrategyError(
                    "scripted step %r is not a rule id or a [rule id, index] pair" % (step,)
                )
            if type(step[1]) is not int or step[1] < 0:  # a JSON true is an int too
                raise StrategyError(
                    "scripted step for rule %r: index %r is not a non-negative integer" % tuple(step)
                )
        self.rule_ids = frozenset(rule_id for rule_id, _ in self.steps)

    def triggers(self, state: ChaseState) -> Iterator[Trigger]:
        check_rule_ids(self, state.kb)
        for number, (rule_id, pick) in enumerate(self.steps, 1):
            candidates = state.scan(frozenset([rule_id]))
            if pick >= len(candidates):
                raise StrategyError(
                    "scripted step %d: rule %r has %d applicable trigger(s), wanted index %d"
                    % (number, rule_id, len(candidates), pick)
                )
            yield candidates[pick]


# Verdict of a run that its stop hook ended.
STOPPED = "stopped"


def run_chase(
    kb: KnowledgeBase,
    variant: ChaseVariant,
    strategy: Optional[Strategy] = None,
    max_steps: int = 1000,
    *,
    hom_budget: Optional[int] = None,
    stop: Optional[Callable[[ChaseState], bool]] = None,
) -> Derivation:
    """Build a derivation under the variant's applicability and the order of
    a new generator of the strategy. Stops fairly when nothing is applicable,
    unfairly when a strategy that is not `complete` ends early, or with a
    budget verdict at max_steps.
    `stop`, if given, sees the state before the first and after every step;
    once it returns True the run ends with the verdict STOPPED.
    Returns the derivation, which carries the run's stats.
    """
    strategy = strategy or FIFO()
    state = ChaseState(kb, variant, hom_budget)
    choices = strategy.triggers(state)
    verdict = None
    try:
        while verdict is None:
            if stop is not None and stop(state):
                verdict = STOPPED
            elif len(state.records) >= max_steps:
                verdict = BUDGET_EXHAUSTED if state.scan(first=True) else TERMINATED_FAIR
            else:
                t = next(choices, None)
                if t is not None:
                    state.apply(t)
                elif strategy.complete or not state.scan(first=True):
                    verdict = TERMINATED_FAIR
                else:
                    verdict = TERMINATED_UNFAIR
    except HomBudgetExceeded:
        verdict = BUDGET_EXHAUSTED
    return state.derivation(verdict)

