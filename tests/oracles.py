"""From-scratch reference implementations of applicability and of the
breadth-first chase, for the tests.

The package decides applicability in one place, `chase.blocking`, fed by a
derivation state (`chase.ChaseState`) that keeps the frontier keys fired
along the derivation. The functions here state the same definitions
without that bookkeeping: they enumerate every trigger of a bare fact base,
decide SO from the fact base alone, and run body matches and retractions
through the general homomorphism search. `applicable_edges` and
`breadth_first_layer` index the fact base they are given as a `Store` once
per call. The tests hold the state's scans,
its fired keys and head satisfaction against them. `ch_k` is the k-fold
breadth-first saturation that acceptance criterion 6 is stated over.
"""
from __future__ import annotations

from typing import Collection, Iterable, Iterator, Optional, Sequence, Union

from exchase import hom
from exchase.chase import ChaseVariant, blocking, enumerate_triggers
from exchase.core import (
    Atom,
    Const,
    FactBase,
    KnowledgeBase,
    Rule,
    Store,
    Term,
    Trigger,
    Var,
    make_match,
)


def exists_retraction(
    whole: Iterable[Atom], part: Iterable[Atom], budget: Optional[int] = None
) -> bool:
    """True iff a homomorphism whole -> part fixes every term of `part`."""
    part_atoms = frozenset(part)
    frozen_terms: set[Term] = set()
    for a in part_atoms:
        frozen_terms.update(a.args)
    pending = [a for a in whole if a not in part_atoms]
    for a in pending:
        if all(isinstance(t, Const) or t in frozen_terms for t in a.args):
            return False  # atom is rigid but missing from the part
    found = hom.find_homomorphism(pending, part_atoms, frozen=frozenset(frozen_terms), budget=budget)
    return found is not None


def datalog_satisfied(datalog_rules: Sequence[Rule], fb: Union[FactBase, Store]) -> bool:
    """True iff every Datalog rule's head instance is present for every match."""
    for rule in datalog_rules:
        for h in hom.iter_homomorphisms(rule.body, fb):
            if any(a.substitute(h) not in fb.atoms for a in rule.head):
                return False
    return True


def so_blocked_intrinsic(t: Trigger, fb: Union[FactBase, Store]) -> bool:
    """Some trigger with the same rule and frontier image as `t` has its
    output in `fb`. Null labels are a function of (rule, match), so on a
    derivation from facts that hold no minted null this is the same as
    "a trigger with t's frontier key fired"."""
    fixed = {Var(n): v for n, v in t.match if n in t.rule.frontier}
    for h in hom.iter_homomorphisms(t.rule.body, fb, fixed=fixed):
        other = Trigger(t.rule, make_match({v.name: x for v, x in h.items() if isinstance(v, Var)}))
        if all(a in fb.atoms for a in other.output):
            return True
    return False


def is_applicable(
    variant: ChaseVariant,
    t: Trigger,
    fb: Union[FactBase, Store],
    fired: Optional[Collection[tuple]] = None,
    *,
    datalog_ok: bool = True,
) -> bool:
    """True iff `chase.blocking` finds no reason. Without `fired`, the SO
    test is intrinsic (`so_blocked_intrinsic`)."""
    if fired is None:
        fired = {t.frontier_key} if so_blocked_intrinsic(t, fb) else set()
    return blocking(variant, t, fb, fired, datalog_ok=datalog_ok) is None


def applicable_edges(kb: KnowledgeBase, fb: FactBase, variant: ChaseVariant) -> Iterator[Trigger]:
    """Applicable triggers on a bare fact base, in canonical order: every
    trigger enumerated, SO decided intrinsically, and the Datalog-first gate
    open iff every Datalog rule is satisfied."""
    store = Store(fb.atoms)
    datalog_rules = [r for r in kb.rules if r.is_datalog]
    datalog_ok = not variant.datalog_first or datalog_satisfied(datalog_rules, store)
    for t in enumerate_triggers(kb.rules, store):
        if is_applicable(variant, t, store, datalog_ok=datalog_ok):
            yield t


def breadth_first_layer(rules: Sequence[Rule], fb: FactBase, stats: Optional[dict] = None) -> FactBase:
    """One parallel layer: `fb` plus the output of every trigger on it.

    Trigger outputs reuse the content-addressed nulls, so a trigger fired in
    an earlier layer contributes nothing new and the layers stabilize exactly
    when the oblivious chase terminates.
    """
    new: list[Atom] = []
    for t in enumerate_triggers(rules, Store(fb.atoms), stats=stats):
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
