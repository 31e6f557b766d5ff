"""Rule-set normalisation: single-piece, one-way atomic, two-way atomic.

A piece of a rule head is a connected component under the
shares-an-existential-variable relation. Single-piece decomposition splits
each rule into one rule per piece (logically equivalent output). The atomic
decompositions route each head through a fresh predicate holding the frontier
and existential variables; the two-way variant adds the converse rule from
the full head back to the fresh predicate, which preserves universal models.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .core import Atom, InputError, Rule, Value, Var, _set, sort_atoms


class FreshNameClashError(InputError):
    """A name a decomposition generates is taken: a fresh predicate by a
    predicate of the input or by another rule's fresh predicate, or a
    generated rule id by an input rule id."""


class DecompositionReport(Value):
    _fields = ("output_rules", "fresh_predicates", "mapping")

    def __init__(
        self,
        output_rules: tuple[Rule, ...],
        fresh_predicates: tuple[tuple[str, int], ...],
        mapping: dict[str, tuple[str, ...]],  # input rule id -> output rule ids
    ) -> None:
        _set(self, "output_rules", output_rules)
        _set(self, "fresh_predicates", fresh_predicates)
        _set(self, "mapping", mapping)


def pieces(rule: Rule) -> list[tuple[Atom, ...]]:
    """Connected components of the head under the shares-an-existential
    relation, in canonical order, found by a variable -> first atom index."""
    head = rule.head
    parent = list(range(len(head)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first: dict[str, int] = {}
    for i, a in enumerate(head):
        for z in a.variables() & rule.existentials:
            parent[find(first.setdefault(z, i))] = find(i)
    groups: dict[int, list[Atom]] = {}
    for i, a in enumerate(head):
        groups.setdefault(find(i), []).append(a)
    comps = [sort_atoms(g) for g in groups.values()]
    comps.sort(key=lambda c: tuple(map(Atom.key, c)))
    return comps


def _checked(
    rules: Sequence[Rule], report: DecompositionReport, reserved: Iterable[str]
) -> DecompositionReport:
    """`report`, once no name it generates is taken: a fresh predicate by a
    predicate of the input rules or of `reserved` (the facts and queries
    that go with them), or by another rule's fresh predicate; a generated
    rule id by an input rule id."""
    signature = set(reserved).union(a.pred for r in rules for a in r.body + r.head)
    fresh: set[str] = set()
    for name, _ in report.fresh_predicates:
        if name in signature:
            raise FreshNameClashError("fresh predicate %r clashes with the input signature" % name)
        if name in fresh:
            raise FreshNameClashError("two rules would both get fresh predicate %r" % name)
        fresh.add(name)
    input_ids = {r.id for r in rules}
    for rule_id, ids in report.mapping.items():
        for rid in ids:
            if rid != rule_id and rid in input_ids:
                raise FreshNameClashError(
                    "rule %r would get the id %r of an input rule" % (rule_id, rid)
                )
    return report


def single_piece(rules: Sequence[Rule], reserved: Iterable[str] = ()) -> DecompositionReport:
    """Per rule: one rule per piece of its head, ids suffixed .p1, .p2, ...;
    a single-piece rule is kept. It makes no fresh predicate, so only the
    rule ids it generates are checked."""
    out: list[Rule] = []
    mapping: dict[str, tuple[str, ...]] = {}
    for rule in rules:
        comps = pieces(rule)
        if len(comps) == 1:
            out.append(rule)
            mapping[rule.id] = (rule.id,)
            continue
        ids = []
        for k, comp in enumerate(comps, start=1):
            rid = "%s.p%d" % (rule.id, k)
            out.append(Rule(rid, rule.body, comp))
            ids.append(rid)
        mapping[rule.id] = tuple(ids)
    return _checked(rules, DecompositionReport(tuple(out), (), mapping), reserved)


def _fresh_name(rule_id: str) -> str:
    # rule ids may contain dots (decomposition output); predicates may not
    return "X__%s" % rule_id.replace(".", "_")


def _fresh_atom(rule: Rule) -> Atom:
    args = tuple(Var(v) for v in sorted(rule.frontier)) + tuple(
        Var(v) for v in sorted(rule.existentials)
    )
    return Atom(_fresh_name(rule.id), args)


def _one_way(rules: Sequence[Rule], skip_atomic: bool) -> DecompositionReport:
    out: list[Rule] = []
    fresh: list[tuple[str, int]] = []
    mapping: dict[str, tuple[str, ...]] = {}
    for rule in rules:
        if skip_atomic and len(rule.head) == 1:
            out.append(rule)
            mapping[rule.id] = (rule.id,)
            continue
        x_atom = _fresh_atom(rule)
        fresh.append((x_atom.pred, x_atom.arity))
        ids = []
        gen_id = "%s.x" % rule.id
        out.append(Rule(gen_id, rule.body, (x_atom,)))
        ids.append(gen_id)
        for k, head_atom in enumerate(rule.head, start=1):
            rid = "%s.h%d" % (rule.id, k)
            out.append(Rule(rid, (x_atom,), (head_atom,)))
            ids.append(rid)
        mapping[rule.id] = tuple(ids)
    return DecompositionReport(tuple(out), tuple(fresh), mapping)


def one_way(
    rules: Sequence[Rule], skip_atomic: bool = False, reserved: Iterable[str] = ()
) -> DecompositionReport:
    """Per rule: a generator B -> exists z. X_R(x, z) and one projection
    X_R(x, z) -> P(t) per head atom. Applied to every rule unless
    `skip_atomic` leaves single-atom heads untouched."""
    return _checked(rules, _one_way(rules, skip_atomic), reserved)


def two_way(
    rules: Sequence[Rule], skip_atomic: bool = False, reserved: Iterable[str] = ()
) -> DecompositionReport:
    """One-way output plus, per rule, the backward rule H(x, z) -> X_R(x, z)."""
    base = _one_way(rules, skip_atomic)
    out = list(base.output_rules)
    mapping = dict(base.mapping)
    for rule in rules:
        if skip_atomic and len(rule.head) == 1:
            continue
        x_atom = _fresh_atom(rule)
        rid = "%s.b" % rule.id
        out.append(Rule(rid, rule.head, (x_atom,)))
        mapping[rule.id] = mapping[rule.id] + (rid,)
    return _checked(rules, DecompositionReport(tuple(out), base.fresh_predicates, mapping), reserved)


# The decompositions by the name the command line and the fixtures give them.
PROCEDURES = {"sp": single_piece, "1ad": one_way, "2ad": two_way}


def report_sidecar(report: DecompositionReport) -> dict:
    """JSON-ready description of a decomposition (fresh predicates, mapping)."""
    return {
        "fresh_predicates": [[name, arity] for name, arity in report.fresh_predicates],
        "mapping": {k: list(v) for k, v in sorted(report.mapping.items())},
    }
