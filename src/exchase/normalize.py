"""Rule-set normalisation: single-piece, one-way atomic, two-way atomic.

A piece of a rule head is a connected component under the
shares-an-existential-variable relation. Single-piece decomposition splits
each rule into one rule per piece (logically equivalent output). The atomic
decompositions route each head through a fresh predicate holding the frontier
and existential variables; the two-way variant adds the converse rule from
the full head back to the fresh predicate, which preserves universal models.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Atom, Rule, Var, sort_atoms


class FreshNameClashError(ValueError):
    """A generated predicate name already occurs in the input signature, or
    two input rules would get the same one."""


@dataclass(frozen=True)
class PieceGraph:
    vertices: tuple[Atom, ...]
    edges: frozenset[frozenset[int]]  # indexes into vertices


@dataclass(frozen=True)
class DecompositionReport:
    input_rules: tuple[Rule, ...]
    output_rules: tuple[Rule, ...]
    fresh_predicates: tuple[tuple[str, int], ...]
    mapping: dict[str, tuple[str, ...]]  # input rule id -> output rule ids


def piece_graph(rule: Rule) -> PieceGraph:
    verts = rule.head
    ex = rule.existentials
    edges = set()
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            shared = verts[i].variables() & verts[j].variables() & ex
            if shared:
                edges.add(frozenset((i, j)))
    return PieceGraph(verts, frozenset(edges))


def pieces(rule: Rule) -> list[tuple[Atom, ...]]:
    """Connected components of the piece graph, in canonical order."""
    graph = piece_graph(rule)
    n = len(graph.vertices)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in graph.edges:
        i, j = tuple(edge)
        parent[find(i)] = find(j)
    groups: dict[int, list[Atom]] = {}
    for i, a in enumerate(graph.vertices):
        groups.setdefault(find(i), []).append(a)
    comps = [sort_atoms(g) for g in groups.values()]
    comps.sort(key=lambda c: tuple(a.key() for a in c))
    return comps


def single_piece(rules: Sequence[Rule]) -> DecompositionReport:
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
    return DecompositionReport(tuple(rules), tuple(out), (), mapping)


def _fresh_name(rule_id: str) -> str:
    # rule ids may contain dots (decomposition output); predicates may not
    return "X__%s" % rule_id.replace(".", "_")


def _fresh_atom(rule: Rule) -> Atom:
    args = tuple(Var(v) for v in sorted(rule.frontier)) + tuple(
        Var(v) for v in sorted(rule.existentials)
    )
    return Atom(_fresh_name(rule.id), args)


def _check_clash(rules: Sequence[Rule], reserved: Iterable[str]) -> None:
    sig = set(reserved)
    for r in rules:
        for a in r.body + r.head:
            sig.add(a.pred)
    owner: dict[str, str] = {}
    for r in rules:
        name = _fresh_name(r.id)
        if name in sig:
            raise FreshNameClashError("fresh predicate %r clashes with the input signature" % name)
        if name in owner:
            raise FreshNameClashError(
                "rules %r and %r would both get fresh predicate %r" % (owner[name], r.id, name)
            )
        owner[name] = r.id


def one_way(
    rules: Sequence[Rule], skip_atomic: bool = False, reserved: Iterable[str] = ()
) -> DecompositionReport:
    """Per rule: a generator B -> exists z. X_R(x, z) and one projection
    X_R(x, z) -> P(t) per head atom. Applied to every rule unless
    `skip_atomic` leaves single-atom heads untouched."""
    _check_clash(rules, reserved)
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
    return DecompositionReport(tuple(rules), tuple(out), tuple(fresh), mapping)


def two_way(
    rules: Sequence[Rule], skip_atomic: bool = False, reserved: Iterable[str] = ()
) -> DecompositionReport:
    """One-way output plus, per rule, the backward rule H(x, z) -> X_R(x, z)."""
    base = one_way(rules, skip_atomic=skip_atomic, reserved=reserved)
    out = list(base.output_rules)
    mapping = dict(base.mapping)
    for rule in rules:
        if skip_atomic and len(rule.head) == 1:
            continue
        x_atom = _fresh_atom(rule)
        rid = "%s.b" % rule.id
        out.append(Rule(rid, rule.head, (x_atom,)))
        mapping[rule.id] = mapping[rule.id] + (rid,)
    return DecompositionReport(base.input_rules, tuple(out), base.fresh_predicates, mapping)


def report_sidecar(report: DecompositionReport) -> dict:
    """JSON-ready description of a decomposition (fresh predicates, mapping)."""
    return {
        "fresh_predicates": [[name, arity] for name, arity in report.fresh_predicates],
        "mapping": {k: list(v) for k, v in sorted(report.mapping.items())},
    }
