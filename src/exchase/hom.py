"""Backtracking search for homomorphisms, retractions and isomorphisms.

A homomorphism between atom sets maps variables and nulls to terms and fixes
constants pointwise. A retraction into a subset additionally fixes every term
of the subset. The equivalent-chase test moves *all* nulls of the source, so
callers control which terms are frozen.

`IsoTable` maps atom sets up to isomorphism. It buckets them by a
colour-refinement invariant and runs an exact, budgeted isomorphism check
within a bucket; the derivation explorer uses it to deduplicate states.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .core import Atom, Const, FactBase, Store, Term


class HomBudgetExceeded(Exception):
    """The per-check node budget ran out before the search finished."""


class _Search:
    """Backtracking search with forward pruning over a `Store`, branching on
    the most constrained atom (fail-first): the first remaining atom with the
    fewest candidates, or the first with at most one. `_most_constrained`
    counts candidates only as far as that choice needs, so a node costs the
    atoms it reads up to the choice, not every candidate of every atom."""

    def __init__(self, source, target, fixed, frozen, injective, budget, stats):
        self.atoms = list(source)
        self.fb = target if isinstance(target, Store) else Store(target)
        self.frozen = frozen
        self.injective = injective
        self.budget = budget
        self.nodes = 0
        self.assignment: dict[Term, Term] = dict(fixed or {})
        self.used: set[Term] = set(self.assignment.values()) if injective else set()
        if injective:  # constants and frozen terms of the source are their own images
            self.used.update(
                t for a in self.atoms for t in a.args if isinstance(t, Const) or t in frozen
            )
        if stats is not None:
            stats["hom_calls"] = stats.get("hom_calls", 0) + 1

    def _candidates(
        self, a: Atom, limit: Optional[int] = None
    ) -> list[tuple[Atom, list[tuple[Term, Term]]]]:
        """The target atoms `a` can map to under the current assignment, each
        with the bindings it adds, in the store's canonical order; at most
        `limit` of them. An atom whose every argument has an image is looked
        up directly; otherwise the store's candidates for the bound arguments
        are checked for arity, the bound terms, repeated variables and, in an
        injective search, images already used."""
        frozen, assignment = self.frozen, self.assignment
        images = [
            s if isinstance(s, Const) or s in frozen else assignment.get(s) for s in a.args
        ]
        if None not in images:
            ground = Atom(a.pred, tuple(images))
            return [(ground, [])] if ground in self.fb.atoms else []
        bound = [(i, t) for i, t in enumerate(images) if t is not None]
        free = [(i, s) for i, s in enumerate(a.args) if images[i] is None]
        injective, used = self.injective, self.used
        out = []
        for cand in self.fb.candidates(a.pred, bound):
            args = cand.args
            if len(args) != len(images) or any(args[i] != t for i, t in bound):
                continue
            binds: list[tuple[Term, Term]] = []
            local: dict[Term, Term] = {}
            for i, s in free:
                t = args[i]
                img = local.get(s)
                if img is not None:
                    if img != t:
                        break
                elif injective and (t in used or t in local.values()):
                    break
                else:
                    local[s] = t
                    binds.append((s, t))
            else:
                out.append((cand, binds))
                if len(out) == limit:
                    break
        return out

    def run(self) -> Iterator[dict[Term, Term]]:
        """Depth-first over the source atoms, on an explicit stack so the
        depth is not bounded by the recursion limit. A frame holds the atoms
        left below its choice point, its remaining candidate bindings and
        the binding it has made."""
        stack: list[list] = []
        remaining = self.atoms
        while True:
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                raise HomBudgetExceeded()
            if not remaining:
                yield dict(self.assignment)
            else:
                best_i, best_cands = self._most_constrained(remaining)
                if best_cands:
                    rest = remaining[:best_i] + remaining[best_i + 1 :]
                    stack.append([rest, iter(best_cands), ()])
            remaining = None
            while stack and remaining is None:
                frame = stack[-1]
                for s, t in frame[2]:
                    del self.assignment[s]
                    if self.injective:
                        self.used.discard(t)
                nxt = next(frame[1], None)
                if nxt is None:
                    stack.pop()
                    continue
                frame[2] = nxt[1]
                for s, t in frame[2]:
                    self.assignment[s] = t
                    if self.injective:
                        self.used.add(t)
                remaining = frame[0]
            if remaining is None:
                return

    def _most_constrained(self, remaining: list[Atom]):
        """The index and full candidate list of the remaining atom with the
        fewest candidates (the first such), where an atom with at most one
        candidate is taken at once. Two passes give that choice without
        listing every candidate of every atom:

        1. Count each atom up to 2 candidates. The first with at most one is
           the choice, since every atom before it has at least two.
        2. Otherwise, scan for the first minimum, counting each atom only up
           to the size of the best list so far: one that reaches it cannot
           have strictly fewer. The chosen list is then complete."""
        for i, a in enumerate(remaining):
            cands = self._candidates(a, 2)
            if len(cands) <= 1:
                return i, cands
        best_i, best_cands = 0, self._candidates(remaining[0])
        for i in range(1, len(remaining)):
            cands = self._candidates(remaining[i], len(best_cands))
            if len(cands) < len(best_cands):
                best_i, best_cands = i, cands
        return best_i, best_cands


def iter_homomorphisms(
    source: Iterable[Atom],
    target,
    fixed: Optional[Mapping[Term, Term]] = None,
    frozen: frozenset[Term] = frozenset(),
    injective: bool = False,
    budget: Optional[int] = None,
    stats: Optional[dict] = None,
) -> Iterator[dict[Term, Term]]:
    """All extensions of `fixed` mapping the source atoms into the target.

    `frozen` terms map to themselves; constants always do. The returned
    assignments cover only the movable terms that actually occur. A target
    that is not a `Store` is indexed as one first, once per call.
    """
    if fixed:
        for k, v in fixed.items():
            if isinstance(k, Const) and k != v:
                raise ValueError("cannot remap constant %s" % k)
    search = _Search(source, target, fixed, frozen, injective, budget, stats)
    return search.run()


def find_homomorphism(
    source: Iterable[Atom],
    target,
    fixed: Optional[Mapping[Term, Term]] = None,
    frozen: frozenset[Term] = frozenset(),
    injective: bool = False,
    budget: Optional[int] = None,
    stats: Optional[dict] = None,
) -> Optional[dict[Term, Term]]:
    """First solution of `iter_homomorphisms`, or None if none exists."""
    for h in iter_homomorphisms(source, target, fixed, frozen, injective, budget, stats):
        return h
    return None


def are_isomorphic(left, right, stats: Optional[dict] = None) -> bool:
    """True iff a bijective renaming of nulls/variables maps left onto right."""
    la = frozenset(left.atoms if isinstance(left, FactBase) else left)
    ra = frozenset(right.atoms if isinstance(right, FactBase) else right)
    if len(la) != len(ra):
        return False
    lprofile = sorted((a.pred, a.arity) for a in la)
    rprofile = sorted((a.pred, a.arity) for a in ra)
    if lprofile != rprofile:
        return False
    lterms: set[Term] = set().union(*(a.args for a in la)) if la else set()
    rterms: set[Term] = set().union(*(a.args for a in ra)) if ra else set()
    lconsts = {t for t in lterms if isinstance(t, Const)}
    rconsts = {t for t in rterms if isinstance(t, Const)}
    if lconsts != rconsts or len(lterms) != len(rterms):
        return False
    # An injective term mapping with h(left) <= right and |left| = |right|
    # is onto, and its inverse is then a homomorphism as well.
    return find_homomorphism(la, ra, injective=True, stats=stats) is not None


# --- isomorphism table -----------------------------------------------------

# Search nodes per isomorphism check. One that runs out counts the two atom
# sets as distinct: a table lookup may then miss, but never hits wrongly.
ISO_CHECK_BUDGET = 20000


def _refine(atoms: Sequence[Atom]) -> dict[Term, int]:
    """Stable colouring by colour refinement: constants get their rank in name
    order, a movable term the rank of its colour and sorted occurrences (the
    atom's predicate and argument colours, position). Ranks of sorted
    signatures are isomorphism-invariant; an occurrence index built once
    makes a round O(|atoms| * arity), not O(|terms| * |atoms|)."""
    consts = sorted({t for a in atoms for t in a.args if isinstance(t, Const)}, key=str)
    colours: dict[Term, int] = {c: k for k, c in enumerate(consts)}
    occurrences: dict[Term, list[tuple[int, int]]] = {}
    for k, a in enumerate(atoms):
        for i, t in enumerate(a.args):
            if not isinstance(t, Const):
                colours[t] = len(consts)
                occurrences.setdefault(t, []).append((k, i))
    classes = 1
    while occurrences:
        argcolours = [(a.pred, tuple([colours[t] for t in a.args])) for a in atoms]
        sigs = {
            t: (colours[t], tuple(sorted([(argcolours[k], i) for k, i in occ])))
            for t, occ in occurrences.items()
        }
        ranks = {sig: len(consts) + r for r, sig in enumerate(sorted(set(sigs.values())))}
        if len(ranks) == classes:
            return colours
        classes = len(ranks)
        for t, sig in sigs.items():
            colours[t] = ranks[sig]
    return colours


class _Entry:
    """An atom set with its bucket key, colour classes and stored value."""

    def __init__(self, atoms: frozenset[Atom]) -> None:
        colours = _refine(tuple(atoms))
        self.atoms, self.value = atoms, None
        self.key = (
            tuple(sorted(t.name for t in colours if isinstance(t, Const))),
            tuple(sorted((a.pred, tuple([colours[t] for t in a.args])) for a in atoms)),
        )
        self.classes: dict[int, list[Term]] = {}
        for t, c in colours.items():
            if not isinstance(t, Const):
                self.classes.setdefault(c, []).append(t)
        self.colour_atoms = [  # make the search keep the colours of shared classes
            Atom("\x00%d" % c, (t,)) for c, ts in self.classes.items() if len(ts) > 1 for t in ts
        ]

    def isomorphic(self, other: "_Entry") -> bool:
        """Exact check against an entry with an equal key (so as many atoms).

        Isomorphisms preserve colours, so a term alone in its class has one
        possible image; the other terms are mapped by an injective,
        colour-preserving search. As the atom counts agree, an injective map
        of the atoms into `other` is onto, so class sizes need no check."""
        fixed = {ts[0]: other.classes[c][0] for c, ts in self.classes.items() if len(ts) == 1}
        rigid = [a for a in self.atoms if all(isinstance(t, Const) or t in fixed for t in a.args)]
        if any(a.substitute(fixed) not in other.atoms for a in rigid):
            return False
        loose = [*self.atoms.difference(rigid), *self.colour_atoms]
        if not loose:
            return True
        target = Store(other.atoms.union(other.colour_atoms))
        try:
            h = find_homomorphism(loose, target, fixed, injective=True, budget=ISO_CHECK_BUDGET)
        except HomBudgetExceeded:
            return False
        return h is not None


class IsoTable:
    """A map keyed by atom sets up to isomorphism (a bijective renaming of
    nulls and variables). Entries are bucketed by their colour-refinement
    invariant: the constants, and the sorted atoms with argument colours. A
    lookup runs an exact isomorphism check within its own bucket only."""

    def __init__(self) -> None:
        self._buckets: dict[tuple, list[_Entry]] = {}
        # the last lookup, as `put` usually follows `get` on the same state
        self._last: Optional[tuple[_Entry, Optional[_Entry]]] = None

    def _lookup(self, atoms) -> tuple[_Entry, Optional[_Entry]]:
        atoms = frozenset(atoms.atoms if isinstance(atoms, FactBase) else atoms)
        if self._last is None or self._last[0].atoms != atoms:
            probe = _Entry(atoms)
            found = (e for e in self._buckets.get(probe.key, ()) if probe.isomorphic(e))
            self._last = (probe, next(found, None))
        return self._last

    def get(self, atoms) -> Optional[object]:
        """The value stored for an atom set isomorphic to `atoms`, or None."""
        entry = self._lookup(atoms)[1]
        return None if entry is None else entry.value

    def put(self, atoms, value: object) -> None:
        """Store `value` for `atoms`, replacing that of an isomorphic entry."""
        probe, entry = self._lookup(atoms)
        if entry is None:
            entry = probe
            self._buckets.setdefault(probe.key, []).append(probe)
        entry.value = value
        self._last = None
