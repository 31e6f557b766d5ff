"""Backtracking search for homomorphisms, retractions and isomorphisms.

A homomorphism between atom sets maps variables and nulls to terms, fixes
constants pointwise and extends `fixed`. The searches here move nulls of F:
the equivalent chase's fold, isomorphism checks and an entailed BCQ's witness.
Each runs `core.search`, the loop of trigger joins too, fail-first (`_Search`).

`IsoTable` maps atom sets up to isomorphism; the derivation explorer uses it
to deduplicate states. It finds an identical atom set by hash, buckets the
others by a cheap invariant (predicates and constant positions), and only
within a bucket holding other sets refines colours and runs an exact,
budgeted isomorphism check.
Its one lookup, `IsoTable.entry`, returns the entry of an atom set's class,
adding it if it is new, and the caller reads and sets the entry's value; so
the explorer makes one table lookup per child.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .core import Atom, Const, FactBase, HomBudgetExceeded, Store, Term, cached_attribute, plan_step, search


class _Search:
    """A homomorphism search over a `Store`: `core.search` branching on the
    most constrained atom (fail-first), the first remaining atom with the
    fewest candidates, or the first with at most one, whose candidates it
    tries in canonical order. `_most_constrained` counts candidates only as
    far as that choice needs, so a node costs the atoms it reads up to the
    choice, not every candidate of every atom, and it sorts only the list it
    branches on: the tree, its solutions and their order do not depend on
    the order in which the store's atoms were added."""

    def __init__(self, source, target, fixed, injective, budget):
        self.atoms = list(source)
        self.fb = target if isinstance(target, Store) else Store(target)
        self.injective = injective
        self.budget = budget
        self.nodes = 0
        self.assignment: dict[Term, Term] = dict(fixed or {})
        # In an injective search constants of the source are their own images.
        self._consts = {t for a in self.atoms for t in a.args if isinstance(t, Const)} if injective else set()
        self.used: set[Term] = self._consts.union(self.assignment.values()) if injective else set()

    def _candidates(
        self, a: Atom, limit: Optional[int] = None
    ) -> list[tuple[Atom, list[tuple[Term, Term]]]]:
        """The target atoms `a` can map to under the current assignment, each
        with the bindings it adds, in the order `Store.matches` gives them;
        at most `limit` of them. In an injective search an atom that would
        map two terms to one image, or a term to an image already used, is
        left out."""
        step = plan_step(a.pred, a.args, self.assignment)
        injective, used = self.injective, self.used
        out = []
        for cand in self.fb.matches(step, self.assignment):
            binds = [(s, cand.args[i]) for i, s in step.free]
            if injective:
                images = {t for _, t in binds}
                if len(images) < len(binds) or not used.isdisjoint(images):
                    continue
            out.append((cand, binds))
            if len(out) == limit:
                break
        return out

    def run(self) -> Iterator[dict[Term, Term]]:
        """Every solution: `core.search` with this search as its picker."""
        return search(self.fb, self.assignment, self.atoms, self)

    def branch(self, node: dict[Term, Term], remaining: list[Atom]):
        """The atoms left below `node` and its most constrained atom's candidates."""
        self.assignment = node
        if self.injective:
            self.used = self._consts.union(node.values())
        i, cands = self._most_constrained(remaining)
        return remaining[:i] + remaining[i + 1 :], cands

    def _most_constrained(self, remaining: list[Atom]):
        """The index and full candidate list of the remaining atom with the
        fewest candidates (the first such), where an atom with at most one
        candidate is taken at once. Two passes give that choice without
        listing every candidate of every atom:

        1. Count each atom up to 2 candidates. The first with at most one is
           the choice, since every atom before it has at least two.
        2. Otherwise, scan for the first minimum, counting each atom only up
           to the size of the best list so far: one that reaches it cannot
           have strictly fewer. The chosen list is then complete.

        Neither count depends on the order of the store's buckets, so
        neither does the choice; the chosen list, of at most one candidate
        or complete, is returned in canonical order (`Atom.key`)."""
        for i, a in enumerate(remaining):
            cands = self._candidates(a, 2)
            if len(cands) <= 1:
                return i, cands
        best_i, best_cands = 0, self._candidates(remaining[0])
        for i in range(1, len(remaining)):
            cands = self._candidates(remaining[i], len(best_cands))
            if len(cands) < len(best_cands):
                best_i, best_cands = i, cands
        return best_i, sorted(best_cands, key=lambda c: Atom.key(c[0]))


def iter_homomorphisms(
    source: Iterable[Atom],
    target,
    fixed: Optional[Mapping[Term, Term]] = None,
    injective: bool = False,
    budget: Optional[int] = None,
) -> Iterator[dict[Term, Term]]:
    """All extensions of `fixed` mapping the source atoms into the target.

    Constants map to themselves. The returned assignments hold `fixed` and
    the other movable terms that actually occur. A target that is not a
    `Store` is indexed as one first, once per call.
    """
    if fixed:
        for k, v in fixed.items():
            if isinstance(k, Const) and k != v:
                raise ValueError("cannot remap constant %s" % (k,))
    search = _Search(source, target, fixed, injective, budget)
    return search.run()


def find_homomorphism(
    source: Iterable[Atom],
    target,
    fixed: Optional[Mapping[Term, Term]] = None,
    injective: bool = False,
    budget: Optional[int] = None,
) -> Optional[dict[Term, Term]]:
    """First solution of `iter_homomorphisms`, or None if none exists."""
    for h in iter_homomorphisms(source, target, fixed, injective, budget):
        return h
    return None


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
    """An atom set with its stored value. Its colour refinement, and the
    refined key, colour classes and colour atoms read from it, are computed
    on first use, once per entry."""

    def __init__(self, atoms: frozenset[Atom]) -> None:
        self.atoms, self.value = atoms, None

    @cached_attribute
    def _colours(self) -> dict[Term, int]:
        return _refine(tuple(self.atoms))

    @cached_attribute
    def key(self) -> tuple:
        """The refined key: the constants, and the sorted atoms with argument
        colours. It determines the coarse key (`_coarse_key`)."""
        colours = self._colours
        return (
            tuple(sorted(t.name for t in colours if isinstance(t, Const))),
            tuple(sorted((a.pred, tuple([colours[t] for t in a.args])) for a in self.atoms)),
        )

    @cached_attribute
    def classes(self) -> dict[int, list[Term]]:
        classes: dict[int, list[Term]] = {}
        for t, c in self._colours.items():
            if not isinstance(t, Const):
                classes.setdefault(c, []).append(t)
        return classes

    @cached_attribute
    def colour_atoms(self) -> list[Atom]:
        """Atoms that make the search keep the colours of shared classes."""
        return [Atom("\x00%d" % c, (t,)) for c, ts in self.classes.items() if len(ts) > 1 for t in ts]

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


def _coarse_key(atoms: Iterable[Atom]) -> tuple:
    """An isomorphism invariant that needs no refinement: the sorted atoms,
    each as its predicate and, per position, the constant's name or "" for
    a term that is not a constant. It only picks a bucket, so a constant
    named "" would make buckets shared, never entries."""
    return tuple(sorted(
        (a.pred, tuple([t.name if isinstance(t, Const) else "" for t in a.args])) for a in atoms
    ))


class IsoTable:
    """A map keyed by atom sets up to isomorphism (a bijective renaming of
    nulls and variables). A lookup first looks for its own atom set, by
    hash. Otherwise it scans the bucket of its coarse key (`_coarse_key`)
    in insertion order, refining colours only there: the entries whose
    refined key (`_Entry.key`) equals the probe's are checked exactly, the
    first isomorphic one is the answer. An atom set with no other set in
    its bucket is never refined.

    An isomorphism check that runs out of `ISO_CHECK_BUDGET` counts the two
    sets as distinct, so a lookup may miss, but it never hits wrongly. An
    identical atom set always finds its own entry with no check, even where
    checking the set against itself would run out of budget."""

    def __init__(self) -> None:
        self._buckets: dict[tuple, list[_Entry]] = {}
        self._by_atoms: dict[frozenset[Atom], _Entry] = {}

    def entry(self, atoms) -> _Entry:
        """The entry of the isomorphism class of `atoms` (an iterable of
        atoms or a `FactBase`), added with value None if the table has
        none. Callers read and set its `value`."""
        atoms = atoms.atoms if isinstance(atoms, FactBase) else frozenset(atoms)
        same = self._by_atoms.get(atoms)
        if same is not None:
            return same
        probe = _Entry(atoms)
        bucket = self._buckets.setdefault(_coarse_key(atoms), [])
        for entry in bucket:
            if entry.key == probe.key and probe.isomorphic(entry):
                return entry
        bucket.append(probe)
        self._by_atoms[atoms] = probe
        return probe
