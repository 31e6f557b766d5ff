"""Value objects for existential-rule knowledge bases.

Terms, atoms, rules, fact bases, triggers and derivations are immutable,
hashable and safe to share between threads. Terms are tuples and `Atom` a
slotted class; the other value classes of the package derive from `Value`,
which compares and hashes the fields its subclass names and whose
`__setattr__` and `__delattr__` raise, so `__init__` sets the fields
through `object.__setattr__`. A `FactBase` is a validated atom set that lazily
caches its sorted atoms, terms and nulls, as rules and triggers cache their
derived fields (`cached_attribute`: plain dict writes, safe because
instances are frozen). A knowledge base is immutable too, but
its `trigger_table` is not: every derivation over the knowledge base reads
and extends it, and a scan takes entries out, so derivations over one
knowledge base must not run in two threads at once (one thread may run any
number of them). `Store` is the other mutable exception and
the one indexed fact base: the fact base a derivation grows in place (and
shrinks again when the explorer backtracks), which every trigger join and
homomorphism search runs over. Its buckets are in the order atoms were
added, and are kept in no other order: a homomorphism search sorts into
canonical order only the candidate list it branches on.

Every join and homomorphism search runs one loop, `search`, with one
candidate filter, `Store.matches`: joins (trigger discovery, R's head test,
the BCQ check per step) in join plan order, `hom`'s searches fail-first.
Each join plan (`join_plan`) is made once and kept in one place: a rule
keeps the plan of its whole body (`Rule.body_plan`) and of its head from
the frontier (`Rule.head_plan`), and a knowledge base indexes its rules'
body atoms by predicate (`KnowledgeBase.body_index`), each entry holding
the plan of the rest of its rule's body given that atom, so a chase step
visits only the body atoms its new atoms can match.

Canonical ordering: constants sort before nulls, nulls before variables;
atoms sort by predicate name then argument order. All iteration and
serialization in the package follows this order so runs are reproducible.
A term is the tuple (kind, name), kind 0 for a constant, 1 for a null and
2 for a variable, so it hashes, compares and sorts as that tuple, in C, and
tuple order is the canonical order. An atom is no tuple (a term inside
`"%s" % x` would be spread over the format), but it equals the pair (pred,
args) and hashes as it, its hash computed once; it sorts by that pair
(`Atom.key`, a key function in C). So a ground step of a search probes the
store's atom set with the pair and builds no atom.
"""
from __future__ import annotations

import functools
import re
from collections import Counter
from itertools import count, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union


# Frozen classes set their fields in `__init__` through this, which keeps
# them in the instance's inline attribute values: a write to `__dict__`
# would make each instance a dict of its own, of about 150 bytes more.
_set = object.__setattr__


class cached_attribute(functools.cached_property):
    """`functools.cached_property` without the lock that Python 3.11 takes
    on each first read: the value is computed and written into the
    instance's `__dict__`, which answers every later read. Two threads may
    both compute a value on first read; it is a pure function of a frozen
    instance, so either result is the same. It stays a
    `functools.cached_property`, so code that recognises those
    (`bench/tracer.py`) still does."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class _Term(tuple):
    """A term: the tuple (kind, name), kind 0 for a constant, 1 for a null
    and 2 for a variable. Hashing, equality and order are the tuple's, in
    C; the order is the canonical one."""

    __slots__ = ()
    __hash__ = tuple.__hash__
    kind: int
    _field: str  # what `repr` calls the name: "name" or "label"

    def __new__(cls, name: str):
        return tuple.__new__(cls, (cls.kind, name))

    def __reduce__(self):
        return (self.__class__, (self[1],))

    def __repr__(self) -> str:
        return "%s(%s=%r)" % (self.__class__.__name__, self._field, self[1])

    def __str__(self) -> str:
        return self[1]


class Const(_Term):
    """A named individual; rigid under homomorphisms."""

    __slots__ = ()
    kind, _field = 0, "name"
    name = property(itemgetter(1))


class Null(_Term):
    """A labelled fresh witness minted by a trigger for an existential variable.

    Two nulls are equal iff their labels are equal; a null is never equal to
    a constant.
    """

    __slots__ = ()
    kind, _field = 1, "label"
    label = property(itemgetter(1))

    def __str__(self) -> str:
        return "_" + self[1]


class Var(_Term):
    """A rule/query variable; never occurs in a stored fact base."""

    __slots__ = ()
    kind, _field = 2, "name"
    name = property(itemgetter(1))


Term = Union[Const, Null, Var]


class Atom:
    """A predicate applied to terms. It equals the pair (pred, args) and
    hashes as that pair, with the hash computed once; so a search probes an
    atom set with the pair and builds no atom."""

    __slots__ = ("pred", "args", "_hash")

    # The canonical order of atoms, a key function in C: `Atom.key(a)`.
    key = attrgetter("pred", "args")

    def __init__(self, pred: str, args: Iterable[Term]) -> None:
        if not isinstance(args, tuple):
            args = tuple(args)
        _set(self, "pred", pred)
        _set(self, "args", args)
        _set(self, "_hash", hash((pred, args)))

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to field %r of an immutable Atom" % name)

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is Atom:
            return self.pred == other.pred and self.args == other.args
        if other.__class__ is tuple:
            return (self.pred, self.args) == other
        return NotImplemented

    def __reduce__(self):
        # Rebuild through __init__: a hash depends on the process's hash seed.
        return (Atom, (self.pred, self.args))

    def __repr__(self) -> str:
        return "Atom(pred=%r, args=%r)" % (self.pred, self.args)

    @property
    def arity(self) -> int:
        return len(self.args)

    def substitute(self, mapping: Mapping[Term, Term]) -> "Atom":
        return Atom(self.pred, tuple(mapping.get(a, a) for a in self.args))

    def variables(self) -> frozenset[str]:
        return frozenset(a.name for a in self.args if isinstance(a, Var))

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return "%s(%s)" % (self.pred, ",".join(str(a) for a in self.args))


def sort_atoms(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    atoms = tuple(atoms)
    return atoms if len(atoms) < 2 else tuple(sorted(atoms, key=Atom.key))


class PlanStep(NamedTuple):
    """One atom of a search, its arguments sorted by what the search finds
    there when it reaches the atom."""

    pred: str
    args: tuple  # a variable by its key in a binding (a join's: its name), a constant as itself
    bound: tuple[tuple[int, object], ...]  # (position, variable bound earlier)
    consts: tuple[tuple[int, Const], ...]  # (position, constant)
    free: tuple[tuple[int, object], ...]  # (first position, variable it binds)
    repeats: tuple[tuple[int, int], ...]  # (position, first position) of such a variable


def plan_step(pred: str, args: tuple, bound) -> PlanStep:
    """The step of an atom of `pred` with arguments `args` (`PlanStep.args`)
    when the variables in `bound` have a term."""
    fixed, consts, first, repeats = [], [], {}, []
    for i, s in enumerate(args):
        if s.__class__ is Const:
            consts.append((i, s))
        elif s in bound:
            fixed.append((i, s))
        elif s in first:
            repeats.append((i, first[s]))
        else:
            first[s] = i
    free = tuple((i, s) for s, i in first.items())
    return PlanStep(pred, args, tuple(fixed), tuple(consts), free, tuple(repeats))


def join_plan(atoms: Iterable[Atom], bound: Iterable[str]) -> tuple[PlanStep, ...]:
    """The plan of a join of `atoms` from a binding of the variables `bound`.

    Greedy: next comes the atom with the most bound arguments (constants and
    variables of `bound` or of earlier atoms), then the fewest free
    variables, then the first in the order given. Its step (`plan_step`)
    holds the positions of its constants, of its variables bound before it,
    and of the first and the repeated occurrences of the variables it binds,
    so that the search does not tell them apart at each node."""
    left = [(a.pred, tuple([t.name if t.__class__ is Var else t for t in a.args])) for a in atoms]
    bound = set(bound)
    plan = []
    while left:
        best = None
        for k, (_, args) in enumerate(left):
            held, free = 0, set()
            for s in args:
                if s.__class__ is Const or s in bound:
                    held += 1
                else:
                    free.add(s)
            rank = (held, -len(free))
            if best is None or rank > best[0]:
                best = (rank, k)
        step = plan_step(*left.pop(best[1]), bound)
        bound.update(s for _, s in step.free)
        plan.append(step)
    return tuple(plan)


class BodyEntry(NamedTuple):
    """A body atom of `rules[rule_pos]` in a `KnowledgeBase.body_index`:
    the plan step (`pattern`) that binds it, with nothing bound, to a new
    fact, and the plan that joins the other body atoms given that
    binding."""

    rule_pos: int
    rule: "Rule"
    pattern: PlanStep
    plan: tuple[PlanStep, ...]


class RuleError(ValueError):
    """A rule violates the body/frontier/existential well-formedness contract."""


class Value:
    """A value class, its fields named in constructor order by `_fields`.
    An instance equals one of its own class whose fields are equal (those
    of `_compared`, if the class names them), hashes as the tuple of those
    fields and has the repr `Class(field=value, ...)`. Assigning or deleting
    an attribute raises AttributeError, so `__init__` sets the fields with
    `_set`, and `cached_attribute` caches derived fields in `__dict__`."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        names = getattr(cls, "_compared", cls._fields)
        get = attrgetter(*names)  # of one name, it gives the value: hash it as a 1-tuple
        cls._key = staticmethod(get if len(names) > 1 else lambda v: (get(v),))

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (self.__class__.__qualname__, fields)

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to field %r of a frozen %s" % (name, self.__class__.__name__))

    __delattr__ = __setattr__


class Rule(Value):
    """body -> exists z. head, with the frontier/existential split derived.

    The frontier is vars(body) & vars(head); existential variables are
    vars(head) - vars(body). Body and head are stored canonically sorted.
    """

    _fields = ("id", "body", "head")

    def __init__(self, id: str, body: Iterable[Atom], head: Iterable[Atom]) -> None:
        _set(self, "id", id)
        _set(self, "body", sort_atoms(body))
        _set(self, "head", sort_atoms(head))
        if not self.body or not self.head:
            raise RuleError("rule %r needs a non-empty body and head" % self.id)
        for a in self.body + self.head:
            for t in a.args:
                if isinstance(t, Null):
                    raise RuleError("rule %r contains a null term" % self.id)

    @cached_attribute
    def body_vars(self) -> frozenset[str]:
        return frozenset().union(*(a.variables() for a in self.body))

    @cached_attribute
    def head_vars(self) -> frozenset[str]:
        return frozenset().union(*(a.variables() for a in self.head))

    @cached_attribute
    def frontier(self) -> frozenset[str]:
        return self.body_vars & self.head_vars

    @cached_attribute
    def existentials(self) -> frozenset[str]:
        return self.head_vars - self.body_vars

    @cached_attribute
    def body_plan(self) -> tuple[PlanStep, ...]:
        """The plan of the body from nothing bound: the join that
        enumerates every trigger of the rule on a store."""
        return join_plan(self.body, ())

    @cached_attribute
    def head_plan(self) -> tuple[PlanStep, ...]:
        """The plan of the head from the frontier: R's head test's join."""
        return join_plan(self.head, self.frontier)

    @cached_attribute
    def is_datalog(self) -> bool:
        return not self.existentials

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        head = ", ".join(str(a) for a in self.head)
        ex = ""
        if self.existentials:
            ex = "exists %s. " % ",".join(sorted(self.existentials))
        return "[%s] %s -> %s%s." % (self.id, body, ex, head)


class FactBaseError(ValueError):
    """A fact base contains an unbound variable."""


class FactBase(Value):
    """A finite atom set over constants and nulls: the hashable value of a
    fact base. Searches run over a `Store` built from it."""

    _fields = ("atoms",)

    def __init__(self, atoms: Iterable[Atom] = frozenset()) -> None:
        _set(self, "atoms", atoms if isinstance(atoms, frozenset) else frozenset(atoms))
        for a in self.atoms:
            for t in a.args:
                if isinstance(t, Var):
                    raise FactBaseError("fact base atom %s contains variable %s" % (a, t))

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, a: Atom) -> bool:
        return a in self.atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.sorted_atoms)

    @cached_attribute
    def sorted_atoms(self) -> tuple[Atom, ...]:
        return sort_atoms(self.atoms)

    @cached_attribute
    def signature(self) -> frozenset[str]:
        return frozenset(a.pred for a in self.atoms)

    @cached_attribute
    def terms(self) -> frozenset[Term]:
        out: set[Term] = set()
        for a in self.atoms:
            out.update(a.args)
        return frozenset(out)

    @cached_attribute
    def nulls(self) -> frozenset[Null]:
        return frozenset(t for t in self.terms if isinstance(t, Null))

    def union(self, extra: Iterable[Atom]) -> "FactBase":
        extra = frozenset(extra)
        if extra <= self.atoms:
            return self
        return FactBase(self.atoms | extra)




class Store:
    """The indexed fact base: the one a derivation grows in place and
    shrinks on a pop, and the target of every trigger join and homomorphism
    search.

    It has the atom set (`atoms`), iteration in canonical order and two
    indexes: `by_pred` (predicate -> atoms) and `by_pred_pos` ((predicate,
    argument position, term) -> atoms). Buckets are in the order their
    atoms were added, each `add` appending its delta in canonical order, so
    `add` costs no search and `remove`, which takes back the latest `add`
    still in place, pops the bucket tails. Joins and searches read them
    through `candidates`, in that order; a search that must branch in
    canonical order sorts the one list it branches on. Atoms come from a
    `FactBase` or trigger outputs, so they are not checked for variables
    again.
    """

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self.atoms: set[Atom] = set()
        self.by_pred: dict[str, list[Atom]] = {}
        self.by_pred_pos: dict[tuple[str, int, Term], list[Atom]] = {}
        self.add(atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(sort_atoms(self.atoms))

    def add(self, atoms: Iterable[Atom]) -> tuple[Atom, ...]:
        """Insert the atoms; return those that were new, in canonical order."""
        fresh = frozenset(atoms) - self.atoms
        new = sort_atoms(fresh)
        by_pred, by_pred_pos = self.by_pred, self.by_pred_pos
        for a in new:
            pred = a.pred
            bucket = by_pred.get(pred)
            if bucket is None:
                by_pred[pred] = [a]
            else:
                bucket.append(a)
            for b in zip(repeat(pred), count(), a.args):  # (pred, i, args[i])
                bucket = by_pred_pos.get(b)
                if bucket is None:
                    by_pred_pos[b] = [a]
                else:
                    bucket.append(a)
        self.atoms |= fresh  # a set's stored hashes: no atom is hashed again
        return new

    def remove(self, delta: Sequence[Atom]) -> None:
        """Undo the `add` that returned `delta`, the latest one still in
        place: the atoms and the index buckets they alone filled leave the
        store. Raises ValueError, leaving the store as it was, when an atom
        of `delta` is not the last of its predicate's bucket once the atoms
        after it in `delta` are out: the call then does not undo the latest
        `add` in place."""
        tails: dict[str, list[Atom]] = {}
        for a in delta:
            tails.setdefault(a.pred, []).append(a)
        for pred, atoms in tails.items():
            # A (predicate, position, term) bucket is the part of its
            # predicate's bucket with that term there, in the same order, so
            # its tail is then made of the same atoms of `delta` too.
            if self.by_pred.get(pred, [])[-len(atoms) :] != atoms:
                raise ValueError(
                    "Store.remove takes back only the latest add still in place, "
                    "and the %r atoms given are not the last ones of their bucket" % pred
                )
        for a in reversed(delta):
            pred = a.pred
            self.atoms.remove(a)
            self._pop(self.by_pred, pred)
            for b in zip(repeat(pred), count(), a.args):
                self._pop(self.by_pred_pos, b)

    def _pop(self, index: dict, b) -> None:
        """Pop the last atom of the bucket `index[b]`, and drop the bucket
        once it is empty."""
        bucket = index[b]
        bucket.pop()
        if not bucket:
            del index[b]

    def candidates(self, pred: str, bound: Iterable[tuple[int, Term]]) -> Sequence[Atom]:
        """The atoms a join or a search tries for an atom of `pred` whose
        arguments at the `bound` (position, term) pairs are fixed: the
        smallest (predicate, position, term) bucket among those pairs, else
        the predicate's bucket, in the order its atoms were added; () when
        one of them is empty. It holds every stored atom that agrees with
        the bound terms, and may hold others."""
        pool = self.by_pred.get(pred)
        if pool is None:
            return ()
        by_pred_pos = self.by_pred_pos
        for i, t in bound:
            bucket = by_pred_pos.get((pred, i, t))
            if bucket is None:
                return ()
            if len(bucket) < len(pool):
                pool = bucket
        return pool

    def matches(
        self, step: PlanStep, binding: Mapping, pool: Optional[Sequence[Atom]] = None
    ) -> Iterator[Atom]:
        """The stored atoms `step` maps onto under `binding`. A step with no
        free variable is looked up; any other walks `candidates` (or `pool`,
        atoms of its predicate) lazily for the atoms of its arity holding its
        constants and bound terms, and one term at a repeated variable's."""
        pred, args, bound, consts, free, repeats = step
        if pool is None and not free:
            ground = tuple([s if s.__class__ is Const else binding[s] for s in args])
            if (pred, ground) in self.atoms:
                yield Atom(pred, ground)
            return
        pairs = [(i, binding[s]) for i, s in bound] if bound else []
        if consts:
            pairs += consts
        arity = len(args)
        for cand in self.candidates(pred, pairs) if pool is None else pool:
            cargs = cand.args
            if len(cargs) != arity:
                continue
            for i, t in pairs:
                x = cargs[i]
                if x is not t and x != t:
                    break
            else:
                for i, j in repeats:
                    x, y = cargs[i], cargs[j]
                    if x is not y and x != y:
                        break
                else:
                    yield cand

    def snapshot(self) -> FactBase:
        """The stored atoms as a `FactBase`, made without its check for
        variables, which these atoms have passed."""
        fb = object.__new__(FactBase)
        _set(fb, "atoms", frozenset(self.atoms))
        return fb


def search(fb: Store, binding: dict, atoms: Sequence, picker=None) -> Iterator[dict]:
    """Every extension of `binding` mapping `atoms` into `fb`, depth first
    on an explicit stack, so that no search recurses per atom. Each node is
    a binding, each child and each binding yielded a new dict. Without a
    `picker`, `atoms` is a join plan, taken in order: a step with no free
    variable is looked up in `fb.atoms` as a (predicate, arguments) pair,
    which builds no atom, any other branches on the atoms
    `fb.matches` gives. Otherwise `atoms` are a homomorphism search's
    source (`hom._Search`): `picker.branch(node, remaining)` gives the
    atoms left below a node and the (atom, bindings) pairs that make its
    children, and a node past `picker.budget` (if not None) of those
    counted in `picker.nodes` raises HomBudgetExceeded."""
    stack: list[tuple] = []
    node, rest = binding, (len(atoms) if picker is None else atoms)  # steps or atoms left
    while True:
        if node is None:  # backtrack
            if not stack:
                return
            found, free, parent, rest = stack.pop()
        else:
            if picker is not None:
                picker.nodes += 1
                if picker.budget is not None and picker.nodes > picker.budget:
                    raise HomBudgetExceeded()
            if not rest:
                yield dict(node) if node is binding else node
                node = None
                continue
            if picker is None:
                step = atoms[-rest]
                rest -= 1
                if not step.free:
                    ground = tuple([s if s.__class__ is Const else node[s] for s in step.args])
                    if (step.pred, ground) not in fb.atoms:
                        node = None
                    continue
                found, free = fb.matches(step, node), step.free
            else:
                rest, found = picker.branch(node, rest)
                found, free = iter(found), None
            parent, node = node, None
        for nxt in found:
            child = parent.copy()
            if free is None:
                child.update(nxt[1])
            else:
                args = nxt.args
                for i, s in free:
                    child[s] = args[i]
            if rest or picker is not None:
                stack.append((found, free, parent, rest))
                node = child
                break
            yield child


class InputError(ValueError):
    """Input that cannot be used: a document, fixture, machine, strategy,
    variant name or command-line value that is malformed or inconsistent.
    The command line reports each one as a JSON error."""


class HomBudgetExceeded(Exception):
    """A homomorphism search's node budget ran out before it finished. It
    lives here, not in `hom`, so that `chase.run_chase` catches it without
    loading `hom`."""


class KnowledgeBaseError(InputError):
    """Rule ids clash or a predicate is used with two arities."""


class KnowledgeBase(Value):
    _fields = ("rules", "facts")

    def __init__(self, rules: Iterable[Rule], facts: FactBase) -> None:
        _set(self, "rules", tuple(rules))
        _set(self, "facts", facts)
        ids = Counter(r.id for r in self.rules)
        if len(ids) != len(self.rules):
            dup = sorted(i for i, n in ids.items() if n > 1)
            raise KnowledgeBaseError("duplicate rule ids: %s" % ", ".join(dup))
        arities: dict[str, int] = {}
        for a in self._all_atoms():
            seen = arities.setdefault(a.pred, a.arity)
            if seen != a.arity:
                raise KnowledgeBaseError(
                    "predicate %r used with arities %d and %d" % (a.pred, seen, a.arity)
                )

    def _all_atoms(self) -> Iterator[Atom]:
        for r in self.rules:
            yield from r.body
            yield from r.head
        yield from self.facts.atoms

    @cached_attribute
    def signature(self) -> frozenset[str]:
        return frozenset(a.pred for a in self._all_atoms())

    @cached_attribute
    def body_index(self) -> dict[str, tuple[BodyEntry, ...]]:
        """Predicate -> the entry of each body atom of that predicate among
        the rules, with the plan of the other body atoms from its
        variables. Built once per knowledge base: a chase step looks up
        the body atoms of its delta atoms' predicates only."""
        index: dict[str, list[BodyEntry]] = {}
        for r, rule in enumerate(self.rules):
            for j, a in enumerate(rule.body):
                (pattern,) = join_plan([a], ())
                plan = join_plan(rule.body[:j] + rule.body[j + 1 :], a.variables())
                index.setdefault(a.pred, []).append(BodyEntry(r, rule, pattern, plan))
        return {pred: tuple(entries) for pred, entries in index.items()}

    @cached_attribute
    def trigger_table(self) -> tuple[dict[Match, "Trigger"], ...]:
        """One dict per rule, in rule order: match -> the live `Trigger` of
        that (rule, match). Trigger enumeration takes each trigger from it
        and puts in those it lacks, never replacing an entry, so every
        derivation over the knowledge base shares each trigger's output and
        minted nulls; a scan that finds a trigger's output present takes
        its entry out. The table lives and dies with the knowledge base."""
        return tuple({} for _ in self.rules)



Match = tuple[tuple[str, Term], ...]


def make_match(mapping: Mapping[str, Term]) -> Match:
    return tuple(sorted(mapping.items()))


@functools.cache
def _digest_tools():
    """`hashlib.sha1` and the pattern of the digest in a minted null's
    label, "<rule id>#<40 hex digits>.<variable>": imported and compiled by
    the first null minted."""
    import hashlib

    return hashlib.sha1, re.compile(r"#([0-9a-f]{10})[0-9a-f]{30}\.")


def _match_digest(rule_id: str, match: Match) -> str:
    """Deterministic fingerprint of (rule, body match): 40 hex digits.

    Null labels are minted from it, so a trigger's output is a pure function
    of the rule and its match: re-enumerating the same trigger later (or in
    another derivation from the same KB) yields identical atoms, and distinct
    triggers mint distinct labels. The last thirty digits are those of the
    SHA-1 of the match, so two triggers share a label only if SHA-1 does.
    The first ten are those of the SHA-1 of the match with every minted null
    written with the first ten digits of its digest only: the whole label of
    earlier versions, whose 40 bits let two triggers share a null after about
    700k triggers. Labels order nulls, so keeping those ten digits keeps the
    canonical order of nulls, and with it every derivation, as it was.

    Minting loads `hashlib` (`_digest_tools`), so a run that mints no null,
    such as a Datalog run, never imports it.
    """
    hash_fn, minted = _digest_tools()
    full = ["%s=%d:%s" % (name, *t) for name, t in match]
    short = [minted.sub(r"#\1.", part) if "#" in part else part for part in full]

    def sha1(parts: list[str]) -> str:
        return hash_fn("|".join([rule_id, *parts]).encode("utf-8")).hexdigest()

    head = sha1(short)
    return head if short == full else head[:10] + sha1(full)[10:]


class Trigger(Value):
    """A rule plus a total homomorphism from its body into some fact base.

    Two triggers are equal iff their rules and matches are; the nulls a
    trigger mints depend only on (rule id, match, variable name). So the
    chase keeps one live object per (rule, match) per knowledge base, in
    `KnowledgeBase.trigger_table`, and computes each cached field of it
    once for every derivation over that knowledge base.
    """

    _fields = ("rule", "match")

    def __init__(self, rule: Rule, match: Match) -> None:
        _set(self, "rule", rule)
        _set(self, "match", match)

    @cached_attribute
    def extended(self) -> dict[str, Term]:
        """The match extended by the null minted for each existential
        variable."""
        m = dict(self.match)
        if self.rule.existentials:
            digest = _match_digest(self.rule.id, self.match)
            for z in sorted(self.rule.existentials):
                m[z] = Null("%s#%s.%s" % (self.rule.id, digest, z))
        return m

    @cached_attribute
    def output(self) -> tuple[Atom, ...]:
        m = self.extended
        return sort_atoms(
            Atom(a.pred, tuple([m[t.name] if t.__class__ is Var else t for t in a.args]))
            for a in self.rule.head
        )

    @cached_attribute
    def output_nulls(self) -> frozenset[Null]:
        """The nulls minted for the existential variables."""
        m = self.extended
        return frozenset(m[z] for z in self.rule.existentials)

    @cached_attribute
    def frontier_key(self) -> tuple:
        fr = self.rule.frontier
        return (self.rule.id, tuple([p for p in self.match if p[0] in fr]))

    def __str__(self) -> str:
        binding = ",".join("%s->%s" % (n, t) for n, t in self.match)
        return "(%s, {%s})" % (self.rule.id, binding)


TERMINATED_FAIR = "terminated_fair"
TERMINATED_UNFAIR = "terminated_unfair"
BUDGET_EXHAUSTED = "budget_exhausted"


class Derivation(Value):
    """A sequence of trigger applications, kept as the atoms each one added,
    with the fact bases before the first and after the last step, how it
    ended and the counters of the run that built it (`stats`, which takes no
    part in equality or hashing)."""

    _fields = ("initial", "records", "result", "verdict", "stats")
    _compared = _fields[:4]

    def __init__(
        self,
        initial: FactBase,
        records: tuple[tuple[Trigger, tuple[Atom, ...]], ...],
        result: FactBase,
        verdict: str,
        stats: Optional[dict] = None,
    ) -> None:
        _set(self, "initial", initial)
        _set(self, "records", records)
        _set(self, "result", result)
        _set(self, "verdict", verdict)
        _set(self, "stats", {} if stats is None else stats)

    def __len__(self) -> int:
        return len(self.records)
