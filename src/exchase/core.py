"""Value objects for existential-rule knowledge bases.

Terms, atoms, rules, fact bases, triggers and derivations are immutable,
hashable and safe to share between threads; a `FactBase` is a validated atom
set that lazily caches its sorted atoms, terms and nulls, as rules and
triggers cache their derived fields (`cached_attribute`: plain dict writes,
safe because instances are frozen). `Store` is the one mutable exception and
the one indexed fact base: the fact base a derivation grows in place (and
shrinks again when the explorer backtracks), which every trigger join and
homomorphism search runs over. Its buckets keep a parallel list of their
atoms' canonical keys, which `add` and `remove` bisect.

Canonical ordering: constants sort before nulls, nulls before variables;
atoms sort by predicate name then argument order. All iteration and
serialization in the package follows this order so runs are reproducible.
Each term computes its canonical key (`key`, the order above) and its hash
once, in `__init__`, and each atom its hash; the hashes are the values the
dataclasses would compute, so set and dict order are as without the caches.
"""
from __future__ import annotations

import functools
import hashlib
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union


# Frozen dataclasses set their fields in `__init__` through this.
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


@dataclass(frozen=True, slots=True, init=False)
class Const:
    """A named individual; rigid under homomorphisms."""

    name: str
    key: tuple = field(repr=False, compare=False)
    _hash: int = field(repr=False, compare=False)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "key", (0, name))
        _set(self, "_hash", hash((name,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Const, (self.name,))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True, init=False)
class Null:
    """A labelled fresh witness minted by a trigger for an existential variable.

    Two nulls are equal iff their labels are equal; a null is never equal to
    a constant.
    """

    label: str
    key: tuple = field(repr=False, compare=False)
    _hash: int = field(repr=False, compare=False)

    def __init__(self, label: str) -> None:
        _set(self, "label", label)
        _set(self, "key", (1, label))
        _set(self, "_hash", hash((label,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Null, (self.label,))

    def __str__(self) -> str:
        return "_" + self.label


@dataclass(frozen=True, slots=True, init=False)
class Var:
    """A rule/query variable; never occurs in a stored fact base."""

    name: str
    key: tuple = field(repr=False, compare=False)
    _hash: int = field(repr=False, compare=False)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "key", (2, name))
        _set(self, "_hash", hash((name,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Var, (self.name,))

    def __str__(self) -> str:
        return self.name


Term = Union[Const, Null, Var]


def term_key(t: Term) -> tuple:
    """Total order on terms: constants < nulls < variables, then by name."""
    return t.key


@dataclass(frozen=True, slots=True, init=False)
class Atom:
    """A predicate applied to terms. Its hash is computed once, and is the
    value the dataclass would compute, so set order is unchanged by caching."""

    pred: str
    args: tuple[Term, ...]
    _hash: int = field(repr=False, compare=False)

    def __init__(self, pred: str, args: Iterable[Term]) -> None:
        if not isinstance(args, tuple):
            args = tuple(args)
        _set(self, "pred", pred)
        _set(self, "args", args)
        _set(self, "_hash", hash((pred, args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: a hash depends on the process's hash seed.
        return (Atom, (self.pred, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def key(self) -> tuple:
        return (self.pred, tuple([t.key for t in self.args]))

    def substitute(self, mapping: Mapping[Term, Term]) -> "Atom":
        return Atom(self.pred, tuple(mapping.get(a, a) for a in self.args))

    def variables(self) -> frozenset[str]:
        return frozenset(a.name for a in self.args if isinstance(a, Var))

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return "%s(%s)" % (self.pred, ",".join(str(a) for a in self.args))


def sort_atoms(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    return tuple(sorted(atoms, key=Atom.key))


# One atom of a join order: its predicate and its arguments, with every
# variable given by its name (a str) and every constant as itself.
JoinStep = tuple[str, tuple[Union[str, Const], ...]]


class JoinOrders(NamedTuple):
    """`whole`: the body atoms in join order with nothing bound. `given[j]`:
    the other body atoms in join order once body atom j is bound to a fact."""

    whole: tuple[JoinStep, ...]
    given: tuple[tuple[JoinStep, ...], ...]


def _join_order(atoms: Iterable[Atom], bound: frozenset[str]) -> tuple[JoinStep, ...]:
    """Greedy: next comes the atom with the most bound arguments (constants
    and variables of earlier atoms), then the fewest free ones, then the
    first in canonical order."""
    left = list(atoms)
    bound = set(bound)
    order = []

    def rank(a: Atom) -> tuple[int, int]:
        free = a.variables() - bound
        return (sum(not isinstance(t, Var) or t.name in bound for t in a.args), -len(free))

    while left:
        best = max(left, key=rank)
        left.remove(best)
        bound |= best.variables()
        order.append((best.pred, tuple(t.name if isinstance(t, Var) else t for t in best.args)))
    return tuple(order)


class RuleError(ValueError):
    """A rule violates the body/frontier/existential well-formedness contract."""


@dataclass(frozen=True)
class Rule:
    """body -> exists z. head, with the frontier/existential split derived.

    The frontier is vars(body) & vars(head); existential variables are
    vars(head) - vars(body). Body and head are stored canonically sorted.
    """

    id: str
    body: tuple[Atom, ...]
    head: tuple[Atom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", sort_atoms(self.body))
        object.__setattr__(self, "head", sort_atoms(self.head))
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
    def join_orders(self) -> JoinOrders:
        """Static orders in which trigger discovery joins the body atoms."""
        return JoinOrders(
            _join_order(self.body, frozenset()),
            tuple(
                _join_order(self.body[:j] + self.body[j + 1 :], a.variables())
                for j, a in enumerate(self.body)
            ),
        )

    @property
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


@dataclass(frozen=True)
class FactBase:
    """A finite atom set over constants and nulls: the hashable value of a
    fact base. Searches run over a `Store` built from it."""

    atoms: frozenset[Atom] = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.atoms, frozenset):
            object.__setattr__(self, "atoms", frozenset(self.atoms))
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



def _place(index: dict, keys: dict, b, a: Atom, k: tuple) -> None:
    """Put `a`, whose canonical key is `k`, into the bucket `index[b]` at
    its place in canonical order, and `k` into the bucket's key list
    `keys[b]` at the same place."""
    bucket_keys = keys.get(b)
    if bucket_keys is None:
        index[b], keys[b] = [a], [k]
        return
    i = bisect_right(bucket_keys, k)
    bucket_keys.insert(i, k)
    index[b].insert(i, a)


def _discard(index: dict, keys: dict, b, k: tuple) -> None:
    """Take the atom whose canonical key is `k` out of the bucket
    `index[b]` and its key list, and both out of their indexes once they
    are empty."""
    bucket_keys = keys[b]
    if len(bucket_keys) == 1:
        del index[b], keys[b]
    else:
        i = bisect_left(bucket_keys, k)
        del bucket_keys[i], index[b][i]


class Store:
    """The indexed fact base: the one a derivation grows in place and
    shrinks on undo, and the target of every trigger join and homomorphism
    search.

    It has the atom set (`atoms`), the terms (`terms`), iteration in
    canonical order and two indexes: `by_pred` (predicate -> atoms) and
    `by_pred_pos` ((predicate, argument position, term) -> atoms). Every
    bucket is kept in canonical atom order, so a search that walks
    `candidates` visits atoms in the same order whatever the store's
    history, and finds the same first solution. Beside each bucket the
    store keeps the list of its atoms' canonical keys (`Atom.key`), in the
    same order, so an atom's place is found by bisecting that list in C
    rather than by computing a key per probe. `terms` is the live key view
    of a count of term uses, so a term leaves it with its last atom. Atoms
    come from a `FactBase` or trigger outputs, so they are not checked for
    variables again.
    """

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self.atoms: set[Atom] = set()
        self._uses: Counter[Term] = Counter()
        self.terms = self._uses.keys()
        self.by_pred: dict[str, list[Atom]] = {}
        self.by_pred_pos: dict[tuple[str, int, Term], list[Atom]] = {}
        self._pred_keys: dict[str, list[tuple]] = {}
        self._pos_keys: dict[tuple[str, int, Term], list[tuple]] = {}
        self.add(atoms)

    def __iter__(self) -> Iterator[Atom]:
        for pred in sorted(self.by_pred):
            yield from self.by_pred[pred]

    def add(self, atoms: Iterable[Atom]) -> tuple[Atom, ...]:
        """Insert the atoms; return those that were new, in canonical order."""
        keyed = sorted([(a.key(), a) for a in frozenset(atoms) - self.atoms])
        for k, a in keyed:
            pred = a.pred
            self.atoms.add(a)
            _place(self.by_pred, self._pred_keys, pred, a, k)
            for i, t in enumerate(a.args):
                _place(self.by_pred_pos, self._pos_keys, (pred, i, t), a, k)
        new = tuple([a for _, a in keyed])
        self._uses.update([t for a in new for t in a.args])
        return new

    def remove(self, delta: Iterable[Atom]) -> None:
        """Undo the `add` that returned `delta`: the atoms, the terms only
        they used and the index buckets they alone filled leave the store."""
        uses = self._uses
        for a in delta:
            k = a.key()
            pred = a.pred
            self.atoms.remove(a)
            _discard(self.by_pred, self._pred_keys, pred, k)
            for i, t in enumerate(a.args):
                _discard(self.by_pred_pos, self._pos_keys, (pred, i, t), k)
                if uses[t] == 1:
                    del uses[t]
                else:
                    uses[t] -= 1

    def candidates(self, pred: str, bound: Iterable[tuple[int, Term]]) -> Sequence[Atom]:
        """The atoms a search tries for an atom of `pred` whose arguments at
        the `bound` (position, term) pairs are fixed: the smallest
        (predicate, position, term) bucket among those pairs, else the
        predicate's bucket. In canonical order; it holds every stored atom
        that agrees with the bound terms, and may hold others."""
        pool = self.by_pred.get(pred, ())
        for i, t in bound:
            bucket = self.by_pred_pos.get((pred, i, t), ())
            if len(bucket) < len(pool):
                pool = bucket
        return pool

    def copy(self) -> "Store":
        out = Store()
        out.atoms = set(self.atoms)
        out._uses = self._uses.copy()
        out.terms = out._uses.keys()
        out.by_pred = {p: list(v) for p, v in self.by_pred.items()}
        out.by_pred_pos = {k: list(v) for k, v in self.by_pred_pos.items()}
        out._pred_keys = {p: list(v) for p, v in self._pred_keys.items()}
        out._pos_keys = {k: list(v) for k, v in self._pos_keys.items()}
        return out

    def snapshot(self) -> FactBase:
        return FactBase(frozenset(self.atoms))


class KnowledgeBaseError(ValueError):
    """Rule ids clash or a predicate is used with two arities."""


@dataclass(frozen=True)
class KnowledgeBase:
    rules: tuple[Rule, ...]
    facts: FactBase

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        ids = [r.id for r in self.rules]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
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



Match = tuple[tuple[str, Term], ...]


def make_match(mapping: Mapping[str, Term]) -> Match:
    return tuple(sorted(mapping.items()))


# A minted null's label is "<rule id>#<40 hex digits>.<variable>".
_MINTED_DIGEST = re.compile(r"#([0-9a-f]{10})[0-9a-f]{30}\.")


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
    """
    full = ["%s=%d:%s" % (name, *t.key) for name, t in match]
    short = [_MINTED_DIGEST.sub(r"#\1.", part) if "#" in part else part for part in full]

    def sha1(parts: list[str]) -> str:
        return hashlib.sha1("|".join([rule_id, *parts]).encode("utf-8")).hexdigest()

    head = sha1(short)
    return head if short == full else head[:10] + sha1(full)[10:]


@dataclass(frozen=True)
class Trigger:
    """A rule plus a total homomorphism from its body into some fact base.

    Two triggers are equal iff their rules and matches are; the nulls a
    trigger mints depend only on (rule id, match, variable name).
    """

    rule: Rule
    match: Match

    @cached_attribute
    def mapping(self) -> dict[str, Term]:
        return dict(self.match)

    @cached_attribute
    def _extended(self) -> dict[str, Term]:
        m = dict(self.mapping)
        if self.rule.existentials:
            digest = _match_digest(self.rule.id, self.match)
            for z in sorted(self.rule.existentials):
                m[z] = Null("%s#%s.%s" % (self.rule.id, digest, z))
        return m

    @cached_attribute
    def output(self) -> tuple[Atom, ...]:
        m = self._extended
        return sort_atoms(
            Atom(a.pred, tuple(m[t.name] if isinstance(t, Var) else t for t in a.args))
            for a in self.rule.head
        )

    @cached_attribute
    def output_nulls(self) -> frozenset[Null]:
        return frozenset(
            t for t in self._extended.values() if isinstance(t, Null)
        ) - frozenset(t for t in self.mapping.values() if isinstance(t, Null))

    @cached_attribute
    def body_key(self) -> tuple:
        return (self.rule.id, tuple([(n, t.key) for n, t in self.match]))

    @cached_attribute
    def frontier_key(self) -> tuple:
        fr = self.rule.frontier
        return (
            self.rule.id,
            tuple([(n, t.key) for n, t in self.match if n in fr]),
        )

    def __str__(self) -> str:
        binding = ",".join("%s->%s" % (n, t) for n, t in self.match)
        return "(%s, {%s})" % (self.rule.id, binding)


TERMINATED_FAIR = "terminated_fair"
TERMINATED_UNFAIR = "terminated_unfair"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class Derivation:
    """A sequence of trigger applications, kept as the atoms each one added,
    with the fact bases before the first and after the last step."""

    initial: FactBase
    records: tuple[tuple[Trigger, tuple[Atom, ...]], ...]
    result: FactBase
    variant: str
    verdict: str

    def __len__(self) -> int:
        return len(self.records)

    def deltas(self) -> list[tuple[Atom, ...]]:
        """Per-step newly added atoms, in canonical order."""
        return [delta for _, delta in self.records]

    @cached_attribute
    def steps(self) -> tuple[tuple[Trigger, FactBase], ...]:
        """(trigger, fact base after it) per step, rebuilt from the deltas on
        first use: O(steps * |F|), for callers that need every snapshot."""
        out = []
        fb = self.initial
        for t, delta in self.records:
            fb = fb.union(delta)
            out.append((t, fb))
        return tuple(out)
