import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from exchase.core import (
    Atom,
    Const,
    FactBase,
    FactBaseError,
    KnowledgeBase,
    KnowledgeBaseError,
    Null,
    Rule,
    RuleError,
    Store,
    Term,
    Trigger,
    Var,
    make_match,
    sort_atoms,
)

from conftest import load_doc, random_factbase
from oracles import reference_atom_key, restrict, steps_of, support


def V(*names):
    return tuple(Var(n) for n in names)


def test_term_ordering_and_equality():
    assert Const("a") < Null("z") < Var("X")
    assert Null("n1") == Null("n1")
    assert Null("n1") != Null("n2")
    assert Const("a") != Null("a")
    assert Null("a") != Var("a") and Const("a") != Var("a")
    assert len({Const("a"), Null("a"), Var("a")}) == 3  # equal hashes, unequal terms


def test_frontier_rule6():
    # R(x,y) -> exists z,u. P(x,z), A(z), A(u), P(x,y): frontier is {x, y}
    rule = Rule(
        "r6",
        (Atom("r", V("X", "Y")),),
        (Atom("p", V("X", "Z")), Atom("a", V("Z")), Atom("a", V("U")), Atom("p", V("X", "Y"))),
    )
    assert rule.frontier == {"X", "Y"}
    assert rule.existentials == {"Z", "U"}
    assert not rule.is_datalog


def test_frontier_datalog_all_head_vars_shared():
    rule = Rule("d", (Atom("p", V("X")),), (Atom("q", V("X")),))
    assert rule.frontier == {"X"}
    assert rule.is_datalog


def test_frontier_single_existential():
    rule = Rule("su", (Atom("a", V("X")),), (Atom("p", V("X", "Z")),))
    assert rule.frontier == {"X"}
    assert rule.existentials == {"Z"}


def test_rule_partition_invariant():
    rule = Rule("x", (Atom("p", V("X", "Y")),), (Atom("p", V("Y", "Z")), Atom("p", V("Z", "Y"))))
    assert rule.frontier | rule.existentials == rule.head_vars
    assert rule.frontier <= rule.body_vars
    assert not (rule.frontier & rule.existentials)


def test_rule_rejects_empty_parts_and_nulls():
    with pytest.raises(RuleError):
        Rule("bad", (), (Atom("p", V("X")),))
    with pytest.raises(RuleError):
        Rule("bad", (Atom("p", (Null("n"),)),), (Atom("q", V("X")),))


def test_trigger_output_example1():
    rule = Rule(
        "R", (Atom("p", V("X", "Y")),), (Atom("p", V("Y", "Z")), Atom("p", V("Z", "Y")))
    )
    t1 = Trigger(rule, make_match({"X": Const("a"), "Y": Const("b")}))
    assert support(t1) == (Atom("p", (Const("a"), Const("b"))),)
    out = t1.output
    assert len(out) == 2
    (z,) = t1.output_nulls
    assert set(out) == {Atom("p", (Const("b"), z)), Atom("p", (z, Const("b")))}
    # querying the same trigger twice yields identical labels
    t1_again = Trigger(rule, make_match({"X": Const("a"), "Y": Const("b")}))
    assert t1_again.output == out

    # t2 = (R, {x -> b, y -> z_t1}) -> {P(z_t1, z_t2), P(z_t2, z_t1)}
    t2 = Trigger(rule, make_match({"X": Const("b"), "Y": z}))
    (z2,) = t2.output_nulls
    assert z2 != z
    assert set(t2.output) == {Atom("p", (z, z2)), Atom("p", (z2, z))}


def test_trigger_output_datalog():
    rule = Rule("d", (Atom("p", V("X")),), (Atom("q", V("X")),))
    t = Trigger(rule, make_match({"X": Const("a")}))
    assert t.output == (Atom("q", (Const("a"),)),)
    assert not t.output_nulls


def test_null_freshness_across_distinct_triggers():
    rule = Rule("su", (Atom("a", V("X")),), (Atom("p", V("X", "Z")),))
    seen = set()
    for name in "abcdefgh":
        t = Trigger(rule, make_match({"X": Const(name)}))
        (z,) = t.output_nulls
        assert z not in seen
        seen.add(z)


def test_factbase_rejects_variables_and_dedups():
    with pytest.raises(FactBaseError):
        FactBase([Atom("p", V("X"))])
    fb = FactBase([Atom("p", (Const("a"),)), Atom("p", (Const("a"),))])
    assert len(fb) == 1


def test_factbase_union_and_restrict():
    a = Atom("p", (Const("a"), Const("b")))
    b = Atom("q", (Const("a"),))
    fb = FactBase([a])
    fb2 = fb.union([b])
    assert fb2.signature == {"p", "q"}
    assert restrict(fb2, {"p"}).atoms == frozenset([a])
    assert fb.union([a]) is fb  # no-op unions return the same value


def test_kb_duplicate_ids_and_arity_clash():
    r1 = Rule("r", (Atom("p", V("X")),), (Atom("q", V("X")),))
    r2 = Rule("r", (Atom("q", V("X")),), (Atom("p", V("X")),))
    with pytest.raises(KnowledgeBaseError):
        KnowledgeBase((r1, r2), FactBase())
    r3 = Rule("r3", (Atom("p", V("X", "Y")),), (Atom("q", V("X")),))
    with pytest.raises(KnowledgeBaseError):
        KnowledgeBase((r1, r3), FactBase())


def test_derivation_replay_determinism():
    """Replaying a derivation step by step reproduces the identical fact base."""
    from exchase.chase import ChaseVariant, FIFO, run_chase

    kb = load_doc("t2f.erl").knowledge_base()
    out = run_chase(kb, ChaseVariant.parse("r"), FIFO(), 12)
    fb = kb.facts
    for t, after in steps_of(out):
        replayed = Trigger(t.rule, t.match)
        assert set(support(replayed)) <= fb.atoms
        fb = fb.union(replayed.output)
        assert fb.atoms == after.atoms
    assert fb.atoms == out.result.atoms


def test_derivation_monotone_and_novel():
    from exchase.chase import ChaseVariant, FIFO, run_chase

    kb = load_doc("ex1.erl").knowledge_base()
    out = run_chase(kb, ChaseVariant.parse("o"), FIFO(), 10)
    prev = kb.facts
    for t, fb in steps_of(out):
        assert prev.atoms < fb.atoms  # strict growth: out(t) not within F
        assert not set(t.output) <= prev.atoms
        prev = fb


def test_store_is_indexed_like_a_factbase():
    """Grown in two steps, a store has the atoms and canonical iteration
    order of the equal fact base, each index bucket holds the
    fact base's atoms of its key, and `candidates` holds them."""
    rng = random.Random(41)
    for _ in range(100):
        fb = random_factbase(rng, max_atoms=10)
        atoms = list(fb.atoms) + [rng.choice(sorted(fb.atoms, key=Atom.key))]
        rng.shuffle(atoms)
        k = rng.randint(0, len(atoms))
        store = Store(atoms[:k])
        assert store.add(atoms[k:]) == sort_atoms(set(atoms[k:]) - set(atoms[:k]))
        assert list(store) == list(fb)
        assert store.atoms == fb.atoms
        by_pred = {p: [a for a in fb.sorted_atoms if a.pred == p] for p in fb.signature}
        by_pred_pos = {
            (a.pred, i, t): [b for b in fb.sorted_atoms if b.pred == a.pred and b.args[i] == t]
            for a in fb.atoms
            for i, t in enumerate(a.args)
        }
        assert {p: list(sort_atoms(v)) for p, v in store.by_pred.items()} == by_pred
        assert {b: list(sort_atoms(v)) for b, v in store.by_pred_pos.items()} == by_pred_pos
        for p, want in by_pred.items():
            assert list(sort_atoms(store.candidates(p, []))) == want
        for (p, i, t), want in by_pred_pos.items():
            assert [a for a in sort_atoms(store.candidates(p, [(i, t)])) if a.args[i] == t] == want
        assert store.snapshot() == fb


_STORE_PREDS = (("p", 2), ("q", 1), ("s", 3))
_STORE_TERMS = (Const("a"), Const("b"), Null("n"))


@st.composite
def _store_atoms(draw):
    pred, arity = draw(st.sampled_from(_STORE_PREDS))
    return Atom(pred, tuple(draw(st.sampled_from(_STORE_TERMS)) for _ in range(arity)))


def _grow_and_shrink(store: Store, data) -> None:
    """Random adds, and removes that undo the latest add still in place."""
    deltas = []
    for _ in range(data.draw(st.integers(0, 8))):
        if deltas and data.draw(st.booleans()):
            store.remove(deltas.pop())
        else:
            deltas.append(store.add(data.draw(st.lists(_store_atoms(), max_size=6))))


def _assert_candidates_agree(store: Store, data) -> None:
    """For each predicate with some arguments bound, the atoms among the
    candidates that agree with the bound terms are exactly the stored ones
    that do."""
    stored = sort_atoms(store.atoms)
    for pred, arity in _STORE_PREDS:
        positions = data.draw(st.sets(st.integers(0, arity - 1)))
        bound = [(i, data.draw(st.sampled_from(_STORE_TERMS))) for i in sorted(positions)]

        def agrees(a: Atom) -> bool:
            return a.pred == pred and all(a.args[i] == t for i, t in bound)

        cands = sort_atoms(store.candidates(pred, bound))
        assert [a for a in cands if agrees(a)] == [a for a in stored if agrees(a)]


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_store_candidates_hold_every_agreeing_atom_in_canonical_order(data):
    """After random adds, and removes that undo them, the atoms among the
    candidates for a predicate with some arguments bound that agree with
    the bound terms are exactly the stored ones that do."""
    store = Store()
    _grow_and_shrink(store, data)
    _assert_candidates_agree(store, data)


def test_store_remove_undoes_add():
    def view(s: Store) -> tuple:
        return list(s), set(s.atoms), s.by_pred, s.by_pred_pos

    rng = random.Random(43)
    for _ in range(100):
        atoms = sorted(random_factbase(rng, max_atoms=10).atoms, key=Atom.key)
        rng.shuffle(atoms)
        k = rng.randint(0, len(atoms))
        store, before = Store(atoms[:k]), view(Store(atoms[:k]))
        delta = store.add(atoms[k:])
        store.remove(delta)
        assert view(store) == before


def _bounds(arity: int) -> list[list[tuple[int, Term]]]:
    """No argument bound, and each one argument and each two bound."""
    ones = [[(i, t)] for i in range(arity) for t in _STORE_TERMS]
    return [[], *ones, *[a + b for a in ones for b in ones if a[0][0] < b[0][0]]]


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_store_pool_and_candidates_agree_through_adds_and_removes(data):
    """After random adds and removes that undo the latest add, the
    candidates of every bucket, sorted, equal those of a store built anew
    from the same atoms by one add, which are in canonical order as they
    stand. Reads come at random points of the store's history."""
    store, deltas = Store(), []
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(("add", "add", "remove")))
        if op == "remove" and deltas:
            store.remove(deltas.pop())
        else:
            deltas.append(store.add(data.draw(st.lists(_store_atoms(), max_size=6))))
        if not data.draw(st.booleans()):
            continue
        fresh = Store(store.atoms)
        for pred, arity in _STORE_PREDS:
            for bound in _bounds(arity):
                cands = sort_atoms(store.candidates(pred, bound))
                assert cands == tuple(fresh.candidates(pred, bound))


def test_store_remove_rejects_what_is_not_the_latest_add():
    """`remove` takes back only the latest add still in place; given any
    other delta it raises ValueError and leaves the store as it was."""

    def view(s: Store) -> tuple:
        return list(s), set(s.atoms), s.by_pred, s.by_pred_pos

    a, b, c = (Atom("p", (Const(x), Const("k"))) for x in "abc")
    store = Store()
    first = store.add([a])
    second = store.add([c, b])
    list(store.candidates("p", [(1, Const("k"))]))
    before = copy.deepcopy(view(store))
    for wrong in (first, second[::-1], (b,), (Atom("q", ()),)):
        with pytest.raises(ValueError):
            store.remove(wrong)
        assert view(store) == before
    store.remove(second)
    assert store.add([b]) == (b,)  # a single atom's add: undone next
    store.remove((b,))
    store.remove(first)
    assert view(store) == ([], set(), {}, {})


_PICKLE_ATOMS = "[Atom('p', (Const('a'), Null('n1'))), Atom('q', (Const('b'),)), Atom('r', ())]"


def _in_process(code: str, seed: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    prelude = "import pickle, sys\nfrom exchase.core import Atom, Const, Null, Var\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, env=env, check=True
    )


@pytest.mark.parametrize("cls", [Const, Null, Var])
def test_term_hash_is_the_dataclass_hash_and_key_is_stored(cls):
    """A term is its canonical key, the tuple (kind, name), and hashes as
    that tuple, `hash((kind, name))`, in C."""
    t = cls("a")
    kind = {Const: 0, Null: 1, Var: 2}[cls]
    assert hash(t) == hash((kind, "a"))
    assert tuple(t) == (kind, "a") and t.kind == kind
    assert cls.__hash__ is tuple.__hash__
    assert t == cls("a") and t != cls("b")


def test_atom_hash_is_the_dataclass_hash():
    a = Atom("p", [Const("a"), Null("n")])
    assert a.args == (Const("a"), Null("n"))
    assert hash(a) == hash(("p", (Const("a"), Null("n"))))


def test_pickled_atoms_keep_membership_under_another_hash_seed():
    """An atom set pickled in a process with one hash seed still finds its
    atoms after unpickling in a process with another."""
    pickled = _in_process(
        "sys.stdout.buffer.write(pickle.dumps(frozenset(%s)))" % _PICKLE_ATOMS, "1"
    ).stdout
    out = _in_process(
        "atoms = pickle.loads(bytes.fromhex(%r))\n"
        "print(all(a in atoms for a in %s))\n"
        "print(all(hash(a) == hash((a.pred, a.args)) for a in atoms))"
        % (pickled.hex(), _PICKLE_ATOMS),
        "2",
    ).stdout
    assert out.split() == [b"True", b"True"]


_PICKLE_TERMS = "[Const('a'), Null('n1'), Var('X'), Const('n1')]"


def test_pickled_terms_keep_membership_under_another_hash_seed():
    """Terms pickled under one hash seed are found in their set, and hash
    as their (kind, name) tuple, after unpickling under another."""
    pickled = _in_process(
        "sys.stdout.buffer.write(pickle.dumps(frozenset(%s)))" % _PICKLE_TERMS, "1"
    ).stdout
    out = _in_process(
        "terms = pickle.loads(bytes.fromhex(%r))\n"
        "print(all(t in terms for t in %s))\n"
        "print(all(hash(t) == hash((t.kind, t[1])) for t in terms))"
        % (pickled.hex(), _PICKLE_TERMS),
        "2",
    ).stdout
    assert out.split() == [b"True", b"True"]


def test_value_classes_hash_in_c_and_are_no_dataclasses():
    for cls in (Const, Null, Var):
        assert cls.__hash__ is tuple.__hash__
    for cls in (Const, Null, Var, Atom):
        assert not dataclasses.is_dataclass(cls)


_KEY_TERMS = st.builds(
    lambda cls, name: cls(name), st.sampled_from((Const, Null, Var)), st.text("ab#.X1", max_size=3)
)
_KEY_ATOMS = st.builds(
    Atom, st.sampled_from(("", "p", "pq", "q")), st.lists(_KEY_TERMS, max_size=3).map(tuple)
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(_KEY_ATOMS, max_size=8), st.text("ab#.X1", max_size=3))
def test_terms_and_atoms_order_hash_and_copy_as_the_reference_key(atoms, name):
    """Atoms sort, and their terms compare, in the order of the reference
    key `(pred, ((kind, name), ...))`; terms of different kinds with one
    name differ; an atom equals and hashes as its (pred, args) pair; and a
    copied or pickled term keeps its class and kind."""
    assert list(sort_atoms(atoms)) == sorted(atoms, key=reference_atom_key)
    terms = [t for a in atoms for t in a.args]
    assert sorted(terms) == sorted(terms, key=lambda t: reference_atom_key(Atom("", (t,)))[1])
    kinds = [Const(name), Null(name), Var(name)]
    assert len(set(kinds)) == 3 and all(t != u for t in kinds for u in kinds if t is not u)
    for a in atoms:
        pair = (a.pred, a.args)
        assert a == pair and pair == a and not a != pair and hash(a) == hash(pair)
        assert pair in {a} and a in {pair}
    for t in terms + kinds:
        for u in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert u.__class__ is t.__class__ and u.kind == t.kind and u == t


@pytest.mark.parametrize("t", [Const("a"), Null("n1"), Var("X")])
def test_copied_terms_keep_equality_and_hash(t):
    for u in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert u == t and hash(u) == hash(t) and u.__class__ is t.__class__
        assert u in {t}


def test_copied_atoms_keep_equality_and_hash():
    a = Atom("p", (Const("a"), Null("n1")))
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a)
        assert b in {a}
