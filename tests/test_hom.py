import itertools
import random

from hypothesis import given, settings, strategies as st

from exchase import hom
from exchase.chase import head_satisfied
from exchase.core import Atom, Const, FactBase, Null, Rule, Store, Trigger, Var, make_match
from exchase.hom import (
    IsoTable,
    are_isomorphic,
    find_homomorphism,
    iter_homomorphisms,
)

from oracles import ReferenceSearch, exists_retraction

a, b = Const("a"), Const("b")
x, y, z = Var("X"), Var("Y"), Var("Z")
n1, n2, n9 = Null("n1"), Null("n2"), Null("n9")


def P(*args):
    return Atom("p", tuple(args))


def test_find_homomorphism_basic():
    h = find_homomorphism([P(x, y)], [P(a, b)])
    assert h == {x: a, y: b}


def test_find_homomorphism_identity():
    fb = FactBase([P(a, n1), P(n1, n2)])
    fixed = {t: t for t in fb.terms if not isinstance(t, Const)}
    h = find_homomorphism(fb.atoms, fb, fixed=fixed)
    assert h is not None
    assert all(h[k] == k for k in fixed)


def brute_force_assignments(source_vars, target_terms, source, target_atoms):
    """Oracle: every total assignment checked by enumeration."""
    sols = []
    for combo in itertools.product(target_terms, repeat=len(source_vars)):
        m = dict(zip(source_vars, combo))
        if all(a_.substitute(m) in target_atoms for a_ in source):
            sols.append(m)
    return sols


def test_enumeration_matches_brute_force():
    source = [P(x, y), P(y, z)]
    target = frozenset([P(a, b), P(b, a)])
    oracle = brute_force_assignments((x, y, z), (a, b), source, target)
    assert len(oracle) == 2  # computed by the exhaustive oracle
    got = list(iter_homomorphisms(source, target))
    assert len(got) == 2
    normalize = lambda hs: sorted(sorted((str(k), str(v)) for k, v in h.items()) for h in hs)
    assert normalize(got) == normalize(oracle)


def test_constants_never_remapped():
    assert find_homomorphism([P(a, a)], [P(a, b)]) is None
    assert find_homomorphism([P(a, b)], [P(a, b)]) is not None


def test_retraction_example1():
    # F1 + out(t2) retracts to F1 by sending the new null to b
    zt1, zt2 = Null("zt1"), Null("zt2")
    f1 = [P(a, b), P(b, zt1), P(zt1, b)]
    whole = f1 + [P(zt1, zt2), P(zt2, zt1)]
    assert exists_retraction(whole, f1)


def test_retraction_identity_and_witness():
    fb = [P(a, n1)]
    assert exists_retraction(fb, fb)
    whole = [P(a, n1), P(a, a)]
    part = [P(a, a)]
    assert exists_retraction(whole, part)  # n1 -> a


def test_retraction_fails_when_rigid_atom_missing():
    assert not exists_retraction([P(a, b), P(b, a)], [P(a, b)])


def test_retraction_implies_homomorphism():
    rng = random.Random(11)
    terms = [a, b, n1, n2]
    for _ in range(200):
        whole = [P(rng.choice(terms), rng.choice(terms)) for _ in range(4)]
        part = [at for at in whole if rng.random() < 0.6]
        if not part:
            continue
        if exists_retraction(whole, part):
            assert find_homomorphism(whole, frozenset(part)) is not None


def test_are_isomorphic_examples():
    assert are_isomorphic([P(a, n1)], [P(a, n9)])
    assert not are_isomorphic([P(a, n1), P(n1, a)], [P(a, n1), P(a, n2)])
    fb = FactBase([P(a, n1), P(n1, n2)])
    assert are_isomorphic(fb, fb)
    assert not are_isomorphic([P(a, b)], [P(b, a)])  # constants are rigid
    # a null may not take a constant's place: n1 -> a would merge q(n1), q(a)
    Q = lambda t: Atom("q", (t,))
    assert not are_isomorphic([Q(n1), Q(a), P(n1, n2)], [Q(a), Q(n9), P(a, n2)])


def same_entry(left, right) -> bool:
    """True iff a table holding only `left` finds it when looking up `right`."""
    table = IsoTable()
    table.put(left, "left")
    return table.get(right) == "left"


def test_iso_table_examples():
    assert same_entry([P(a, n1)], [P(a, n9)])
    assert not same_entry([P(a, b)], [P(b, a)])
    table = IsoTable()
    assert table.get([P(a, n1)]) is None
    table.put([P(a, n1)], 1)
    table.put([P(a, n9)], 2)  # isomorphic: replaces the value
    table.put([P(n1, a)], 3)
    assert (table.get([P(a, n2)]), table.get([P(n2, a)])) == (2, 3)


def test_iso_table_stable_under_relabelling():
    from exchase.chase import ChaseVariant, FIFO, run_chase
    from conftest import load_doc

    kb = load_doc("ex1.erl").knowledge_base()
    result = run_chase(kb, ChaseVariant.parse("r"), FIFO(), 10).result
    table = IsoTable()
    table.put(result, "result")
    rng = random.Random(3)
    nulls = sorted(result.nulls, key=str)
    for _ in range(10):
        names = ["m%d" % rng.randint(0, 10**6) for _ in nulls]
        mapping = {old: Null(new) for old, new in zip(nulls, names)}
        relabelled = FactBase(at.substitute(mapping) for at in result.atoms)
        assert table.get(relabelled) == "result"


def test_iso_table_handles_symmetric_stars():
    atoms = [P(a, Null("s%d" % i)) for i in range(12)]
    assert same_entry(atoms, [P(a, Null("t%d" % i)) for i in range(12)])


def _oracle_isomorphic(left, right):
    """Exhaustive bijection search over null/variable renamings."""
    la, ra = frozenset(left), frozenset(right)
    if len(la) != len(ra):
        return False
    lmov = sorted({t for at in la for t in at.args if not isinstance(t, Const)}, key=str)
    rmov = sorted({t for at in ra for t in at.args if not isinstance(t, Const)}, key=str)
    if len(lmov) != len(rmov):
        return False
    for perm in itertools.permutations(rmov):
        m = dict(zip(lmov, perm))
        if frozenset(at.substitute(m) for at in la) == ra:
            return True
    return False


def random_atomset(rng, max_atoms=8, max_nulls=4):
    terms = [a, b] + [Null("u%d" % i) for i in range(max_nulls)]
    preds = [("p", 2), ("q", 1)]
    atoms = set()
    for _ in range(rng.randint(1, max_atoms)):
        pred, arity = rng.choice(preds)
        atoms.add(Atom(pred, tuple(rng.choice(terms) for _ in range(arity))))
    return frozenset(atoms)


def test_iso_table_agrees_with_isomorphism_oracle():
    rng = random.Random(42)
    for i in range(1000):
        left = random_atomset(rng)
        if i % 3 == 0:
            # relabelled copy: must be isomorphic
            nulls = sorted({t for at in left for t in at.args if isinstance(t, Null)}, key=str)
            mapping = {old: Null("w%d" % k) for k, old in enumerate(rng.sample(nulls, len(nulls)))}
            right = frozenset(at.substitute(mapping) for at in left)
        else:
            right = random_atomset(rng)
        expected = _oracle_isomorphic(left, right)
        assert are_isomorphic(left, right) == expected
        assert same_entry(left, right) == expected


def test_entailment_bridge():
    fb = FactBase([P(a, b), P(b, n1)])
    assert find_homomorphism([P(x, y), P(y, z)], fb) is not None
    assert find_homomorphism([P(x, x)], fb) is None
    # ground-plus-null: F entails F' iff hom(F' -> F)
    assert find_homomorphism([P(b, z)], fb) is not None


def test_injective_search_respects_term_injectivity():
    fb = FactBase([P(a, n1), P(a, n2)])
    h = find_homomorphism([P(x, y), P(x, z)], fb, injective=True)
    assert h is not None
    assert h[y] != h[z]
    assert find_homomorphism([P(x, y), P(z, y)], FactBase([P(a, n1), P(b, n2)]), injective=True) is None


def ring(prefix, k):
    """A directed p-cycle of k nulls: rotations are automorphisms, so colour
    refinement alone cannot split its terms."""
    nulls = [Null("%s%d" % (prefix, i)) for i in range(k)]
    return [P(nulls[i], nulls[(i + 1) % k]) for i in range(k)]


def test_iso_table_on_symmetric_rings():
    for k in (3, 6, 9):
        assert same_entry(ring("u", k), ring("v", k))
    six, three_three = ring("u", 6), ring("u", 3) + ring("w", 3)
    # equal refinement keys, so only the exact check can tell them apart
    assert hom._Entry(frozenset(six)).key == hom._Entry(frozenset(three_three)).key
    assert not same_entry(six, three_three)
    table = IsoTable()
    table.put(six, "ring6")
    assert table.get(three_three) is None
    table.put(three_three, "ring3+ring3")
    assert table.get(ring("v", 6)) == "ring6"
    assert table.get(ring("x", 3) + ring("y", 3)) == "ring3+ring3"


def test_iso_table_check_out_of_budget_counts_as_distinct(monkeypatch):
    # the rings' terms all share one colour, so the check needs a search
    assert same_entry(ring("u", 6), ring("v", 6))
    monkeypatch.setattr(hom, "ISO_CHECK_BUDGET", 1)
    assert not same_entry(ring("u", 6), ring("v", 6))
    assert same_entry([P(a, n1)], [P(a, n9)])  # decided without a search


def test_iso_table_agrees_on_larger_structures():
    rng = random.Random(77)
    terms = [a, b] + [Null("v%d" % i) for i in range(6)]
    for trial in range(40):
        atoms = set()
        for _ in range(rng.randint(6, 14)):
            atoms.add(P(rng.choice(terms), rng.choice(terms)))
        left = frozenset(atoms)
        nulls = sorted({t for at in left for t in at.args if isinstance(t, Null)}, key=str)
        shuffled = list(nulls)
        rng.shuffle(shuffled)
        mapping = dict(zip(nulls, (Null("w%d" % i) for i in range(len(shuffled)))))
        mapping = {old: Null("w%d" % i) for i, old in enumerate(shuffled)}
        right = frozenset(at.substitute(mapping) for at in left)
        assert same_entry(left, right), trial
        assert are_isomorphic(left, right)
        # and a perturbed copy must differ unless genuinely isomorphic
        extra = right | {P(rng.choice(terms), rng.choice(terms)).substitute(mapping)}
        if not are_isomorphic(left, extra):
            assert not same_entry(left, extra)


# --- property tests: the table against the isomorphism search ----------------

_TERMS = [a, b] + [Null("u%d" % i) for i in range(4)]
_term = st.sampled_from(_TERMS)
atom_sets = st.lists(
    st.one_of(st.builds(P, _term, _term), st.builds(lambda t: Atom("q", (t,)), _term)),
    min_size=1,
    max_size=7,
)


@settings(max_examples=300, deadline=None, database=None)
@given(atom_sets, st.permutations(range(4)), st.randoms(use_true_random=False))
def test_iso_table_hits_relabelled_shuffled_copy(atoms, perm, rnd):
    mapping = {Null("u%d" % i): Null("w%d" % j) for i, j in enumerate(perm)}
    copy = [at.substitute(mapping) for at in atoms]
    rnd.shuffle(copy)
    assert same_entry(atoms, copy)


@settings(max_examples=300, deadline=None, database=None)
@given(atom_sets, atom_sets)
def test_iso_table_hit_iff_isomorphic(left, right):
    assert same_entry(left, right) == are_isomorphic(left, right)


# --- property tests: the search tree against the reference branch rule --------

_SOURCE_TERMS = [a, b, x, y, z, Var("W"), n1, n2]
_TARGET_TERMS = [a, b, Const("c"), n1, n2, Null("n3")]


def _atom_lists(terms, min_size, max_size):
    """Atoms of q/1, p/2 and r/3, and of q/2, a predicate with two arities."""
    t = st.sampled_from(terms)
    return st.lists(
        st.one_of(
            st.builds(lambda u: Atom("q", (u,)), t),
            st.builds(P, t, t),
            st.builds(lambda u, v, w: Atom("r", (u, v, w)), t, t, t),
            st.builds(lambda u, v: Atom("q", (u, v)), t, t),
        ),
        min_size=min_size,
        max_size=max_size,
    )


@st.composite
def searches(draw):
    """(source, target, fixed, frozen, injective) for one search. Targets
    are dense enough that most atoms have several candidates, so the
    branch rule has real choices to make."""
    source = draw(_atom_lists(_SOURCE_TERMS, 1, 4))
    target = draw(_atom_lists(_TARGET_TERMS, 8, 24))
    movable = sorted({t for at in source for t in at.args if not isinstance(t, Const)}, key=str)
    frozen, fixed = frozenset(), {}
    if movable:
        frozen = frozenset(draw(st.sets(st.sampled_from(movable), max_size=1)))
        keys = st.sampled_from(movable)
        fixed = draw(st.dictionaries(keys, st.sampled_from(_TARGET_TERMS), max_size=1))
    return source, target, fixed, frozen, draw(st.booleans())


def _walk(search_cls, source, target, fixed, frozen, injective, budget=None):
    """Every solution in order, the final node count, and whether the
    budget ran out."""
    search = search_cls(source, Store(target), fixed, frozen, injective, budget, None)
    found = []
    try:
        for h in search.run():
            found.append(h)
    except hom.HomBudgetExceeded:
        return found, search.nodes, True
    return found, search.nodes, False


@settings(max_examples=400, deadline=None, database=None)
@given(searches(), st.data())
def test_search_tree_matches_the_reference_branch_rule(case, data):
    whole = _walk(hom._Search, *case)
    assert whole == _walk(ReferenceSearch, *case)
    budget = data.draw(st.integers(0, whole[1]))
    assert _walk(hom._Search, *case, budget) == _walk(ReferenceSearch, *case, budget)


# --- work gates: atoms a search reads do not grow with the store -----------


def _count_reads(monkeypatch) -> list[int]:
    """Make `Store.candidates` count every atom a search takes from it."""
    reads = [0]
    candidates = Store.candidates

    def counted(self, pred, bound):
        for atom in candidates(self, pred, bound):
            reads[0] += 1
            yield atom

    monkeypatch.setattr(Store, "candidates", counted)
    return reads


def _emp_store(employees: int, depts: int) -> Store:
    """emp-ent's shape: every employee works in one of `depts` departments,
    and `closed(hq)` marks a department nobody works in."""
    ds = [Const("d%d" % i) for i in range(depts)]
    atoms = [Atom("dept", (d,)) for d in ds] + [Atom("dept", (Const("hq"),))]
    atoms.append(Atom("closed", (Const("hq"),)))
    for i in range(employees):
        e = Const("e%d" % i)
        atoms += [Atom("emp", (e,)), Atom("works", (e, ds[i % depts]))]
    return Store(atoms)


def test_bcq_check_reads_as_many_atoms_over_a_larger_store(monkeypatch):
    query = [Atom("works", (x, y)), Atom("closed", (y,))]
    reads = _count_reads(monkeypatch)
    counts = []
    for employees in (50, 500):
        store = _emp_store(employees, 10)
        reads[0] = 0
        assert find_homomorphism(query, store) is None
        counts.append(reads[0])
    assert counts[0] == counts[1]


def test_head_satisfied_reads_as_many_atoms_over_a_larger_store(monkeypatch):
    rule = Rule("emp", (Atom("emp", (x,)),), (Atom("works", (x, z)), Atom("dept", (z,))))
    reads = _count_reads(monkeypatch)
    for employee, satisfied in (("e0", True), ("new", False)):
        t = Trigger(rule, make_match({"X": Const(employee)}))
        counts = []
        for depts in (20, 200):
            store = _emp_store(depts, depts)
            reads[0] = 0
            assert head_satisfied(t, store) == satisfied
            counts.append(reads[0])
        assert counts[0] == counts[1], employee
