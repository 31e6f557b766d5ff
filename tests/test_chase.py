import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from exchase import hom
from exchase.analysis import load_fixture
from exchase.core import (
    Atom,
    BUDGET_EXHAUSTED,
    Const,
    FactBase,
    KnowledgeBase,
    Null,
    Rule,
    Store,
    TERMINATED_FAIR,
    TERMINATED_UNFAIR,
    Trigger,
    Var,
    join_plan,
    make_match,
    search,
)
from exchase.chase import (
    ChaseState,
    ChaseVariant,
    DatalogFirst,
    FIFO,
    Phased,
    Scripted,
    StrategyError,
    delta_triggers,
    enumerate_triggers,
    run_chase,
)

from conftest import ALL_VARIANTS, CORPUS, load_doc, load_kb, random_kb, small_kbs
from oracles import (
    RandomChoice,
    applicable_edges,
    are_isomorphic,
    breadth_first_layer,
    ch_k,
    datalog_satisfied,
    exists_retraction,
    fact_state,
    is_applicable,
    reference_join_plan,
    rule_by_id,
    steps_of,
    support,
)

R, SO, O, E = (ChaseVariant.parse(v) for v in ("r", "so", "o", "e"))
DFR = ChaseVariant.parse("dfr")


def V(*names):
    return tuple(Var(n) for n in names)


def ex1_rule():
    return Rule("R", (Atom("p", V("X", "Y")),), (Atom("p", V("Y", "Z")), Atom("p", V("Z", "Y"))))


def satisfies(fb: FactBase, rule: Rule) -> bool:
    for h in hom.iter_homomorphisms(rule.body, fb):
        fixed = {Var(n): h[Var(n)] for n in rule.frontier}
        if hom.find_homomorphism(rule.head, fb, fixed=fixed) is None:
            return False
    return True


# --- trigger enumeration -----------------------------------------------------


def test_enumerate_single_trigger_example1():
    fb = FactBase([Atom("p", (Const("a"), Const("b")))])
    triggers = list(enumerate_triggers([ex1_rule()], Store(fb)))
    assert len(triggers) == 1
    assert dict(triggers[0].match) == {"X": Const("a"), "Y": Const("b")}


def test_enumerate_empty_when_no_match():
    fb = FactBase([Atom("q", (Const("a"),))])
    assert list(enumerate_triggers([ex1_rule()], Store(fb))) == []


def test_enumerate_two_triggers_matches_brute_force():
    rule = Rule(
        "c",
        (Atom("p", V("X", "Y")), Atom("p", V("Y", "Z"))),
        (Atom("q", V("X")),),
    )
    a, b = Const("a"), Const("b")
    fb = FactBase([Atom("p", (a, b)), Atom("p", (b, a))])
    # oracle: all assignments over {a, b}
    oracle = [
        m
        for m in (
            dict(zip(("X", "Y", "Z"), combo)) for combo in itertools.product((a, b), repeat=3)
        )
        if all(
            Atom("p", (m[u], m[v])) in fb.atoms for u, v in (("X", "Y"), ("Y", "Z"))
        )
    ]
    triggers = list(enumerate_triggers([rule], Store(fb)))
    assert len(oracle) == 2
    assert len(triggers) == 2
    key = lambda match: [(n, str(t)) for n, t in match]
    assert sorted((key(t.match) for t in triggers)) == sorted(key(make_match(m)) for m in oracle)


def test_enumeration_order_is_canonical():
    rule = Rule("g", (Atom("p", V("X", "Y")),), (Atom("q", V("X")),))
    a, b = Const("a"), Const("b")
    fb = FactBase([Atom("p", (b, a)), Atom("p", (a, b))])
    matches = [dict(t.match) for t in enumerate_triggers([rule], Store(fb))]
    assert matches == [{"X": a, "Y": b}, {"X": b, "Y": a}]


# --- applicability -----------------------------------------------------------


def example1_f1():
    rule = ex1_rule()
    a, b = Const("a"), Const("b")
    t1 = Trigger(rule, make_match({"X": a, "Y": b}))
    f0 = FactBase([Atom("p", (a, b))])
    f1 = f0.union(t1.output)
    history = set()
    history.add(t1.frontier_key)
    (z1,) = t1.output_nulls
    t2 = Trigger(rule, make_match({"X": b, "Y": z1}))
    return rule, f1, history, t2


def test_example1_t2_applicability_by_variant():
    rule, f1, history, t2 = example1_f1()
    assert is_applicable(O, t2, f1, history)
    assert is_applicable(SO, t2, f1, history)
    assert not is_applicable(R, t2, f1, history)
    assert not is_applicable(E, t2, f1, history)


def test_datalog_trigger_blocked_when_head_present():
    rule = Rule("d", (Atom("p", V("X")),), (Atom("q", V("X")),))
    fb = FactBase([Atom("p", (Const("a"),)), Atom("q", (Const("a"),))])
    t = Trigger(rule, make_match({"X": Const("a")}))
    for variant in (O, SO, R, E):
        assert not is_applicable(variant, t, fb, set())


def test_so_blocks_same_frontier_different_body_match():
    rule = Rule(
        "g", (Atom("p", V("X", "Y")),), (Atom("q", V("X", "Z")),)
    )  # frontier {X}
    a, b, c = Const("a"), Const("b"), Const("c")
    fb0 = FactBase([Atom("p", (a, b)), Atom("p", (a, c))])
    t1 = Trigger(rule, make_match({"X": a, "Y": b}))
    history = set()
    history.add(t1.frontier_key)
    fb1 = fb0.union(t1.output)
    t2 = Trigger(rule, make_match({"X": a, "Y": c}))
    assert is_applicable(O, t2, fb1, history)
    assert not is_applicable(SO, t2, fb1, history)


def test_intrinsic_checks_agree_with_history():
    rng = random.Random(5)
    checked = 0
    for _ in range(150):
        kb = random_kb(rng)
        variant = rng.choice((O, SO))
        strategy = RandomChoice(rng.randint(0, 999))
        out = run_chase(kb, variant, strategy, 6)
        fb = kb.facts
        history = set()
        for t, after in steps_of(out):
            history.add(t.frontier_key)
            fb = after
        for t in enumerate_triggers(kb.rules, Store(fb)):
            with_history = is_applicable(variant, t, fb, history)
            intrinsic = is_applicable(variant, t, fb, None)
            assert with_history == intrinsic
            checked += 1
    assert checked > 100


def test_applicability_chain_property():
    """E-applicable => R-applicable => SO-applicable => O-applicable."""
    rng = random.Random(17)
    checked = 0
    while checked < 1000:
        kb = random_kb(rng)
        out = run_chase(kb, O, RandomChoice(rng.randint(0, 999)), rng.randint(0, 4))
        fb = out.result
        history = set()
        for t, _ in steps_of(out):
            history.add(t.frontier_key)
        for t in enumerate_triggers(kb.rules, Store(fb)):
            flags = {
                v.tag: is_applicable(v, t, fb, history) for v in (O, SO, R, E)
            }
            assert not flags["e"] or flags["r"]
            assert not flags["r"] or flags["so"]
            assert not flags["so"] or flags["o"]
            checked += 1


# --- run_chase ---------------------------------------------------------------


def test_example2_restricted_golden():
    kb = load_kb("ex1.erl")
    out = run_chase(kb, R, FIFO(), 100)
    assert out.verdict == TERMINATED_FAIR
    assert len(out) == 1
    assert len(out.result) == 3


def test_example2_oblivious_growth():
    kb = load_kb("ex1.erl")
    out = run_chase(kb, O, FIFO(), 20)
    assert out.verdict == BUDGET_EXHAUSTED
    assert len(out.result) == 1 + 2 * 20  # strictly two fresh atoms per step


def test_t2f_phased_golden():
    kb = load_kb("t2f.erl")
    strat = Phased([(("r3", "r4", "r5"), "exhaust"), (("r2",), "exhaust"), (("r1",), "exhaust")])
    out = run_chase(kb, R, strat, 100)
    assert out.verdict == TERMINATED_FAIR
    c = Const("c")
    nulls = sorted(out.result.nulls, key=str)
    assert len(nulls) == 2
    z1 = next(n for n in nulls if any(a == Atom("r", (c, n)) for a in out.result.atoms))
    z2 = next(n for n in nulls if n != z1)
    assert out.result.atoms == {
        Atom("a", (c,)),
        Atom("r", (c, z1)),
        Atom("s", (z1, z2)),
        Atom("s", (c, c)),
        Atom("r", (c, c)),
    }


def test_phased_rejects_a_rule_group_that_is_not_a_list_of_ids():
    for group in ("r1", ["r1", 2], None):
        with pytest.raises(StrategyError, match="not a list of rule ids"):
            Phased([(group, "exhaust")])


def test_phased_rejects_a_mode_other_than_exhaust_or_once():
    with pytest.raises(StrategyError, match="twice"):
        Phased([(["r1"], "twice")])


def test_phased_early_stop_is_unfair():
    kb = load_kb("t2f.erl")
    out = run_chase(kb, R, Phased([(("r1",), "exhaust")]), 100)
    assert out.verdict == TERMINATED_UNFAIR


def test_scripted_error_when_choice_inapplicable():
    kb = load_kb("ex1.erl")
    with pytest.raises(StrategyError):
        run_chase(kb, R, Scripted(["ex1", "ex1"]), 100)


_T5_SCRIPT = ["u_init", ["u_to_r", 1], "u_ext", "r_to_s", "u_to_r", "u_to_r", "u_to_r", "s_loop", "s_loop"]


@pytest.mark.parametrize(
    "name, make",
    [
        ("t2f.erl", lambda: Phased([(("r3", "r4", "r5"), "exhaust"), (("r2",), "exhaust"), (("r1",), "exhaust")])),
        ("t5.erl", lambda: Scripted(_T5_SCRIPT)),
        ("t2f.erl", DatalogFirst),
    ],
    ids=["phased", "scripted", "datalog-first"],
)
def test_one_strategy_object_drives_runs_in_a_row_and_side_by_side(name, make):
    kb, max_steps = load_kb(name), 20
    fresh = run_chase(kb, R, make(), max_steps)
    assert len(fresh.records) > 2
    shared = make()
    for _ in range(2):
        again = run_chase(kb, R, shared, max_steps)
        assert (again.records, again.verdict) == (fresh.records, fresh.verdict)
    # two generators of the one object, advanced in turn on two states
    states = [ChaseState(kb, R), ChaseState(kb, R)]
    runs = [(state, shared.triggers(state)) for state in states]
    while runs:
        state, choices = runs.pop(0)
        t = next(choices, None) if len(state.records) < max_steps else None
        if t is not None:
            state.apply(t)
            runs.append((state, choices))
    for state in states:
        assert tuple(state.records) == fresh.records


def test_budget_zero_checks_fairness():
    kb = load_kb("ex1.erl")
    out = run_chase(kb, R, FIFO(), 0)
    assert out.verdict == BUDGET_EXHAUSTED
    empty = KnowledgeBase(kb.rules, FactBase())
    out = run_chase(empty, R, FIFO(), 0)
    assert out.verdict == TERMINATED_FAIR


def test_e_variant_hom_budget_aborts():
    kb = load_kb("t2e.erl")
    out = run_chase(kb, E, DatalogFirst(), 100, hom_budget=3)
    assert out.verdict == BUDGET_EXHAUSTED


def test_monotonicity_every_variant():
    rng = random.Random(23)
    for variant in (O, SO, R, E, DFR):
        for _ in range(10):
            kb = random_kb(rng)
            out = run_chase(kb, variant, RandomChoice(rng.randint(0, 999)), 5)
            prev = kb.facts
            for _, fb in steps_of(out):
                assert prev.atoms <= fb.atoms
                prev = fb


def test_r_fair_terminal_is_model():
    for name, strat in (
        ("ex1.erl", FIFO()),
        ("t2c.erl", DatalogFirst()),
        ("t4a.erl", FIFO()),
        ("oterm.erl", FIFO()),
    ):
        kb = load_kb(name)
        out = run_chase(kb, R, strat, 200)
        assert out.verdict == TERMINATED_FAIR, name
        for rule in kb.rules:
            assert satisfies(out.result, rule), (name, rule.id)


def test_oblivious_results_equal_across_strategies():
    for name in ("oterm.erl",):
        kb = load_kb(name)
        results = []
        for strat in (FIFO(), DatalogFirst(), RandomChoice(1), RandomChoice(2)):
            out = run_chase(kb, O, strat, 500)
            assert out.verdict == TERMINATED_FAIR
            results.append(out.result)
        for other in results[1:]:
            assert other.atoms == results[0].atoms  # equality, not just isomorphism


def test_semi_oblivious_results_isomorphic_across_strategies():
    cases = [load_kb("oterm.erl"), load_kb("t2a.erl")]
    from exchase.normalize import single_piece

    doc = load_doc("t8.erl")
    cases.append(KnowledgeBase(single_piece(tuple(doc.rules)).output_rules, doc.factbase()))
    for kb in cases:
        results = []
        for strat in (FIFO(), DatalogFirst(), RandomChoice(3), RandomChoice(4)):
            out = run_chase(kb, SO, strat, 500)
            assert out.verdict == TERMINATED_FAIR
            results.append(out.result)
        for other in results[1:]:
            assert are_isomorphic(results[0], other)


def test_datalog_first_variant_gates_nondatalog():
    kb = load_kb("t2c.erl")
    out = run_chase(kb, DFR, FIFO(), 50)
    assert out.verdict == TERMINATED_FAIR
    assert len(out.result) == 2  # p(a,b) and p(b,a)
    out = run_chase(kb, R, FIFO(), 50)
    assert out.verdict == BUDGET_EXHAUSTED  # generator first diverges


# --- datalog saturation -------------------------------------------------------


def _datalog_fixpoint(rules, fb, max_steps=1000):
    """Datalog saturation through the Datalog-first strategy: the run's
    result and verdict."""
    out = run_chase(KnowledgeBase(tuple(rules), fb), R, DatalogFirst(), max_steps)
    return out.result, out.verdict


def test_datalog_saturate_symmetric_closure():
    rule = Rule("sym", (Atom("p", V("X", "Y")),), (Atom("p", V("Y", "X")),))
    a, b = Const("a"), Const("b")
    fb, verdict = _datalog_fixpoint([rule], FactBase([Atom("p", (a, b))]))
    assert verdict == TERMINATED_FAIR
    assert fb.atoms == {Atom("p", (a, b)), Atom("p", (b, a))}


def test_datalog_saturate_no_datalog_rules():
    rule = Rule("g", (Atom("p", V("X")),), (Atom("q", V("X", "Z")),))
    fb = FactBase([Atom("p", (Const("a"),))])
    out = run_chase(KnowledgeBase((rule,), fb), R, DatalogFirst(), 10)
    assert [t.rule.id for t, _ in out.records] == ["g"]  # nothing Datalog fires


def test_datalog_saturate_t2f_rules_fixpoint():
    # rules r2, r3 over {a(c), r(c,c), s(c,c)}: hand-run fixpoint adds nothing
    kb = load_kb("t2f.erl")
    rules = [rule_by_id(kb, "r2"), rule_by_id(kb, "r3")]
    c = Const("c")
    fb = FactBase([Atom("a", (c,)), Atom("r", (c, c)), Atom("s", (c, c))])
    result, verdict = _datalog_fixpoint(rules, fb)
    assert verdict == TERMINATED_FAIR
    assert result.atoms == fb.atoms
    assert datalog_satisfied(rules, fb)


# --- breadth-first layers ------------------------------------------------------


def _oracle_layer(rules, fb, mint):
    """Independent layer oracle: brute-force matches over the fact base's
    terms, with a (rule, match)-keyed null table."""
    new = set(fb.atoms)
    terms = sorted(fb.terms, key=str)
    for rule in rules:
        body_vars = sorted(rule.body_vars)
        for combo in itertools.product(terms, repeat=len(body_vars)):
            m = dict(zip(body_vars, combo))
            subst = {Var(n): t for n, t in m.items()}
            if not all(a.substitute(subst) in fb.atoms for a in rule.body):
                continue
            key = (rule.id, tuple(sorted((n, str(t)) for n, t in m.items())))
            for z in sorted(rule.existentials):
                subst[Var(z)] = mint(key, z)
            new.update(a.substitute(subst) for a in rule.head)
    return FactBase(new)


def oracle_ch(kb, k):
    table = {}
    counter = itertools.count()

    def mint(key, z):
        if (key, z) not in table:
            table[(key, z)] = Null("oracle%d" % next(counter))
        return table[(key, z)]

    fb = kb.facts
    for _ in range(k):
        fb = _oracle_layer(kb.rules, fb, mint)
    return fb


def test_ch_zero_is_factbase():
    kb = load_kb("ex1.erl")
    assert ch_k(kb, 0) is kb.facts


def test_ch_one_single_rule():
    kb = KnowledgeBase(
        (Rule("su", (Atom("a", V("X")),), (Atom("p", V("X", "Z")),)),),
        FactBase([Atom("a", (Const("a"),))]),
    )
    fb = ch_k(kb, 1)
    assert len(fb) == 2
    assert are_isomorphic(fb, oracle_ch(kb, 1))


def test_ch_layers_example1_against_oracle():
    kb = load_kb("ex1.erl")
    for k in (1, 2, 3):
        mine = ch_k(kb, k)
        oracle = oracle_ch(kb, k)
        assert len(mine) == len(oracle), k
        assert are_isomorphic(mine, oracle), k
    assert len(ch_k(kb, 1)) == 3
    assert len(ch_k(kb, 2)) == 7  # layer 2 re-uses the layer-1 trigger's output


def test_ch_monotone_and_stabilizes_exactly_for_terminating_oblivious():
    kb = load_kb("oterm.erl")
    prev = ch_k(kb, 0)
    stabilized = None
    for k in range(1, 8):
        cur = ch_k(kb, k)
        assert prev.atoms <= cur.atoms
        if cur.atoms == prev.atoms and stabilized is None:
            stabilized = k - 1
        prev = cur
    assert stabilized is not None
    # a KB whose oblivious chase diverges never stabilizes
    kb = load_kb("ex1.erl")
    sizes = [len(ch_k(kb, k)) for k in range(5)]
    assert sizes == sorted(set(sizes))


def test_breadth_first_layer_is_union_of_all_trigger_outputs():
    kb = load_kb("t2a.erl")
    fb = kb.facts
    layer = breadth_first_layer(kb.rules, fb)
    expected = set(fb.atoms)
    for t in enumerate_triggers(kb.rules, Store(fb)):
        expected.update(t.output)
    assert layer.atoms == expected


def test_bcq_soundness_at_fixpoint():
    """On a fairly terminating run, hom(Q -> result) decides entailment; the
    stabilized breadth-first saturation agrees."""
    rng = random.Random(31)
    kb = load_kb("oterm.erl")
    out = run_chase(kb, R, FIFO(), 100)
    assert out.verdict == TERMINATED_FAIR
    stable = ch_k(kb, 6)
    assert ch_k(kb, 7).atoms == stable.atoms
    terms = sorted(out.result.terms, key=str)
    for _ in range(50):
        query = []
        for _ in range(rng.randint(1, 2)):
            atom = rng.choice(out.result.sorted_atoms)
            args = tuple(
                Var("Q%d" % i) if rng.random() < 0.5 else arg
                for i, arg in enumerate(atom.args)
            )
            query.append(Atom(atom.pred, args))
        via_result = hom.find_homomorphism(query, out.result) is not None
        via_stable = hom.find_homomorphism(query, stable) is not None
        assert via_result == via_stable


def test_e_strictly_stronger_than_r():
    """The equivalent-chase test may move every null, not just the fresh
    ones, so it can block triggers the retraction test cannot."""
    gen = Rule("gen", (Atom("p", V("X", "Y")),), (Atom("p", V("Y", "Z")),))
    a, b, z1 = Const("a"), Const("b"), Null("z1")
    fb = FactBase([Atom("p", (a, b)), Atom("p", (b, z1)), Atom("p", (b, a))])
    t = Trigger(gen, make_match({"X": b, "Y": z1}))
    # no retraction: z1 stays fixed and nothing follows it
    assert is_applicable(R, t, fb, set())
    # but folding z1 onto a gives a homomorphism back into fb
    assert not is_applicable(E, t, fb, set())


def test_variant_parsing_accepts_df_on_all_tags():
    for name, tag in (("dfr", "r"), ("dfso", "so"), ("dfo", "o"), ("dfe", "e"), ("DF-R", "r")):
        v = ChaseVariant.parse(name)
        assert v.tag == tag and v.datalog_first
    assert ChaseVariant.parse("so").label == "SO"
    assert ChaseVariant.parse("dfr").label == "DF-R"
    with pytest.raises(ValueError):
        ChaseVariant.parse("core")


def test_df_so_runs_and_prioritises_datalog():
    kb = load_kb("t2c.erl")
    out = run_chase(kb, ChaseVariant.parse("dfso"), FIFO(), 5)
    # first step must be the Datalog symmetry rule
    assert steps_of(out)[0][0].rule.id == "sym"


def test_datalog_saturate_defensive_budget():
    rule = Rule("sym", (Atom("p", V("X", "Y")),), (Atom("p", V("Y", "X")),))
    fb = FactBase([Atom("p", (Const("a"), Const("b")))])
    assert _datalog_fixpoint([rule], fb, max_steps=0) == (fb, BUDGET_EXHAUSTED)


def test_ch_k_rejects_negative():
    with pytest.raises(ValueError):
        ch_k(load_kb("ex1.erl"), -1)


def _naive_r_applicable(t, fb):
    """Straight from the definition: no homomorphism from F + out(t) to F
    that is the identity on every variable of F."""
    whole = list(fb.sorted_atoms) + list(t.output)
    fixed = {x: x for x in fb.terms if not isinstance(x, Const)}
    if set(t.output) <= fb.atoms:
        return False
    return hom.find_homomorphism(whole, fb, fixed=fixed) is None


def test_restricted_applicability_matches_naive_definition():
    rng = random.Random(616)
    checked = 0
    while checked < 400:
        kb = random_kb(rng)
        out = run_chase(kb, R, RandomChoice(rng.randint(0, 10**6)), rng.randint(0, 3))
        fb = out.result
        for t in enumerate_triggers(kb.rules, Store(fb)):
            assert is_applicable(R, t, fb, None) == _naive_r_applicable(t, fb)
            checked += 1


def test_empty_frontier_rule_applicability():
    """A rule whose head shares nothing with its body: one output satisfies
    every trigger under SO/R/E, while O fires once per body match."""
    rule = Rule("mk", (Atom("a", V("X")),), (Atom("b", V("Z")),))
    c1, c2 = Const("c1"), Const("c2")
    kb = KnowledgeBase((rule,), FactBase([Atom("a", (c1,)), Atom("a", (c2,))]))
    for variant, expected_steps in ((SO, 1), (R, 1), (E, 1), (O, 2)):
        out = run_chase(kb, variant, FIFO(), 10)
        assert out.verdict == TERMINATED_FAIR, variant.tag
        assert len(out) == expected_steps, variant.tag


def test_fresh_output_atoms_disjoint_from_factbase():
    """Atoms carrying a trigger's fresh nulls can never pre-exist."""
    rng = random.Random(271)
    checked = 0
    while checked < 300:
        kb = random_kb(rng)
        out = run_chase(kb, O, RandomChoice(rng.randint(0, 10**6)), 3)
        fb = out.result
        for t in enumerate_triggers(kb.rules, Store(fb)):
            if not t.output_nulls:
                continue
            if set(t.output) <= fb.atoms:
                continue  # already applied
            fresh_atoms = [a for a in t.output if set(a.args) & t.output_nulls]
            assert all(a not in fb.atoms for a in fresh_atoms)
            checked += 1


# --- the agenda against a per-step oracle --------------------------------------

def _oracle_fifo(kb, variant, max_steps):
    """FIFO without an agenda: at each step the first trigger that
    `applicable_edges` finds on that step's snapshot."""
    fb, steps = kb.facts, []
    while len(steps) < max_steps:
        t = next(applicable_edges(kb, fb, variant), None)
        if t is None:
            return steps, fb, TERMINATED_FAIR
        steps.append((t.rule.id, t.match))
        fb = fb.union(t.output)
    left = next(applicable_edges(kb, fb, variant), None)
    return steps, fb, TERMINATED_FAIR if left is None else BUDGET_EXHAUSTED


@settings(max_examples=150, deadline=None, database=None)
@given(small_kbs(), st.sampled_from(ALL_VARIANTS))
def test_agenda_fifo_matches_per_step_oracle(kb, name):
    variant = ChaseVariant.parse(name)
    out = run_chase(kb, variant, FIFO(), 6)
    steps, result, verdict = _oracle_fifo(kb, variant, 6)
    assert [(t.rule.id, t.match) for t, _ in out.records] == steps
    assert out.verdict == verdict
    assert out.result.atoms == result.atoms


def test_head_satisfaction_equals_retraction_test():
    """R blocks a trigger on a state whose input facts are F exactly when
    F + out(t) retracts onto F: by its output being present, or by its
    head being satisfied."""
    rng = random.Random(99)
    checked = 0
    while checked < 500:
        kb = random_kb(rng)
        fb = run_chase(kb, O, RandomChoice(rng.randint(0, 999)), rng.randint(0, 4)).result
        state = fact_state(fb, R)
        for t in enumerate_triggers(kb.rules, Store(fb)):
            whole = itertools.chain(fb.atoms, t.output)
            assert (state.blocked(t, True) is not None) == exists_retraction(whole, fb)
            checked += 1


def test_head_satisfaction_keeps_a_minted_null_that_f_holds_fixed():
    """An input that holds one of a trigger's own output nulls (`s(n)`)
    fixes it: out(t) = p(c,n,n') cannot map onto p(c,d,e), so the trigger
    fires once. Joining the head from the frontier match alone would move
    n to d and block it."""
    rule = Rule("r", (Atom("a", V("X")),), (Atom("p", V("X", "Y", "Z")),))
    c = Const("c")
    t = Trigger(rule, make_match({"X": c}))
    held = t.output[0].args[1]
    fb = FactBase([Atom("a", (c,)), Atom("p", (c, Const("d"), Const("e"))), Atom("s", (held,))])
    assert fact_state(fb, R).blocked(t, True) is None
    assert exists_retraction(itertools.chain(fb.atoms, t.output), fb) is False
    out = run_chase(KnowledgeBase((rule,), fb), R, FIFO(), 10)
    assert out.verdict == TERMINATED_FAIR
    assert [r for r, _ in out.records] == [t]


@settings(max_examples=150, deadline=None, database=None)
@given(small_kbs(), st.sampled_from(ALL_VARIANTS), st.data())
def test_fresh_nulls_in_the_store_are_those_the_input_holds(kb, name, data):
    """What R's head test rests on: at every state down a random path of
    pushes and back up by pops, each trigger on the store whose output is
    not all in it finds in the store exactly those of its fresh nulls that
    the input facts hold. Half the cases start from an earlier O-chase
    result, so that the input holds minted nulls."""
    if data.draw(st.booleans()):
        kb = KnowledgeBase(kb.rules, run_chase(kb, O, FIFO(), data.draw(st.integers(1, 4))).result)
    state = ChaseState(kb, ChaseVariant.parse(name))

    def check() -> None:
        atoms = state.store.atoms
        held = {x for a in atoms for x in a.args}
        for t in enumerate_triggers(kb.rules, state.store):
            if not all(a in atoms for a in t.output):
                assert t.output_nulls & held == t.output_nulls & kb.facts.nulls, str(t)

    check()
    for _ in range(6):
        edges = state.scan()
        if not edges:
            break
        state.push(data.draw(st.sampled_from(edges)))
        check()
    while state.records:
        state.pop()
        check()


def test_e_variant_on_a_fact_base_deeper_than_the_recursion_limit():
    rule = Rule("r", (Atom("p", V("X")),), (Atom("q", V("X", "Z")),))
    facts = FactBase(Atom("p", (Const("c%d" % i),)) for i in range(1200))
    out = run_chase(KnowledgeBase((rule,), facts), E, FIFO(), 3)
    assert out.verdict == BUDGET_EXHAUSTED
    assert len(out.result) == 1203


def test_triggers_from_enumeration_and_delta_search_are_equal():
    rule = Rule("t", (Atom("e", V("X", "Y")), Atom("e", V("Y", "Z"))), (Atom("e", V("X", "Z")),))
    a, b, c, d = (Const(n) for n in "abcd")
    fb = FactBase([Atom("e", (a, b)), Atom("e", (b, c)), Atom("e", (c, d))])
    _, whole = enumerate_triggers([rule], Store(fb))  # the second of two
    (delta,) = delta_triggers(KnowledgeBase((rule,), FactBase()), Store(fb), [Atom("e", (c, d))])
    assert whole.match == delta.match
    assert whole == delta
    assert hash(whole) == hash(delta)


def _table_view(kb: KnowledgeBase) -> dict:
    """(rule position, match) -> trigger, over the knowledge base's
    `trigger_table`."""
    return {(i, m): t for i, triggers in enumerate(kb.trigger_table) for m, t in triggers.items()}


@settings(max_examples=150, deadline=None, database=None)
@given(small_kbs(), st.sampled_from(ALL_VARIANTS), st.data())
def test_trigger_table_holds_one_trigger_per_rule_and_match(kb, name, data):
    """Two states of one knowledge base, each walked down a random path and
    partly back: a trigger a state meets while the table holds its (rule,
    match) is the table's object, which both states then share; a scan
    takes out of the table exactly the entries of the triggers it drops
    with their outputs present, when the entry is that trigger; and every
    trigger the table holds equals one made anew, cached fields and all."""
    variant = ChaseVariant.parse(name)

    def check_met(state, before, old) -> None:
        for i, entries in enumerate(state.lists):
            for t in entries:
                if id(t) not in old:
                    assert kb.trigger_table[i][t.match] is t
                    assert before.get((i, t.match), t) is t

    def scan(state):
        before, lists = _table_view(kb), [list(entries) for entries in state.lists]
        edges = state.scan()
        live = {id(t) for entries in state.lists for t in entries}
        dropped_present = {
            (i, t.match)
            for i, entries in enumerate(lists)
            for t in entries
            if id(t) not in live
            and before.get((i, t.match)) is t
            and all(a in state.store.atoms for a in t.output)
        }
        after = _table_view(kb)
        assert after.keys() == before.keys() - dropped_present
        assert all(after[k] is before[k] for k in after)
        return edges

    def walk(state) -> None:
        for _ in range(data.draw(st.integers(0, 5))):
            edges = scan(state)
            if not edges:
                break
            before, old = _table_view(kb), {id(t) for entries in state.lists for t in entries}
            state.push(data.draw(st.sampled_from(edges)))
            check_met(state, before, old)
        for _ in range(data.draw(st.integers(0, len(state.records)))):
            state.pop()
        scan(state)

    states = []
    for _ in range(2):
        before = _table_view(kb)
        states.append(ChaseState(kb, variant))
        check_met(states[-1], before, set())
        walk(states[-1])
    walk(states[0])
    for (i, m), t in _table_view(kb).items():
        fresh = Trigger(kb.rules[i], m)
        assert t == fresh
        assert t.output == fresh.output
        assert t.extended == fresh.extended
        assert t.frontier_key == fresh.frontier_key


def test_a_present_drop_takes_out_only_its_own_table_entry():
    """A scan that drops a trigger for its output being present takes its
    entry out of the table, but leaves an equal trigger made after that."""
    rule = Rule("d", (Atom("p", V("X")),), (Atom("q", V("X")),))
    a = Const("a")
    kb = KnowledgeBase((rule,), FactBase([Atom("p", (a,)), Atom("q", (a,))]))
    first, second = ChaseState(kb, O), ChaseState(kb, O)
    (t,) = first.lists[0]
    assert second.lists[0][0] is t
    assert first.scan() == []
    assert kb.trigger_table[0] == {}
    (again,) = ChaseState(kb, O).lists[0]
    assert again == t and again is not t
    assert second.scan() == []  # drops its own `t`, no longer the entry
    assert kb.trigger_table[0] == {t.match: again}
    assert kb.trigger_table[0][t.match] is again


@settings(max_examples=150, deadline=None, database=None)
@given(small_kbs(), st.sampled_from(ALL_VARIANTS), st.data())
def test_inherited_agenda_edges_match_from_scratch_edges(kb, name, data):
    """Along a random explorer path, each state's edges from the triggers
    it inherits equal `applicable_edges` on its fact base, and a step
    pushed, scanned below and popped leaves the triggers as they were."""
    variant = ChaseVariant.parse(name)
    state = ChaseState(kb, variant)
    for _ in range(5):
        fb = state.store.snapshot()
        edges = state.scan()
        assert edges == list(applicable_edges(kb, fb, variant))
        if not edges:
            break
        t = data.draw(st.sampled_from(edges))
        state.push(t)
        state.scan()
        state.pop()
        assert state.scan() == edges
        assert state.store.snapshot() == fb
        state.push(t)


def _state_view(state: ChaseState) -> tuple:
    store = state.store
    return (
        set(store.atoms),
        list(store),
        {p: list(v) for p, v in store.by_pred.items()},
        {k: list(v) for k, v in store.by_pred_pos.items()},
        set(state.fired),
        list(state.records),
        [list(entries) for entries in state.lists],
    )


@settings(max_examples=150, deadline=None, database=None)
@given(small_kbs(), st.sampled_from(ALL_VARIANTS), st.data())
def test_undo_takes_back_apply_along_a_random_path(kb, name, data):
    """Down a random path by `push` and back by `pop`: each pop gives back
    the store (atoms, iteration order, every bucket), fired keys,
    records and trigger lists that the state had before the push, scans
    below it included."""
    state = ChaseState(kb, ChaseVariant.parse(name))
    trail = []
    for _ in range(6):
        edges = state.scan()
        if not edges:
            break
        trail.append(_state_view(state))
        state.push(data.draw(st.sampled_from(edges)))
    while trail:
        state.pop()
        assert _state_view(state) == trail.pop()


@settings(max_examples=150, deadline=None, database=None)
@given(small_kbs(), st.sampled_from(ALL_VARIANTS), st.data())
def test_goto_reaches_the_state_a_fresh_walk_pushes_to(kb, name, data):
    """From a state at the end of a random path A, `goto(B)` leaves the
    store (atoms, iteration order, every bucket in order), fired
    keys, records and scan of a new state pushed along B. B shares a
    random prefix of A, the same trigger objects, and goes on at random."""
    variant = ChaseVariant.parse(name)

    def walk(state: ChaseState, steps: int) -> list[Trigger]:
        path = []
        for _ in range(steps):
            edges = state.scan()
            if not edges:
                break
            path.append(data.draw(st.sampled_from(edges)))
            state.push(path[-1])
        return path

    state = ChaseState(kb, variant)
    a = walk(state, data.draw(st.integers(0, 5)))
    fresh = ChaseState(kb, variant)
    b = a[: data.draw(st.integers(0, len(a)))]
    for t in b:
        fresh.push(t)
    b += walk(fresh, data.draw(st.integers(0, 5)))
    state.goto(b)
    assert [t for t, _ in state.records] == b
    view, expected = _state_view(state), _state_view(fresh)
    assert view[:-1] == expected[:-1]  # the trigger lists may differ in what scans dropped
    assert state.scan() == fresh.scan()


# --- compiled joins against the homomorphism search --------------------------

_JOIN_PREDS = (("p", 2), ("q", 1), ("s", 3))
_JOIN_TERMS = (Const("a"), Const("b"), Null("n"))


@st.composite
def join_cases(draw):
    """A rule body that `small_kbs` cannot draw: constants, variables
    repeated within and across atoms, and a ternary predicate; with a store
    over two constants and a null, and a subset of it as a delta."""

    def atom(terms):
        pred, arity = draw(st.sampled_from(_JOIN_PREDS))
        return Atom(pred, tuple(draw(st.sampled_from(terms)) for _ in range(arity)))

    pattern_terms = (*V("X", "Y", "Z"), Const("a"), Const("b"))
    body = [atom(pattern_terms) for _ in range(draw(st.integers(1, 3)))]
    head_vars = sorted({t for a in body for t in a.args if isinstance(t, Var)}, key=str)
    rule = Rule("j", tuple(body), (Atom("out", tuple(head_vars)),))
    facts = sorted({atom(_JOIN_TERMS) for _ in range(draw(st.integers(1, 8)))}, key=Atom.key)
    delta = [a for a in facts if draw(st.booleans())]
    return rule, Store(facts), delta


def _canonical(matches):
    return sorted(matches)


def _search_matches(rule, fb, fixed=None):
    return _canonical(
        make_match({v.name: t for v, t in h.items() if isinstance(v, Var)})
        for h in hom.iter_homomorphisms(rule.body, fb, fixed=fixed)
    )


def _body_entries(rule: Rule) -> list:
    """The `body_index` entry of each body atom of `rule`, in body order:
    the body is sorted by predicate, and the index lists each predicate's
    entries in body order."""
    return [e for es in KnowledgeBase((rule,), FactBase()).body_index.values() for e in es]


@settings(max_examples=300, deadline=None, database=None)
@given(join_cases())
def test_join_matches_equal_homomorphism_search(case):
    """The join over the whole body, and over the other atoms once body atom
    j is bound to a fact, finds exactly the homomorphisms the search finds,
    each once."""
    rule, fb, _ = case
    whole = _canonical(make_match(m) for m in search(fb, {}, rule.body_plan))
    assert whole == _search_matches(rule, fb)
    for e in _body_entries(rule):
        for fact in fb.matches(e.pattern, {}, fb.by_pred.get(e.pattern.pred, ())):
            binding = {s: fact.args[i] for i, s in e.pattern.free}
            got = _canonical(make_match(m) for m in search(fb, dict(binding), e.plan))
            fixed = {Var(n): t for n, t in binding.items()}
            assert got == _search_matches(rule, fb, fixed)


def _spoiled(results) -> list[dict]:
    """A copy of each result, taken before the result itself is changed:
    every value replaced and a key added. A later result that shared a
    dict with an earlier one would show the change."""
    copies = []
    for r in results:
        copies.append(dict(r))
        for k in r:
            r[k] = Const("spoiled")
        r["spoiled"] = Const("spoiled")
    return copies


@settings(max_examples=300, deadline=None, database=None)
@given(join_cases())
def test_joins_and_searches_yield_dicts_of_their_own(case):
    """Each binding a join yields, and each assignment a homomorphism
    search yields, is a new dict: changing it changes no later one, nor the
    caller's binding or `fixed`. Checked over the whole body from nothing
    bound, and over the rest of it once body atom j is bound to a fact,
    where a plan may be all ground steps that keep the caller's binding."""
    rule, fb, _ = case
    runs = [(rule.body_plan, {}, {})]
    for e in _body_entries(rule):
        for fact in fb.matches(e.pattern, {}, fb.by_pred.get(e.pattern.pred, ())):
            binding = {s: fact.args[i] for i, s in e.pattern.free}
            runs.append((e.plan, binding, {Var(n): t for n, t in binding.items()}))
    for plan, binding, fixed in runs:
        for given_dict, results in (
            (binding, lambda: search(fb, binding, plan)),
            (fixed, lambda: hom.iter_homomorphisms(rule.body, fb, fixed=fixed)),
        ):
            before = dict(given_dict)
            want = [dict(r) for r in results()]
            assert _spoiled(results()) == want
            assert given_dict == before


def test_a_body_longer_than_the_recursion_limit_joins_and_maps():
    """A chain body of 1,200 atoms, anchored at a constant so that the
    search tree is one path, joins over the chain it names and maps into it
    by the homomorphism search under the default recursion limit: neither
    search recurses per atom."""
    n = 1200
    assert sys.getrecursionlimit() < n
    xs = [Const("c"), *(Var("X%d" % i) for i in range(1, n + 1))]
    cs = [Const("c"), *(Const("c%d" % i) for i in range(1, n + 1))]
    body = [Atom("p", (xs[i], xs[i + 1])) for i in range(n)]
    chain = [Atom("p", (cs[i], cs[i + 1])) for i in range(n)]
    assert list(search(Store(chain), {}, join_plan(body, ()))) == [{x.name: c for x, c in zip(xs[1:], cs[1:])}]
    assert hom.find_homomorphism(body, chain) == dict(zip(xs[1:], cs[1:]))


@settings(max_examples=300, deadline=None, database=None)
@given(join_cases())
def test_delta_triggers_find_each_new_match_once(case):
    """Delta discovery yields each match that uses a delta atom exactly once,
    also when two delta atoms bind the same body atom, and joins once per
    (delta atom, body atom) pair whose body atom the delta atom fits. With
    a second rule over the same predicates, one call yields the triggers
    of both rules, in delta order, so interleaved, each (rule, match)
    exactly once."""
    rule, fb, delta = case
    stats: dict = {}
    got = [t.match for t in delta_triggers(KnowledgeBase((rule,), FactBase()), fb, delta, stats)]
    assert len(got) == len(set(got))
    want = [
        m
        for m in _search_matches(rule, fb)
        if any(a in delta for a in support(Trigger(rule, m)))
    ]
    assert _canonical(got) == want
    assert stats.get("hom_calls", 0) == _fitting_pairs(rule, delta)
    flipped = Rule("k", tuple(Atom(a.pred, a.args[::-1]) for a in rule.body), rule.head)
    stats = {}
    kb = KnowledgeBase((rule, flipped), FactBase())
    both = [(t.rule.id, t.match) for t in delta_triggers(kb, fb, delta, stats)]
    assert len(both) == len(set(both))
    for r in (rule, flipped):
        new = [m for m in _search_matches(r, fb) if any(a in delta for a in support(Trigger(r, m)))]
        assert _canonical(m for rule_id, m in both if rule_id == r.id) == new
    assert stats.get("hom_calls", 0) == _fitting_pairs(rule, delta) + _fitting_pairs(flipped, delta)


def _fitting_pairs(rule: Rule, delta) -> int:
    """The (delta atom, body atom) pairs where the body atom maps onto the
    delta atom."""
    return sum(hom.find_homomorphism([b], [a]) is not None for a in delta for b in rule.body)


@settings(max_examples=300, deadline=None, database=None)
@given(join_cases())
def test_join_plans_equal_the_two_pass_reference(case):
    """The one-pass planner picks the join order of the two-pass greedy
    (order first, positions after) and gives each step the same positions,
    for the whole body and for the rest of it given each body atom."""
    rule, _, _ = case
    assert list(rule.body_plan) == list(reference_join_plan(rule.body, ()))
    given = [e.plan for e in _body_entries(rule)]
    assert len(given) == len(rule.body)
    for j, a in enumerate(rule.body):
        rest = rule.body[:j] + rule.body[j + 1 :]
        assert list(given[j]) == list(reference_join_plan(rest, a.variables()))


def test_join_order_puts_the_most_bound_atom_next():
    rule = Rule(
        "mv",
        (
            Atom("content", V("X")),
            Atom("head", V("X")),
            Atom("nxt", V("Z", "W")),
            Atom("stp", V("X", "Z")),
        ),
        (Atom("head", V("W")),),
    )
    assert [s.pred for s in rule.body_plan] == ["content", "head", "stp", "nxt"]
    # given nxt(Z,W) bound: stp(X,Z) has one bound argument, the rest none
    given_nxt = _body_entries(rule)[2].plan
    assert [(s.pred, s.args) for s in given_nxt] == [
        ("stp", ("X", "Z")),
        ("content", ("X",)),
        ("head", ("X",)),
    ]


# The variants the report comparison runs every corpus `.erl` under.
_RUN_VARIANTS = ("o", "so", "r", "e", "dfr", "dfe")
_CORPUS_ERLS = sorted(p.name for p in CORPUS.glob("*.erl"))


def _count_blocking_calls(monkeypatch) -> list:
    """A list that gets one entry per `ChaseState.blocked` call from now on."""
    calls = []
    blocked = ChaseState.blocked

    def counted(self, *args):
        calls.append(None)
        return blocked(self, *args)

    monkeypatch.setattr(ChaseState, "blocked", counted)
    return calls


@pytest.mark.parametrize("name", _CORPUS_ERLS)
def test_every_trigger_considered_is_one_blocking_call(monkeypatch, name):
    """Every applicability test of a run goes through `ChaseState.blocked`,
    and stats["triggers_considered"] counts exactly those tests."""
    calls = _count_blocking_calls(monkeypatch)
    kb = load_kb(name)
    for variant in _RUN_VARIANTS:
        for strategy in (FIFO(), DatalogFirst()):
            calls.clear()
            outcome = run_chase(kb, ChaseVariant.parse(variant), strategy, 60)
            assert outcome.stats["triggers_considered"] == len(calls), (variant, type(strategy))


def test_every_trigger_considered_is_one_blocking_call_under_fixture_strategies(monkeypatch):
    """The same count under the phased and scripted strategies of the
    corpus fixtures, each run under the variants its fixture names."""
    calls = _count_blocking_calls(monkeypatch)
    runs = 0
    for path in sorted((CORPUS / "fixtures").glob("*.json")):
        fixture = load_fixture(path)
        for strategy in fixture.strategies:
            for variant in sorted({entry["variant"] for entry in fixture.expect}):
                calls.clear()
                outcome = run_chase(fixture.kb, ChaseVariant.parse(variant), strategy, 60)
                assert outcome.stats["triggers_considered"] == len(calls), (path.name, variant)
                runs += 1
    assert runs >= 4


@pytest.mark.parametrize("name", _CORPUS_ERLS)
def test_blocked_agrees_with_scan(name):
    """Along a FIFO run, `ChaseState.blocked`, given the Datalog-first gate
    as a scan finds it, finds exactly the triggers a scan returns
    applicable, counts one trigger considered per call, and leaves the
    trigger lists, the store (atoms and bucket order), the fired keys and
    the records as they were."""
    kb = load_kb(name)
    for variant in ("o", "so", "r", "dfo", "dfso", "dfr"):
        state = ChaseState(kb, ChaseVariant.parse(variant))
        for _ in range(8):
            gate = not state.variant.datalog_first or not state.scan(state.datalog_ids, first=True)
            view = _state_view(state)
            live = [t for entries in state.lists for t in entries]
            before = state.stats["triggers_considered"]
            applicable = [t for t in live if state.blocked(t, gate) is None]
            assert state.stats["triggers_considered"] == before + len(live)
            assert _state_view(state) == view
            assert applicable == state.scan()
            if not applicable:
                break
            state.apply(applicable[0])
