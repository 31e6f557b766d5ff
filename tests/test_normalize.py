import random

import pytest
from hypothesis import given, settings, strategies as st

from exchase import hom
from exchase.core import (
    Atom,
    BUDGET_EXHAUSTED,
    Const,
    FactBase,
    KnowledgeBase,
    Rule,
    Store,
    TERMINATED_FAIR,
    Var,
)
from exchase.chase import (
    ChaseVariant,
    DatalogFirst,
    FIFO,
    enumerate_triggers,
    run_chase,
)
from exchase.normalize import (
    PROCEDURES,
    DecompositionReport,
    FreshNameClashError,
    one_way,
    pieces,
    single_piece,
    two_way,
)

from conftest import (
    find_rule_like,
    load_doc,
    load_kb,
    random_factbase,
    random_rules,
    rules_isomorphic,
    small_kbs,
)
from oracles import RandomChoice, are_isomorphic, ch_k, is_applicable, reference_pieces, restrict, steps_of

R, SO, O, E = (ChaseVariant.parse(v) for v in ("r", "so", "o", "e"))
DFR = ChaseVariant.parse("dfr")


def V(*names):
    return tuple(Var(n) for n in names)


def parse_rule(text: str) -> Rule:
    return load_rule_from(text)


def load_rule_from(text: str):
    from exchase import textio

    return textio.parse_document(text).rules[0]


# --- pieces ------------------------------------------------------------------


def test_pieces_rule6():
    rule = load_doc("rule6.erl").rules[0]
    comps = pieces(rule)
    assert len(comps) == 3
    shapes = sorted(tuple(sorted(a.pred for a in c)) for c in comps)
    assert shapes == [("a",), ("a", "p"), ("p",)]


def test_pieces_rule12_single():
    rule = load_doc("rule12.erl").rules[0]
    assert len(pieces(rule)) == 1


def test_pieces_datalog_head_splits_per_atom():
    rule = load_rule_from("q(Y) -> p(Y,Y), a(Y).")
    comps = pieces(rule)
    assert len(comps) == 2


@st.composite
def _wide_head_rules(draw):
    """A rule `b(X,Y) -> exists Z0..Z5. head` whose head has up to twelve
    atoms over the frontier and six existential variables, so that pieces
    of every size, and atoms that join two pieces late, show up."""
    terms = [Var(n) for n in ("X", "Y", "Z0", "Z1", "Z2", "Z3", "Z4", "Z5")]
    preds = draw(st.lists(st.sampled_from([("h", 1), ("k", 2), ("m", 3)]), min_size=1, max_size=12))
    head = [Atom(p, tuple(draw(st.sampled_from(terms)) for _ in range(n))) for p, n in preds]
    return Rule("w", (Atom("b", (Var("X"), Var("Y"))),), tuple(head))


@settings(max_examples=300, deadline=None, database=None)
@given(_wide_head_rules())
def test_pieces_equal_the_pairwise_reference(rule):
    assert pieces(rule) == reference_pieces(rule)


# --- single piece -------------------------------------------------------------


def test_single_piece_rule6_shapes():
    rule = load_doc("rule6.erl").rules[0]
    report = single_piece((rule,))
    assert len(report.output_rules) == 3
    assert report.fresh_predicates == ()
    expected = [
        load_rule_from("r(X,Y) -> exists Z. p(X,Z), a(Z)."),
        load_rule_from("r(X,Y) -> exists U. a(U)."),
        load_rule_from("r(X,Y) -> p(X,Y)."),
    ]
    for model in expected:
        assert find_rule_like(report.output_rules, model)
    for r in report.output_rules:
        assert r.body == rule.body  # bodies unchanged


def test_single_piece_leaves_single_piece_rules_alone():
    rule = load_doc("rule12.erl").rules[0]
    report = single_piece((rule,))
    assert report.output_rules == (rule,)
    assert report.mapping == {"r12": ("r12",)}


def test_single_piece_t4a_three_rules():
    doc = load_doc("t4a.erl")
    report = single_piece(tuple(doc.rules))
    assert len(report.output_rules) == 3
    expected = [
        load_rule_from("p(X,Y) -> p(Y,Y)."),
        load_rule_from("p(X,Y) -> a(Y)."),
        load_rule_from("a(X) -> exists Z. p(X,Z)."),
    ]
    for model in expected:
        assert find_rule_like(report.output_rules, model)


# --- one-way atomic ------------------------------------------------------------


def test_one_way_rule12_golden():
    rule = load_doc("rule12.erl").rules[0]
    report = one_way((rule,))
    assert len(report.output_rules) == 3
    assert report.fresh_predicates == (("X__r12", 3),)
    gen = next(r for r in report.output_rules if r.id == "r12.x")
    assert gen.existentials == {"Z"}
    assert gen.head[0].pred == "X__r12"
    assert gen.head[0].arity == 3
    projections = [r for r in report.output_rules if r.id.startswith("r12.h")]
    assert sorted(r.head[0].pred for r in projections) == ["p", "s"]
    for proj in projections:
        assert proj.body == (gen.head[0],)
        assert proj.is_datalog


def test_one_way_example1_shape():
    rule = load_doc("ex1.erl").rules[0]
    report = one_way((rule,))
    expected = [
        load_rule_from("p(X,Y) -> exists Z. xr(Y,Z)."),
        load_rule_from("xr(Y,Z) -> p(Y,Z)."),
        load_rule_from("xr(Y,Z) -> p(Z,Y)."),
    ]
    got = [Rule(r.id, r.body, r.head) for r in report.output_rules]
    renamed = [
        Rule(
            r.id,
            tuple(Atom("xr" if a.pred.startswith("X__") else a.pred, a.args) for a in r.body),
            tuple(Atom("xr" if a.pred.startswith("X__") else a.pred, a.args) for a in r.head),
        )
        for r in got
    ]
    for model in expected:
        assert find_rule_like(renamed, model)


def test_one_way_datalog_rule_literal():
    rule = load_rule_from("p(X) -> q(X).")
    report = one_way((rule,))
    assert [str(r.head[0].pred) for r in report.output_rules] == ["X__r1", "q"]
    assert all(r.is_datalog for r in report.output_rules)


def test_one_way_skip_atomic():
    rules = (load_rule_from("p(X) -> q(X)."), load_doc("rule12.erl").rules[0])
    report = one_way(rules, skip_atomic=True)
    assert rules[0] in report.output_rules
    assert len(report.output_rules) == 1 + 3


def test_fresh_name_clash():
    rule = load_rule_from("[r9] X__r9(A) -> q(A).")
    with pytest.raises(FreshNameClashError):
        one_way((rule,))
    with pytest.raises(FreshNameClashError):
        two_way((rule,))


def test_fresh_names_of_two_rules_must_differ():
    # ids a.b and a_b both escape to X__a_b; sharing it would merge the two
    # rules' witnesses
    from exchase import textio

    rules = tuple(
        textio.parse_document(
            "[a.b] p(X) -> exists Z. r(Z), s(X).\n[a_b] q(X) -> exists Z. r(Z), t(X).\n"
        ).rules
    )
    with pytest.raises(FreshNameClashError, match="X__a_b"):
        one_way(rules)
    with pytest.raises(FreshNameClashError, match="X__a_b"):
        two_way(rules)
    # distinct escapes keep today's names
    assert one_way(rules[:1]).fresh_predicates == (("X__a_b", 2),)


def test_fresh_names_must_not_be_predicates_of_facts_or_queries():
    rule = load_rule_from("[r1] p(X) -> exists Z. q(X,Z), s(Z).")
    for proc in (one_way, two_way):
        with pytest.raises(FreshNameClashError, match="X__r1"):
            proc((rule,), reserved={"X__r1"})
        assert proc((rule,), reserved={"p", "q"}).fresh_predicates == (("X__r1", 2),)


def test_generated_rule_ids_must_not_be_input_ids():
    from exchase import textio

    rules = tuple(
        textio.parse_document(
            "[r] p(X) -> exists Y,Z. q(X,Y), s(X,Z).\n[r.p1] p(X) -> t(X).\n"
            "[r.x] p(X) -> t(X).\n[r.b] t(X) -> u(X).\n"
        ).rules
    )
    with pytest.raises(FreshNameClashError, match="'r.p1'"):
        single_piece(rules[:2])
    with pytest.raises(FreshNameClashError, match="'r.x'"):
        one_way(rules[::2])
    with pytest.raises(FreshNameClashError, match="'r.b'"):
        two_way(rules[::3])
    assert one_way(rules[::3]).mapping["r"] == ("r.x", "r.h1", "r.h2")


# --- two-way atomic -------------------------------------------------------------


def test_two_way_rule12_adds_backward():
    rule = load_doc("rule12.erl").rules[0]
    report = two_way((rule,))
    assert len(report.output_rules) == 4
    backward = next(r for r in report.output_rules if r.id == "r12.b")
    assert backward.is_datalog
    assert rules_isomorphic(
        backward, load_rule_from("p(X,Z), s(X,Y,Z) -> xb(X,Y,Z).")
        if False
        else Rule(
            "model",
            (Atom("p", V("X", "Z")), Atom("s", V("X", "Y", "Z"))),
            (Atom("X__r12", V("X", "Y", "Z")),),
        ),
    )


def test_two_way_example1_backward_rule41():
    rule = load_doc("ex1.erl").rules[0]
    report = two_way((rule,))
    backward = next(r for r in report.output_rules if r.id == "ex1.b")
    model = Rule(
        "model",
        (Atom("p", V("Y", "Z")), Atom("p", V("Z", "Y"))),
        (Atom("X__ex1", V("Y", "Z")),),
    )
    assert rules_isomorphic(backward, model)


def test_two_way_arity0_head():
    rule = load_rule_from("b -> a.")
    report = two_way((rule,))
    shapes = sorted((str(r.body[0]), str(r.head[0])) for r in report.output_rules)
    assert shapes == [("X__r1", "a"), ("a", "X__r1"), ("b", "X__r1")]


# --- signature restriction -------------------------------------------------------


def test_restrict_signature_examples():
    a, b = Const("a"), Const("b")
    fb = FactBase([Atom("p", (a, b)), Atom("X__r", (a, b))])
    assert restrict(fb, {"p"}).atoms == {Atom("p", (a, b))}
    assert restrict(fb, fb.signature).atoms == fb.atoms


def test_restriction_identity_small_example():
    # ch_2 over the one-way decomposition, restricted, is the original ch_1
    kb = KnowledgeBase(
        (load_rule_from("[su] a(X) -> exists Z. p(X,Z)."),),
        FactBase([Atom("a", (Const("a"),))]),
    )
    onead = KnowledgeBase(one_way(kb.rules).output_rules, kb.facts)
    left = ch_k(kb, 1)
    right = restrict(ch_k(onead, 2), {"a", "p"})
    assert are_isomorphic(left, right)


# --- semantic properties ----------------------------------------------------------


E_TERMINATING = ["ex1.erl", "t2a.erl", "t2c.erl", "t2d.erl", "t2e.erl", "t4a.erl", "oterm.erl"]


def fair_e_result(kb):
    """A fair (finite) equivalent-chase result; plain rule order may starve
    the folding rules, so fall back to the terminating-derivation search."""
    from exchase.analysis import find_terminating

    out = run_chase(kb, E, DatalogFirst(), 60)
    if out.verdict == TERMINATED_FAIR:
        return out.result
    derivation = find_terminating(kb, E, 12)
    assert derivation is not None
    return derivation.result


def test_single_piece_preserves_equivalence_on_e_chase():
    for name in E_TERMINATING:
        doc = load_doc(name)
        kb = doc.knowledge_base()
        sp_kb = KnowledgeBase(single_piece(tuple(doc.rules)).output_rules, doc.factbase())
        left = fair_e_result(kb)
        right = fair_e_result(sp_kb)
        assert hom.find_homomorphism(left.atoms, right) is not None, name
        assert hom.find_homomorphism(right.atoms, left) is not None, name


def _random_queries(rng, fb, count=3):
    queries = []
    atoms = fb.sorted_atoms
    for _ in range(count):
        picked = [rng.choice(atoms) for _ in range(rng.randint(1, 2))]
        query = []
        for i, atom in enumerate(picked):
            args = tuple(
                Var("Q%d_%d" % (i, j)) if rng.random() < 0.5 else arg
                for j, arg in enumerate(atom.args)
            )
            query.append(Atom(atom.pred, args))
        queries.append(tuple(query))
    return queries


def test_decompositions_preserve_bcq_answers():
    """For R-terminating inputs, entailment over the original signature agrees
    across the original rules and all three decompositions."""
    from exchase.analysis import entails

    rng = random.Random(101)
    for name in ("ex1.erl", "t2a.erl", "t4a.erl", "oterm.erl"):
        doc = load_doc(name)
        rules = tuple(doc.rules)
        base = doc.knowledge_base()
        out = run_chase(base, R, FIFO(), 200)
        assert out.verdict == TERMINATED_FAIR
        variants = {
            "sp": KnowledgeBase(single_piece(rules).output_rules, doc.factbase()),
            "1ad": KnowledgeBase(one_way(rules).output_rules, doc.factbase()),
            "2ad": KnowledgeBase(two_way(rules).output_rules, doc.factbase()),
        }
        for query in _random_queries(rng, out.result, count=6):
            expected = hom.find_homomorphism(query, out.result) is not None
            for label, kb2 in variants.items():
                verdict = entails(kb2, query, R, 80)
                if expected:
                    assert verdict.kind == "yes", (name, label, query)
                else:
                    assert verdict.kind != "yes", (name, label, query)



_QUERY_TERMS = (Var("X"), Var("Y"), Const("a"), Const("b"), Const("c"))


@st.composite
def signature_queries(draw):
    """One or two atoms over the predicates of `small_kbs`."""
    atoms = []
    for _ in range(draw(st.integers(1, 2))):
        pred, arity = draw(st.sampled_from((("p", 2), ("q", 1), ("r", 2))))
        atoms.append(Atom(pred, tuple(draw(st.sampled_from(_QUERY_TERMS)) for _ in range(arity))))
    return tuple(atoms)


@settings(max_examples=100, deadline=None, database=None)
@given(small_kbs(), signature_queries(), st.sampled_from(("o", "so", "r")))
def test_decompositions_preserve_bcq_answers_property(kb, query, name):
    """A BCQ over the input signature gets the same answer from the input
    rules and from each decomposition, whenever both answers are definite
    within budget."""
    from exchase.analysis import entails

    variant = ChaseVariant.parse(name)
    expected = entails(kb, query, variant, 30).kind
    if expected == "unknown":
        return
    for label, proc in PROCEDURES.items():
        decomposed = KnowledgeBase(proc(kb.rules).output_rules, kb.facts)
        answer = entails(decomposed, query, variant, 90).kind
        if answer != "unknown":
            assert answer == expected, (label, [str(r) for r in kb.rules], query)

def test_breadth_first_inclusions_random():
    """ch_i(R,F) embeds injectively in ch_2i of both atomic decompositions."""
    rng = random.Random(7)
    done = 0
    while done < 30:
        rules = random_rules(rng, max_rules=2, preds=[("p", 2), ("q", 1)])
        fb = random_factbase(rng, preds=[("p", 2), ("q", 1)], max_atoms=2)
        kb = KnowledgeBase(rules, fb)
        if len(ch_k(kb, 3)) > 60:
            continue
        kb1 = KnowledgeBase(one_way(rules).output_rules, fb)
        kb2 = KnowledgeBase(two_way(rules).output_rules, fb)
        for i in (1, 2, 3):
            left = ch_k(kb, i)
            assert hom.find_homomorphism(left.atoms, ch_k(kb1, 2 * i), injective=True) is not None
            assert hom.find_homomorphism(left.atoms, ch_k(kb2, 2 * i), injective=True) is not None
        done += 1


def test_signature_identity_random():
    """ch_i(R,F) is isomorphic to ch_2i(1ad(R),F) restricted to the original
    signature, for fact bases over that signature."""
    rng = random.Random(13)
    done = 0
    while done < 30:
        rules = random_rules(rng, max_rules=2, preds=[("p", 2), ("q", 1)])
        fb = random_factbase(rng, preds=[("p", 2), ("q", 1)], max_atoms=2)
        kb = KnowledgeBase(rules, fb)
        if len(ch_k(kb, 3)) > 60:
            continue
        sigma = {"p", "q"}
        kb1 = KnowledgeBase(one_way(rules).output_rules, fb)
        for i in (1, 2, 3):
            left = ch_k(kb, i)
            right = restrict(ch_k(kb1, 2 * i), sigma)
            assert are_isomorphic(left, right), (i, [str(r) for r in rules])
        done += 1


def test_restricted_equals_semioblivious_on_one_way_output():
    """Along derivations from a one-way decomposition, restricted and
    semi-oblivious applicability coincide for every candidate trigger."""
    rng = random.Random(997)
    checked = 0
    kbs = 0
    while kbs < 60:
        rules = random_rules(rng, max_rules=3)
        fb = random_factbase(rng, max_atoms=3, consts=None)
        ad = one_way(rules).output_rules
        kb = KnowledgeBase(ad, fb)
        kbs += 1
        current = fb
        for _ in range(15):
            candidates = list(enumerate_triggers(ad, Store(current)))
            for t in candidates:
                r_ok = is_applicable(R, t, current, None)
                so_ok = is_applicable(SO, t, current, None)
                assert r_ok == so_ok, (t.rule.id, str(t))
                checked += 1
            fresh = [t for t in candidates if not set(t.output) <= current.atoms]
            if not fresh:
                break
            current = current.union(rng.choice(fresh).output)
    assert checked >= 1000


@settings(max_examples=200, deadline=None, database=None)
@given(small_kbs(), st.data())
def test_restricted_equals_semioblivious_on_reachable_one_way_states(kb, data):
    """Acceptance criterion 5 as a property: on every state of a derivation
    of the one-way decomposition, each step firing any trigger whose output
    is not yet present, R and SO (reading the path's fired frontier keys)
    decide every trigger the same way."""
    rules = one_way(kb.rules).output_rules
    fb, fired = kb.facts, set()
    for _ in range(8):
        triggers = list(enumerate_triggers(rules, Store(fb)))
        for t in triggers:
            assert is_applicable(R, t, fb, fired) == is_applicable(SO, t, fb, fired), str(t)
        unapplied = [t for t in triggers if not set(t.output) <= fb.atoms]
        if not unapplied:
            break
        t = data.draw(st.sampled_from(unapplied))
        fired.add(t.frontier_key)
        fb = fb.union(t.output)


def test_atomic_decompositions_never_gain_oblivious_termination():
    """KBs whose O/SO chase exhausts the budget still exhaust it after 1ad/2ad."""
    for name in ("ex1.erl", "t8.erl", "t2c.erl"):
        doc = load_doc(name)
        rules = tuple(doc.rules)
        for variant in (O, SO):
            base = run_chase(doc.knowledge_base(), variant, FIFO(), 40)
            assert base.verdict == BUDGET_EXHAUSTED
            for proc in (one_way, two_way):
                kb2 = KnowledgeBase(proc(rules).output_rules, doc.factbase())
                out = run_chase(kb2, variant, FIFO(), 80)
                assert out.verdict == BUDGET_EXHAUSTED, (name, variant.tag, proc.__name__)


def test_two_way_df_r_invariance():
    """The Datalog-first restricted verdict agrees between R and 2ad(R) at
    matched budgets counted in existential steps; fair terminal results agree
    after signature restriction, up to isomorphism."""
    for name in ("ex1.erl", "t2c.erl", "t2a.erl", "t4a.erl", "t2f.erl", "oterm.erl"):
        doc = load_doc(name)
        rules = tuple(doc.rules)
        sigma = doc.knowledge_base().signature
        base = run_chase(doc.knowledge_base(), DFR, DatalogFirst(), 60)
        kb2 = KnowledgeBase(two_way(rules).output_rules, doc.factbase())
        decomposed = run_chase(kb2, DFR, DatalogFirst(), 400)

        def existential_steps(outcome):
            return sum(1 for t, _ in steps_of(outcome) if not t.rule.is_datalog)

        if base.verdict == TERMINATED_FAIR:
            assert decomposed.verdict == TERMINATED_FAIR, name
            assert existential_steps(base) == existential_steps(decomposed), name
            assert are_isomorphic(
                base.result, restrict(decomposed.result, sigma)
            ), name
        else:
            assert decomposed.verdict == BUDGET_EXHAUSTED, name


def test_report_mapping_and_sidecar():
    doc = load_doc("t4a.erl")
    report = single_piece(tuple(doc.rules))
    assert report.mapping["pl"] == ("pl.p1", "pl.p2")
    assert report.mapping["su"] == ("su",)
    from exchase.normalize import report_sidecar

    sidecar = report_sidecar(two_way(tuple(doc.rules)))
    assert ["X__pl", "X__su"] == sorted(name for name, _ in sidecar["fresh_predicates"])
    assert sidecar["mapping"]["su"] == ["su.x", "su.h1", "su.b"]
