import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from exchase import analysis, core, hom
from exchase.analysis import (
    ALL_FINITE,
    BUDGET_EXCEEDED,
    CERTIFIED,
    GROWTH,
    UNCERTIFIED,
    FixtureError,
    classify,
    entails,
    explore_all,
    find_terminating,
    load_fixture,
)
from exchase.chase import (
    ChaseState,
    ChaseVariant,
    DatalogFirst,
    FIFO,
    Phased,
    Scripted,
    Strategy,
    enumerate_triggers,
    run_chase,
)
from exchase.core import (
    Atom,
    Const,
    FactBase,
    KnowledgeBase,
    Null,
    Store,
    TERMINATED_FAIR,
    TERMINATED_UNFAIR,
    Var,
    sort_atoms,
)
from exchase.normalize import FreshNameClashError, one_way, single_piece, two_way
from exchase.textio import parse_document

from conftest import ALL_VARIANTS, CORPUS, load_doc, load_kb, small_kbs
from oracles import RandomChoice, applicable_edges, deltas_of, reference_entails

R, SO, O, E = (ChaseVariant.parse(v) for v in ("r", "so", "o", "e"))
DFR = ChaseVariant.parse("dfr")


# --- explorer ------------------------------------------------------------------


def test_explore_example1_restricted():
    report = explore_all(load_kb("ex1.erl"), R, 12, 5000)
    assert report.verdict == ALL_FINITE
    assert report.max_len == 1
    assert report.nodes == 2


def test_run_and_explore_agree_under_so_when_a_twin_output_is_a_fact():
    """The facts hold the output of the (a,b) trigger, which never fired.
    SO reads the frontier keys fired along the derivation, so its (a,c)
    twin is applicable, in `run_chase` and in the explorer alike."""
    kb = parse_document("[r] p(X,Y) -> exists Z. q(X,Z).\np(a,b).\np(a,c).\n").knowledge_base()
    t_ab, t_ac = enumerate_triggers(kb.rules, Store(kb.facts))
    kb = KnowledgeBase(kb.rules, kb.facts.union(t_ab.output))
    out = run_chase(kb, SO, FIFO(), 10)
    assert out.verdict == TERMINATED_FAIR
    assert [t for t, _ in out.records] == [t_ac]
    report = explore_all(kb, SO, 10, 100)
    assert report.verdict == ALL_FINITE
    assert report.max_len == 1


def test_explore_no_applicable_triggers():
    kb = load_kb("ex1.erl")
    empty = KnowledgeBase(kb.rules, FactBase([Atom("q0", (Const("a"),))]))
    report = explore_all(empty, R, 12, 5000)
    assert report.verdict == ALL_FINITE
    assert report.max_len == 0
    assert report.nodes == 1


def test_explore_growth_on_sp_t4a_with_replayable_witness():
    doc = load_doc("t4a.erl")
    kb = KnowledgeBase(single_piece(tuple(doc.rules)).output_rules, doc.factbase())
    report = explore_all(kb, R, 12, 5000)
    assert report.verdict == GROWTH
    assert len(report.witness) == 13
    assert report.witness_label == CERTIFIED  # all rules atomic-headed
    # the witness really is a derivation: replay it
    fb = kb.facts
    for delta in report.witness:
        fb = fb.union(delta)
    assert len(fb) == len(kb.facts) + sum(len(d) for d in report.witness)


def test_growth_label_uncertified_for_multi_head_rules():
    report = explore_all(load_kb("ex1.erl"), SO, 12, 5000)
    assert report.verdict == GROWTH
    assert report.witness_label == UNCERTIFIED


def test_explore_budget_exceeded():
    report = explore_all(load_kb("t8.erl"), SO, 50, 10)
    assert report.verdict == BUDGET_EXCEEDED
    assert report.nodes == 11


def test_explore_deeper_than_the_recursion_limit():
    # the explorer keeps one frame per depth on an explicit stack, so a depth
    # budget above Python's recursion limit (1000) works
    from exchase import textio

    kb = textio.parse_document("[g] p(X,Y) -> exists Z. p(Y,Z).\np(a,b).\n").knowledge_base()
    report = explore_all(kb, O, max_depth=1500, max_nodes=5000, dedup=False)
    assert report.verdict == GROWTH
    assert len(report.witness) == 1501
    assert report.nodes == 1501


def test_explore_without_dedup_walks_one_state_at_depth_3000():
    """The explorer applies each step on the way down and undoes it on the
    way back, so memory grows with the path, not with a fact base per
    frame (which took about 440 MB at this depth)."""
    import tracemalloc

    from exchase import textio

    kb = textio.parse_document("[g] p(X,Y) -> exists Z. p(Y,Z).\np(a,b).\n").knowledge_base()
    tracemalloc.start()
    try:
        report = explore_all(kb, O, max_depth=3000, max_nodes=5000, dedup=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict == GROWTH
    assert len(report.witness) == 3001
    assert peak < 50 * 2**20


# Two derivations reach isomorphic but different states, whose coarse keys
# (predicates and constant positions) collide.
COLLISION_ERL = """[a] p(X,Y) -> exists Z. q(X,Z).
[b] p(X,Y) -> exists Z. q(Z,Y).
[c] q(X,Y) -> exists Z. s(Y,Z).
p(_u,_v).
p(_v,_w).
"""


def _counting(monkeypatch, owner, name):
    """Replace `owner.name` by a wrapper that records each call's first
    argument; returns the list of records."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_explore_refines_colours_only_on_a_coarse_key_collision(monkeypatch):
    refinements = _counting(monkeypatch, hom, "_refine")
    growth = parse_document("[g] p(X,Y) -> exists Z. p(Y,Z).\np(a,b).\n").knowledge_base()
    assert explore_all(growth, O, max_depth=200, max_nodes=5000).verdict == GROWTH
    assert refinements == []  # every state has its own size

    lookups = _counting(monkeypatch, hom.IsoTable, "entry")
    report = explore_all(parse_document(COLLISION_ERL).knowledge_base(), O, 12, 5000)
    assert report.dedup_hits > 0
    assert 0 < len(refinements) < len(lookups)


def test_explore_rejects_bad_budgets():
    with pytest.raises(ValueError):
        explore_all(load_kb("ex1.erl"), R, 0, 10)


def test_dedup_on_off_agree():
    for name, variant in (("ex1.erl", R), ("t2a.erl", SO), ("t4a.erl", R), ("t2c.erl", DFR)):
        kb = load_kb(name)
        with_dedup = explore_all(kb, variant, 8, 4000, dedup=True)
        without = explore_all(kb, variant, 8, 4000, dedup=False)
        assert with_dedup.verdict == without.verdict, name
        if with_dedup.verdict == ALL_FINITE:
            assert with_dedup.max_len == without.max_len


def test_explorer_soundness_random_strategies():
    """AllFinite(k, n) implies any strategy terminates fairly within k steps."""
    cases = [("ex1.erl", R, None), ("t2a.erl", SO, None), ("t4a.erl", R, None), ("t2c.erl", DFR, None)]
    for name, variant, _ in cases:
        kb = load_kb(name)
        report = explore_all(kb, variant, 12, 5000)
        assert report.verdict == ALL_FINITE, name
        for seed in range(20):
            out = run_chase(kb, variant, RandomChoice(seed), report.max_len + 1)
            assert out.verdict == TERMINATED_FAIR, (name, seed)
            assert len(out) <= report.max_len


# --- find_terminating -------------------------------------------------------------


def test_find_terminating_fifo_case():
    derivation = find_terminating(load_kb("ex1.erl"), R, 10)
    assert derivation is not None
    assert len(derivation) == 1


def test_find_terminating_t2f_needs_phase_strategy():
    kb = load_kb("t2f.erl")
    phased = Phased([(("r3", "r4", "r5"), "exhaust"), (("r2",), "exhaust"), (("r1",), "exhaust")])
    derivation = find_terminating(kb, R, 8, pool=[phased], deepening=False)
    assert derivation is not None
    assert derivation.verdict == TERMINATED_FAIR
    assert len(derivation.result) == 5
    # Datalog-first restricted never terminates on this KB
    assert find_terminating(kb, DFR, 8) is None


def test_find_terminating_by_deepening_only():
    # t2d: plain strategies diverge, deepening finds the paired-rule step
    kb = load_kb("t2d.erl")
    derivation = find_terminating(kb, DFR, 6)
    assert derivation is not None
    assert len(derivation) == 1


class _GiveUp(Strategy):
    """Stops at once, so a run ends fairly only on a terminal fact base."""

    complete = False

    def triggers(self, state):
        yield from ()


def _deepening_reference(kb, variant, max_steps):
    """The search part of `find_terminating` as iterative deepening:
    depth-first rounds of growing depth from the root, each with its own
    memo of states whose subtree held no terminal state, every state's
    edges taken from `applicable_edges`. Returns the (trigger, delta)
    records of the path found, or None."""
    for budget in range(1, max_steps + 1):
        dead = hom.IsoTable()
        stack, path = [], []
        fb, depth_left = kb.facts, budget
        while True:
            edges = list(applicable_edges(kb, fb, variant))
            if not edges:
                return [(t, sort_atoms(after.atoms - before.atoms)) for t, before, after in path]
            prev = dead.entry(fb).value if depth_left else None
            if depth_left and (prev is None or prev < depth_left):
                stack.append((fb, depth_left, iter(edges)))
            elif path:
                path.pop()
            t = None
            while stack:
                fb, depth_left, untried = stack[-1]
                t = next(untried, None)
                if t is not None:
                    break
                stack.pop()
                dead.entry(fb).value = depth_left
                if stack:
                    path.pop()
            if t is None:
                break
            after = fb.union(t.output)
            path.append((t, fb, after))
            fb, depth_left = after, depth_left - 1
    return None


def _search_only(kb, variant, max_steps):
    """`find_terminating` with FIFO and DatalogFirst made to give up at once,
    so that what it returns is what its search finds."""
    with mock.patch.object(analysis, "FIFO", _GiveUp), mock.patch.object(analysis, "DatalogFirst", _GiveUp):
        found = find_terminating(kb, variant, max_steps)
    return None if found is None else list(found.records)


@settings(max_examples=400, deadline=None, database=None)
@given(small_kbs(), st.sampled_from(ALL_VARIANTS), st.integers(1, 4))
def test_breadth_first_search_returns_the_deepening_answer(kb, name, max_steps):
    """The search finds iterative deepening's answer: the first shortest
    terminating path in canonical edge order."""
    variant = ChaseVariant.parse(name)
    assert _search_only(kb, variant, max_steps) == _deepening_reference(kb, variant, max_steps)


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.erl")))
def test_breadth_first_search_returns_the_deepening_answer_on_the_corpus(name):
    kb = load_kb(name)
    for variant in (O, SO, R, E, DFR):
        assert _search_only(kb, variant, 4) == _deepening_reference(kb, variant, 4), variant.label


def test_search_builds_one_store_per_chase_state(monkeypatch):
    """A search-only `find_terminating` through the 2^8 states of eight
    independent rules builds one `Store` per `ChaseState`, three in all:
    the two given-up strategy runs and the search, which moves one state."""
    text = "".join("[r%d] a%d(X) -> exists Y. b%d(X,Y).\na%d(c).\n" % ((i,) * 4) for i in range(8))
    stores = _counting(monkeypatch, Store, "__init__")
    states = _counting(monkeypatch, ChaseState, "__init__")
    assert len(_search_only(parse_document(text).knowledge_base(), R, 8)) == 8
    assert len(stores) == len(states) == 3


# --- entails ------------------------------------------------------------------------


def test_entails_yes_with_witness():
    kb = load_kb("ex1.erl")
    query = (Atom("p", (Var("X"), Var("Y"))), Atom("p", (Var("Y"), Var("X"))))
    verdict = entails(kb, query, R, 50)
    assert verdict.kind == "yes"
    assert verdict.witness is not None
    # the witness is checkable
    assert all(
        a.substitute(verdict.witness)
        in run_chase(kb, R, FIFO(), 50).result.atoms
        for a in query
    )


def test_entails_no_on_fair_termination():
    kb = KnowledgeBase((), FactBase([Atom("p", (Const("a"), Const("b")))]))
    verdict = entails(kb, (Atom("q0", (Var("X"),)),), R, 10)
    assert verdict.kind == "no"


def test_entails_unknown_on_budget():
    kb = load_kb("ex1.erl")
    query = (Atom("q0", (Var("X"),)),)
    verdict = entails(kb, query, O, 3)
    assert verdict.kind == "unknown"


def test_entails_agreement_r_vs_e_on_terminating_kbs():
    rng = random.Random(55)
    for name in ("ex1.erl", "t4a.erl", "oterm.erl", "t2a.erl"):
        kb = load_kb(name)
        result = run_chase(kb, R, FIFO(), 100).result
        atoms = result.sorted_atoms
        for _ in range(12):
            atom = rng.choice(atoms)
            query = (
                Atom(
                    atom.pred,
                    tuple(
                        Var("Q%d" % j) if rng.random() < 0.6 else arg
                        for j, arg in enumerate(atom.args)
                    ),
                ),
            )
            kinds = {entails(kb, query, v, 100).kind for v in (R, E)}
            assert kinds == {"yes"}, (name, query)
        novel = (Atom("fresh0", ()),)
        empty_safe = KnowledgeBase(kb.rules, kb.facts)
        kinds = {entails(empty_safe, novel, v, 100).kind for v in (R, E)}
        assert kinds == {"no"}


_QUERY_TERMS = (Var("X"), Var("Y"), Var("Z"), Const("a"), Const("b"), Null("n1"), Null("n2"))


@st.composite
def queries(draw):
    """One to three atoms over the predicates of `small_kbs`, with
    constants, repeated variables and nulls, which may move."""
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        pred, arity = draw(st.sampled_from((("p", 2), ("q", 1), ("r", 2))))
        atoms.append(Atom(pred, tuple(draw(st.sampled_from(_QUERY_TERMS)) for _ in range(arity))))
    return tuple(atoms)


@settings(max_examples=400, deadline=None, database=None)
@given(small_kbs(), queries(), st.sampled_from(ALL_VARIANTS))
def test_entails_equals_the_per_step_full_search(kb, query, name):
    variant = ChaseVariant.parse(name)
    assert entails(kb, query, variant, 8) == reference_entails(kb, query, variant, 8)


# --- scripted replays of the growth behaviors ----------------------------------------


def test_sp_t4a_scripted_replay_matches_listed_prefix():
    doc = load_doc("t4a.erl")
    kb = KnowledgeBase(single_piece(tuple(doc.rules)).output_rules, doc.factbase())
    out = run_chase(kb, R, Scripted(["su", "pl.p1", "su", "pl.p2", "pl.p1", "su"]), 100)
    assert out.verdict == TERMINATED_UNFAIR
    deltas = deltas_of(out)
    assert [sorted(a.pred for a in d) for d in deltas] == [
        ["p"], ["a"], ["p"], ["p"], ["a"], ["p"],
    ]
    c = Const("c")
    z1 = deltas[0][0].args[1]
    z2 = deltas[2][0].args[1]
    z3 = deltas[5][0].args[1]
    assert deltas[0][0] == Atom("p", (c, z1))
    assert deltas[1][0] == Atom("a", (z1,))
    assert deltas[2][0] == Atom("p", (z1, z2))
    assert deltas[3][0] == Atom("p", (z1, z1))
    assert deltas[4][0] == Atom("a", (z2,))
    assert deltas[5][0] == Atom("p", (z2, z3))


def test_t2c_scripted_replay_matches_listed_prefix():
    kb = load_kb("t2c.erl")
    out = run_chase(kb, R, Scripted(["gen", "sym", "gen", "sym", "gen", "sym"]), 100)
    assert out.verdict == TERMINATED_UNFAIR
    a, b = Const("a"), Const("b")
    deltas = [d[0] for d in deltas_of(out)]
    z1, z2 = deltas[0].args[1], deltas[2].args[1]
    z3 = deltas[4].args[1]
    assert deltas == [
        Atom("p", (b, z1)),
        Atom("p", (b, a)),
        Atom("p", (z1, z2)),
        Atom("p", (z1, b)),
        Atom("p", (z2, z3)),
        Atom("p", (z2, z1)),
    ]


def test_two_way_loop_rule_admits_scripted_infinite_restricted_run():
    doc = load_doc("ex1.erl")
    kb = KnowledgeBase(two_way(tuple(doc.rules)).output_rules, doc.factbase())
    script = ["ex1.x", "ex1.h1"] + ["ex1.x", "ex1.h1", "ex1.h2", "ex1.b"] * 3
    out = run_chase(kb, R, Scripted(script), 100)
    assert out.verdict == TERMINATED_UNFAIR
    assert len(out) == 14
    deltas = deltas_of(out)
    for k in range(3):  # three full loop iterations
        base = 2 + 4 * k
        preds = [d[0].pred for d in deltas[base : base + 4]]
        assert preds == ["X__ex1", "p", "p", "X__ex1"]


def test_one_way_equivalent_chase_grows_in_three_atom_rounds():
    doc = load_doc("ex1.erl")
    kb = KnowledgeBase(one_way(tuple(doc.rules)).output_rules, doc.factbase())
    out = run_chase(kb, E, DatalogFirst(), 15)
    assert out.verdict.startswith("budget")
    deltas = deltas_of(out)
    for k in range(5):  # five rounds of (generator, forward, backward)
        chunk = deltas[3 * k : 3 * k + 3]
        assert [d[0].pred for d in chunk] == ["X__ex1", "p", "p"]


def test_single_piece_breaks_datalog_first_sometimes_termination():
    doc = load_doc("t6.erl")
    kb = doc.knowledge_base()
    phased = Phased([(("s_loop", "a_prop", "r_succ", "s_succ"), "exhaust"), (("guard",), "exhaust")])
    derivation = find_terminating(kb, DFR, 10, pool=[phased], deepening=False)
    assert derivation is not None
    sp_kb = KnowledgeBase(single_piece(tuple(doc.rules)).output_rules, doc.factbase())
    assert find_terminating(sp_kb, DFR, 5) is None


def test_two_way_gains_restricted_termination_on_t13():
    doc = load_doc("t13.erl")
    assert find_terminating(doc.knowledge_base(), R, 5) is None
    kb2 = KnowledgeBase(two_way(tuple(doc.rules)).output_rules, doc.factbase())
    datalog_ids = tuple(r.id for r in kb2.rules if r.is_datalog)
    phased = Phased(
        [(("n1.x",), "once"), (("n1.h2",), "once"), (("n2.x",), "once"), (("n2.h1",), "once"),
         (("n3.x",), "once"), (("n3.h1",), "once"), (("n4.x",), "once"), (("n4.h1",), "once"),
         (("n1.h1",), "once"), (("n3.b",), "once"), (datalog_ids, "exhaust")]
    )
    out = run_chase(kb2, R, phased, 50)
    assert out.verdict == TERMINATED_FAIR


# --- classify ----------------------------------------------------------------------


def test_classify_whole_corpus_passes():
    rows = classify(CORPUS / "fixtures")
    assert rows
    assert all(row["pass"] for row in rows), [r for r in rows if not r["pass"]]
    seen = {(r["fixture"], r["variant"], r["mode"]) for r in rows}
    assert ("T2F", "R", "exists") in seen
    assert ("EX1", "R", "forall") in seen


def test_classify_computes_each_digest_once_per_fixture(monkeypatch):
    """A fixture's runs and searches share the triggers of its knowledge
    base, so `classify` on the corpus computes each existential trigger's
    digest, which mints its nulls, at most once per fixture."""
    fixture_kb, keys = [], []
    classify_fixture, match_digest = analysis.classify_fixture, core._match_digest

    def recording_fixture(fixture):
        fixture_kb.append(fixture.kb)  # kept, so that its id stays its own
        return classify_fixture(fixture)

    def recording_digest(rule_id, match):
        keys.append((id(fixture_kb[-1]), rule_id, match))
        return match_digest(rule_id, match)

    monkeypatch.setattr(analysis, "classify_fixture", recording_fixture)
    monkeypatch.setattr(core, "_match_digest", recording_digest)
    assert all(row["pass"] for row in classify(CORPUS / "fixtures"))
    assert keys
    assert len(keys) == len(set(keys))


def test_classify_detects_mismatch(tmp_path):
    (tmp_path / "bad.erl").write_text("[g] p(X,Y) -> exists Z. p(X,Z).\np(a,b).\n")
    (tmp_path / "bad.json").write_text(
        '{"id": "BAD", "erl": "bad.erl", "budgets": {"max_depth": 6, "max_nodes": 200},'
        ' "expect": [{"variant": "o", "mode": "forall", "verdict": "all_finite"}]}'
    )
    rows = classify(tmp_path)
    assert not rows[0]["pass"]
    assert rows[0]["observed"] == "growth"


def test_fixture_errors(tmp_path):
    (tmp_path / "broken.json").write_text("{not json")
    with pytest.raises(FixtureError):
        classify(tmp_path)
    with pytest.raises(FixtureError):
        classify(tmp_path / "missing-dir")
    (tmp_path / "broken.json").unlink()
    (tmp_path / "x.erl").write_text("p(a,b).\n")
    (tmp_path / "bad_mode.json").write_text(
        '{"id": "B", "erl": "x.erl", "budgets": {},'
        ' "expect": [{"variant": "r", "mode": "sometimes", "verdict": "x"}]}'
    )
    with pytest.raises(FixtureError):
        classify(tmp_path)


def test_fixture_with_a_bare_string_phase_group_is_rejected(tmp_path):
    (tmp_path / "x.erl").write_text("[r1] p(X) -> q(X).\np(a).\n")
    path = tmp_path / "x.json"
    path.write_text(
        '{"id": "B", "erl": "x.erl", "budgets": {}, "strategies": [{"phased": [["r1", "exhaust"]]}],'
        ' "expect": [{"variant": "r", "mode": "exists", "verdict": "terminating"}]}'
    )
    with pytest.raises(FixtureError, match="not a list of rule ids"):
        load_fixture(path)


def test_fixture_transform_checks_fresh_names_against_facts_and_queries(tmp_path):
    (tmp_path / "x.json").write_text(
        '{"id": "C", "erl": "x.erl", "budgets": {}, "transform": "1ad",'
        ' "expect": [{"variant": "r", "mode": "forall", "verdict": "all_finite"}]}'
    )
    rules = "[r1] p(X) -> exists Z. q(X,Z), s(Z).\n"
    for data in ("X__r1(a,b).\n", "p(a).\n? X__r1(A,B).\n"):
        (tmp_path / "x.erl").write_text(rules + data)
        with pytest.raises(FreshNameClashError, match="X__r1"):
            load_fixture(tmp_path / "x.json")
    (tmp_path / "x.erl").write_text(rules + "p(a).\n")
    assert [r.id for r in load_fixture(tmp_path / "x.json").kb.rules] == ["r1.x", "r1.h1", "r1.h2"]


def test_dedup_on_off_agree_on_random_kbs():
    rng = random.Random(2718)
    agreed = 0
    for _ in range(25):
        kb = __import__("conftest").random_kb(rng, max_rules=2)
        variant = rng.choice((R, SO, DFR))
        with_dedup = explore_all(kb, variant, 5, 3000, dedup=True)
        without = explore_all(kb, variant, 5, 3000, dedup=False)
        if BUDGET_EXCEEDED in (with_dedup.verdict, without.verdict):
            continue  # budgets hit at different points are incomparable
        assert with_dedup.verdict == without.verdict
        agreed += 1
    assert agreed >= 15


def test_nulls_whose_short_digests_collide_stay_distinct():
    """The two triggers' SHA-1 digests share their first ten hex digits;
    the labels keep all forty, so the query needs one null for both."""
    doc = parse_document(
        "[r] p(X) -> exists Z. q(X,Z).\np(c650856).\np(c718194).\n"
        "? q(c650856,Z), q(c718194,Z).\n"
    )
    kb = doc.knowledge_base()
    for name in ("o", "r"):
        variant = ChaseVariant.parse(name)
        assert entails(kb, doc.queries[0], variant, 10).kind == "no"
        assert len(run_chase(kb, variant, FIFO(), 10).result.nulls) == 2
