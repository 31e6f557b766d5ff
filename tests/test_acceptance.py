"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 9 is split in two: the behavioral half passes, while the literal
seed-size assertion is kept as stated and fails — the working construction
needs per-state and per-symbol blocking atoms on the brake (see the comment
there), so its seed is larger than the stated count.
"""
import io
import json
import random
import time
from collections import Counter
from contextlib import redirect_stdout

from exchase import hom, tmgen
from exchase.analysis import (
    GROWTH,
    classify,
    entails,
    explore_all,
    find_terminating,
)
from exchase.chase import (
    ChaseVariant,
    DatalogFirst,
    FIFO,
    Phased,
    Scripted,
    enumerate_triggers,
    run_chase,
)
from exchase.cli import main as cli_main
from exchase.core import (
    Atom,
    BUDGET_EXHAUSTED,
    Const,
    KnowledgeBase,
    Rule,
    Store,
    TERMINATED_FAIR,
    TERMINATED_UNFAIR,
    Var,
)
from exchase.normalize import one_way, single_piece, two_way
from exchase import textio

from conftest import (
    CORPUS,
    find_rule_like,
    load_doc,
    load_kb,
    random_factbase,
    random_kb,
    random_rules,
    rules_isomorphic,
)
from oracles import (
    RandomChoice,
    are_isomorphic,
    ch_k,
    deltas_of,
    is_applicable,
    restrict,
    serialize_document,
    steps_of,
)

R, SO, O, E = (ChaseVariant.parse(v) for v in ("r", "so", "o", "e"))
DFR = ChaseVariant.parse("dfr")


def V(*names):
    return tuple(Var(n) for n in names)


def _report(criterion: str) -> None:
    print("ACCEPTANCE %s PASS" % criterion)


def test_criterion_1_example_goldens():
    kb = load_kb("ex1.erl")
    started = time.perf_counter()
    restricted = run_chase(kb, R, FIFO(), 100)
    oblivious = run_chase(kb, O, FIFO(), 20)
    elapsed = time.perf_counter() - started
    assert restricted.verdict == TERMINATED_FAIR
    assert len(restricted) == 1
    assert len(restricted.result) == 3
    assert oblivious.verdict == BUDGET_EXHAUSTED
    assert len(oblivious) == 20
    assert len(oblivious.result) == 41  # exactly two fresh atoms per step
    assert all(len(d) == 2 for d in deltas_of(oblivious))
    assert elapsed < 1.0
    _report("1 (example goldens)")


def test_criterion_2_termination_matrix():
    rows = classify(CORPUS / "fixtures")
    by_key = {(r["fixture"], r["variant"], r["mode"]): r for r in rows}

    def check(fixture, variant, mode, verdict):
        row = by_key[(fixture, variant, mode)]
        assert row["observed"] == verdict == row["expected"], row
        assert row["pass"]

    check("T2A", "SO", "forall", "all_finite")
    check("T2A", "O", "forall", "growth")
    check("EX1", "R", "forall", "all_finite")
    check("EX1", "SO", "forall", "growth")
    check("T2C", "DF-R", "forall", "all_finite")
    check("T2C", "R", "forall", "growth")
    check("T2D", "DF-R", "exists", "terminating")
    check("T2D", "DF-R", "forall", "growth")
    # the equivalent chase terminates on T2E under a fair order, while its
    # all-derivations graph is unbounded through unfair generator chains
    check("T2E", "E", "exists", "terminating")
    check("T2E", "R", "exists", "none_found")
    check("T2F", "R", "exists", "terminating")
    check("T2F", "DF-R", "exists", "none_found")

    # T2D grows under plain first-applicable order
    t2d = load_kb("t2d.erl")
    assert run_chase(t2d, DFR, FIFO(), 20).verdict == BUDGET_EXHAUSTED

    # T2F: the phased strategy yields exactly the expected five atoms
    t2f = load_kb("t2f.erl")
    phased = Phased([(("r3", "r4", "r5"), "exhaust"), (("r2",), "exhaust"), (("r1",), "exhaust")])
    out = run_chase(t2f, R, phased, 100)
    assert out.verdict == TERMINATED_FAIR
    c = Const("c")
    nulls = sorted(out.result.nulls, key=str)
    z1 = next(n for n in nulls if Atom("r", (c, n)) in out.result.atoms)
    z2 = next(n for n in nulls if n != z1)
    assert out.result.atoms == {
        Atom("a", (c,)), Atom("r", (c, c)), Atom("r", (c, z1)),
        Atom("s", (c, c)), Atom("s", (z1, z2)),
    }

    # ... and the Datalog-first run repeats the depicted 4-step pattern
    df = run_chase(t2f, DFR, DatalogFirst(), 13)
    assert df.verdict == BUDGET_EXHAUSTED
    deltas = deltas_of(df)
    assert [a.pred for d in deltas[:1] for a in d] == ["r"]
    for k in range(3):  # three full rounds
        chunk = [a.pred for d in deltas[1 + 4 * k : 5 + 4 * k] for a in d]
        assert chunk == ["s", "s", "a", "r"], (k, chunk)
    _report("2 (termination matrix)")


def test_criterion_3_normalisation_goldens():
    # sp of the three-piece example rule
    rule6 = load_doc("rule6.erl").rules[0]
    sp6 = single_piece((rule6,))
    assert len(sp6.output_rules) == 3
    for model_text in (
        "r(X,Y) -> exists Z. p(X,Z), a(Z).",
        "r(X,Y) -> exists U. a(U).",
        "r(X,Y) -> p(X,Y).",
    ):
        model = textio.parse_document(model_text).rules[0]
        assert find_rule_like(sp6.output_rules, model)

    # sp of the two-rule set splits only the Datalog-headed rule
    t4a = load_doc("t4a.erl")
    sp4 = single_piece(tuple(t4a.rules))
    assert len(sp4.output_rules) == 3
    for model_text in ("p(X,Y) -> p(Y,Y).", "p(X,Y) -> a(Y).", "a(X) -> exists Z. p(X,Z)."):
        model = textio.parse_document(model_text).rules[0]
        assert find_rule_like(sp4.output_rules, model)

    # one-way atomic decomposition of the single-piece rule: fresh predicate
    # of arity 3 and three rules
    rule12 = load_doc("rule12.erl").rules[0]
    ad1 = one_way((rule12,))
    assert len(ad1.output_rules) == 3
    assert ad1.fresh_predicates == (("X__r12", 3),)
    gen = next(r for r in ad1.output_rules if not r.is_datalog)
    assert gen.head[0].arity == 3

    # two-way adds exactly the backward rule
    ad2 = two_way((rule12,))
    assert len(ad2.output_rules) == 4
    backward = next(r for r in ad2.output_rules if r.id == "r12.b")
    model = Rule(
        "m",
        (Atom("p", V("X", "Z")), Atom("s", V("X", "Y", "Z"))),
        (Atom("X__r12", V("X", "Y", "Z")),),
    )
    assert rules_isomorphic(backward, model)

    # two-way of the loop rule includes the paired backward rule
    ex1 = load_doc("ex1.erl").rules[0]
    back = next(r for r in two_way((ex1,)).output_rules if r.id == "ex1.b")
    model = Rule(
        "m",
        (Atom("p", V("Y", "Z")), Atom("p", V("Z", "Y"))),
        (Atom("X__ex1", V("Y", "Z")),),
    )
    assert rules_isomorphic(back, model)
    _report("3 (normalisation goldens)")


def test_criterion_4_decomposition_behaviors():
    # sp(T4A): growth, and the listed infinite prefix replays step by step
    t4a = load_doc("t4a.erl")
    sp_kb = KnowledgeBase(single_piece(tuple(t4a.rules)).output_rules, t4a.factbase())
    report = explore_all(sp_kb, R, 12, 5000)
    assert report.verdict == GROWTH
    out = run_chase(sp_kb, R, Scripted(["su", "pl.p1", "su", "pl.p2", "pl.p1", "su"]), 100)
    deltas = [d[0] for d in deltas_of(out)]
    c = Const("c")
    z1, z2 = deltas[0].args[1], deltas[2].args[1]
    z3 = deltas[5].args[1]
    assert deltas == [
        Atom("p", (c, z1)), Atom("a", (z1,)), Atom("p", (z1, z2)),
        Atom("p", (z1, z1)), Atom("a", (z2,)), Atom("p", (z2, z3)),
    ]

    # sp(T6) loses Datalog-first sometimes-termination
    t6 = load_doc("t6.erl")
    phased = Phased([(("s_loop", "a_prop", "r_succ", "s_succ"), "exhaust"), (("guard",), "exhaust")])
    assert find_terminating(t6.knowledge_base(), DFR, 10, pool=[phased], deepening=False) is not None
    sp6 = KnowledgeBase(single_piece(tuple(t6.rules)).output_rules, t6.factbase())
    assert find_terminating(sp6, DFR, 5) is None

    # 1ad(EX1): the equivalent chase grows by three atoms per round
    ex1 = load_doc("ex1.erl")
    ad1 = KnowledgeBase(one_way(tuple(ex1.rules)).output_rules, ex1.factbase())
    out = run_chase(ad1, E, DatalogFirst(), 15)
    assert out.verdict == BUDGET_EXHAUSTED
    deltas = deltas_of(out)
    for k in range(4):  # at least four full rounds
        assert [d[0].pred for d in deltas[3 * k : 3 * k + 3]] == ["X__ex1", "p", "p"]

    # 2ad gains restricted sometimes-termination on T13
    t13 = load_doc("t13.erl")
    assert find_terminating(t13.knowledge_base(), R, 5) is None
    ad2 = KnowledgeBase(two_way(tuple(t13.rules)).output_rules, t13.factbase())
    datalog_ids = tuple(r.id for r in ad2.rules if r.is_datalog)
    seq = Phased(
        [(("n1.x",), "once"), (("n1.h2",), "once"), (("n2.x",), "once"), (("n2.h1",), "once"),
         (("n3.x",), "once"), (("n3.h1",), "once"), (("n4.x",), "once"), (("n4.h1",), "once"),
         (("n1.h1",), "once"), (("n3.b",), "once"), (datalog_ids, "exhaust")]
    )
    assert run_chase(ad2, R, seq, 50).verdict == TERMINATED_FAIR

    # 2ad(EX1) admits the infinite restricted loop, three iterations scripted
    kb2 = KnowledgeBase(two_way(tuple(ex1.rules)).output_rules, ex1.factbase())
    script = ["ex1.x", "ex1.h1"] + ["ex1.x", "ex1.h1", "ex1.h2", "ex1.b"] * 3
    out = run_chase(kb2, R, Scripted(script), 100)
    assert out.verdict == TERMINATED_UNFAIR
    assert len(out) == 14
    for k in range(3):
        chunk = [d[0].pred for d in deltas_of(out)[2 + 4 * k : 6 + 4 * k]]
        assert chunk == ["X__ex1", "p", "p", "X__ex1"]
    _report("4 (decomposition behaviors)")


def test_criterion_5_restricted_equals_semioblivious_after_one_way():
    rng = random.Random(20240501)
    counterexamples = 0
    checked = 0
    for _ in range(200):
        rules = random_rules(rng, max_rules=3)
        fb = random_factbase(rng, max_atoms=3)
        decomposed = one_way(rules).output_rules
        current = fb
        for _ in range(15):
            candidates = list(enumerate_triggers(decomposed, Store(current)))
            for t in candidates:
                if is_applicable(R, t, current, None) != is_applicable(SO, t, current, None):
                    counterexamples += 1
                checked += 1
            fresh = [t for t in candidates if not set(t.output) <= current.atoms]
            if not fresh:
                break
            current = current.union(rng.choice(fresh).output)
    assert checked > 3000
    assert counterexamples == 0
    _report("5 (restricted = semi-oblivious after one-way; %d checks)" % checked)


def test_criterion_6_breadth_first_correspondences():
    rng = random.Random(424242)
    failures = 0
    done = 0
    while done < 100:
        rules = random_rules(rng, max_rules=2, preds=[("p", 2), ("q", 1)])
        fb = random_factbase(rng, preds=[("p", 2), ("q", 1)], max_atoms=2)
        kb = KnowledgeBase(rules, fb)
        if len(ch_k(kb, 3)) > 60:
            continue
        sigma = {"p", "q"}
        kb1 = KnowledgeBase(one_way(rules).output_rules, fb)
        kb2 = KnowledgeBase(two_way(rules).output_rules, fb)
        for i in (1, 2, 3):
            left = ch_k(kb, i)
            if not are_isomorphic(left, restrict(ch_k(kb1, 2 * i), sigma)):
                failures += 1
            if hom.find_homomorphism(left.atoms, ch_k(kb2, 2 * i), injective=True) is None:
                failures += 1
        done += 1
    assert failures == 0
    _report("6 (breadth-first correspondences on %d KBs)" % done)


def test_criterion_7_chase_metatheory():
    rng = random.Random(888)
    # applicability chain on 1000 random triggers
    checked = 0
    while checked < 1000:
        kb = random_kb(rng)
        out = run_chase(kb, O, RandomChoice(rng.randint(0, 10**6)), rng.randint(0, 4))
        history = set()
        for t, _ in steps_of(out):
            history.add(t.frontier_key)
        for t in enumerate_triggers(kb.rules, Store(out.result)):
            e, r, so, o = (
                is_applicable(v, t, out.result, history) for v in (E, R, SO, O)
            )
            assert (not e or r) and (not r or so) and (not so or o)
            checked += 1

    # oblivious result equality / semi-oblivious isomorphism across strategies
    oterm = load_kb("oterm.erl")
    o_results = [
        run_chase(oterm, O, strat, 500)
        for strat in (FIFO(), DatalogFirst(), RandomChoice(5), RandomChoice(6))
    ]
    assert all(o.verdict == TERMINATED_FAIR for o in o_results)
    assert all(o.result.atoms == o_results[0].result.atoms for o in o_results)

    so_cases = [oterm, load_kb("t2a.erl")]
    t8 = load_doc("t8.erl")
    so_cases.append(KnowledgeBase(single_piece(tuple(t8.rules)).output_rules, t8.factbase()))
    for kb in so_cases:
        results = [
            run_chase(kb, SO, strat, 500)
            for strat in (FIFO(), DatalogFirst(), RandomChoice(7))
        ]
        assert all(r.verdict == TERMINATED_FAIR for r in results)
        assert all(are_isomorphic(results[0].result, r.result) for r in results)

    # restricted fair terminals satisfy every rule
    for name, strat in (("ex1.erl", FIFO()), ("t2c.erl", DatalogFirst()), ("t4a.erl", FIFO())):
        kb = load_kb(name)
        out = run_chase(kb, R, strat, 200)
        assert out.verdict == TERMINATED_FAIR
        for rule in kb.rules:
            for h in hom.iter_homomorphisms(rule.body, out.result):
                fixed = {Var(n): h[Var(n)] for n in rule.frontier}
                assert hom.find_homomorphism(rule.head, out.result, fixed=fixed) is not None

    # monotonicity at every step, every variant
    for variant in (O, SO, R, E, DFR):
        kb = random_kb(rng)
        out = run_chase(kb, variant, RandomChoice(9), 5)
        prev = kb.facts
        for _, fb in steps_of(out):
            assert prev.atoms <= fb.atoms
            prev = fb
    _report("7 (chase metatheory; %d chain checks)" % checked)


def test_criterion_8_bcq_conservativity():
    rng = random.Random(4040)
    disagreements = 0
    pairs = 0
    sources = [("ex1.erl", 2), ("t2a.erl", 2), ("t4a.erl", 2), ("oterm.erl", 2)]
    while pairs < 100:
        name, max_atoms = sources[pairs % len(sources)]
        doc = load_doc(name)
        rules = tuple(doc.rules)
        sigma = sorted({a.pred for r in rules for a in r.body + r.head})
        preds = []
        arity = {}
        for r in rules:
            for a in r.body + r.head:
                arity[a.pred] = a.arity
        preds = [(p, arity[p]) for p in sigma]
        fb = random_factbase(rng, preds=preds, max_atoms=max_atoms)
        base = KnowledgeBase(rules, fb)
        out = run_chase(base, R, FIFO(), 150)
        assert out.verdict == TERMINATED_FAIR
        result = out.result
        if rng.random() < 0.5:
            # guaranteed-entailed query sampled from the chase result
            atoms = [rng.choice(result.sorted_atoms) for _ in range(rng.randint(1, 2))]
            query = tuple(
                Atom(
                    a.pred,
                    tuple(
                        Var("Q%d_%d" % (i, j)) if rng.random() < 0.5 else arg
                        for j, arg in enumerate(a.args)
                    ),
                )
                for i, a in enumerate(atoms)
            )
        else:
            pred, k = rng.choice(preds)
            query = (Atom(pred, tuple(Var("Q%d" % j) for j in range(k))),)
        expected = hom.find_homomorphism(query, result) is not None
        for proc in (single_piece, one_way, two_way):
            kb2 = KnowledgeBase(proc(rules).output_rules, fb)
            verdict = entails(kb2, query, R, 120)
            if expected and verdict.kind != "yes":
                disagreements += 1
            if not expected and verdict.kind == "yes":
                disagreements += 1
        pairs += 1
    assert disagreements == 0
    _report("8 (BCQ conservativity on %d query pairs)" % pairs)


def _tape_component_sizes(fb) -> list[int]:
    nxt_edges = [(a.args[0], a.args[1]) for a in fb.atoms if a.pred == "nxt"]
    cells = {t for e in nxt_edges for t in e} | {
        a.args[0]
        for a in fb.atoms
        if a.pred in ("frst", "end") or a.pred.startswith("content_")
    }
    parent = {c: c for c in cells}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in nxt_edges:
        parent[find(u)] = find(v)
    brake = find(Const("b"))
    groups = Counter(find(c) for c in cells)
    return sorted(size for root, size in groups.items() if root != brake)


def test_criterion_9_tm_construction():
    machine = tmgen.halt1()
    encoding = tmgen.encode(machine)
    assert len(encoding.rules_w) == 8
    assert {"int", "brk", "real", "nf"} <= encoding.seed.signature

    # the generation strategy for n=2 reproduces the depicted structure:
    # tapes of lengths 0..3 as disjoint components next to the brake point
    kb = KnowledgeBase(encoding.rules_w, encoding.seed)
    out = run_chase(kb, R, tmgen.tape_generation_strategy(2), 300)
    assert out.verdict == TERMINATED_FAIR
    assert _tape_component_sizes(out.result) == [1, 2, 3, 4]
    counts = Counter(a.pred for a in out.result.atoms)
    assert counts["nf"] == 5 and counts["fin"] == 3 and counts["real"] == 3
    assert counts["done"] == 11 and counts["nxt"] == 7
    assert counts["content_1"] == 7 and counts["content_blank"] == 5

    # simulation fidelity and divergence fidelity
    for n in (1, 2, 3):
        sim = run_chase(tmgen.simulation_kb(machine, n), DFR, DatalogFirst(), 500)
        assert sim.verdict == TERMINATED_FAIR, n
    looping = run_chase(tmgen.simulation_kb(tmgen.loop(), 1), DFR, DatalogFirst(), 500)
    assert looping.verdict == BUDGET_EXHAUSTED
    assert any(t.rule.id == "m_extend" for t, _ in steps_of(looping))
    _report("9 (TM construction behavior)")


def test_criterion_9_seed_size_as_stated():
    # The stated size of the seed fact base. The shipped construction keeps
    # one head-state atom per machine state and one content atom per tape
    # symbol on the brake (plus the done(a,b) guard), which the tape-creation
    # rules need in order to stay finite, so the actual count is larger.
    assert len(tmgen.encode(tmgen.halt1()).seed) == 25
    _report("9b (literal seed size)")


def test_criterion_10_roundtrip_and_determinism():
    for path in sorted(CORPUS.glob("*.erl")):
        doc = textio.parse_document(path.read_text())
        text = serialize_document(doc)
        again = textio.parse_document(text)
        assert serialize_document(again) == text, path.name

    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    commands = [
        ["run", str(CORPUS / "ex1.erl"), "--variant", "r", "--derivation", "--json"],
        ["run", str(CORPUS / "t2f.erl"), "--variant", "dfr", "--strategy", "datalog-first",
         "--max-steps", "15", "--derivation", "--json"],
        ["explore", str(CORPUS / "t2a.erl"), "--variant", "so", "--json"],
        ["normalize", str(CORPUS / "rule12.erl"), "--proc", "2ad", "--json"],
        ["entails", str(CORPUS / "ex1.erl"), "--json"],
        ["tm", "encode", "--machine", str(CORPUS / "machines" / "halt1.tm"), "--json"],
    ]
    for argv in commands:
        first = capture(argv)
        second = capture(argv)
        assert first == second, argv
        json.loads(first[1])  # machine-readable
    _report("10 (round-trip and determinism)")
