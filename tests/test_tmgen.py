from collections import Counter

import pytest

from exchase import tmgen
from exchase.chase import ChaseVariant, DatalogFirst, FIFO, run_chase
from exchase.core import (
    Atom,
    BUDGET_EXHAUSTED,
    Const,
    FactBase,
    KnowledgeBase,
    Store,
    TERMINATED_FAIR,
)
from exchase.tmgen import (
    InvalidMachine,
    TuringMachine,
    encode,
    halt1,
    loop,
    parse_machine,
    simulation_kb,
    tape_factbase,
    tape_generation_strategy,
)

from conftest import CORPUS
from oracles import applicable_edges, rule_by_id, steps_of

R = ChaseVariant.parse("r")
DFR = ChaseVariant.parse("dfr")


# --- machines ------------------------------------------------------------------


def test_parse_machine_roundtrip_headers_and_blank():
    m = parse_machine((CORPUS / "machines" / "halt1.tm").read_text())
    assert m.initial == "qi"
    assert m.accept == "qa"
    assert m.delta[("qi", tmgen.BLANK)] == ("qa", tmgen.BLANK, "R")
    assert set(m.alphabet) == {"1", "blank"}


def test_invalid_machines():
    with pytest.raises(InvalidMachine):
        TuringMachine(("qi", "qa", "qr"), "qi", "qa", "qr", {})  # delta not total
    with pytest.raises(InvalidMachine):
        TuringMachine(
            ("qi", "qa", "qr"),
            "qi",
            "qa",
            "qr",
            {("qi", "1"): ("qa", "1", "X"), ("qi", tmgen.BLANK): ("qa", tmgen.BLANK, "R")},
        )
    with pytest.raises(InvalidMachine):
        parse_machine("initial: qi\naccept: qa\nqi 1 -> qa 1 R\n")  # missing reject


# --- encoding ------------------------------------------------------------------


def test_encode_rule_counts():
    enc = encode(halt1())
    assert len(enc.rules_w) == 8
    # 4 schema rules + one L/R inertia pair per (non-halting state, symbol)
    # + rewrite and move rules per transition
    assert len(enc.rules_m) == 4 + 1 * 2 * 2 + 2 * 2 == 12


def test_encode_seed_structure():
    enc = encode(halt1())
    seed = enc.seed
    a, b, nf1 = Const("a"), Const("b"), Const("nf1")
    assert Atom("int", (a,)) in seed
    assert Atom("brk", (b,)) in seed
    assert Atom("real", (nf1,)) in seed
    assert Atom("nf", (a, nf1)) in seed and Atom("nf", (nf1, b)) in seed
    # the brake absorbs every head-state and every content predicate
    for q in halt1().states:
        assert Atom(tmgen.head_pred(q), (b,)) in seed
    for c in halt1().alphabet:
        assert Atom(tmgen.content_pred(c), (b,)) in seed
    # length-0 and length-1 tapes
    assert Atom("frst", (Const("c0_0"),)) in seed
    assert Atom("nxt", (Const("c0_1"), Const("c1_1"))) in seed
    # seed size: 21 chain/tape/brake atoms + |Q| head atoms + |alphabet|
    # content atoms + end/stp/nxtp at the brake
    m = halt1()
    assert len(seed) == 21 + len(m.states) + len(m.alphabet) + 3 == 29


def test_encoded_rules_serialize_and_reparse():
    from exchase import textio

    enc = encode(halt1())
    text = textio.serialize_rules(enc.rules) + textio.serialize_factbase(enc.seed)
    doc = textio.parse_document(text)
    assert len(doc.rules) == len(enc.rules)
    assert FactBase(doc.facts).atoms == enc.seed.atoms


def test_arities_match_contract():
    enc = encode(halt1())
    unary = {"brk", "real", "int", "frst", "end", "lst"}
    binary = {"nxt", "nxtp", "stp", "nf", "fin", "done"}
    for rule in enc.rules:
        for atom in rule.body + rule.head:
            if atom.pred in unary or atom.pred.startswith(("content_", "head_")):
                assert atom.arity == 1, atom
            elif atom.pred in binary:
                assert atom.arity == 2, atom


# --- tapes ---------------------------------------------------------------------


def test_tape_factbase_goldens():
    t1 = tape_factbase(1)
    c0, c1 = Const("c0"), Const("c1")
    assert t1.atoms == {
        Atom("frst", (c0,)),
        Atom("content_1", (c0,)),
        Atom("nxt", (c0, c1)),
        Atom("end", (c1,)),
        Atom("content_blank", (c1,)),
    }
    assert len(tape_factbase(2)) == 7
    with pytest.raises(ValueError):
        tape_factbase(0)


def test_tape_generation_reproduces_expected_structure():
    enc = encode(halt1())
    kb = KnowledgeBase(enc.rules_w, enc.seed)
    out = run_chase(kb, R, tape_generation_strategy(2), 200)
    assert out.verdict == TERMINATED_FAIR
    counts = Counter(a.pred for a in out.result.atoms)
    # one chain application: links a -> nf1 -> nf2 guarded by the brake; the
    # finals hang off nf1/nf2 and unfold tapes of lengths 2 and 3, next to
    # the seeded tapes of lengths 0 and 1
    assert counts["nf"] == 5
    assert counts["real"] == 3
    assert counts["fin"] == 3
    assert counts["done"] == 11
    assert counts["nxt"] == 7
    assert counts["frst"] == 5
    assert counts["end"] == 5
    assert counts["content_1"] == 7
    assert counts["content_blank"] == 5
    assert counts["head_qi"] == 5
    assert len(out.result) == 63

    # tape components (w.r.t. the simulation-facing predicates) are disjoint:
    # lengths 0, 1, 2, 3 and the brake's self-loop
    assert _tape_components(out.result) == [1, 2, 3, 4]


def _tape_components(fb) -> list[int]:
    nxt_edges = [(a.args[0], a.args[1]) for a in fb.atoms if a.pred == "nxt"]
    cells = {t for e in nxt_edges for t in e} | {
        a.args[0] for a in fb.atoms if a.pred in ("frst", "end") or a.pred.startswith("content_")
    }
    parent = {c: c for c in cells}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in nxt_edges:
        parent[find(u)] = find(v)
    groups = Counter(find(c) for c in cells)
    sizes = sorted(
        size for root, size in groups.items() if find(Const("b")) != root
    )
    return sizes


def test_chain_rule_blocked_after_brake():
    enc = encode(halt1())
    kb = KnowledgeBase(enc.rules_w, enc.seed)
    out = run_chase(kb, R, tape_generation_strategy(3), 300)
    assert out.verdict == TERMINATED_FAIR
    chain = rule_by_id(kb, "w_chain")
    for t in applicable_edges(KnowledgeBase((chain,), out.result), out.result, R):
        raise AssertionError("chain trigger still applicable: %s" % t)


def test_brake_semantics_on_explored_states():
    """Once real(b) is derived, no chain trigger is applicable in any state."""
    from exchase.chase import enumerate_triggers
    from oracles import is_applicable

    enc = encode(halt1())
    kb = KnowledgeBase(enc.rules_w, enc.seed)
    out = run_chase(kb, R, tape_generation_strategy(2), 200)
    fb = kb.facts
    braked = False
    chain = rule_by_id(kb, "w_chain")
    for t, after in steps_of(out):
        if t.rule.id == "w_brake":
            braked = True
        fb = after
        if braked:
            for cand in enumerate_triggers((chain,), Store(fb)):
                assert not is_applicable(R, cand, fb, None), str(cand)


def test_tape_generation_rejects_small_n():
    with pytest.raises(ValueError):
        tape_generation_strategy(1)


# --- simulation -----------------------------------------------------------------


def test_simulation_halt1_terminates_on_small_tapes():
    for n in (1, 2, 3):
        out = run_chase(simulation_kb(halt1(), n), DFR, DatalogFirst(), 500)
        assert out.verdict == TERMINATED_FAIR, n
        accept = tmgen.head_pred(halt1().accept)
        assert any(a.pred == accept for a in out.result.atoms), n


def test_simulation_loop_exhausts_budget_and_keeps_extending():
    out = run_chase(simulation_kb(loop(), 1), DFR, DatalogFirst(), 500)
    assert out.verdict == BUDGET_EXHAUSTED
    extensions = [t for t, _ in steps_of(out) if t.rule.id == "m_extend"]
    assert len(extensions) >= 5  # the tape keeps growing round after round


def test_full_encoding_runs_whole_pipeline():
    """Tape creation then simulation from the seed fact base, one KB."""
    enc = encode(halt1())
    kb = enc.knowledge_base()
    out = run_chase(kb, DFR, DatalogFirst(), 2000)
    assert out.verdict == TERMINATED_FAIR
    accept = tmgen.head_pred(halt1().accept)
    accepted_at = {a.args[0] for a in out.result.atoms if a.pred == accept}
    assert len(accepted_at) > 1  # every generated tape was simulated
