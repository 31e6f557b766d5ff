import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from exchase import textio
from exchase.core import Atom, Const, FactBase, KnowledgeBase, Null, Rule, Var
from oracles import are_isomorphic

CORPUS = Path(__file__).resolve().parent.parent / "src" / "exchase" / "corpus"


def load_doc(name: str) -> textio.SourceDocument:
    return textio.parse_document((CORPUS / name).read_text())


def load_kb(name: str) -> KnowledgeBase:
    return load_doc(name).knowledge_base()


@pytest.fixture
def corpus_dir() -> Path:
    return CORPUS


def rules_isomorphic(left: Rule, right: Rule) -> bool:
    """Structural equality up to variable renaming.

    Encoded as atom-set isomorphism with body/head atoms tagged apart; the
    frontier/existential split follows from the variable occurrences, so no
    extra markers are needed."""

    def tagged(rule: Rule) -> list[Atom]:
        atoms = [Atom("B:" + a.pred, a.args) for a in rule.body]
        atoms += [Atom("H:" + a.pred, a.args) for a in rule.head]
        return atoms

    return are_isomorphic(tagged(left), tagged(right))


def find_rule_like(rules, model: Rule) -> bool:
    return any(rules_isomorphic(r, model) for r in rules)


# --- random generators for the property suites ------------------------------

PREDS = [("p", 2), ("q", 1), ("r", 2), ("s", 3)]
CONSTS = [Const(c) for c in "abcd"]
VARS = ["X", "Y", "Z", "W"]


def random_atom(rng: random.Random, preds, vars_pool) -> Atom:
    pred, arity = rng.choice(preds)
    return Atom(pred, tuple(Var(rng.choice(vars_pool)) for _ in range(arity)))


def random_rule(rng: random.Random, rule_id: str, preds=None, max_body=2, max_head=2) -> Rule:
    preds = preds or PREDS
    body = [random_atom(rng, preds, VARS) for _ in range(rng.randint(1, max_body))]
    body_vars = sorted(set().union(*(a.variables() for a in body)))
    head_pool = body_vars + ["V1", "V2"]  # V* never occur in bodies: existentials
    head = []
    for _ in range(rng.randint(1, max_head)):
        pred, arity = rng.choice(preds)
        head.append(Atom(pred, tuple(Var(rng.choice(head_pool)) for _ in range(arity))))
    return Rule(rule_id, tuple(body), tuple(head))


def random_rules(rng: random.Random, max_rules=3, preds=None) -> tuple[Rule, ...]:
    return tuple(
        random_rule(rng, "g%d" % i, preds) for i in range(1, rng.randint(1, max_rules) + 1)
    )


def random_factbase(rng: random.Random, preds=None, max_atoms=3, consts=None) -> FactBase:
    preds = preds or PREDS
    consts = consts or CONSTS
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        pred, arity = rng.choice(preds)
        atoms.append(Atom(pred, tuple(rng.choice(consts) for _ in range(arity))))
    return FactBase(atoms)


def random_kb(rng: random.Random, max_rules=3, preds=None, max_atoms=3) -> KnowledgeBase:
    return KnowledgeBase(random_rules(rng, max_rules, preds), random_factbase(rng, preds, max_atoms))


# Chase variants with and without the Datalog-first modifier.
ALL_VARIANTS = ("o", "so", "r", "e", "dfo", "dfso", "dfr", "dfe")
_SMALL_PREDS = (("p", 2), ("q", 1), ("r", 2))
_BODY_VARS = tuple(Var(n) for n in ("X", "Y", "Z"))
_FRESH_VARS = (Var("V1"), Var("V2"))


@st.composite
def small_kbs(draw):
    """Hypothesis strategy: one to three rules over p/2, q/1, r/2 with one
    or two body and head atoms, and one to four facts over a, b, c."""

    def atom(terms):
        pred, arity = draw(st.sampled_from(_SMALL_PREDS))
        return Atom(pred, tuple(draw(st.sampled_from(terms)) for _ in range(arity)))

    rules = []
    for i in range(draw(st.integers(1, 3))):
        body = [atom(_BODY_VARS) for _ in range(draw(st.integers(1, 2)))]
        body_vars = sorted({t for a in body for t in a.args}, key=str)
        head = [atom(body_vars + list(_FRESH_VARS)) for _ in range(draw(st.integers(1, 2)))]
        rules.append(Rule("g%d" % i, tuple(body), tuple(head)))
    consts = [Const(c) for c in "abc"]
    facts = [atom(consts) for _ in range(draw(st.integers(1, 4)))]
    return KnowledgeBase(tuple(rules), FactBase(facts))
