import re

import pytest
from hypothesis import given, settings, strategies as st

from exchase import textio
from exchase.chase import FIFO, ChaseVariant, run_chase
from exchase.core import Atom, Const, FactBase, KnowledgeBase, Null, Rule, Var, sort_atoms

from conftest import CORPUS, load_doc, small_kbs
from oracles import RandomChoice, are_isomorphic, reference_tokenize, serialize_document


def test_parse_example1_rule():
    doc = textio.parse_document("p(X,Y) -> exists Z. p(Y,Z), p(Z,Y).")
    (rule,) = doc.rules
    assert rule.id == "r1"  # auto-generated
    assert set(rule.body) == {Atom("p", (Var("X"), Var("Y")))}
    assert set(rule.head) == {
        Atom("p", (Var("Y"), Var("Z"))),
        Atom("p", (Var("Z"), Var("Y"))),
    }
    assert rule.frontier == {"Y"}
    assert rule.existentials == {"Z"}


def test_parse_fact_and_query():
    doc = textio.parse_document("p(a,b).\n? p(X,X).\n")
    assert doc.facts == [Atom("p", (Const("a"), Const("b")))]
    assert doc.queries == [(Atom("p", (Var("X"), Var("X"))),)]


def test_parse_labels_comments_arity0():
    doc = textio.parse_document(
        """
        % a comment
        [lab] halt -> go.   % trailing comment
        halt.
        """
    )
    assert doc.rules[0].id == "lab"
    assert doc.rules[0].body == (Atom("halt", ()),)
    assert doc.facts == [Atom("halt", ())]


def test_parse_null_tokens_with_label_punctuation():
    doc = textio.parse_document("p(a,_ex1#4926c314e9.Z).\np(_m1,b).\n")
    assert Atom("p", (Const("a"), Null("ex1#4926c314e9.Z"))) in doc.facts
    assert Atom("p", (Null("m1"), Const("b"))) in doc.facts


def test_syntax_error_reports_position():
    with pytest.raises(textio.ParseError) as err:
        textio.parse_document("p(a,,b).")
    assert err.value.line == 1
    assert err.value.col >= 4


def test_arity_error():
    with pytest.raises(textio.ArityError) as err:
        textio.parse_document("p(a,b).\np(a).")
    assert err.value.predicate == "p"
    assert {err.value.seen, err.value.expected} == {1, 2}
    assert "(line 2)" in str(err.value)


def test_variable_scope_errors():
    with pytest.raises(textio.VariableScopeError):
        textio.parse_document("p(X) -> exists X. q(X).")  # existential also in body
    with pytest.raises(textio.VariableScopeError):
        textio.parse_document("p(X) -> q(X,Y).")  # undeclared head variable
    with pytest.raises(textio.VariableScopeError):
        textio.parse_document("p(X) -> exists Z. q(X).")  # declared but unused


def test_facts_must_be_ground():
    with pytest.raises(textio.ParseError):
        textio.parse_document("p(X).")


def test_serialize_factbase_golden():
    fb = FactBase([Atom("p", (Const("a"), Const("b")))])
    assert textio.serialize_factbase(fb) == "p(a,b).\n"
    assert textio.serialize_factbase(FactBase()) == ""


def test_serialize_one_step_chase_result_reparses_isomorphic():
    from exchase.chase import ChaseVariant, FIFO, run_chase

    kb = load_doc("ex1.erl").knowledge_base()
    result = run_chase(kb, ChaseVariant.parse("r"), FIFO(), 10).result
    text = textio.serialize_factbase(result)
    lines = text.splitlines()
    assert lines[0] == "p(a,b)."  # constants sort before nulls
    assert len(lines) == 3
    reparsed = textio.parse_document(text).factbase()
    assert reparsed.atoms == result.atoms  # labels round-trip exactly
    assert are_isomorphic(reparsed, result)


def test_roundtrip_whole_corpus():
    for path in sorted(CORPUS.glob("*.erl")):
        doc = textio.parse_document(path.read_text())
        text = serialize_document(doc)
        again = textio.parse_document(text)
        assert [str(r) for r in again.rules] == [str(r) for r in doc.rules], path.name
        assert again.facts == doc.facts, path.name
        assert again.queries == doc.queries, path.name
        # parse . serialize . parse is a fixpoint
        assert serialize_document(again) == text, path.name


def test_case_discipline_total():
    # every term token classifies as exactly one of variable/constant/null
    doc = textio.parse_document("? p(aA, Bb).\np(a,_x1).")
    (query,) = doc.queries
    assert isinstance(query[0].args[0], Const)
    assert isinstance(query[0].args[1], Var)
    (fact,) = doc.facts
    assert isinstance(fact.args[1], Null)


def test_rule_id_with_dots_roundtrips():
    doc = textio.parse_document("[r1.p2] p(X) -> q(X).")
    assert doc.rules[0].id == "r1.p2"
    again = textio.parse_document(serialize_document(doc))
    assert again.rules[0].id == "r1.p2"


@pytest.mark.parametrize(
    "label, line, col",
    [("[x y]", 1, 4), ("[a..b]", 1, 4), ("[a . b]", 1, 4), ("[a\n.b]", 2, 1), ("[a.]", 1, 4), ("[.a]", 1, 2)],
)
def test_malformed_rule_id_rejected_at_the_offending_token(label, line, col):
    with pytest.raises(textio.ParseError) as err:
        textio.parse_document(label + " p(X) -> q(X).")
    assert (err.value.line, err.value.col) == (line, col)


def test_generated_rule_ids_parse():
    for rule_id in ("r.p1", "r.x", "r.h1", "r.b", "n1.h2.b"):
        assert textio.parse_document("[%s] p(X) -> q(X)." % rule_id).rules[0].id == rule_id


def test_duplicate_rule_id_rejected():
    with pytest.raises(textio.ParseError):
        textio.parse_document("[r] p(X) -> q(X).\n[r] q(X) -> p(X).")


@pytest.mark.parametrize(
    "text, ids",
    [
        ("p(X) -> q(X).\n[r1] q(X) -> s(X).\np(a).", ["r2", "r1"]),
        ("[r1] q(X) -> s(X).\np(X) -> q(X).\np(a).", ["r1", "r2"]),
        ("p(X) -> q(X).\n[r2] q(X) -> s(X).\ns(X) -> t(X).\n[ r1 ] t(X) -> u(X).", ["r3", "r2", "r4", "r1"]),
    ],
)
def test_unnamed_rules_skip_the_ids_the_document_names(text, ids):
    """An unnamed rule gets the next `r<k>` that no rule of the document
    names, before or after it."""
    assert [r.id for r in textio.parse_document(text).rules] == ids


def test_full_width_null_label_roundtrips():
    kb = textio.parse_document("[r] p(X) -> exists Z. q(X,Z).\np(a).\n").knowledge_base()
    out = run_chase(kb, ChaseVariant.parse("o"), FIFO(), 5)
    (null,) = out.result.nulls
    assert re.fullmatch(r"r#[0-9a-f]{40}\.Z", null.label)
    text = textio.serialize_factbase(out.result)
    assert textio.parse_document(text).factbase().atoms == out.result.atoms



def test_exists_can_head_a_rule():
    (rule,) = textio.parse_document("p(X) -> exists(X).").rules
    assert rule.head == (Atom("exists", (Var("X"),)),)
    (rule,) = textio.parse_document("p -> exists.").rules
    assert rule.head == (Atom("exists", ()),)


def test_a_null_labelled_exists_is_not_the_keyword():
    with pytest.raises(textio.ParseError, match="expected a predicate, found 'exists'"):
        textio.parse_document("p -> _exists X. q(X).")


def test_rules_with_an_exists_head_roundtrip():
    X, Z = Var("X"), Var("Z")
    rules = [
        Rule("a", (Atom("p", (X,)),), (Atom("exists", (X,)),)),
        Rule("b", (Atom("p", (X,)),), (Atom("exists", (X, Z)),)),
        Rule("c", (Atom("p", ()),), (Atom("exists", ()),)),
        Rule("d", (Atom("p", (X,)),), (Atom("exists", ()), Atom("q", (X, Z)))),
    ]
    for rule in rules:
        (again,) = textio.parse_document(str(rule)).rules
        assert again == rule, str(rule)


def _scan(tokenize, text):
    """The tokens as (kind, text, line, col), or the error as (message,
    line, col, expected)."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except textio.ParseError as e:
        return (str(e), e.line, e.col, e.expected)


_TEXT_PIECES = st.one_of(
    st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True),
    st.from_regex(r"_[A-Za-z0-9_#.]{0,4}", fullmatch=True),
    st.sampled_from(["-", "->", "(", ")", ".", ",", "?", "[", "]", "#", "%"]),
    st.from_regex(r"%[^\n]{0,5}", fullmatch=True),
    st.sampled_from([" ", "\n", "\r", "\t", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]),
    st.characters(),
)


@settings(max_examples=500, deadline=None, database=None)
@given(st.lists(_TEXT_PIECES, max_size=12).map("".join))
def test_tokenizer_matches_the_reference(text):
    """The compiled scanner gives the character-at-a-time tokenizer's tokens,
    or the same error at the same place."""
    assert _scan(textio._tokenize, text) == _scan(reference_tokenize, text)

# Rule ids are identifiers joined by dots; minted null labels embed them.
_RULE_IDS = st.from_regex(r"[a-zA-Z][a-zA-Z0-9_]{0,3}(\.[a-zA-Z][a-zA-Z0-9_]{0,3}){0,2}", fullmatch=True)
_QUERY_TERMS = (Var("X"), Var("Y"), Const("a"), Const("b"))
_QUERY_ATOMS = st.one_of(
    st.tuples(st.sampled_from(_QUERY_TERMS)).map(lambda args: Atom("q", args)),
    st.tuples(st.sampled_from(("p", "r")), st.sampled_from(_QUERY_TERMS), st.sampled_from(_QUERY_TERMS)).map(
        lambda x: Atom(x[0], x[1:])
    ),
)


@settings(max_examples=150, deadline=None, database=None)
@given(small_kbs(), st.sampled_from(("o", "so", "r", "e")), st.integers(0, 4), st.integers(0, 999), st.data())
def test_generated_documents_roundtrip(kb, name, steps, seed, data):
    """Rules under generated ids, the facts of a chase result with minted
    nulls in any order, and queries come back from their text unchanged."""
    ids = data.draw(st.lists(_RULE_IDS, min_size=len(kb.rules), max_size=len(kb.rules), unique=True))
    rules = [Rule(i, r.body, r.head) for i, r in zip(ids, kb.rules)]
    kb = KnowledgeBase(tuple(rules), kb.facts)
    result = run_chase(kb, ChaseVariant.parse(name), RandomChoice(seed), steps).result
    facts = data.draw(st.permutations(result.sorted_atoms))
    queries = data.draw(st.lists(st.lists(_QUERY_ATOMS, min_size=1, max_size=3).map(sort_atoms), max_size=2))
    doc = textio.SourceDocument(rules=rules, facts=list(facts), queries=queries)
    again = textio.parse_document(serialize_document(doc))
    assert again.rules == doc.rules
    assert again.facts == doc.facts
    assert again.queries == doc.queries
