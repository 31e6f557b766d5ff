"""Parser and serializer for the `.erl` rule/fact/query format.

Grammar (UTF-8, `%` comments to end of line):

    document  := statement*
    statement := rule | fact | query
    rule      := ('[' ruleid ']')? atomlist '->' ('exists' varlist '.')? atomlist '.'
    ruleid    := IDENT ('.' IDENT)*    (no space or line break inside)
    fact      := atom '.'
    query     := '?' atomlist '.'
    atomlist  := atom (',' atom)*
    varlist   := UPPER_IDENT (',' UPPER_IDENT)*
    atom      := IDENT '(' term (',' term)* ')' | IDENT
    term      := UPPER_IDENT (variable) | LOWER_IDENT (constant) | '_' label (null)

After '->', `exists` is the keyword only when a variable follows it;
otherwise it is a predicate like any other, so a rule may have an
`exists(...)` head. Null labels may contain '#' and '.' (a dot is part of the
label only when followed by another label character), so chase-minted labels
round-trip.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, TypeVar

from .core import Atom, Const, FactBase, KnowledgeBase, Null, Rule, Term, Var

_T = TypeVar("_T")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected: Optional[str] = None):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__("%d:%d: %s" % (line, col, message))


class ArityError(ValueError):
    def __init__(self, predicate: str, seen: int, expected: int, line: int):
        self.predicate = predicate
        self.seen = seen
        self.expected = expected
        super().__init__(
            "predicate %r used with arity %d but previously %d (line %d)"
            % (predicate, seen, expected, line)
        )


class VariableScopeError(ValueError):
    pass


# One alternative per token kind; the unnamed first one skips a blank run or
# a comment. A dot belongs to a null label only when a label character
# follows it. `bad` catches every other character, so the matches cover the
# text with no gaps.
_SCANNER = re.compile(
    r"\s+|%[^\n]*"
    r"|(?P<punct>->|[().,?\[\]])"
    r"|_(?P<null>[A-Za-z0-9_](?:[A-Za-z0-9_#]|\.(?=[A-Za-z0-9_#]))*)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


class _Token(NamedTuple):
    kind: str  # 'ident' 'null' 'punct', or 'end' after the last token
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _SCANNER.finditer(text):
        kind = m.lastgroup
        if kind is None:
            start, end = m.span()
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, end) + 1
            continue
        col = m.start() - line_start + 1
        if kind == "bad":
            if m.group() == "_":
                raise ParseError("null label expected after '_'", line, col, "label")
            raise ParseError("unexpected character %r" % m.group(), line, col)
        tokens.append(_Token(kind, m.group(kind), line, col))
    return tokens


@dataclass
class SourceDocument:
    rules: list[Rule] = field(default_factory=list)
    facts: list[Atom] = field(default_factory=list)
    queries: list[tuple[Atom, ...]] = field(default_factory=list)

    def factbase(self) -> FactBase:
        return FactBase(self.facts)

    def data_predicates(self) -> frozenset[str]:
        """The predicates of the facts and queries."""
        return frozenset(a.pred for a in self.facts).union(a.pred for q in self.queries for a in q)

    def knowledge_base(self) -> KnowledgeBase:
        return KnowledgeBase(tuple(self.rules), self.factbase())


def _is_variable(tok: _Token) -> bool:
    return tok.kind == "ident" and tok.text[0].isupper()


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        last = self.tokens[-1] if self.tokens else _Token("end", "", 1, 1)
        self.tokens.append(_Token("end", "", last.line, last.col))
        self.pos = 0
        self.doc = SourceDocument()
        self.arities: dict[str, int] = {}
        self.rule_ids: set[str] = set()
        # The one-identifier rule ids the document names anywhere, which an
        # unnamed rule's `r<k>` must avoid even when they come after it.
        tokens = self.tokens
        self.named_ids = {
            tokens[i + 1].text
            for i in range(len(tokens) - 2)
            if tokens[i].text == "[" and tokens[i + 1].kind == "ident" and tokens[i + 2].text == "]"
        }
        self.auto_rule_index = 0

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self, expected: str) -> _Token:
        tok = self._peek()
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.line, tok.col, expected)
        self.pos += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._next(text)
        if tok.text != text:
            raise ParseError("expected %r, found %r" % (text, tok.text), tok.line, tok.col, text)
        return tok

    def _list(self, item: Callable[[], _T]) -> list[_T]:
        """`item (',' item)*`"""
        items = [item()]
        while self._peek().text == ",":
            self.pos += 1
            items.append(item())
        return items

    def _term(self) -> Term:
        tok = self._next("term")
        if tok.kind == "null":
            return Null(tok.text)
        if _is_variable(tok):
            return Var(tok.text)
        if tok.kind == "ident":
            return Const(tok.text)
        raise ParseError("expected a term, found %r" % tok.text, tok.line, tok.col, "term")

    def _variable(self) -> str:
        tok = self._next("variable")
        if not _is_variable(tok):
            raise ParseError("expected a variable, found %r" % tok.text, tok.line, tok.col)
        return tok.text

    def _atom(self) -> Atom:
        tok = self._next("atom")
        if tok.kind != "ident":
            raise ParseError("expected a predicate, found %r" % tok.text, tok.line, tok.col, "atom")
        args: list[Term] = []
        if self._peek().text == "(":
            self.pos += 1
            args = self._list(self._term)
            self._expect(")")
        a = Atom(tok.text, tuple(args))
        seen = self.arities.setdefault(a.pred, a.arity)
        if seen != a.arity:
            raise ArityError(a.pred, a.arity, seen, tok.line)
        return a

    def _rule_id(self) -> str:
        """`IDENT ('.' IDENT)*`, each token right after the one before it."""
        tokens = [self._next("rule id")]
        while tokens[-1].kind == "ident" and self._peek().text == ".":
            tokens += [self._next("rule id"), self._next("rule id")]
        for k, (prev, tok) in enumerate(zip([None, *tokens], tokens)):
            if k % 2 == 0 and tok.kind != "ident":
                raise ParseError("expected a rule id, found %r" % tok.text, tok.line, tok.col, "rule id")
            if prev is not None and (tok.line, tok.col) != (prev.line, prev.col + len(prev.text)):
                raise ParseError("space or line break inside a rule id", tok.line, tok.col)
        return "".join(t.text for t in tokens)

    def _finish_rule(self, rule_id: Optional[str], body: list[Atom], line: int) -> None:
        self._expect("->")
        declared: list[str] = []
        # `exists` is the keyword only before a variable; else it is a predicate.
        tok = self._peek()
        if tok.kind == "ident" and tok.text == "exists" and _is_variable(self.tokens[self.pos + 1]):
            self.pos += 1
            declared = self._list(self._variable)
            self._expect(".")
        head = self._list(self._atom)
        self._expect(".")
        body_vars = set().union(*(a.variables() for a in body))
        head_vars = set().union(*(a.variables() for a in head))
        declared_set = set(declared)
        if len(declared_set) != len(declared):
            raise VariableScopeError("duplicate existential variable in rule at line %d" % line)
        clash = declared_set & body_vars
        if clash:
            raise VariableScopeError(
                "existential variable(s) %s also occur in the body (line %d)"
                % (", ".join(sorted(clash)), line)
            )
        unused = declared_set - head_vars
        if unused:
            raise VariableScopeError(
                "existential variable(s) %s do not occur in the head (line %d)"
                % (", ".join(sorted(unused)), line)
            )
        undeclared = head_vars - body_vars - declared_set
        if undeclared:
            raise VariableScopeError(
                "head variable(s) %s neither occur in the body nor are declared "
                "existential (line %d)" % (", ".join(sorted(undeclared)), line)
            )
        if rule_id is None:
            self.auto_rule_index += 1
            while "r%d" % self.auto_rule_index in self.named_ids:
                self.auto_rule_index += 1
            rule_id = "r%d" % self.auto_rule_index
        if rule_id in self.rule_ids:
            raise ParseError("duplicate rule id %r" % rule_id, line, 1)
        self.rule_ids.add(rule_id)
        self.doc.rules.append(Rule(rule_id, tuple(body), tuple(head)))

    def parse(self) -> SourceDocument:
        while self._peek().kind != "end":
            tok = self._peek()
            if tok.text == "?":
                self.pos += 1
                atoms = self._list(self._atom)
                self._expect(".")
                if any(isinstance(t, Null) for a in atoms for t in a.args):
                    raise ParseError("nulls are not allowed in queries", tok.line, tok.col)
                self.doc.queries.append(tuple(atoms))
                continue
            rule_id: Optional[str] = None
            if tok.text == "[":
                self.pos += 1
                rule_id = self._rule_id()
                self._expect("]")
            body = self._list(self._atom)
            if rule_id is None and len(body) == 1 and self._peek().text == ".":
                self.pos += 1
                for t in body[0].args:
                    if isinstance(t, Var):
                        raise ParseError(
                            "facts must be variable-free, found %s" % t, tok.line, tok.col
                        )
                self.doc.facts.append(body[0])
                continue
            self._finish_rule(rule_id, body, tok.line)
        return self.doc


def parse_document(text: str) -> SourceDocument:
    return _Parser(text).parse()


# --- serialization ---------------------------------------------------------


def serialize_factbase(fb: FactBase) -> str:
    """One fact per line, canonical atom order; empty fact base prints nothing."""
    lines = ["%s." % a for a in fb.sorted_atoms]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_query(query: Iterable[Atom]) -> str:
    return "? %s." % ", ".join(str(a) for a in sorted(query, key=Atom.key))


def serialize_rules(rules: Iterable[Rule]) -> str:
    lines = [str(r) for r in rules]
    return "\n".join(lines) + ("\n" if lines else "")
