"""Parser and serializer for the `.erl` rule/fact/query format.

Grammar (UTF-8, `%` comments to end of line):

    document  := statement*
    statement := rule | fact | query
    rule      := ('[' IDENT ']')? atomlist '->' ('exists' varlist '.')? atomlist '.'
    fact      := atom '.'
    query     := '?' atomlist '.'
    atomlist  := atom (',' atom)*
    atom      := IDENT '(' term (',' term)* ')' | IDENT
    term      := UPPER_IDENT (variable) | LOWER_IDENT (constant) | '_' label (null)

Null labels may contain '#' and '.' (a dot is part of the label only when
followed by another label character), so chase-minted labels round-trip.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import Atom, Const, FactBase, Null, Rule, Term, Var


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


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_CONT = _IDENT_START | set("0123456789_")
_LABEL_CONT = _IDENT_CONT | {"#"}


@dataclass
class _Token:
    kind: str  # 'ident' 'null' 'punct'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c == "%":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        if c.isspace():
            advance(1)
            continue
        if c in "().,?[]":
            tokens.append(_Token("punct", c, line, col))
            advance(1)
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("punct", "->", line, col))
            advance(2)
            continue
        if c == "_":
            start_line, start_col = line, col
            advance(1)
            j = i
            if j >= n or text[j] not in _IDENT_CONT:
                raise ParseError("null label expected after '_'", start_line, start_col, "label")
            label = []
            while i < n:
                ch = text[i]
                if ch in _LABEL_CONT:
                    label.append(ch)
                    advance(1)
                elif ch == "." and i + 1 < n and text[i + 1] in _LABEL_CONT:
                    label.append(ch)
                    advance(1)
                else:
                    break
            tokens.append(_Token("null", "".join(label), start_line, start_col))
            continue
        if c in _IDENT_START:
            start_line, start_col = line, col
            name = []
            while i < n and text[i] in _IDENT_CONT:
                name.append(text[i])
                advance(1)
            tokens.append(_Token("ident", "".join(name), start_line, start_col))
            continue
        raise ParseError("unexpected character %r" % c, line, col)
    return tokens


@dataclass
class SourceDocument:
    rules: list[Rule] = field(default_factory=list)
    facts: list[Atom] = field(default_factory=list)
    queries: list[tuple[Atom, ...]] = field(default_factory=list)
    arities: dict[str, int] = field(default_factory=dict)

    def factbase(self) -> FactBase:
        return FactBase(self.facts)

    def data_predicates(self) -> frozenset[str]:
        """The predicates of the facts and queries."""
        return frozenset(a.pred for a in self.facts).union(a.pred for q in self.queries for a in q)

    def knowledge_base(self):
        from .core import KnowledgeBase

        return KnowledgeBase(tuple(self.rules), self.factbase())


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.doc = SourceDocument()
        self.auto_rule_index = 0

    def _peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected: str) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("punct", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col, expected)
        self.pos += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._next(text)
        if tok.text != text:
            raise ParseError("expected %r, found %r" % (text, tok.text), tok.line, tok.col, text)
        return tok

    def _check_arity(self, a: Atom, line: int) -> None:
        seen = self.doc.arities.setdefault(a.pred, a.arity)
        if seen != a.arity:
            raise ArityError(a.pred, a.arity, seen, line)

    def _term(self) -> Term:
        tok = self._next("term")
        if tok.kind == "null":
            return Null(tok.text)
        if tok.kind == "ident":
            if tok.text[0].isupper():
                return Var(tok.text)
            return Const(tok.text)
        raise ParseError("expected a term, found %r" % tok.text, tok.line, tok.col, "term")

    def _atom(self) -> Atom:
        tok = self._next("atom")
        if tok.kind != "ident":
            raise ParseError("expected a predicate, found %r" % tok.text, tok.line, tok.col, "atom")
        pred = tok.text
        args: list[Term] = []
        nxt = self._peek()
        if nxt is not None and nxt.text == "(":
            self._expect("(")
            args.append(self._term())
            while self._peek() is not None and self._peek().text == ",":
                self._expect(",")
                args.append(self._term())
            self._expect(")")
        a = Atom(pred, tuple(args))
        self._check_arity(a, tok.line)
        return a

    def _atomlist(self) -> list[Atom]:
        atoms = [self._atom()]
        while self._peek() is not None and self._peek().text == ",":
            self._expect(",")
            atoms.append(self._atom())
        return atoms

    def _varlist(self) -> list[str]:
        names = []
        tok = self._next("variable")
        if tok.kind != "ident" or not tok.text[0].isupper():
            raise ParseError("expected a variable, found %r" % tok.text, tok.line, tok.col)
        names.append(tok.text)
        while self._peek() is not None and self._peek().text == ",":
            self._expect(",")
            tok = self._next("variable")
            if tok.kind != "ident" or not tok.text[0].isupper():
                raise ParseError("expected a variable, found %r" % tok.text, tok.line, tok.col)
            names.append(tok.text)
        return names

    def _finish_rule(self, rule_id: Optional[str], body: list[Atom], line: int) -> None:
        self._expect("->")
        declared: list[str] = []
        nxt = self._peek()
        if nxt is not None and nxt.kind == "ident" and nxt.text == "exists":
            self._next("exists")
            declared = self._varlist()
            self._expect(".")
        head = self._atomlist()
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
            rule_id = "r%d" % self.auto_rule_index
        if any(r.id == rule_id for r in self.doc.rules):
            raise ParseError("duplicate rule id %r" % rule_id, line, 1)
        rule = Rule(rule_id, tuple(body), tuple(head))
        self.doc.rules.append(rule)

    def parse(self) -> SourceDocument:
        while self._peek() is not None:
            tok = self._peek()
            if tok.text == "?":
                self._expect("?")
                atoms = self._atomlist()
                self._expect(".")
                for a in atoms:
                    for t in a.args:
                        if isinstance(t, Null):
                            raise ParseError("nulls are not allowed in queries", tok.line, tok.col)
                self.doc.queries.append(tuple(atoms))
                continue
            rule_id: Optional[str] = None
            if tok.text == "[":
                self._expect("[")
                parts: list[str] = []
                while self._peek() is not None and self._peek().text != "]":
                    piece = self._next("rule id")
                    if piece.kind == "ident" or piece.text == ".":
                        parts.append(piece.text)
                    else:
                        raise ParseError("expected a rule id", piece.line, piece.col)
                if not parts or parts[0] == "." or parts[-1] == ".":
                    raise ParseError("expected a rule id", tok.line, tok.col)
                rule_id = "".join(parts)
                self._expect("]")
                body = self._atomlist()
                self._finish_rule(rule_id, body, tok.line)
                continue
            first = self._atom()
            nxt = self._peek()
            if nxt is not None and nxt.text == ".":
                self._expect(".")
                for t in first.args:
                    if isinstance(t, Var):
                        raise ParseError(
                            "facts must be variable-free, found %s" % t, tok.line, tok.col
                        )
                self.doc.facts.append(first)
                continue
            body = [first]
            while self._peek() is not None and self._peek().text == ",":
                self._expect(",")
                body.append(self._atom())
            self._finish_rule(None, body, tok.line)
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


def serialize_document(doc: SourceDocument) -> str:
    lines = [str(r) for r in doc.rules]
    lines += ["%s." % a for a in doc.facts]
    lines += [serialize_query(q) for q in doc.queries]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_rules(rules: Iterable[Rule]) -> str:
    lines = [str(r) for r in rules]
    return "\n".join(lines) + ("\n" if lines else "")
