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

The parser reads the text from an offset and builds no token list. At each
statement start it first tries `_FACT`, one compiled pattern for a whole
ground fact in the layout `serialize_factbase` writes, `IDENT '(' term (','
term)* ')' '.'` with every term a constant or a null and no blank or comment
inside, and feeds its predicate and arguments through the same term and
arity tables as the rest. Every other statement (a fact with blanks,
comments or line breaks inside, a 0-arity fact, a rule, a query, malformed
text) is read token by token, each token scanned by `_SCANNER` only when the
parser asks for it. Documents, automatic rule ids and errors are those of
tokenizing the whole text before parsing it: a lexical error anywhere (an
unexpected character, or `_` without a label) is reported before an earlier
syntax, arity or scope error, so the rest of the text is scanned before any
other error is raised, and the first unnamed rule scans the whole text for
the rule ids it must avoid.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, TypeVar

from .core import Atom, Const, FactBase, InputError, KnowledgeBase, Null, Rule, Term, Var

_T = TypeVar("_T")


class ParseError(InputError):
    def __init__(self, message: str, line: int, col: int, expected: Optional[str] = None):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__("%d:%d: %s" % (line, col, message))


class ArityError(InputError):
    def __init__(self, predicate: str, seen: int, expected: int, line: int):
        self.predicate = predicate
        self.seen = seen
        self.expected = expected
        super().__init__(
            "predicate %r used with arity %d but previously %d (line %d)"
            % (predicate, seen, expected, line)
        )


class VariableScopeError(InputError):
    pass


# Blanks and comments, skipped between tokens.
_BLANKS = r"(?:\s|%[^\n]*+)*+"
# A null label after its '_': a dot belongs to it only when a label
# character follows.
_LABEL = r"[A-Za-z0-9_](?:[A-Za-z0-9_#]|\.(?=[A-Za-z0-9_#]))*+"
_IDENT = r"[A-Za-z][A-Za-z0-9_]*+"

# The blanks and comments before a token (group 1), then one alternative
# per token kind. `bad` catches any other character, so a match is missed
# only at the end of the text, after its last token.
_SCANNER = re.compile(
    r"(" + _BLANKS + r")"
    r"(?:(?P<punct>->|[().,?\[\]])"
    r"|_(?P<null>" + _LABEL + r")"
    r"|(?P<ident>" + _IDENT + r")"
    r"|(?P<bad>.))",
    re.DOTALL,
)

# The blanks and comments before a statement, then a whole ground fact with
# no blank or comment inside: group 1 is its predicate, group 2 its
# arguments, each a constant or '_' and a null label, joined by commas.
_GROUND = r"(?:[a-z][A-Za-z0-9_]*+|_" + _LABEL + r")"
_FACT = re.compile(
    _BLANKS + r"(" + _IDENT + r")\((" + _GROUND + r"(?:," + _GROUND + r")*+)\)\."
)

# A comment, or '[', an identifier and ']' with blanks and comments between:
# the one-identifier rule ids a document names (group 1). '[' stands
# outside a comment only as a token, so no other token needs reading. Only
# the first unnamed rule of a document reads it, so it is left to `re` to
# compile on that first use.
_NAMED_ID = r"%[^\n]*|\[" + _BLANKS + r"(" + _IDENT + r")" + _BLANKS + r"\]"


class _Token(NamedTuple):
    kind: str  # 'ident' 'null' 'punct', or 'end' after the last token
    text: str
    line: int
    col: int


class _Lexer:
    """The tokens of `text` from `offset` on, each scanned when asked for,
    with the line and the offset at which that line starts."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.offset = 0
        self.line, self.line_start = 1, 0
        # The last token read; the end token stands at its place.
        self.last = _Token("end", "", 1, 1)

    def skip_to(self, end: int) -> None:
        """Move to `end` over text that holds no token, counting its line
        breaks."""
        text, start = self.text, self.offset
        newline = text.rfind("\n", start, end)
        if newline >= 0:
            self.line += text.count("\n", start, newline + 1)
            self.line_start = newline + 1
        self.offset = end

    def next(self) -> _Token:
        """The next token, or an end token once the text is used up. A
        lexical error is raised as a ParseError, and leaves the lexer at the
        end of the text."""
        m = _SCANNER.match(self.text, self.offset)
        if m is None:
            return _Token("end", "", self.last.line, self.last.col)
        start = m.end(1)
        if start != self.offset:
            self.skip_to(start)
        kind = m.lastgroup
        col = start - self.line_start + 1
        if kind == "bad":
            self.offset = len(self.text)
            if m.group(kind) == "_":
                raise ParseError("null label expected after '_'", self.line, col, "label")
            raise ParseError("unexpected character %r" % m.group(kind), self.line, col)
        self.offset = m.end()
        tok = self.last = _Token(kind, m.group(kind), self.line, col)
        return tok


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
        self.text = text
        self.lexer = _Lexer(text)
        # The next token and the one after it, once read; both are None at a
        # statement start, where `_FACT` is tried first.
        self.tok: Optional[_Token] = None
        self.tok2: Optional[_Token] = None
        self.doc = SourceDocument()
        self.arities: dict[str, int] = {}
        self.rule_ids: set[str] = set()
        # The one-identifier rule ids the document names anywhere, which an
        # unnamed rule's `r<k>` must avoid even when they come after it;
        # read at the first unnamed rule.
        self.named_ids: Optional[set[str]] = None
        self.auto_rule_index = 0
        # One term object per distinct spelling (`a`, `X`, `_n1`): equal terms
        # of the document are then identical, and share one key and hash.
        self.terms: dict[str, Term] = {}
        # The first null of the statement read so far, which a rule or a
        # query rejects.
        self.null: Optional[_Token] = None

    def _peek(self) -> _Token:
        tok = self.tok
        if tok is None:
            tok = self.tok = self.lexer.next()
        return tok

    def _peek2(self) -> _Token:
        """The token after the next one."""
        if self.tok2 is None:
            self._peek()
            self.tok2 = self.lexer.next()
        return self.tok2

    def _advance(self) -> None:
        """Drop the next token, which the caller has peeked at."""
        self.tok, self.tok2 = self.tok2, None

    def _next(self, expected: str) -> _Token:
        tok = self.tok
        if tok is None:
            tok = self.lexer.next()
        else:
            self.tok, self.tok2 = self.tok2, None
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.line, tok.col, expected)
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
            self.tok, self.tok2 = self.tok2, None
            items.append(item())
        return items

    def _intern(self, spelling: str) -> Term:
        """The term spelt `spelling`: '_' and a label for a null, an
        upper-case identifier for a variable, any other for a constant."""
        term = self.terms.get(spelling)
        if term is None:
            if spelling[0] == "_":
                term = Null(spelling[1:])
            elif spelling[0].isupper():
                term = Var(spelling)
            else:
                term = Const(spelling)
            self.terms[spelling] = term
        return term

    def _term(self) -> Term:
        tok = self._next("term")
        if tok.kind == "ident":
            return self._intern(tok.text)
        if tok.kind == "null":
            if self.null is None:
                self.null = tok
            return self._intern("_" + tok.text)
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
            self._advance()
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

    def _reject_nulls(self, statement: str) -> None:
        """Raise ParseError at the first null of the statement."""
        tok = self.null
        if tok is not None:
            raise ParseError("nulls are not allowed in %s" % statement, tok.line, tok.col)

    def _finish_rule(self, rule_id: Optional[str], body: list[Atom], line: int) -> None:
        self._expect("->")
        declared: list[str] = []
        # `exists` is the keyword only before a variable; else it is a predicate.
        tok = self._peek()
        if tok.kind == "ident" and tok.text == "exists" and _is_variable(self._peek2()):
            self._advance()
            declared = self._list(self._variable)
            self._expect(".")
        head = self._list(self._atom)
        self._expect(".")
        self._reject_nulls("rules")
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
            if self.named_ids is None:
                self.named_ids = set(re.findall(_NAMED_ID, self.text)) - {""}  # "" for a comment
            self.auto_rule_index += 1
            while "r%d" % self.auto_rule_index in self.named_ids:
                self.auto_rule_index += 1
            rule_id = "r%d" % self.auto_rule_index
        if rule_id in self.rule_ids:
            raise ParseError("duplicate rule id %r" % rule_id, line, 1)
        self.rule_ids.add(rule_id)
        self.doc.rules.append(Rule(rule_id, tuple(body), tuple(head)))

    def parse(self) -> SourceDocument:
        lexer, text, fact = self.lexer, self.text, _FACT.match
        terms, intern, arities, facts = self.terms, self._intern, self.arities, self.doc.facts
        while True:
            m = fact(text, lexer.offset)
            if m is not None:
                lexer.skip_to(m.start(1))
                lexer.offset = m.end()
                pred, args = m.group(1, 2)
                a = Atom(pred, tuple([terms.get(s) or intern(s) for s in args.split(",")]))
                seen = arities.setdefault(pred, a.arity)
                if seen != a.arity:
                    raise ArityError(pred, a.arity, seen, lexer.line)
                facts.append(a)
                continue
            tok = self._peek()
            if tok.kind == "end":
                return self.doc
            self.null = None
            if tok.text == "?":
                self._advance()
                atoms = self._list(self._atom)
                self._expect(".")
                self._reject_nulls("queries")
                self.doc.queries.append(tuple(atoms))
                continue
            rule_id: Optional[str] = None
            if tok.text == "[":
                self._advance()
                rule_id = self._rule_id()
                self._expect("]")
            body = self._list(self._atom)
            if rule_id is None and len(body) == 1 and self._peek().text == ".":
                self._advance()
                for t in body[0].args:
                    if isinstance(t, Var):
                        raise ParseError(
                            "facts must be variable-free, found %s" % (t,), tok.line, tok.col
                        )
                facts.append(body[0])
                continue
            self._finish_rule(rule_id, body, tok.line)


def parse_document(text: str) -> SourceDocument:
    parser = _Parser(text)
    try:
        return parser.parse()
    except (ParseError, ArityError, VariableScopeError):
        # A lexical error anywhere in the text is reported first.
        lexer = parser.lexer
        while lexer.next().kind != "end":
            pass
        raise


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
