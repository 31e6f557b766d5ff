"""From-scratch reference implementations of applicability and of the
breadth-first chase, for the tests.

The package decides applicability in one place, `ChaseState.blocked`,
which reads a derivation state (`chase.ChaseState`) that keeps the frontier
keys fired along the derivation. The functions here state the same
definitions without that bookkeeping: they enumerate every trigger of a
bare fact base, decide SO from the fact base alone, and run body matches
and retractions through the general homomorphism search, and test each
trigger on a rule-less state whose input facts are the fact base
(`fact_state`), built once per call of `applicable_edges`;
`breadth_first_layer` indexes its fact base as a `Store` once per call.
The tests hold the state's scans, its fired keys and head satisfaction
against them. `ch_k` is the k-fold
breadth-first saturation that acceptance criterion 6 is stated over.
`ReferenceSearch` is the homomorphism search with its branch rule stated
plainly, every candidate of every atom listed at each node.
`ReferenceIsoTable` is the isomorphism table that refines colours on every
lookup, where the package's table refines only on a collision.
`reference_entails` answers a BCQ by searching the whole fact base for the
query after every step, where the package joins it from the step's delta.
`reference_join_plan` plans a trigger join in two passes, the join order
first and the positions of each step after it, as `core.join_plan` does in
one. `reference_pieces` finds a head's pieces by testing every pair of head
atoms for a shared existential variable, where `normalize.pieces` unites
each atom with the first holder of each of its existential variables.
`reference_atom_key` is the canonical order of atoms written out, a
predicate and a (kind, name) pair per argument, where the package's terms
are those pairs and its atoms sort by `Atom.key`.

`reference_tokenize` is the character-at-a-time `.erl` tokenizer that the
package's compiled scanner replaced; the scanner must give its tokens and
its errors. `reference_parse_document` tokenizes the whole text with it
before parsing, as the package's parser did before it read tokens on
demand and ground facts by one pattern: the package must give its
documents, automatic rule ids and errors. The rest is API that only the tests use: `RandomChoice`,
`are_isomorphic`, `rule_by_id`, `support`, `restrict`, `deltas_of`,
`steps_of` and `serialize_document`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence, TypeVar, Union

from exchase import hom
from exchase.analysis import TriState
from exchase.chase import (
    STOPPED,
    ChaseState,
    ChaseVariant,
    DatalogFirst,
    Strategy,
    enumerate_triggers,
    run_chase,
)
from exchase.core import (
    TERMINATED_FAIR,
    Atom,
    Const,
    Derivation,
    FactBase,
    KnowledgeBase,
    Null,
    PlanStep,
    Rule,
    Store,
    Term,
    Trigger,
    Var,
    make_match,
    sort_atoms,
)
from exchase.textio import ArityError, ParseError, SourceDocument, VariableScopeError, serialize_query

_T = TypeVar("_T")


class RandomChoice(Strategy):
    """Uniformly random applicable trigger; deterministic given the seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def triggers(self, state: ChaseState) -> Iterator[Trigger]:
        while candidates := state.scan():
            yield self._rng.choice(candidates)


def are_isomorphic(left, right) -> bool:
    """True iff a bijective renaming of nulls/variables maps left onto right."""
    la = frozenset(left.atoms if isinstance(left, FactBase) else left)
    ra = frozenset(right.atoms if isinstance(right, FactBase) else right)
    if len(la) != len(ra):
        return False
    lprofile = sorted((a.pred, a.arity) for a in la)
    rprofile = sorted((a.pred, a.arity) for a in ra)
    if lprofile != rprofile:
        return False
    lterms: set[Term] = set().union(*(a.args for a in la)) if la else set()
    rterms: set[Term] = set().union(*(a.args for a in ra)) if ra else set()
    lconsts = {t for t in lterms if isinstance(t, Const)}
    rconsts = {t for t in rterms if isinstance(t, Const)}
    if lconsts != rconsts or len(lterms) != len(rterms):
        return False
    # An injective term mapping with h(left) <= right and |left| = |right|
    # is onto, and its inverse is then a homomorphism as well.
    return hom.find_homomorphism(la, ra, injective=True) is not None


def rule_by_id(kb: KnowledgeBase, rule_id: str) -> Rule:
    for r in kb.rules:
        if r.id == rule_id:
            return r
    raise KeyError(rule_id)


def support(t: Trigger) -> tuple[Atom, ...]:
    """The body atoms of `t`'s rule under its match, in canonical order."""
    m = dict(t.match)
    return sort_atoms(
        Atom(a.pred, tuple(m[v.name] if isinstance(v, Var) else v for v in a.args))
        for a in t.rule.body
    )


def restrict(fb: FactBase, signature: Iterable[str]) -> FactBase:
    sig = frozenset(signature)
    return FactBase(frozenset(a for a in fb.atoms if a.pred in sig))


def deltas_of(derivation: Derivation) -> list[tuple[Atom, ...]]:
    """The atoms each step of `derivation` added, in canonical order."""
    return [delta for _, delta in derivation.records]


def steps_of(derivation: Derivation) -> list[tuple[Trigger, FactBase]]:
    """(trigger, fact base after it) per step of `derivation`, rebuilt
    from its deltas: O(steps * |F|)."""
    out = []
    fb = derivation.initial
    for t, delta in derivation.records:
        fb = fb.union(delta)
        out.append((t, fb))
    return out


def serialize_document(doc: SourceDocument) -> str:
    lines = [str(r) for r in doc.rules]
    lines += ["%s." % a for a in doc.facts]
    lines += [serialize_query(q) for q in doc.queries]
    return "\n".join(lines) + ("\n" if lines else "")


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_CONT = _IDENT_START | set("0123456789_")
_LABEL_CONT = _IDENT_CONT | {"#"}


@dataclass
class _Token:
    kind: str  # 'ident' 'null' 'punct'
    text: str
    line: int
    col: int


def reference_tokenize(text: str) -> list[_Token]:
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


def _is_variable(tok: _Token) -> bool:
    return tok.kind == "ident" and tok.text[0].isupper()


class _ReferenceParser:
    def __init__(self, text: str):
        self.tokens = reference_tokenize(text)
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
        # One term object per distinct (token kind, text): equal terms of the
        # document are then identical, and share one key and hash.
        self.terms: dict[tuple[str, str], Term] = {}

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
        term = self.terms.get((tok.kind, tok.text))
        if term is not None:
            return term
        if tok.kind == "null":
            term = Null(tok.text)
        elif _is_variable(tok):
            term = Var(tok.text)
        elif tok.kind == "ident":
            term = Const(tok.text)
        else:
            raise ParseError("expected a term, found %r" % tok.text, tok.line, tok.col, "term")
        self.terms[tok.kind, tok.text] = term
        return term

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

    def _reject_nulls(self, start: int, statement: str) -> None:
        """Raise ParseError at the first null token from token `start` to
        the current one."""
        for tok in self.tokens[start : self.pos]:
            if tok.kind == "null":
                message = "nulls are not allowed in %s" % statement
                raise ParseError(message, tok.line, tok.col)

    def _finish_rule(self, rule_id: Optional[str], body: list[Atom], start: int) -> None:
        line = self.tokens[start].line
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
        self._reject_nulls(start, "rules")
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
            start, tok = self.pos, self._peek()
            if tok.text == "?":
                self.pos += 1
                atoms = self._list(self._atom)
                self._expect(".")
                self._reject_nulls(start, "queries")
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
                            "facts must be variable-free, found %s" % (t,), tok.line, tok.col
                        )
                self.doc.facts.append(body[0])
                continue
            self._finish_rule(rule_id, body, start)
        return self.doc


def parse_document(text: str) -> SourceDocument:
    return _Parser(text).parse()


def reference_parse_document(text: str) -> SourceDocument:
    return _ReferenceParser(text).parse()


def exists_retraction(
    whole: Iterable[Atom], part: Iterable[Atom], budget: Optional[int] = None
) -> bool:
    """True iff a homomorphism whole -> part fixes every term of `part`."""
    part_atoms = frozenset(part)
    fixed: dict[Term, Term] = {}
    for a in part_atoms:
        fixed.update(zip(a.args, a.args))
    pending = [a for a in whole if a not in part_atoms]
    for a in pending:
        if all(isinstance(t, Const) or t in fixed for t in a.args):
            return False  # atom is rigid but missing from the part
    found = hom.find_homomorphism(pending, part_atoms, fixed=fixed, budget=budget)
    return found is not None


def datalog_satisfied(datalog_rules: Sequence[Rule], fb: Union[FactBase, Store]) -> bool:
    """True iff every Datalog rule's head instance is present for every match."""
    for rule in datalog_rules:
        for h in hom.iter_homomorphisms(rule.body, fb):
            if any(a.substitute(h) not in fb.atoms for a in rule.head):
                return False
    return True


def so_blocked_intrinsic(t: Trigger, fb: Union[FactBase, Store]) -> bool:
    """Some trigger with the same rule and frontier image as `t` has its
    output in `fb`. Null labels are a function of (rule, match), so on a
    derivation from facts that hold no minted null this is the same as
    "a trigger with t's frontier key fired"."""
    fixed = {Var(n): v for n, v in t.match if n in t.rule.frontier}
    for h in hom.iter_homomorphisms(t.rule.body, fb, fixed=fixed):
        other = Trigger(t.rule, make_match({v.name: x for v, x in h.items() if isinstance(v, Var)}))
        if all(a in fb.atoms for a in other.output):
            return True
    return False


def fact_state(fb: Union[FactBase, Store], variant: ChaseVariant) -> ChaseState:
    """A rule-less derivation state whose input facts are `fb`: it has only
    its store, and has fired nothing."""
    return ChaseState(KnowledgeBase((), FactBase(fb.atoms)), variant)


def is_applicable(
    variant: ChaseVariant,
    t: Trigger,
    fb: Union[FactBase, Store],
    fired: Optional[Collection[tuple]] = None,
    *,
    datalog_ok: bool = True,
) -> bool:
    """True iff `ChaseState.blocked` finds no reason on a rule-less state
    whose input facts are `fb` (`fact_state`) and whose fired keys are
    `fired`. Without `fired`, the SO test is intrinsic
    (`so_blocked_intrinsic`)."""
    return _applicable(fact_state(fb, variant), t, fired, datalog_ok)


def _applicable(
    state: ChaseState, t: Trigger, fired: Optional[Collection[tuple]], datalog_ok: bool
) -> bool:
    if fired is None:
        fired = {t.frontier_key} if so_blocked_intrinsic(t, state.store) else set()
    state.fired = fired
    return state.blocked(t, datalog_ok) is None


def applicable_edges(kb: KnowledgeBase, fb: FactBase, variant: ChaseVariant) -> Iterator[Trigger]:
    """Applicable triggers on a bare fact base, in canonical order: every
    trigger enumerated, SO decided intrinsically, and the Datalog-first gate
    open iff every Datalog rule is satisfied."""
    state = fact_state(fb, variant)
    datalog_rules = [r for r in kb.rules if r.is_datalog]
    datalog_ok = not variant.datalog_first or datalog_satisfied(datalog_rules, state.store)
    for t in enumerate_triggers(kb.rules, state.store):
        if _applicable(state, t, None, datalog_ok):
            yield t


def breadth_first_layer(rules: Sequence[Rule], fb: FactBase, stats: Optional[dict] = None) -> FactBase:
    """One parallel layer: `fb` plus the output of every trigger on it.

    Trigger outputs reuse the content-addressed nulls, so a trigger fired in
    an earlier layer contributes nothing new and the layers stabilize exactly
    when the oblivious chase terminates.
    """
    new: list[Atom] = []
    for t in enumerate_triggers(rules, Store(fb.atoms), stats=stats):
        new.extend(t.output)
    return fb.union(new)


def ch_k(kb: KnowledgeBase, k: int, stats: Optional[dict] = None) -> FactBase:
    """k-fold breadth-first saturation; layer 0 is the fact base itself."""
    if k < 0:
        raise ValueError("k must be non-negative")
    fb = kb.facts
    for _ in range(k):
        fb = breadth_first_layer(kb.rules, fb, stats=stats)
    return fb


class _ReferenceIsoEntry:
    """An atom set with its refined key, colour classes, colour atoms and
    stored value, all computed when it is made."""

    def __init__(self, atoms: frozenset[Atom]) -> None:
        colours = hom._refine(tuple(atoms))
        self.atoms, self.value = atoms, None
        self.key = (
            tuple(sorted(t.name for t in colours if isinstance(t, Const))),
            tuple(sorted((a.pred, tuple([colours[t] for t in a.args])) for a in atoms)),
        )
        self.classes: dict[int, list[Term]] = {}
        for t, c in colours.items():
            if not isinstance(t, Const):
                self.classes.setdefault(c, []).append(t)
        self.colour_atoms = [
            Atom("\x00%d" % c, (t,)) for c, ts in self.classes.items() if len(ts) > 1 for t in ts
        ]

    isomorphic = hom._Entry.isomorphic  # the package's exact check, as is


class ReferenceIsoTable:
    """`hom.IsoTable` with eager colour refinement: every lookup refines its
    atom set first and scans the bucket of its refined key in insertion
    order, checking each entry there for an isomorphism, so an identical
    atom set is found only through that check."""

    def __init__(self) -> None:
        self._buckets: dict[tuple, list[_ReferenceIsoEntry]] = {}

    def entry(self, atoms) -> _ReferenceIsoEntry:
        probe = _ReferenceIsoEntry(frozenset(atoms.atoms if isinstance(atoms, FactBase) else atoms))
        bucket = self._buckets.setdefault(probe.key, [])
        for entry in bucket:
            if probe.isomorphic(entry):
                return entry
        bucket.append(probe)
        return probe


class ReferenceSearch(hom._Search):
    """`hom._Search` branching by the fail-first rule stated plainly: at
    each node, list every candidate of each remaining atom in turn and take
    the first atom with the fewest, stopping at one with at most one. The
    package reaches the same choice while counting candidates only as far
    as it needs, so both searches walk the same tree."""

    def _image(self, t: Term) -> Optional[Term]:
        if isinstance(t, Const):
            return t
        return self.assignment.get(t)

    def _pool(self, a: Atom) -> Sequence[Atom]:
        """The store's candidates for `a`, sorted by `Atom.key`: canonical
        order whatever order the store's buckets are in."""
        images = [self._image(s) for s in a.args]
        if None not in images:
            ground = Atom(a.pred, tuple(images))
            return (ground,) if ground in self.fb.atoms else ()
        bound = [(i, t) for i, t in enumerate(images) if t is not None]
        return sort_atoms(self.fb.candidates(a.pred, bound))

    def _candidates(self, a: Atom) -> list:
        out = []
        for cand in self._pool(a):
            if cand.arity != a.arity:
                continue
            binds: list[tuple[Term, Term]] = []
            ok = True
            local: dict[Term, Term] = {}
            for s, t in zip(a.args, cand.args):
                img = self._image(s)
                if img is None:
                    img = local.get(s)
                if img is not None:
                    if img != t:
                        ok = False
                        break
                else:
                    if self.injective and (t in self.used or t in local.values()):
                        ok = False
                        break
                    local[s] = t
                    binds.append((s, t))
            if ok:
                out.append((cand, binds))
        return out

    def _most_constrained(self, remaining: list[Atom]):
        best_i = 0
        best_cands = None
        for i, a in enumerate(remaining):
            cands = self._candidates(a)
            if best_cands is None or len(cands) < len(best_cands):
                best_i, best_cands = i, cands
                if len(cands) <= 1:
                    break
        return best_i, best_cands


def reference_entails(
    kb: KnowledgeBase,
    query: Iterable[Atom],
    variant: ChaseVariant,
    max_steps: int,
    strategy: Optional[Strategy] = None,
) -> TriState:
    """`analysis.entails` with the query searched for in the whole fact
    base before the first and after every step."""
    query = tuple(query)
    witness = None

    def entailed(state: ChaseState) -> bool:
        nonlocal witness
        witness = hom.find_homomorphism(query, state.store)
        return witness is not None

    derivation = run_chase(kb, variant, strategy or DatalogFirst(), max_steps, stop=entailed)
    steps = len(derivation)
    if derivation.verdict == STOPPED:
        return TriState("yes", steps, witness)
    if derivation.verdict == TERMINATED_FAIR:
        return TriState("no", steps)
    return TriState("unknown", steps)


def reference_join_plan(atoms: Iterable[Atom], bound: Iterable[str]) -> tuple[PlanStep, ...]:
    """`core.join_plan` in two passes. First the order: next comes the atom
    with the most bound arguments (constants and variables bound earlier),
    then the fewest free variables, then the first in the order given. Then
    the steps: per atom of that order, the positions of its constants, of
    its variables bound before it, and of the first and the repeated
    occurrences of the variables it binds."""
    left = list(atoms)
    seen = set(bound)
    order = []

    def rank(a: Atom) -> tuple[int, int]:
        free = a.variables() - seen
        return (sum(not isinstance(t, Var) or t.name in seen for t in a.args), -len(free))

    while left:
        best = max(left, key=rank)
        left.remove(best)
        seen |= best.variables()
        order.append((best.pred, tuple(t.name if isinstance(t, Var) else t for t in best.args)))

    seen = set(bound)
    plan = []
    for pred, args in order:
        fixed, consts, first, repeats = [], [], {}, []
        for i, s in enumerate(args):
            if not isinstance(s, str):
                consts.append((i, s))
            elif s in seen:
                fixed.append((i, s))
            elif s in first:
                repeats.append((i, first[s]))
            else:
                first[s] = i
        free = tuple((i, s) for s, i in first.items())
        plan.append(PlanStep(pred, args, tuple(fixed), tuple(consts), free, tuple(repeats)))
        seen.update(first)
    return tuple(plan)


def reference_atom_key(a: Atom) -> tuple[str, tuple[tuple[int, str], ...]]:
    """The canonical sort key of an atom: its predicate, then per argument
    its kind (a constant 0, a null 1, a variable 2) and its name or label."""

    def kind_and_name(t: Term) -> tuple[int, str]:
        if isinstance(t, Null):
            return (1, t.label)
        return (0 if isinstance(t, Const) else 2, t.name)

    return (a.pred, tuple(kind_and_name(t) for t in a.args))


def reference_pieces(rule: Rule) -> list[tuple[Atom, ...]]:
    """`normalize.pieces` by pairs: two head atoms are in one piece when a
    chain of atoms, each sharing an existential variable with the next,
    joins them. Components in canonical order."""
    head = rule.head
    parent = list(range(len(head)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(head)):
        for j in range(i + 1, len(head)):
            if head[i].variables() & head[j].variables() & rule.existentials:
                parent[find(i)] = find(j)
    groups: dict[int, list[Atom]] = {}
    for i, a in enumerate(head):
        groups.setdefault(find(i), []).append(a)
    return sorted((sort_atoms(g) for g in groups.values()), key=lambda c: tuple(map(Atom.key, c)))
