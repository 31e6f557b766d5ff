"""Compile a deterministic Turing machine over a unary input alphabet into
rule sets that drive the restricted chase.

Two rule sets come out of `encode`:

  * tape-creation rules: grow a non-final chain guarded by an emergency
    brake, then unfold one input-tape representation per chain element, so a
    single fact base yields tapes of every length in a terminating way;
  * simulation rules: step the machine over a tape representation, copying
    the tape row by row, so the chase halts exactly when the machine does.

The seed fact base carries the length-0 and length-1 tapes, the chain seeds,
and a brake constant saturated with every predicate the rules could derive
on it: all chain/tape/simulation triggers that touch the brake are blocked
by retraction, which is what lets the chain stop after any number of links.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .core import Atom, Const, FactBase, InputError, KnowledgeBase, Rule, Var, cached_attribute
from .chase import Phased


class InvalidMachine(InputError):
    """The transition table is not total or names an unknown state/symbol,
    or a state or symbol name is not made of letters, digits and '_'."""


# A state or symbol name becomes part of a predicate (`head_<q>`,
# `content_<a>`) and of a rule id (`m_rw_<q>_<a>`), so it must keep those
# identifiers of the `.erl` format.
_NAME = re.compile(r"[A-Za-z0-9_]+")


BLANK = "blank"
ONE = "1"
LEFT = "L"
RIGHT = "R"


@dataclass(frozen=True)
class TuringMachine:
    """Deterministic single-tape machine; tape unbounded to the right only.

    The machine must never move left on the first cell (standard assumption,
    not statically checkable). The input alphabet is unary: input words are
    runs of `1`.
    """

    states: tuple[str, ...]
    initial: str
    accept: str
    reject: str
    delta: dict[tuple[str, str], tuple[str, str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        for name in (*self.states, *self.alphabet):
            if not _NAME.fullmatch(name):
                raise InvalidMachine("name %r is not made of letters, digits and '_'" % name)
        for s in (self.initial, self.accept, self.reject):
            if s not in self.states:
                raise InvalidMachine("state %r not declared" % s)
        if self.initial in self.halting:
            raise InvalidMachine("initial state may not be halting")
        for (q, a), (r, b, d) in self.delta.items():
            if q in self.halting:
                raise InvalidMachine("transition from halting state %r" % q)
            if q not in self.states or r not in self.states:
                raise InvalidMachine("transition uses unknown state")
            if d not in (LEFT, RIGHT):
                raise InvalidMachine("direction must be L or R, got %r" % d)
            if a not in self.alphabet or b not in self.alphabet:
                raise InvalidMachine("transition uses unknown symbol")
        for q in self.states:
            if q in self.halting:
                continue
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    raise InvalidMachine("delta not total: missing (%s, %s)" % (q, a))

    @cached_attribute
    def halting(self) -> frozenset[str]:
        return frozenset((self.accept, self.reject))

    @cached_attribute
    def alphabet(self) -> tuple[str, ...]:
        symbols = {ONE, BLANK}
        for (q, a), (r, b, d) in self.delta.items():
            symbols.add(a)
            symbols.add(b)
        return tuple(sorted(symbols))


def parse_machine(text: str) -> TuringMachine:
    """Parse the `.tm` format: `initial:`/`accept:`/`reject:` headers and one
    `q a -> r b L|R` line per transition. `_` denotes the blank symbol."""
    headers: dict[str, str] = {}
    delta: dict[tuple[str, str], tuple[str, str, str]] = {}
    states: set[str] = set()

    def sym(token: str) -> str:
        return BLANK if token == "_" else token

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%")[0].strip()
        if not line:
            continue
        if ":" in line and "->" not in line:
            key, _, value = line.partition(":")
            headers[key.strip()] = value.strip()
            continue
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise InvalidMachine("line %d: expected 'q a -> r b L|R'" % lineno)
        left = lhs.split()
        right = rhs.split()
        if len(left) != 2 or len(right) != 3:
            raise InvalidMachine("line %d: expected 'q a -> r b L|R'" % lineno)
        q, a = left
        r, b, d = right
        delta[(q, sym(a))] = (r, sym(b), d)
        states.update((q, r))
    for key in ("initial", "accept", "reject"):
        if key not in headers:
            raise InvalidMachine("missing %r header" % key)
    states.update(headers[k] for k in ("initial", "accept", "reject"))
    return TuringMachine(
        states=tuple(sorted(states)),
        initial=headers["initial"],
        accept=headers["accept"],
        reject=headers["reject"],
        delta=delta,
    )


_MACHINES = Path(__file__).parent / "corpus" / "machines"


def halt1() -> TuringMachine:
    """`corpus/machines/halt1.tm`: moves right into the accepting state on
    any symbol, so it halts on every input."""
    return parse_machine((_MACHINES / "halt1.tm").read_text(encoding="utf-8"))


def loop() -> TuringMachine:
    """`corpus/machines/loop.tm`: always moves right in its single working
    state, so it never halts."""
    return parse_machine((_MACHINES / "loop.tm").read_text(encoding="utf-8"))


def content_pred(symbol: str) -> str:
    return "content_%s" % symbol


def head_pred(state: str) -> str:
    return "head_%s" % state


@dataclass(frozen=True)
class Encoding:
    rules_w: tuple[Rule, ...]
    rules_m: tuple[Rule, ...]
    seed: FactBase

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self.rules_w + self.rules_m

    def knowledge_base(self) -> KnowledgeBase:
        return KnowledgeBase(self.rules, self.seed)


def _tape_rules(machine: TuringMachine) -> tuple[Rule, ...]:
    B0, X, Y, Z, T, U = (Var(n) for n in ("B0", "X", "Y", "Z", "T", "U"))
    blank = content_pred(BLANK)
    one = content_pred(ONE)
    return (
        Rule(
            "w_chain",
            (Atom("brk", (B0,)), Atom("nf", (Z, X)), Atom("real", (X,))),
            (
                Atom("nf", (X, Y)),
                Atom("real", (Y,)),
                Atom("done", (Y, B0)),
                Atom("nf", (Y, B0)),
            ),
        ),
        Rule("w_brake", (Atom("brk", (B0,)),), (Atom("real", (B0,)),)),
        Rule("w_final", (Atom("nf", (X, Y)),), (Atom("fin", (Y, Z)),)),
        Rule(
            "w_end",
            (Atom("fin", (X, Y)),),
            (Atom("done", (Y, Z)), Atom("end", (Z,)), Atom(blank, (Z,))),
        ),
        Rule(
            "w_trav_f",
            (Atom("nf", (T, X)), Atom("fin", (X, Y)), Atom("done", (Y, Z))),
            (Atom("nxt", (U, Z)), Atom("done", (X, U)), Atom(one, (U,))),
        ),
        Rule(
            "w_trav_nf",
            (Atom("nf", (T, X)), Atom("nf", (X, Y)), Atom("done", (Y, Z))),
            (Atom("nxt", (U, Z)), Atom("done", (X, U)), Atom(one, (U,))),
        ),
        Rule(
            "w_first",
            (Atom("int", (X,)), Atom("nf", (X, Y)), Atom("done", (Y, Z))),
            (
                Atom("nxt", (U, Z)),
                Atom("done", (X, U)),
                Atom(one, (U,)),
                Atom("frst", (U,)),
            ),
        ),
        Rule(
            "w_head",
            (Atom("frst", (X,)),),
            (Atom(head_pred(machine.initial), (X,)),),
        ),
    )


def _simulation_rules(machine: TuringMachine) -> tuple[Rule, ...]:
    X, Y, Z, W, V = (Var(n) for n in ("X", "Y", "Z", "W", "V"))
    blank = content_pred(BLANK)
    rules = [
        Rule("m_nxtp", (Atom("nxt", (X, Y)),), (Atom("nxtp", (X, Y)),)),
        Rule(
            "m_trans",
            (Atom("nxtp", (X, Y)), Atom("nxtp", (Y, Z))),
            (Atom("nxtp", (X, Z)),),
        ),
        Rule(
            "m_stepnxt",
            (Atom("nxt", (X, Y)), Atom("stp", (X, Z)), Atom("stp", (Y, W))),
            (Atom("nxt", (Z, W)),),
        ),
        Rule(
            "m_extend",
            (Atom("end", (X,)), Atom("stp", (X, Z))),
            (Atom("nxt", (Z, V)), Atom(blank, (V,)), Atom("end", (V,))),
        ),
    ]
    for q in machine.states:
        if q in machine.halting:
            continue
        for c in machine.alphabet:
            rules.append(
                Rule(
                    "m_in_r_%s_%s" % (q, c),
                    (
                        Atom(head_pred(q), (X,)),
                        Atom("nxtp", (X, Y)),
                        Atom(content_pred(c), (Y,)),
                    ),
                    (Atom("stp", (Y, Z)), Atom(content_pred(c), (Z,))),
                )
            )
            rules.append(
                Rule(
                    "m_in_l_%s_%s" % (q, c),
                    (
                        Atom(head_pred(q), (X,)),
                        Atom("nxtp", (Y, X)),
                        Atom(content_pred(c), (Y,)),
                    ),
                    (Atom("stp", (Y, Z)), Atom(content_pred(c), (Z,))),
                )
            )
    for (q, a), (r, b, d) in sorted(machine.delta.items()):
        rules.append(
            Rule(
                "m_rw_%s_%s" % (q, a),
                (Atom(head_pred(q), (X,)), Atom(content_pred(a), (X,))),
                (Atom("stp", (X, Z)), Atom(content_pred(b), (Z,))),
            )
        )
        if d == RIGHT:
            move_body = (
                Atom(head_pred(q), (X,)),
                Atom(content_pred(a), (X,)),
                Atom("stp", (X, Z)),
                Atom("nxt", (Z, W)),
            )
        else:
            move_body = (
                Atom(head_pred(q), (X,)),
                Atom(content_pred(a), (X,)),
                Atom("stp", (X, Z)),
                Atom("nxt", (W, Z)),
            )
        rules.append(Rule("m_mv_%s_%s" % (q, a), move_body, (Atom(head_pred(r), (W,)),)))
    return tuple(rules)


def _seed(machine: TuringMachine) -> FactBase:
    a, b, nf1 = Const("a"), Const("b"), Const("nf1")
    c00 = Const("c0_0")
    c01, c11 = Const("c0_1"), Const("c1_1")
    blank = content_pred(BLANK)
    one = content_pred(ONE)
    atoms = [
        # length-1 and length-0 input tapes
        Atom("frst", (c01,)),
        Atom(one, (c01,)),
        Atom("nxt", (c01, c11)),
        Atom("end", (c11,)),
        Atom(blank, (c11,)),
        Atom("frst", (c00,)),
        Atom("end", (c00,)),
        Atom(blank, (c00,)),
        # chain seed; done(a,b) and done(nf1,b) block the tape rules from
        # unfolding "below" the brake
        Atom("int", (a,)),
        Atom("nf", (a, nf1)),
        Atom("real", (nf1,)),
        Atom("nf", (nf1, b)),
        Atom("done", (nf1, b)),
        Atom("done", (a, b)),
        # the brake: a point absorbing every chain/tape predicate
        Atom("brk", (b,)),
        Atom("fin", (b, b)),
        Atom("nf", (b, b)),
        Atom("done", (b, b)),
        Atom("nxt", (b, b)),
        Atom("lst", (b,)),
        Atom("frst", (b,)),
        # ... and every simulation predicate
        Atom("end", (b,)),
        Atom("stp", (b, b)),
        Atom("nxtp", (b, b)),
    ]
    for q in machine.states:
        atoms.append(Atom(head_pred(q), (b,)))
    for c in machine.alphabet:
        atoms.append(Atom(content_pred(c), (b,)))
    return FactBase(atoms)


def encode(machine: TuringMachine) -> Encoding:
    return Encoding(
        rules_w=_tape_rules(machine),
        rules_m=_simulation_rules(machine),
        seed=_seed(machine),
    )


def tape_factbase(n: int, initial_state: Optional[str] = None) -> FactBase:
    """Canonical representation of the all-ones input word of length n >= 1:
    cells c0..cn, the first n filled with 1, the last blank and marked End.

    `initial_state` optionally puts the machine head on the first cell (the
    tape-creation rules normally do this via the head-init rule)."""
    if n < 1:
        raise ValueError("tape length must be >= 1; length 0 exists only in the seed")
    cells = [Const("c%d" % j) for j in range(n + 1)]
    atoms = [Atom("frst", (cells[0],))]
    for j in range(n):
        atoms.append(Atom(content_pred(ONE), (cells[j],)))
        atoms.append(Atom("nxt", (cells[j], cells[j + 1])))
    atoms.append(Atom("end", (cells[n],)))
    atoms.append(Atom(content_pred(BLANK), (cells[n],)))
    if initial_state is not None:
        atoms.append(Atom(head_pred(initial_state), (cells[0],)))
    return FactBase(atoms)


def tape_generation_strategy(n: int) -> Phased:
    """Grow the chain to n-1 fresh links, fire the brake, then unfold finals,
    tape ends, traversal, first cells and head initialisation exhaustively."""
    if n < 2:
        raise ValueError("tape generation needs n >= 2")
    phases: list[tuple[tuple[str, ...], str]] = []
    for _ in range(n - 1):
        phases.append((("w_chain",), "once"))
    phases.append((("w_brake",), "exhaust"))
    phases.append((("w_final",), "exhaust"))
    phases.append((("w_end",), "exhaust"))
    phases.append((("w_trav_f", "w_trav_nf"), "exhaust"))
    phases.append((("w_first",), "exhaust"))
    phases.append((("w_head",), "exhaust"))
    return Phased(phases)


def simulation_kb(machine: TuringMachine, n: int) -> KnowledgeBase:
    """Simulation rules over the length-n tape with the head on cell 0."""
    encoding = encode(machine)
    return KnowledgeBase(encoding.rules_m, tape_factbase(n, machine.initial))
