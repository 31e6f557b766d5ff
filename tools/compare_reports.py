"""Compare the CLI reports of two source trees, byte for byte.

    python3 tools/compare_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are `src` directories, each holding an `exchase`
package. Each tree runs the same command set through `exchase.cli.main`
with its own corpus, once under each of PYTHONHASHSEED 0 and 1, in one
subprocess per seed, so a change that moves set iteration order shows
under either seed:

- `run --derivation --json --max-steps 60` on every corpus `.erl`, and on
  `LAYOUT_ERL`, under o/so/r/e/dfr/dfe with the fifo and datalog-first
  strategies (stats kept). `LAYOUT_ERL` is written the ways the parser's
  one-pattern path for ground facts does not read: facts with blanks,
  comments and line breaks inside atoms, CRLF line ends, dotted null
  labels, upper-case and `exists` predicates, 0-arity and duplicate facts,
  and unnamed rules after a named `[r1]`, next to facts in the layout that
  path reads; and on `LONGBODY_ERL`, whose rule `[lb]` has a four-step
  body plan (a constant, a step that binds a repeated variable, a step
  that is ground when it is reached) and a two-atom existential head, so
  that R's head join runs two steps, among a transitive-closure rule and
  a rule that feeds `[lb]` with minted nulls;
- the same `run` with `--strategy phased:FILE` or `scripted:FILE` for each
  `phased` or `scripted` spec of a corpus fixture, written into the scratch
  directory, under each variant the fixture's expectations name, on the
  fixture's `.erl` (fixtures with a `transform` are left out, since their
  rules are not the `.erl`'s);
- `entails --json` on every corpus `.erl`, `LAYOUT_ERL` and
  `LONGBODY_ERL` under the same variants, and on a
  copy of each, written into the scratch directory, that adds generated
  queries: one all-variable atom per predicate and a self-join
  `p(X,Y), p(Y,Z)` per binary predicate, each run by `--query-index`
  (most corpus files have no query of their own, so these cover the
  witnesses);
- `entails --json` under the same variants on `ENTAILED_ERL`, whose query
  the input facts already entail, beside a diverging rule, so the check
  before the first step alone decides the answer, and on `CHAIN_YES_ERL`
  and `CHAIN_NO_ERL`, which ask the 12-atom path query `CHAIN_QUERY` of
  a chain of facts that holds such a path and of one whose path a
  Datalog rule extends to 11 edges only;
- `classify --json` on the fixture corpus;
- `explore --json` on every corpus `.erl`, on the diverging rule
  `[g] p(X,Y) -> exists Z. p(Y,Z).` over `p(a,b)` (`GROWTH_ERL`), on
  `COLLISION_ERL`, whose derivations reach states that share a coarse
  key, so the isomorphism table refines their colours, which tell them
  apart, and on `CYCLES_ERL`, whose two symmetric cycles of nulls leave
  colour classes of several nulls, so the table's isomorphism check runs
  the injective homomorphism search, and on `INDEP_ERL`, under o/so/r/e/dfr,
  at (max-depth, max-nodes) budgets (10, 2000), (3, 5), (40, 40), (60, 300);
- `run --derivation --json --max-steps 60` on `INDEP_ERL`, four
  independent existential rules `[ri] ai(X) -> exists Y. bi(X,Y).` over
  `ai(c)`, under o/so/r/e/dfr with the fifo and datalog-first strategies:
  sibling explorer branches, and the runs and searches of one knowledge
  base, meet the same triggers again, which they share through the
  knowledge base's trigger table;
- `run --output FILE --max-steps 60` on every corpus `.erl` under
  o/so/r/e/dfr/dfe with the fifo strategy: the report holds the text of
  the fact base written to FILE, a path in the scratch directory, as well;
- `run --json` on each of `ERROR_ERLS`, inputs the parser rejects with an
  error that quotes the offending statement or term: a fact with a
  variable, and a null in a rule and in a query;
- `normalize --json` on every corpus `.erl` with --proc sp, 1ad and 2ad,
  and with --skip-atomic for 1ad and 2ad;
- `tm encode --json` and `tm tape --json --len 1`, 2 and 3 on every corpus
  machine (`corpus/machines/*.tm`).

A report is the command's exit code, stdout and stderr, with the tree's
path replaced by `<tree>` (it appears in `inputs` and in error messages),
and for a command with `--output FILE` the text of FILE (None if the
command wrote none).
Its key is the command's, tagged with the seed (`seed0: run ex1.erl o fifo`).
The script prints each key whose report differs and exits 1 if any does,
0 otherwise. Stdlib only.

An `entails` report's `steps` is the number of steps its run took. A tree
from before that change reports the step budget there, so against such a
tree every `entails` report that answers in fewer steps than its budget
differs, in `steps` alone.

    python3 tools/compare_reports.py --dump SRC DIR

prints one tree's reports as a JSON object instead, with the diverging
rule's file, the collision, cycles and independent-rules files, the
layout and long-body files, the entailed and chain files, the error
inputs, the query copies, the strategy files and the `--output` files
written into the directory DIR.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_VARIANTS = ("o", "so", "r", "e", "dfr", "dfe")
EXPLORE_VARIANTS = ("o", "so", "r", "e", "dfr")
STRATEGIES = ("fifo", "datalog-first")
EXPLORE_BUDGETS = ((10, 2000), (3, 5), (40, 40), (60, 300))
NORMALIZE_PROCS = ("sp", "1ad", "2ad")
TAPE_LENGTHS = (1, 2, 3)
GROWTH_ERL = "[g] p(X,Y) -> exists Z. p(Y,Z).\np(a,b).\n"
COLLISION_ERL = (
    "[a] p(X,Y) -> exists Z. q(X,Z).\n"
    "[b] p(X,Y) -> exists Z. q(Z,Y).\n"
    "[c] q(X,Y) -> exists Z. s(Y,Z).\n"
    "p(_u,_v).\n"
    "p(_v,_w).\n"
)
CYCLES_ERL = (
    "[a] p(X,Y) -> exists Z. q(X,Z).\n"
    "p(_u,_v).\n"
    "p(_v,_u).\n"
    "p(_w,_x).\n"
    "p(_x,_w).\n"
)
INDEP_ERL = "".join("[r%d] a%d(X) -> exists Y. b%d(X,Y).\na%d(c).\n" % ((i,) * 4) for i in range(4))
LAYOUT_ERL = (
    "% layouts the one-pattern path for ground facts leaves to the tokens\r\n"
    "[r1] e(X,Y) -> exists Z. P(Y,Z).\r\n"
    "P(X,Y), exists(X) -> exists(Y).\r\n"
    "e(a,b).\r\n"
    "e( b ,\r\n  c ).\r\n"
    "e(c, % a comment inside an atom\r\n d).\r\n"
    "e(a,b).\r\n"
    "exists(a).\r\n"
    "P(_ex1#4926c314e9.Z,a).\r\n"
    "P(\r\n_n1.x , _ex1#4926c314e9.Z).\r\n"
    "halt.\r\n"
    "halt .\r\n"
    "halt -> done.\r\n"
    "? P(X,Y), e(Y,Z).\r\n"
)
LONGBODY_ERL = (
    "[lb] a(X,c), e(X,Y), d(Y,Z,Z), e(Z,Y) -> exists W. h(X,W), k(W,Z).\n"
    "[tc] e(X,Y), e(Y,Z) -> e(X,Z).\n"
    "[kd] k(W,Z), a(Z,V) -> d(Z,W,W), a(W,c).\n"
    "a(n1,c). a(n2,c). a(n3,b). a(p,c).\n"
    "e(n1,m1). e(n1,m2). e(n2,m1). e(m1,p). e(p,m1). e(m2,q). e(q,m2).\n"
    "d(m1,p,p). d(m1,q,r). d(m2,q,q).\n"
    "h(n2,w). k(w,p).\n"
    "? h(X,W), k(W,Z), d(Z,W,W).\n"
)
CHAIN_QUERY = "? %s.\n" % ", ".join("e(X%d,X%d)" % (i, i + 1) for i in range(12))
CHAIN_YES_ERL = (
    "[ef] f(X,Y) -> e(X,Y).\n"
    + "".join("e(c%d,c%d). " % (i, i + 1) for i in range(12))
    + "f(d0,d1).\n"
    + CHAIN_QUERY
)
CHAIN_NO_ERL = (
    "[ef] f(X,Y) -> e(X,Y).\n"
    + "".join("e(c%d,c%d). " % (i, i + 1) for i in range(6))
    + "".join("f(c%d,c%d). " % (i, i + 1) for i in range(6, 11))
    + "\n"
    + CHAIN_QUERY
)
ENTAILED_ERL = "[g] p(X,Y) -> exists Z. p(Y,Z).\np(a,b). p(b,a).\n? p(X,Y), p(Y,X).\n"
ERROR_ERLS = {
    "fact-var.erl": "p(a).\np(X).\n",
    "rule-null.erl": "[r] p(X), q(_n1.x) -> s(X).\np(a).\n",
    "query-null.erl": "p(a).\n? p(_n).\n",
}
HASH_SEEDS = ("0", "1")


def _with_queries(erl: Path, scratch: Path) -> tuple[Path, range]:
    """A copy of `erl` in `scratch` with generated queries appended, and
    the indexes of those queries."""
    from exchase import textio

    text = erl.read_text(encoding="utf-8")
    doc = textio.parse_document(text)
    atoms = [a for r in doc.rules for a in (*r.body, *r.head)] + list(doc.facts)
    arities = dict(sorted({a.pred: a.arity for a in atoms}.items()))
    queries = []
    for pred, arity in arities.items():
        args = ",".join("X%d" % i for i in range(arity))
        queries.append("? %s(%s)." % (pred, args) if args else "? %s." % pred)
        if arity == 2:
            queries.append("? %s(X,Y), %s(Y,Z)." % (pred, pred))
    copy = scratch / ("queries-" + erl.name)
    copy.write_text(text + "\n" + "\n".join(queries) + "\n", encoding="utf-8")
    first = len(doc.queries)
    return copy, range(first, first + len(queries))


def _commands(src: Path, scratch: Path) -> dict[str, list[str]]:
    """Report key -> argv for `exchase.cli.main`."""
    corpus = src / "exchase" / "corpus"
    growth = scratch / "growth.erl"
    growth.write_text(GROWTH_ERL, encoding="utf-8")
    collision = scratch / "collision.erl"
    collision.write_text(COLLISION_ERL, encoding="utf-8")
    cycles = scratch / "cycles.erl"
    cycles.write_text(CYCLES_ERL, encoding="utf-8")
    indep = scratch / "indep.erl"
    indep.write_text(INDEP_ERL, encoding="utf-8")
    layout = scratch / "layout.erl"
    layout.write_bytes(LAYOUT_ERL.encode("utf-8"))  # CRLF kept as written
    longbody = scratch / "longbody.erl"
    longbody.write_text(LONGBODY_ERL, encoding="utf-8")
    query_erls = []
    for name, text in (
        ("entailed.erl", ENTAILED_ERL), ("chain-yes.erl", CHAIN_YES_ERL), ("chain-no.erl", CHAIN_NO_ERL)
    ):
        query_erls.append(scratch / name)
        query_erls[-1].write_text(text, encoding="utf-8")
    erls = sorted(corpus.glob("*.erl"))
    commands: dict[str, list[str]] = {}
    for erl in [*erls, layout, longbody]:
        for variant in RUN_VARIANTS:
            for strategy in STRATEGIES:
                commands["run %s %s %s" % (erl.name, variant, strategy)] = [
                    "run", str(erl), "--variant", variant, "--strategy", strategy,
                    "--max-steps", "60", "--derivation", "--json",
                ]
            commands["entails %s %s" % (erl.name, variant)] = [
                "entails", str(erl), "--variant", variant, "--json",
            ]
        copy, indexes = _with_queries(erl, scratch)
        for k in indexes:
            for variant in RUN_VARIANTS:
                commands["entails %s %d %s" % (copy.name, k, variant)] = [
                    "entails", str(copy), "--query-index", str(k), "--variant", variant, "--json",
                ]
    for erl in query_erls:
        for variant in RUN_VARIANTS:
            commands["entails %s %s" % (erl.name, variant)] = [
                "entails", str(erl), "--variant", variant, "--json",
            ]
    for fixture in sorted((corpus / "fixtures").glob("*.json")):
        raw = json.loads(fixture.read_text(encoding="utf-8"))
        if "transform" in raw:
            continue
        erl = (fixture.parent / raw["erl"]).resolve()
        variants = sorted({entry["variant"] for entry in raw["expect"]})
        for k, spec in enumerate(raw.get("strategies", [])):
            [(kind, steps)] = spec.items()
            path = scratch / ("%s-%d.json" % (fixture.stem, k))
            path.write_text(json.dumps(steps), encoding="utf-8")
            for variant in variants:
                commands["run %s %s %s:%s" % (erl.name, variant, kind, path.name)] = [
                    "run", str(erl), "--variant", variant, "--strategy", "%s:%s" % (kind, path),
                    "--max-steps", "60", "--derivation", "--json",
                ]
    for variant in EXPLORE_VARIANTS:
        for strategy in STRATEGIES:
            commands["run %s %s %s" % (indep.name, variant, strategy)] = [
                "run", str(indep), "--variant", variant, "--strategy", strategy,
                "--max-steps", "60", "--derivation", "--json",
            ]
    commands["classify"] = ["classify", "--fixtures", str(corpus / "fixtures"), "--json"]
    for erl in [*erls, growth, collision, cycles, indep]:
        for variant in EXPLORE_VARIANTS:
            for depth, nodes in EXPLORE_BUDGETS:
                commands["explore %s %s %d %d" % (erl.name, variant, depth, nodes)] = [
                    "explore", str(erl), "--variant", variant,
                    "--max-depth", str(depth), "--max-nodes", str(nodes), "--json",
                ]
    for erl in erls:
        for proc in NORMALIZE_PROCS:
            argv = ["normalize", str(erl), "--proc", proc, "--json"]
            commands["normalize %s %s" % (erl.name, proc)] = argv
            if proc != "sp":
                commands["normalize %s %s skip-atomic" % (erl.name, proc)] = [*argv, "--skip-atomic"]
    for erl in erls:
        for variant in RUN_VARIANTS:
            out = scratch / ("output-%s-%s" % (variant, erl.name))
            commands["run %s %s --output" % (erl.name, variant)] = [
                "run", str(erl), "--variant", variant, "--max-steps", "60", "--output", str(out),
            ]
    for name, text in ERROR_ERLS.items():
        bad = scratch / name
        bad.write_text(text, encoding="utf-8")
        commands["run %s" % name] = ["run", str(bad), "--json"]
    for machine in sorted((corpus / "machines").glob("*.tm")):
        commands["tm encode %s" % machine.name] = ["tm", "encode", "--machine", str(machine), "--json"]
        for length in TAPE_LENGTHS:
            commands["tm tape %s %d" % (machine.name, length)] = [
                "tm", "tape", "--machine", str(machine), "--len", str(length), "--json",
            ]
    return commands


def dump(src: Path, scratch: Path) -> dict[str, dict]:
    """Every report of the command set, run in this process on `src`."""
    sys.path.insert(0, str(src))
    from exchase import cli

    reports: dict[str, dict] = {}
    for key, argv in _commands(src, scratch).items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
        reports[key] = {
            "exit": code,
            "stdout": out.getvalue().replace(str(src), "<tree>"),
            "stderr": err.getvalue().replace(str(src), "<tree>"),
        }
        if "--output" in argv:
            written = Path(argv[argv.index("--output") + 1])
            reports[key]["output"] = written.read_text(encoding="utf-8") if written.exists() else None
            written.unlink(missing_ok=True)
    return reports


def _reports_of(src: Path, scratch: Path) -> dict[str, dict]:
    """The tree's reports under every seed of HASH_SEEDS, keyed by seed."""
    reports: dict[str, dict] = {}
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env.pop("PYTHONPATH", None)
        proc = subprocess.run(
            [sys.executable, __file__, "--dump", str(src), str(scratch)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        for key, report in json.loads(proc.stdout).items():
            reports["seed%s: %s" % (seed, key)] = report
    return reports


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--dump":
        print(json.dumps(dump(Path(argv[1]).resolve(), Path(argv[2])), sort_keys=True))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as scratch:
        old = _reports_of(old_src, Path(scratch))
        new = _reports_of(new_src, Path(scratch))
    differing = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    for key in differing:
        print("differs: %s" % key)
    print("%d reports compared, %d differ" % (len(old.keys() | new.keys()), len(differing)))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
