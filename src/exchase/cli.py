"""Command-line front end.

Subcommands: run, normalize, explore, entails, classify, tm. Reports are
printed as human-readable lines by default and as JSON with --json; the JSON
object always carries the keys command/inputs/verdict/steps/atoms (plus
stats, and a delta-list derivation on request); `entails` adds the query
and a yes's witness, and its steps are those its chase took before the
answer. Exit code 0 on success or a fully passing classification, 1 on
classification mismatches, 2 on usage or input errors. Such an error prints
one JSON object {"command", "error"} on stderr; only argparse's own usage
errors (a missing or unknown argument) print its usage text instead. Output
files are written before anything is printed.

A command imports the modules it needs only when it runs. Importing this
module loads `core`, `chase` and `textio`; `explore`, `entails` and
`classify` load `analysis` (and with it `hom`), and `classify` also
`normalize`; `normalize` loads `normalize`; `tm` loads `tmgen`. No
command loads `inspect`, or the standard module of data classes that
imports it. Their errors all derive from `core.InputError`, which `main`
catches. Likewise `main` builds the parser of the command it runs alone
(all of them when its first argument names none), with the usage and help
texts of the whole parser.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import textio
from .core import InputError
from .chase import (
    ChaseVariant,
    DatalogFirst,
    FIFO,
    Phased,
    Scripted,
    Strategy,
    run_chase,
)


# The keys of `normalize.PROCEDURES`, spelt out so that building the parser
# does not load `normalize`.
_PROCEDURES = ("sp", "1ad", "2ad")


class UsageError(InputError):
    """A command-line value or a file it names cannot be used."""


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise UsageError("%s must be at least %d, got %d" % (flag, least, value))


def _load_document(path: str) -> textio.SourceDocument:
    return textio.parse_document(Path(path).read_text(encoding="utf-8"))


def _strategy(spec: str) -> Strategy:
    if spec == "fifo":
        return FIFO()
    if spec == "datalog-first":
        return DatalogFirst()
    kind, _, path = spec.partition(":")
    if kind not in ("phased", "scripted") or not path:
        raise UsageError("unknown strategy %r" % spec)
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return Phased(raw) if kind == "phased" else Scripted(raw)
    except (ValueError, TypeError, LookupError) as e:
        raise UsageError("malformed %s strategy file %s: %s" % (kind, path, e))


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    for key in ("command", "inputs", "verdict", "steps", "atoms"):
        if key in report and report[key] is not None:
            print("%-10s %s" % (key + ":", report[key]))
    for key, value in sorted(report.items()):
        if key in ("command", "inputs", "verdict", "steps", "atoms", "derivation", "rows"):
            continue
        print("%-10s %s" % (key + ":", value))
    if "rows" in report:
        for row in report["rows"]:
            print(
                "%-8s %-6s %-7s expected=%-12s observed=%-12s %s"
                % (
                    row["fixture"],
                    row["variant"],
                    row["mode"],
                    row["expected"],
                    row["observed"],
                    "pass" if row["pass"] else "FAIL",
                )
            )


def _cmd_run(args) -> int:
    _at_least("--max-steps", args.max_steps, 0)
    doc = _load_document(args.file)
    kb = doc.knowledge_base()
    variant = ChaseVariant.parse(args.variant)
    derivation = run_chase(kb, variant, _strategy(args.strategy), args.max_steps)
    report = {
        "command": "run",
        "inputs": args.file,
        "verdict": derivation.verdict,
        "steps": len(derivation),
        "atoms": len(derivation.result),
        "stats": derivation.stats,
    }
    if args.derivation:
        report["derivation"] = [
            {
                "rule": t.rule.id,
                "match": {n: str(v) for n, v in t.match},
                "added": [str(a) for a in delta],
            }
            for t, delta in derivation.records
        ]
    if args.output:
        Path(args.output).write_text(textio.serialize_factbase(derivation.result), encoding="utf-8")
    _emit(report, args.json)
    return 0


def _cmd_normalize(args) -> int:
    if args.skip_atomic and args.proc == "sp":
        raise UsageError("--skip-atomic applies to --proc 1ad and 2ad, not sp")
    from . import normalize

    doc = _load_document(args.file)
    options = {"skip_atomic": True} if args.skip_atomic else {}
    report = normalize.PROCEDURES[args.proc](
        tuple(doc.rules), reserved=doc.data_predicates(), **options
    )
    erl = textio.serialize_rules(report.output_rules)
    sidecar = normalize.report_sidecar(report)
    if args.output:
        output, sidecar_path = Path(args.output), Path(args.output + ".json")
        output.write_text(erl, encoding="utf-8")
        try:
            sidecar_path.write_text(json.dumps(sidecar, sort_keys=True, indent=2), encoding="utf-8")
        except OSError:
            output.unlink()  # no rules without their sidecar
            raise
    if args.json:
        payload = {"command": "normalize", "inputs": args.file, "proc": args.proc, "erl": erl, **sidecar}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        sys.stdout.write(erl)
    return 0


def _cmd_explore(args) -> int:
    from . import analysis

    _at_least("--max-depth", args.max_depth, 1)
    _at_least("--max-nodes", args.max_nodes, 1)
    doc = _load_document(args.file)
    kb = doc.knowledge_base()
    variant = ChaseVariant.parse(args.variant)
    report = analysis.explore_all(kb, variant, args.max_depth, args.max_nodes)
    payload = {
        "command": "explore",
        "inputs": args.file,
        "verdict": report.verdict,
        "steps": report.max_len,
        "atoms": None,
        "nodes": report.nodes,
        "dedup_hits": report.dedup_hits,
    }
    if report.witness is not None:
        payload["witness"] = [[str(a) for a in delta] for delta in report.witness]
        payload["witness_label"] = report.witness_label
    _emit(payload, args.json)
    return 0


def _cmd_entails(args) -> int:
    from . import analysis

    _at_least("--query-index", args.query_index, 0)
    _at_least("--max-steps", args.max_steps, 0)
    doc = _load_document(args.file)
    kb = doc.knowledge_base()
    if not doc.queries:
        raise UsageError("no queries in %s" % args.file)
    if args.query_index >= len(doc.queries):
        raise UsageError(
            "query index %d out of range: %d queries in %s"
            % (args.query_index, len(doc.queries), args.file)
        )
    query = doc.queries[args.query_index]
    variant = ChaseVariant.parse(args.variant)
    verdict = analysis.entails(kb, query, variant, args.max_steps)
    report = {
        "command": "entails",
        "inputs": args.file,
        "verdict": verdict.kind,
        "steps": verdict.steps,
        "atoms": None,
        "query": textio.serialize_query(query),
    }
    if verdict.witness is not None:
        report["witness"] = {str(k): str(v) for k, v in sorted(verdict.witness.items(), key=str)}
    _emit(report, args.json)
    return 0


def _cmd_classify(args) -> int:
    from . import analysis

    rows = analysis.classify(Path(args.fixtures))
    ok = all(row["pass"] for row in rows)
    report = {
        "command": "classify",
        "inputs": args.fixtures,
        "verdict": "pass" if ok else "fail",
        "steps": None,
        "atoms": None,
        "rows": rows,
    }
    _emit(report, args.json)
    return 0 if ok else 1


def _cmd_tm(args) -> int:
    from . import tmgen

    machine = tmgen.parse_machine(Path(args.machine).read_text(encoding="utf-8"))
    if args.action == "encode":
        encoding = tmgen.encode(machine)
        text = textio.serialize_rules(encoding.rules) + textio.serialize_factbase(encoding.seed)
    else:
        _at_least("--len", args.len, 1)
        text = textio.serialize_factbase(tmgen.tape_factbase(args.len))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    if args.json:
        print(
            json.dumps(
                {"command": "tm", "inputs": args.machine, "action": args.action, "erl": text},
                sort_keys=True,
                indent=2,
            )
        )
    else:
        sys.stdout.write(text)
    return 0


def _run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--variant", default="r")
    p.add_argument("--strategy", default="fifo")
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--derivation", action="store_true")
    p.add_argument("--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_run)


def _normalize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--proc", choices=_PROCEDURES, required=True)
    p.add_argument("--skip-atomic", action="store_true")
    p.add_argument("--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_normalize)


def _explore_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--variant", default="r")
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--max-nodes", type=int, default=5000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_explore)


def _entails_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--query-index", type=int, default=0)
    p.add_argument("--variant", default="r")
    p.add_argument("--max-steps", type=int, default=200)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_entails)


def _classify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fixtures", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)


def _tm_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=("encode", "tape"))
    p.add_argument("--machine", required=True)
    p.add_argument("--len", type=int, default=1)
    p.add_argument("--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tm)


# Command -> (its help line, the function that adds its arguments).
_COMMANDS = {
    "run": ("run a chase variant on a rule/fact file", _run_arguments),
    "normalize": ("apply a normalisation procedure", _normalize_arguments),
    "explore": ("explore all derivations up to budgets", _explore_arguments),
    "entails": ("budgeted BCQ entailment", _entails_arguments),
    "classify": ("run a fixture corpus against expectations", _classify_arguments),
    "tm": ("encode a Turing machine or emit a tape", _tm_arguments),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser. Given the name of a command, it holds that
    command's subparser alone, and parses that command's argument lists
    with the usage, help and error texts of the whole parser: its command
    choice is written as the whole parser writes the list of commands.
    Given anything else, it holds every command."""
    parser = argparse.ArgumentParser(
        prog="exchase", description="chase engine and analysis toolkit for existential rules"
    )
    if command in _COMMANDS:
        names, metavar = [command], "{%s}" % ",".join(_COMMANDS)
    else:
        names, metavar = list(_COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, UnicodeDecodeError) as e:
        print(
            json.dumps({"command": args.command, "error": str(e)}, sort_keys=True),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
