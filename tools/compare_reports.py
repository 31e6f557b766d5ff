"""Compare the CLI reports of two source trees, byte for byte.

    python3 tools/compare_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are `src` directories, each holding an `exchase`
package. Each tree runs the same command set through `exchase.cli.main`
with its own corpus, once under each of PYTHONHASHSEED 0 and 1, in one
subprocess per seed, so a change that moves set iteration order shows
under either seed:

- `run --derivation --json --max-steps 60` on every corpus `.erl` under
  o/so/r/e/dfr/dfe with the fifo and datalog-first strategies (stats kept);
- `entails --json` on every corpus `.erl` under the same variants;
- `classify --json` on the fixture corpus;
- `explore --json` on every corpus `.erl` and on the diverging rule
  `[g] p(X,Y) -> exists Z. p(Y,Z).` over `p(a,b)`, under o/so/r/e/dfr, at
  (max-depth, max-nodes) budgets (10, 2000), (3, 5), (40, 40), (60, 300).

A report is the command's exit code, stdout and stderr, with the tree's
path replaced by `<tree>` (it appears in `inputs` and in error messages).
Its key is the command's, tagged with the seed (`seed0: run ex1.erl o fifo`).
The script prints each key whose report differs and exits 1 if any does,
0 otherwise. Stdlib only.

    python3 tools/compare_reports.py --dump SRC DIR

prints one tree's reports as a JSON object instead, with the diverging
rule's file written into the directory DIR.
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
GROWTH_ERL = "[g] p(X,Y) -> exists Z. p(Y,Z).\np(a,b).\n"
HASH_SEEDS = ("0", "1")


def _commands(src: Path, scratch: Path) -> dict[str, list[str]]:
    """Report key -> argv for `exchase.cli.main`."""
    corpus = src / "exchase" / "corpus"
    growth = scratch / "growth.erl"
    growth.write_text(GROWTH_ERL)
    erls = sorted(corpus.glob("*.erl"))
    commands: dict[str, list[str]] = {}
    for erl in erls:
        for variant in RUN_VARIANTS:
            for strategy in STRATEGIES:
                commands["run %s %s %s" % (erl.name, variant, strategy)] = [
                    "run", str(erl), "--variant", variant, "--strategy", strategy,
                    "--max-steps", "60", "--derivation", "--json",
                ]
            commands["entails %s %s" % (erl.name, variant)] = [
                "entails", str(erl), "--variant", variant, "--json",
            ]
    commands["classify"] = ["classify", "--fixtures", str(corpus / "fixtures"), "--json"]
    for erl in [*erls, growth]:
        for variant in EXPLORE_VARIANTS:
            for depth, nodes in EXPLORE_BUDGETS:
                commands["explore %s %s %d %d" % (erl.name, variant, depth, nodes)] = [
                    "explore", str(erl), "--variant", variant,
                    "--max-depth", str(depth), "--max-nodes", str(nodes), "--json",
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
