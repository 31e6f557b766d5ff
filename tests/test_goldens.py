"""Derivation goldens: `run --derivation --json` on every corpus `.erl`
under o/so/r/e/dfr with the fifo and datalog-first strategies at
`--max-steps 20`, compared with fixed reports in `goldens/derivations.json`.

The reports were made by the chase that re-enumerated every trigger at every
step, before the trigger agenda replaced it. They leave out `stats`, whose
counters measure work rather than results, and number the null digests by
first appearance (`_ex1#1.Z`), so they fix which triggers fire and what they
add but not the digest text of the labels.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from exchase import cli

from conftest import CORPUS

GOLDENS = json.loads((Path(__file__).parent / "goldens" / "derivations.json").read_text())
_DIGEST = re.compile(r"#([0-9a-f]+)\.")


def number_digests(text: str) -> str:
    numbers: dict[str, int] = {}
    return _DIGEST.sub(lambda m: "#%d." % numbers.setdefault(m.group(1), len(numbers) + 1), text)


def test_goldens_cover_the_corpus():
    names = {key.split()[0] for key in GOLDENS}
    assert names == {p.name for p in CORPUS.glob("*.erl")}
    assert len(GOLDENS) == len(names) * 5 * 2


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.erl")))
def test_derivation_reports_match_goldens(name):
    mismatches = []
    for variant in ("o", "so", "r", "e", "dfr"):
        for strategy in ("fifo", "datalog-first"):
            out = io.StringIO()
            argv = ["run", str(CORPUS / name), "--variant", variant, "--strategy", strategy]
            with contextlib.redirect_stdout(out):
                assert cli.main(argv + ["--max-steps", "20", "--derivation", "--json"]) == 0
            report = json.loads(out.getvalue())
            del report["stats"]
            report["inputs"] = name
            report = json.loads(number_digests(json.dumps(report, sort_keys=True, indent=2)))
            if report != GOLDENS["%s %s %s" % (name, variant, strategy)]:
                mismatches.append((variant, strategy))
    assert not mismatches
