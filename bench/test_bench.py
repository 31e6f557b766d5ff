"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout with `python3 -m pytest bench`. It checks
that every workload's outputs pass their checks, that the metric names match
BENCHMARK.json, and that the deterministic counters of the traced run repeat
exactly for the same seed. It makes no assertion on time.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))  # tm-loop generation imports exchase
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DETERMINISTIC = (
    "chase.triggers_considered",
    "hom.calls",
    "analysis.explore_nodes",
    "analysis.dedup_hits",
)


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--seconds", "1", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _units_of(spec: list) -> dict:
    return {m["name"]: m["unit"] for m in spec}


def test_every_workload_passes_its_output_checks():
    results = _bench("--seed", "3")
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    for name, result in results.items():
        assert result["correct"], name
        assert result["failed"] == 0 and result["attempted"] >= 1, name
        assert _units(result) == _units_of(SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values()), name


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counters_repeat_for_the_same_seed(workload):
    first = _bench("--workload", workload, "--seed", "7", "--trace", "1")
    second = _bench("--workload", workload, "--seed", "7", "--trace", "1")
    assert first["correct"] and second["correct"]
    assert _units(first) == _units_of(SPEC["per_layer"])
    for key in DETERMINISTIC:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


@pytest.mark.parametrize("workload", ["tc-dfr", "emp-ent", "tm-loop"])
def test_inputs_follow_the_seed(workload, tmp_path):
    texts = []
    for k, seed in enumerate((1, 1, 2)):
        work = tmp_path / str(k)
        work.mkdir()
        prepared = workloads.prepare(workload, seed, work, tiny=True)
        texts.append(Path(prepared.argv[1]).read_text())
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]
