import io
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from exchase import analysis, textio
from exchase.cli import main
from exchase.core import KnowledgeBaseError

from conftest import ALL_VARIANTS, CORPUS, small_kbs
from oracles import serialize_document


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_command_json(capsys):
    code, out = run_cli(
        capsys, "run", str(CORPUS / "ex1.erl"), "--variant", "r", "--max-steps", "100", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "run"
    assert report["verdict"] == "terminated_fair"
    assert report["steps"] == 1
    assert report["atoms"] == 3
    assert "stats" in report


def test_run_command_human_readable(capsys):
    code, out = run_cli(capsys, "run", str(CORPUS / "ex1.erl"), "--variant", "o", "--max-steps", "20")
    assert code == 0
    assert "budget_exhausted" in out
    assert "41" in out


def test_run_with_derivation_deltas(capsys):
    code, out = run_cli(
        capsys, "run", str(CORPUS / "ex1.erl"), "--variant", "r", "--derivation", "--json"
    )
    report = json.loads(out)
    assert len(report["derivation"]) == 1
    step = report["derivation"][0]
    assert step["rule"] == "ex1"
    assert len(step["added"]) == 2


def test_normalize_command(capsys):
    code, out = run_cli(capsys, "normalize", str(CORPUS / "rule12.erl"), "--proc", "1ad", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["fresh_predicates"] == [["X__r12", 3]]
    assert report["mapping"]["r12"] == ["r12.x", "r12.h1", "r12.h2"]
    assert "X__r12(X,Y,Z)" in report["erl"]


def test_normalize_sp_plain_output(capsys):
    code, out = run_cli(capsys, "normalize", str(CORPUS / "rule6.erl"), "--proc", "sp")
    assert code == 0
    assert out.count("->") == 3


def test_normalize_sp_rejects_skip_atomic(capsys):
    rule6 = str(CORPUS / "rule6.erl")
    error = run_cli_error(capsys, "normalize", rule6, "--proc", "sp", "--skip-atomic")
    assert "--skip-atomic" in error["error"]
    for proc in ("1ad", "2ad"):
        code, _ = run_cli(capsys, "normalize", rule6, "--proc", proc, "--skip-atomic")
        assert code == 0


def test_explore_command(capsys):
    code, out = run_cli(
        capsys, "explore", str(CORPUS / "ex1.erl"), "--variant", "r", "--json"
    )
    report = json.loads(out)
    assert report["verdict"] == "all_finite"
    assert report["nodes"] == 2
    code, out = run_cli(
        capsys, "explore", str(CORPUS / "ex1.erl"), "--variant", "so", "--json"
    )
    report = json.loads(out)
    assert report["verdict"] == "growth"
    assert len(report["witness"]) == 13


def test_entails_command(capsys):
    code, out = run_cli(
        capsys, "entails", str(CORPUS / "ex1.erl"), "--query-index", "0", "--variant", "r", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "yes"
    assert report["steps"] == 1  # R's one step makes the query hold; the budget is 200
    assert "witness" in report


def test_entails_reports_no_step_when_the_facts_entail_the_query(tmp_path, capsys):
    erl = tmp_path / "sym.erl"
    erl.write_text("p(a,b). p(b,a).\n? p(X,Y), p(Y,X).\n")
    code, out = run_cli(capsys, "entails", str(erl), "--json")
    assert code == 0
    report = json.loads(out)
    assert (report["verdict"], report["steps"]) == ("yes", 0)


def test_entails_reports_the_steps_of_a_fair_run_that_answers_no(tmp_path, capsys):
    erl = tmp_path / "tc.erl"
    erl.write_text("[tc] e(X,Y), e(Y,Z) -> e(X,Z).\ne(a,b). e(b,c). e(c,d).\n? e(d,X).\n")
    code, out = run_cli(capsys, "entails", str(erl), "--variant", "r", "--max-steps", "50", "--json")
    assert code == 0
    report = json.loads(out)
    code, out = run_cli(
        capsys, "run", str(erl), "--variant", "r", "--strategy", "datalog-first", "--max-steps", "50", "--json"
    )
    run = json.loads(out)
    assert run["verdict"] == "terminated_fair"
    assert (report["verdict"], report["steps"]) == ("no", run["steps"])
    assert report["steps"] == 3  # e(a,c), e(b,d), e(a,d), well below the budget of 50


def run_cli_error(capsys, *argv) -> dict:
    """Run a failing command: exit 2 and one JSON object on stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    error = json.loads(captured.err)
    assert sorted(error) == ["command", "error"]
    assert error["command"] == argv[0]
    return error


def test_entails_requires_query(tmp_path, capsys):
    erl = tmp_path / "noq.erl"
    erl.write_text("p(a,b).\n")
    error = run_cli_error(capsys, "entails", str(erl))
    assert "no queries" in error["error"]


def test_entails_query_index_out_of_range(capsys):
    error = run_cli_error(capsys, "entails", str(CORPUS / "ex1.erl"), "--query-index", "7")
    assert "out of range" in error["error"]


def test_unknown_variant_json_error(capsys):
    for command in ("run", "explore", "entails"):
        error = run_cli_error(capsys, command, str(CORPUS / "ex1.erl"), "--variant", "bogus")
        assert "bogus" in error["error"]


def test_unknown_strategy_json_error(capsys):
    error = run_cli_error(capsys, "run", str(CORPUS / "ex1.erl"), "--strategy", "nope")
    assert "nope" in error["error"]


def test_malformed_strategy_file_json_error(tmp_path, capsys):
    for kind, text in (
        ("phased", "[[[\"r1\"], "),
        ("scripted", "{not json"),
        ("phased", "[1, 2]"),
        ("scripted", "[{\"ex1\": 0}]"),
    ):
        path = tmp_path / ("%s.json" % kind)
        path.write_text(text)
        error = run_cli_error(
            capsys, "run", str(CORPUS / "t2f.erl"), "--strategy", "%s:%s" % (kind, path)
        )
        assert "malformed %s strategy file" % kind in error["error"]


@pytest.mark.parametrize(
    "script", ['"r1"', '{"r1": 0}', '[["r1", 0, 9]]'], ids=["string", "object", "triple"]
)
def test_scripted_strategy_file_that_is_no_list_of_steps_json_error(tmp_path, capsys, script):
    """A bare string is not read as one step per character, an object not
    as its keys, and a step with a third element is not cut short."""
    erl = tmp_path / "r1.erl"
    erl.write_text("[r1] p(X) -> q(X).\np(a).\n")
    path = tmp_path / "script.json"
    path.write_text(script)
    error = run_cli_error(capsys, "run", str(erl), "--strategy", "scripted:%s" % path)
    assert "malformed scripted strategy file" in error["error"]


def test_phased_strategy_file_with_a_bare_string_group_json_error(tmp_path, capsys):
    phased = tmp_path / "phases.json"
    phased.write_text(json.dumps([["r1", "exhaust"], ["r2", "exhaust"]]))
    error = run_cli_error(
        capsys, "run", str(CORPUS / "t2f.erl"), "--strategy", "phased:%s" % phased
    )
    assert "malformed phased strategy file" in error["error"]
    assert "'r1' is not a list of rule ids" in error["error"]


def test_strategy_error_json_error(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([["ex1", 5]]))  # ex1 has a single trigger
    error = run_cli_error(
        capsys, "run", str(CORPUS / "ex1.erl"), "--strategy", "scripted:%s" % script
    )
    assert "scripted step 1" in error["error"]


@pytest.mark.parametrize(
    "kind, steps", [("phased", [[["nope"], "exhaust"]]), ("scripted", [["nope", 0]])]
)
def test_strategy_naming_an_unknown_rule_json_error(tmp_path, capsys, kind, steps):
    path = tmp_path / ("%s.json" % kind)
    path.write_text(json.dumps(steps))
    error = run_cli_error(capsys, "run", str(CORPUS / "ex1.erl"), "--strategy", "%s:%s" % (kind, path))
    assert error["error"] == "strategy names rule(s) 'nope' that the knowledge base does not have"


def test_negative_scripted_index_json_error(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([["ex1", -1]]))
    error = run_cli_error(
        capsys, "run", str(CORPUS / "ex1.erl"), "--strategy", "scripted:%s" % script
    )
    assert "index -1" in error["error"]


def test_boolean_scripted_index_json_error(tmp_path, capsys):
    """A JSON `true` is not read as index 1, although the rule has a second
    applicable trigger."""
    erl = tmp_path / "two.erl"
    erl.write_text("[r1] p(X) -> q(X).\np(a).\np(b).\n")
    script = tmp_path / "script.json"
    script.write_text("[[\"r1\", true]]")
    error = run_cli_error(capsys, "run", str(erl), "--strategy", "scripted:%s" % script)
    assert "malformed scripted strategy file" in error["error"]
    assert "index True" in error["error"]


def _malformed_fixture_error(
    tmp_path, capsys, erl: str = "[g] p(X,Y) -> exists Z. p(X,Z).\np(a,b).\n", **fields
) -> dict:
    (tmp_path / "x.erl").write_text(erl)
    return _fixture_error(tmp_path, capsys, **fields)


def _fixture_error(tmp_path, capsys, **fields) -> dict:
    """The error of `classify` on one fixture, `x.json`, that names `x.erl`
    unless `fields` say otherwise; the caller writes the `.erl`."""
    fixture = {
        "id": "X",
        "erl": "x.erl",
        "budgets": {"max_depth": 5, "max_nodes": 100},
        "expect": [{"variant": "r", "mode": "forall", "verdict": "all_finite"}],
    }
    fixture.update(fields)
    (tmp_path / "x.json").write_text(json.dumps(fixture))
    return run_cli_error(capsys, "classify", "--fixtures", str(tmp_path))


def test_classify_phased_spec_without_pairs_json_error(tmp_path, capsys):
    error = _malformed_fixture_error(tmp_path, capsys, strategies=[{"phased": [1, 2]}])
    assert "malformed strategy spec" in error["error"]


def test_classify_scripted_spec_that_is_a_string_json_error(tmp_path, capsys):
    error = _malformed_fixture_error(tmp_path, capsys, strategies=[{"scripted": "g"}])
    assert "malformed strategy spec" in error["error"]


def test_classify_phased_spec_with_bad_mode_json_error(tmp_path, capsys):
    error = _malformed_fixture_error(tmp_path, capsys, strategies=[{"phased": [[["r1"], "twice"]]}])
    assert "twice" in error["error"]


def test_classify_phased_spec_with_a_bare_string_group_json_error(tmp_path, capsys):
    error = _malformed_fixture_error(tmp_path, capsys, strategies=[{"phased": [["g", "exhaust"]]}])
    assert "malformed strategy spec" in error["error"]
    assert "not a list of rule ids" in error["error"]


def test_classify_expectation_without_verdict_json_error(tmp_path, capsys):
    error = _malformed_fixture_error(tmp_path, capsys, expect=[{"variant": "r", "mode": "forall"}])
    assert "no verdict" in error["error"]


def test_classify_unknown_transform_json_error(tmp_path, capsys):
    error = _malformed_fixture_error(tmp_path, capsys, transform="3ad")
    assert "transform" in error["error"]


def test_classify_budgets_not_an_object_json_error(tmp_path, capsys):
    error = _malformed_fixture_error(tmp_path, capsys, budgets=[1])
    assert "budgets must be an object" in error["error"]


def test_classify_expect_not_a_list_json_error(tmp_path, capsys):
    error = _malformed_fixture_error(tmp_path, capsys, expect=5)
    assert "expect must be a list of objects" in error["error"]


def test_classify_expectation_not_an_object_json_error(tmp_path, capsys):
    error = _malformed_fixture_error(tmp_path, capsys, expect=[["r"]])
    assert "expect must be a list of objects" in error["error"]


def test_classify_budget_not_an_integer_json_error(tmp_path, capsys):
    error = _malformed_fixture_error(tmp_path, capsys, budgets={"max_depth": "7"})
    assert "budget max_depth must be an integer of at least 1" in error["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("explore", "ex1.erl", "--max-depth", "0"),
        ("explore", "ex1.erl", "--max-nodes", "-1"),
        ("tm", "tape", "--machine", "machines/halt1.tm", "--len", "0"),
        ("entails", "ex1.erl", "--query-index", "-1"),
        ("run", "ex1.erl", "--max-steps", "-5"),
        ("entails", "ex1.erl", "--max-steps", "-5"),
    ],
    ids=lambda argv: "%s%s=%s" % (argv[0], argv[-2], argv[-1]),
)
def test_number_out_of_range_json_error(capsys, argv):
    argv = [str(CORPUS / a) if a.endswith((".erl", ".tm")) else a for a in argv]
    error = run_cli_error(capsys, *argv)
    assert "%s must be at least" % argv[-2] in error["error"]
    assert argv[-1] in error["error"]


def test_unreadable_input_file_json_error(tmp_path, capsys):
    binary = tmp_path / "binary.erl"
    binary.write_bytes(b"\xff\xfe p(a).")
    error = run_cli_error(capsys, "run", str(binary))
    assert "utf-8" in error["error"]
    error = run_cli_error(capsys, "run", str(tmp_path))
    assert str(tmp_path) in error["error"]


def test_null_in_a_rule_json_error(tmp_path, capsys):
    erl = "[r] p(X,_n) -> q(X).\np(a,b).\n"
    (tmp_path / "null.erl").write_text(erl)
    error = run_cli_error(capsys, "run", str(tmp_path / "null.erl"))
    assert error["error"] == "1:9: nulls are not allowed in rules"
    error = _malformed_fixture_error(tmp_path, capsys, erl=erl)
    assert error["error"] == "%s: %s: 1:9: nulls are not allowed in rules" % (
        tmp_path / "x.json",
        tmp_path / "x.erl",
    )


def test_classify_error_of_a_fixture_variant_names_the_fixture(tmp_path, capsys):
    error = _malformed_fixture_error(
        tmp_path, capsys, expect=[{"variant": "zz", "mode": "forall", "verdict": "all_finite"}]
    )
    assert error["error"] == "%s: unknown chase tag 'zz'" % (tmp_path / "x.json")


def _strategy_fixture_error(tmp_path, capsys, strategy: dict) -> dict:
    """The error of `classify` on a fixture over a chain rule whose one
    expectation runs `strategy` under O."""
    return _malformed_fixture_error(
        tmp_path,
        capsys,
        erl="[r] e(X,Y) -> exists Z. e(Y,Z).\ne(a,b).\n",
        budgets={"max_steps": 5},
        expect=[{"variant": "o", "mode": "exists", "verdict": "none_found"}],
        strategies=[strategy],
    )


def test_classify_strategy_of_an_unknown_rule_names_the_fixture(tmp_path, capsys):
    error = _strategy_fixture_error(tmp_path, capsys, {"phased": [[["zz"], "once"]]})
    assert error["error"] == (
        "%s: malformed strategy spec {'phased': [[['zz'], 'once']]}: "
        "strategy names rule(s) 'zz' that the knowledge base does not have" % (tmp_path / "x.json")
    )


def test_classify_scripted_step_that_cannot_be_taken_names_the_fixture(tmp_path, capsys):
    error = _strategy_fixture_error(tmp_path, capsys, {"scripted": ["r", ["r", 3]]})
    assert error["error"] == "%s: scripted step 2: rule 'r' has 1 applicable trigger(s), wanted index 3" % (
        tmp_path / "x.json"
    )


def test_classify_arity_error_names_the_fixture_and_its_erl(tmp_path, capsys):
    error = _malformed_fixture_error(tmp_path, capsys, erl="[r] p(X) -> q(X).\np(a,b).\n")
    assert error["error"] == "%s: %s: predicate 'p' used with arity 2 but previously 1 (line 2)" % (
        tmp_path / "x.json",
        tmp_path / "x.erl",
    )


def test_classify_undecodable_erl_names_the_fixture_and_its_erl(tmp_path, capsys):
    (tmp_path / "x.erl").write_bytes(b"\xff\xfe p(a).")
    error = _fixture_error(tmp_path, capsys)
    prefix = "%s: %s: " % (tmp_path / "x.json", tmp_path / "x.erl")
    assert error["error"].startswith(prefix)
    assert "'utf-8' codec can't decode byte 0xff" in error["error"]


def test_classify_undecodable_fixture_names_it(tmp_path, capsys):
    (tmp_path / "x.json").write_bytes(b"\xff\xfe{}")
    error = run_cli_error(capsys, "classify", "--fixtures", str(tmp_path))
    assert error["error"].startswith("%s: 'utf-8' codec can't decode byte 0xff" % (tmp_path / "x.json"))


def test_classify_missing_erl_names_the_fixture_and_its_erl(tmp_path, capsys):
    error = _fixture_error(tmp_path, capsys, erl="nope.erl")
    prefix = "%s: %s: " % (tmp_path / "x.json", tmp_path / "nope.erl")
    assert error["error"].startswith(prefix)
    assert "No such file or directory" in error["error"]


def test_normalize_fresh_name_clash_json_error(tmp_path, capsys):
    erl = tmp_path / "clash.erl"
    erl.write_text("[a.b] p(X) -> exists Z. r(Z), s(X).\n[a_b] q(X) -> exists Z. r(Z), t(X).\n")
    error = run_cli_error(capsys, "normalize", str(erl), "--proc", "1ad")
    assert "X__a_b" in error["error"]


# A rule whose 1ad fresh predicate is X__r1, and whose sp pieces get the
# ids r1.p1 and r1.p2.
_TWO_PIECES = "[r1] p(X) -> exists Y,Z. q(X,Y), s(X,Z).\n"


@pytest.mark.parametrize("transform", ["1ad", "2ad"])
@pytest.mark.parametrize("fact", ["X__r1(a,b).", "X__r1(a)."], ids=["same-arity", "other-arity"])
def test_classify_fresh_predicate_of_a_fact_json_error(tmp_path, capsys, transform, fact):
    erl = _TWO_PIECES + "p(a).\n" + fact + "\n"
    error = _malformed_fixture_error(tmp_path, capsys, erl=erl, transform=transform)
    assert "fresh predicate 'X__r1' clashes" in error["error"]


def test_classify_fresh_predicate_of_a_query_json_error(tmp_path, capsys):
    erl = _TWO_PIECES + "p(a).\n? X__r1(A,B).\n"
    error = _malformed_fixture_error(tmp_path, capsys, erl=erl, transform="1ad")
    assert "fresh predicate 'X__r1' clashes" in error["error"]


def test_classify_generated_rule_id_of_an_input_rule_json_error(tmp_path, capsys):
    erl = _TWO_PIECES + "[r1.p1] p(X) -> t(X).\np(a).\n"
    error = _malformed_fixture_error(tmp_path, capsys, erl=erl, transform="sp")
    assert "'r1.p1'" in error["error"]


def test_normalize_generated_name_clash_json_error(tmp_path, capsys):
    erl = tmp_path / "clash.erl"
    erl.write_text(_TWO_PIECES + "[r1.p1] p(X) -> t(X).\n")
    error = run_cli_error(capsys, "normalize", str(erl), "--proc", "sp")
    assert "'r1.p1'" in error["error"]
    erl.write_text(_TWO_PIECES + "X__r1(a,b).\n")
    for proc in ("1ad", "2ad"):
        error = run_cli_error(capsys, "normalize", str(erl), "--proc", proc)
        assert "X__r1" in error["error"]
    code, out = run_cli(capsys, "normalize", str(erl), "--proc", "sp")
    assert code == 0 and out.count("->") == 2


def test_knowledge_base_error_json_error(monkeypatch, capsys):
    def clash(fixture_dir):
        raise KnowledgeBaseError("duplicate rule ids: r")

    monkeypatch.setattr(analysis, "classify", clash)
    error = run_cli_error(capsys, "classify", "--fixtures", str(CORPUS / "fixtures"))
    assert error["error"] == "duplicate rule ids: r"


def test_classify_command_passes_corpus(capsys):
    code, out = run_cli(capsys, "classify", "--fixtures", str(CORPUS / "fixtures"), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert all(row["pass"] for row in report["rows"])


def test_classify_command_exit_1_on_mismatch(tmp_path, capsys):
    (tmp_path / "bad.erl").write_text("[g] p(X,Y) -> exists Z. p(X,Z).\np(a,b).\n")
    (tmp_path / "bad.json").write_text(
        json.dumps(
            {
                "id": "BAD",
                "erl": "bad.erl",
                "budgets": {"max_depth": 5, "max_nodes": 100},
                "expect": [{"variant": "o", "mode": "forall", "verdict": "all_finite"}],
            }
        )
    )
    code, out = run_cli(capsys, "classify", "--fixtures", str(tmp_path))
    assert code == 1
    assert "FAIL" in out


def test_tm_encode_and_tape(tmp_path, capsys):
    machine = CORPUS / "machines" / "halt1.tm"
    code, out = run_cli(capsys, "tm", "encode", "--machine", str(machine))
    assert code == 0
    assert "w_chain" in out and "m_extend" in out and "brk(b)." in out
    code, out = run_cli(capsys, "tm", "tape", "--machine", str(machine), "--len", "2")
    assert code == 0
    assert out.count(".") >= 7
    # the emitted documents feed back into the other commands
    erl = tmp_path / "tape.erl"
    erl.write_text(out)
    code, out = run_cli(capsys, "run", str(erl), "--variant", "r", "--json")
    assert code == 0


def test_tm_state_that_is_no_identifier_json_error(tmp_path, capsys):
    """A state name becomes part of a predicate and of rule ids, so one that
    the `.erl` format cannot read back is rejected."""
    machine = tmp_path / "dash.tm"
    machine.write_text("initial: q-0\naccept: qa\nreject: qr\nq-0 1 -> qa 1 R\nq-0 _ -> qa _ R\n")
    error = run_cli_error(capsys, "tm", "encode", "--machine", str(machine))
    assert "'q-0'" in error["error"]


_MACHINE = str(CORPUS / "machines" / "halt1.tm")
# A command line per command that writes --output, before the flag.
_OUTPUT_COMMANDS = {
    "run": ["run", str(CORPUS / "ex1.erl"), "--variant", "r"],
    "normalize": ["normalize", str(CORPUS / "rule12.erl"), "--proc", "1ad"],
    "tm": ["tm", "encode", "--machine", _MACHINE],
}


@pytest.mark.parametrize("command", sorted(_OUTPUT_COMMANDS))
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_output_into_a_missing_directory_prints_nothing(tmp_path, capsys, command, as_json):
    """The output file is written before anything is printed, so a failed
    write gives the JSON error alone."""
    target = tmp_path / "missing" / "out.erl"
    argv = [*_OUTPUT_COMMANDS[command], "--output", str(target)] + (["--json"] if as_json else [])
    error = run_cli_error(capsys, *argv)
    assert str(target) in error["error"]


def test_run_output_holds_the_result_fact_base(tmp_path, capsys):
    target = tmp_path / "result.erl"
    code, out = run_cli(capsys, *_OUTPUT_COMMANDS["run"], "--output", str(target), "--json")
    assert code == 0
    result = textio.parse_document(target.read_text())
    assert result.rules == []
    assert len(result.facts) == json.loads(out)["atoms"] == 3
    assert textio.parse_document((CORPUS / "ex1.erl").read_text()).facts[0] in result.facts


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_normalize_output_holds_the_rules_and_their_sidecar(tmp_path, capsys, as_json):
    target = tmp_path / "rule12.1ad.erl"
    argv = [*_OUTPUT_COMMANDS["normalize"], "--output", str(target)] + (["--json"] if as_json else [])
    code, out = run_cli(capsys, *argv)
    assert code == 0
    sidecar = json.loads(Path(str(target) + ".json").read_text())
    if as_json:
        report = json.loads(out)
        assert target.read_text() == report["erl"]
        assert sidecar == {k: report[k] for k in ("fresh_predicates", "mapping")}
    else:
        assert target.read_text() == out
        assert sidecar["fresh_predicates"] == [["X__r12", 3]]


def test_normalize_output_is_removed_when_its_sidecar_cannot_be_written(tmp_path, capsys):
    target = tmp_path / "rules.erl"
    (tmp_path / "rules.erl.json").mkdir()
    error = run_cli_error(capsys, *_OUTPUT_COMMANDS["normalize"], "--output", str(target))
    assert "rules.erl.json" in error["error"]
    assert not target.exists()


@pytest.mark.parametrize("action", ["encode", "tape"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_tm_output_holds_the_printed_text(tmp_path, capsys, action, as_json):
    target = tmp_path / "tm.erl"
    argv = ["tm", action, "--machine", _MACHINE, "--output", str(target)]
    code, out = run_cli(capsys, *argv, *(["--json"] if as_json else []))
    assert code == 0
    assert target.read_text() == (json.loads(out)["erl"] if as_json else out)


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing file argument
    assert exc.value.code == 2


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.erl"
    bad.write_text("p(a,,b).")
    code = main(["run", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_reports_byte_stable(capsys):
    argv = ["run", str(CORPUS / "t2f.erl"), "--variant", "dfr", "--strategy", "datalog-first",
            "--max-steps", "20", "--derivation", "--json"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert (code1, out1) == (code2, out2)
    argv = ["classify", "--fixtures", str(CORPUS / "fixtures"), "--json"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert (code1, out1) == (code2, out2)


def test_console_entry_point_runs():
    exe = shutil.which("exchase")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "run", str(CORPUS / "ex1.erl"), "--json"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "terminated_fair"


def test_phased_strategy_file(tmp_path, capsys):
    phased = tmp_path / "phases.json"
    phased.write_text(json.dumps([[["r3", "r4", "r5"], "exhaust"], [["r2"], "exhaust"], [["r1"], "exhaust"]]))
    code, out = run_cli(
        capsys, "run", str(CORPUS / "t2f.erl"), "--variant", "r",
        "--strategy", "phased:%s" % phased, "--json",
    )
    report = json.loads(out)
    assert report["verdict"] == "terminated_fair"
    assert report["atoms"] == 5


def test_reports_byte_stable_across_processes():
    """Hash-seed randomization must not leak into reports."""
    import os
    import subprocess
    import sys

    argv = [
        sys.executable, "-m", "exchase.cli",
        "entails", str(CORPUS / "ex1.erl"), "--variant", "r", "--json",
    ]
    outputs = set()
    for seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_every_command_reads_and_writes_utf8_whatever_the_locale(tmp_path):
    """No file is opened in the locale's encoding: every command exits 0
    with EncodingWarning made an error."""
    import os
    import exchase

    src = str(Path(exchase.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    ex1, rule12 = str(CORPUS / "ex1.erl"), str(CORPUS / "rule12.erl")
    commands = [
        ["run", ex1, "--output", str(tmp_path / "run.erl")],
        ["normalize", rule12, "--proc", "1ad", "--output", str(tmp_path / "norm.erl")],
        ["explore", ex1, "--max-depth", "3"],
        ["entails", ex1],
        ["classify", "--fixtures", str(CORPUS / "fixtures")],
        ["tm", "tape", "--machine", _MACHINE, "--output", str(tmp_path / "tape.erl")],
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "exchase.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, (argv[0], proc.stderr)


def test_tm_encode_output_feeds_run(tmp_path, capsys):
    machine = CORPUS / "machines" / "halt1.tm"
    code, out = run_cli(capsys, "tm", "encode", "--machine", str(machine))
    assert code == 0
    erl = tmp_path / "encoded.erl"
    erl.write_text(out)
    code, out = run_cli(
        capsys, "run", str(erl), "--variant", "dfr", "--strategy", "datalog-first",
        "--max-steps", "2000", "--json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "terminated_fair"


def test_run_facts_only_file(tmp_path, capsys):
    erl = tmp_path / "facts.erl"
    erl.write_text("p(a,b).\nq(a).\n")
    code, out = run_cli(capsys, "run", str(erl), "--json")
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] == "terminated_fair"
    assert report["steps"] == 0
    assert report["atoms"] == 2


def test_run_stats_keys_same_with_and_without_rules(tmp_path, capsys):
    facts = tmp_path / "facts.erl"
    facts.write_text("p(a,b).\n")
    rules = tmp_path / "rules.erl"
    rules.write_text("[g] p(X,Y) -> q(X).\np(a,b).\n")
    keys = []
    for erl in (facts, rules):
        code, out = run_cli(capsys, "run", str(erl), "--json")
        assert code == 0
        keys.append(list(json.loads(out)["stats"]))
    assert keys[0] == keys[1] == ["hom_calls", "steps", "triggers_considered"]


def test_explore_witness_stable_across_processes():
    import os
    import subprocess
    import sys

    argv = [
        sys.executable, "-m", "exchase.cli",
        "explore", str(CORPUS / "t2a.erl"), "--variant", "o", "--json",
    ]
    outputs = set()
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# Run in a fresh interpreter without `site`, whose start-up imports no
# `exchase` module and no `hashlib`: import `exchase.cli`, call `main` on the
# argv given (none: import only) and print the `exchase` modules then loaded,
# whether `hashlib` is, and the exit code.
_MODULES_LOADED = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
assert "hashlib" not in sys.modules
from exchase.cli import main
argv = json.loads(sys.argv[2])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
modules = sorted(m for m in sys.modules if m.split(".")[0] == "exchase")
print(json.dumps([modules, "hashlib" in sys.modules, code]))
"""

_BASE_MODULES = ["exchase", "exchase.chase", "exchase.cli", "exchase.core", "exchase.textio"]
_ANALYSIS_MODULES = sorted(_BASE_MODULES + ["exchase.analysis", "exchase.hom"])


def _modules_loaded(*argv: str) -> tuple[list[str], bool]:
    import exchase

    src = str(Path(exchase.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _MODULES_LOADED, src, json.dumps(argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    modules, hashlib_loaded, code = json.loads(proc.stdout)
    assert code == (0 if argv else None)
    return modules, hashlib_loaded


def test_a_command_loads_only_the_modules_it_runs(tmp_path):
    """`import exchase.cli` loads `core`, `chase` and `textio`; each command
    adds the modules it runs, and `hashlib` only once a null is minted."""
    datalog = tmp_path / "tc.erl"
    datalog.write_text("[t] e(X,Y), e(Y,Z) -> e(X,Z).\ne(a,b).\ne(b,c).\ne(c,d).\n")
    ex1, rule12 = str(CORPUS / "ex1.erl"), str(CORPUS / "rule12.erl")
    cases = [
        ((), _BASE_MODULES, False),
        (("run", str(datalog), "--variant", "dfr"), _BASE_MODULES, False),
        # E's fold runs on this file, and its rule mints nulls.
        (("run", ex1, "--variant", "e"), sorted(_BASE_MODULES + ["exchase.hom"]), True),
        (("entails", ex1), _ANALYSIS_MODULES, True),
        (("explore", ex1, "--max-depth", "3"), _ANALYSIS_MODULES, True),
        (
            ("classify", "--fixtures", str(CORPUS / "fixtures")),
            sorted(_ANALYSIS_MODULES + ["exchase.normalize"]),
            True,
        ),
        (("normalize", rule12, "--proc", "1ad"), sorted(_BASE_MODULES + ["exchase.normalize"]), False),
        (("tm", "tape", "--machine", _MACHINE), sorted(_BASE_MODULES + ["exchase.tmgen"]), False),
    ]
    for argv, modules, hashlib_loaded in cases:
        assert _modules_loaded(*argv) == (modules, hashlib_loaded), argv


def test_normalize_choices_are_the_procedures():
    """The `--proc` choices, spelt out in `cli` so that building its parser
    does not load `normalize`, are the procedures' names in their order."""
    from exchase import cli, normalize

    assert cli._PROCEDURES == tuple(normalize.PROCEDURES)


def _parse_texts(parse, argv) -> tuple:
    """(exit code, stdout, stderr) of `parse(argv)`, which argparse ends."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as stop:
        parse(argv)
    return stop.value.code, out.getvalue(), err.getvalue()


# Per command: its help, an argument list that lacks a required argument,
# and one with an unknown option.
_USAGE_CASES = {
    "run": (["run", "-h"], ["run"], ["run", "f.erl", "--bogus"]),
    "normalize": (
        ["normalize", "-h"],
        ["normalize", "f.erl"],
        ["normalize", "f.erl", "--proc", "sp", "--bogus"],
    ),
    "explore": (["explore", "-h"], ["explore"], ["explore", "f.erl", "--bogus"]),
    "entails": (["entails", "-h"], ["entails"], ["entails", "f.erl", "--bogus"]),
    "classify": (["classify", "-h"], ["classify"], ["classify", "--fixtures", "d", "--bogus"]),
    "tm": (["tm", "-h"], ["tm", "encode"], ["tm", "encode", "--machine", "m.tm", "--bogus"]),
}


def test_usage_texts_are_those_of_the_whole_parser():
    """`main` builds the subparser of the command it runs alone, and every
    usage, help and error text it prints is the whole parser's."""
    from exchase import cli

    whole = cli.build_parser()
    assert list(whole._subparsers._group_actions[0].choices) == list(_USAGE_CASES)
    for command in _USAGE_CASES:
        (action,) = cli.build_parser(command)._subparsers._group_actions
        assert list(action.choices) == [command]
    cases = [[], ["-h"], ["bogus"], ["tm"]] + [argv for argvs in _USAGE_CASES.values() for argv in argvs]
    for argv in cases:
        code, out, err = _parse_texts(whole.parse_args, argv)
        assert code == (0 if "-h" in argv else 2), argv
        assert out or err, argv
        assert _parse_texts(main, argv) == (code, out, err), argv
    _, _, err = _parse_texts(main, ["run", "f.erl", "--bogus"])
    assert err.startswith("usage: exchase [-h] {run,normalize,explore,entails,classify,tm} ...\n")


_BUDGETS = {"max_depth": 4, "max_nodes": 50, "max_steps": 3}
# Ways to break a fixture, by name: fields that replace its own, or a JSON
# value that is not an object. A broken budget keeps the others small, so
# that a check that lets it through does not run for long.
_FIXTURE_FLAWS = {
    "transform-unknown": {"transform": "3ad"},
    "transform-list": {"transform": ["sp"]},
    "budgets-list": {"budgets": [1]},
    "max_depth-string": {"budgets": {**_BUDGETS, "max_depth": "7"}},
    "max_nodes-zero": {"budgets": {**_BUDGETS, "max_nodes": 0}},
    "max_steps-negative": {"budgets": {**_BUDGETS, "max_steps": -1}},
    "deepening-string": {"budgets": {**_BUDGETS, "deepening": "no"}},
    "expect-number": {"expect": 5},
    "expect-entry-list": {"expect": [["r"]]},
    "variant-number": {"expect": [{"variant": 3, "mode": "forall", "verdict": "all_finite"}]},
    "erl-list": {"erl": ["x.erl"]},
    "strategies-number": {"strategies": 5},
    "fixture-number": 5,
}
# One property run per command, and per way to break a fixture, so that each
# check is drawn many times.
_CASES = [
    *(pytest.param(c, None, id=c) for c in ("run", "explore", "entails", "normalize", "tm", "classify")),
    *(pytest.param("classify", flaw, id="classify-" + name) for name, flaw in _FIXTURE_FLAWS.items()),
]


def _around(least: int, most: int):
    """A number below `least` about as often as one in [least, most]."""
    return st.one_of(st.integers(least - 3, least - 1), st.integers(least, most))


@st.composite
def cli_calls(draw, command: str, flaw, erl: Path, fixtures: Path):
    """A command line over `erl` (or, for classify, a fixture directory over
    it with the given flaw), and whether one of its numbers is out of range
    or its fixture is broken."""
    variant = ["--variant", draw(st.sampled_from(ALL_VARIANTS))]
    json_flag = ["--json"] if draw(st.booleans()) else []
    if command == "run":
        steps = draw(_around(0, 6))
        strategy = draw(st.sampled_from(("fifo", "datalog-first")))
        argv = [str(erl), *variant, "--strategy", strategy, "--max-steps", str(steps)]
        return ["run", *argv, *json_flag], steps < 0
    if command == "explore":
        depth, nodes = draw(_around(1, 5)), draw(_around(1, 60))
        argv = [str(erl), *variant, "--max-depth", str(depth), "--max-nodes", str(nodes)]
        return ["explore", *argv, *json_flag], depth < 1 or nodes < 1
    if command == "entails":
        index, steps = draw(_around(0, 1)), draw(_around(0, 6))
        argv = [str(erl), *variant, "--query-index", str(index), "--max-steps", str(steps)]
        return ["entails", *argv, *json_flag], index < 0 or steps < 0
    if command == "normalize":
        proc = draw(st.sampled_from(("sp", "1ad", "2ad")))
        skip = ["--skip-atomic"] if draw(st.booleans()) else []
        return ["normalize", str(erl), "--proc", proc, *skip, *json_flag], proc == "sp" and bool(skip)
    if command == "tm":
        length = draw(_around(1, 3))
        machine = str(CORPUS / "machines" / "halt1.tm")
        return ["tm", "tape", "--machine", machine, "--len", str(length), *json_flag], length < 1
    fixture = {
        "id": "G",
        "erl": erl.name,
        "budgets": _BUDGETS,
        "expect": [
            {"variant": variant[1], "mode": draw(st.sampled_from(("forall", "exists"))), "verdict": "x"}
        ],
    }
    if isinstance(flaw, dict):
        fixture.update(flaw)
    elif flaw is not None:
        fixture = flaw
    (fixtures / "g.json").write_text(json.dumps(fixture))
    return ["classify", "--fixtures", str(fixtures), *json_flag], flaw is not None


@pytest.mark.parametrize("command,flaw", _CASES)
@settings(max_examples=40, deadline=None, database=None)
@given(kb=small_kbs(), data=st.data())
def test_main_never_raises(command, flaw, kb, data):
    """On generated documents and flags, `main` exits 0 or 1, or 2 with one
    JSON error on stderr and nothing on stdout; it exits 2 whenever a
    number is out of range or the fixture is broken."""
    queries = data.draw(st.lists(st.sampled_from([r.body for r in kb.rules]), min_size=1, max_size=2))
    doc = textio.SourceDocument(rules=list(kb.rules), facts=list(kb.facts), queries=queries)
    with tempfile.TemporaryDirectory() as tmp:
        erl = Path(tmp) / "g.erl"
        erl.write_text(serialize_document(doc))
        argv, bad = data.draw(cli_calls(command, flaw, erl, Path(tmp)))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if bad:
        assert code == 2
    if code == 2:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())
        assert sorted(error) == ["command", "error"] and error["command"] == argv[0]
    else:
        assert err.getvalue() == ""
