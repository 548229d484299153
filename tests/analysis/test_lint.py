"""The lint rules: every rule fires exactly once on its fixture, never on
clean programs, and the CLI exits nonzero exactly when it should.

The file-based fixtures live in ``tests/analysis/corpus``: one defective
``rprNNN_*.qw`` per file-expressible rule (the file name encodes the code
expected to fire), plus a ``clean`` corpus that must stay diagnostic-free.
``RPR002`` (unused parameter) and ``RPR008`` (zero-occurrence derivative)
depend on caller intent — the declared parameter vector / differentiation
targets — so they are exercised through the :func:`lint_program` API.
"""

import math
import re
from pathlib import Path

import pytest

from repro.analysis.__main__ import main as lint_main
from repro.analysis.diagnostics import Severity
from repro.analysis.lint import all_rules, lint_program, rule
from repro.lang.ast import Init, Skip, Sum
from repro.lang.builder import case_on_qubit, rx, ry, seq
from repro.lang.parameters import Parameter
from repro.lang.parser import parse_program

CORPUS = Path(__file__).parent / "corpus"
CLEAN_FILES = sorted((CORPUS / "clean").glob("*.qw"))
DEFECTIVE_FILES = sorted(
    path
    for path in (CORPUS / "defective").glob("*.qw")
    if not path.name.startswith("rpr000")
)

THETA = Parameter("theta")
PHI = Parameter("phi")


def _expected_code(path: Path) -> str:
    match = re.match(r"rpr(\d{3})_", path.name)
    assert match, f"defective fixture {path.name} must be named rprNNN_*.qw"
    return f"RPR{match.group(1)}"


class TestRegistry:
    def test_all_rules_sorted_by_code(self):
        codes = [registered.code for registered in all_rules()]
        assert codes == sorted(codes)
        assert {"RPR001", "RPR004", "RPR005", "RPR006", "RPR007"} <= set(codes)

    def test_duplicate_registration_rejected(self):
        existing = all_rules()[0]
        with pytest.raises(ValueError, match="duplicate"):
            rule(existing.code, "imposter", Severity.INFO)(lambda ctx: None)

    def test_unknown_rule_code_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            lint_program(Skip(("q1",)), rules=["RPR999"])

    def test_rule_subset_runs_only_those(self):
        program = parse_program(
            (CORPUS / "defective" / "rpr006_adjacent_inverse.qw").read_text()
        )
        bag = lint_program(program, rules=["RPR001"])
        assert not bag


class TestCorpus:
    @pytest.mark.parametrize("path", CLEAN_FILES, ids=lambda p: p.name)
    def test_clean_corpus_is_diagnostic_free(self, path):
        program = parse_program(path.read_text())
        bag = lint_program(program, source=path.name)
        assert not bag, bag.format()

    @pytest.mark.parametrize("path", DEFECTIVE_FILES, ids=lambda p: p.name)
    def test_each_defective_fixture_fires_its_rule_exactly_once(self, path):
        code = _expected_code(path)
        program = parse_program(path.read_text())
        bag = lint_program(program, source=path.name)
        assert len(bag) == 1, bag.format()
        assert bag[0].code == code
        registered = {r.code: r for r in all_rules()}[code]
        assert bag[0].severity == registered.severity


class TestApiOnlyRules:
    def test_rpr002_unused_parameter_fires_exactly_once(self):
        program = rx(THETA, "q1")
        bag = lint_program(program, parameters=[THETA, PHI])
        assert [d.code for d in bag] == ["RPR002"]
        assert "'phi'" in bag[0].message

    def test_rpr002_silent_without_declared_parameters(self):
        assert not lint_program(rx(THETA, "q1"))

    def test_rpr008_zero_occurrence_derivative_fires_exactly_once(self):
        program = rx(THETA, "q1")
        bag = lint_program(program, differentiating=[PHI])
        assert [d.code for d in bag] == ["RPR008"]

    def test_rpr008_silent_when_the_parameter_occurs(self):
        assert not lint_program(rx(THETA, "q1"), differentiating=[THETA])


class TestRuleEdges:
    def test_rpr004_respects_gates_between_init_and_case(self):
        # A gate on the measured wire forgets the |0> fact: no finding.
        program = seq(
            [
                Init("q1"),
                rx(0.3, "q1"),
                case_on_qubit("q1", {0: Skip(("q1",)), 1: ry(0.2, "q1")}),
            ]
        )
        assert not lint_program(program, rules=["RPR004"])

    def test_rpr006_requires_matching_wires(self):
        program = seq([rx(0.5, "q1"), rx(-0.5, "q2")])
        assert not lint_program(program, rules=["RPR006"])

    def test_rpr006_modular_arithmetic_wraps_at_4pi(self):
        program = seq([rx(3.0 * math.pi, "q1"), rx(math.pi, "q1")])
        assert [d.code for d in lint_program(program, rules=["RPR006"])] == ["RPR006"]

    def test_rpr007_not_confused_with_rpr006(self):
        # 2π total is −I (RPR007), not the identity (RPR006).
        program = seq([rx(math.pi, "q1"), rx(math.pi, "q1")])
        assert not lint_program(program, rules=["RPR006"])
        assert [d.code for d in lint_program(program, rules=["RPR007"])] == ["RPR007"]

    def test_symbolic_angles_never_fire_cancellation_rules(self):
        program = seq([rx(THETA, "q1"), rx(THETA, "q1")])
        assert not lint_program(program, rules=["RPR006", "RPR007"])

    def test_additive_summands_lint_independently(self):
        cancelling = seq([rx(0.5, "q1"), rx(-0.5, "q1")])
        program = Sum(cancelling, ry(0.3, "q1"))
        bag = lint_program(program, rules=["RPR006"])
        assert [d.code for d in bag] == ["RPR006"]
        assert bag[0].path == ("summand[0]", "statement[0]")

    def test_paths_index_the_statements_of_a_flat_sequence(self):
        program = seq(
            [Init("q1"), rx(0.2, "q2"), case_on_qubit("q1", {0: Skip(("q1",)), 1: ry(0.2, "q1")})]
        )
        bag = lint_program(program, rules=["RPR004"])
        assert [d.path for d in bag] == [("statement[2]", "branch[1]")]


class TestCli:
    def test_clean_corpus_exits_zero(self, capsys):
        assert lint_main([str(CORPUS / "clean")]) == 0
        summary = capsys.readouterr().err
        assert "0 error(s), 0 warning(s)" in summary

    def test_defective_corpus_exits_nonzero(self, capsys):
        assert lint_main([str(CORPUS / "defective")]) == 1
        out = capsys.readouterr().out
        # Every fixture (parse failure included) reported one finding.
        assert len(out.strip().splitlines()) == len(DEFECTIVE_FILES) + 1

    def test_parse_failure_reports_rpr000_not_a_traceback(self, capsys):
        code = lint_main([str(CORPUS / "defective" / "rpr000_parse_error.qw")])
        assert code == 1
        out = capsys.readouterr().out
        assert "RPR000" in out and "parse error" in out

    def test_strict_escalates_warnings(self, capsys):
        warning_only = str(CORPUS / "defective" / "rpr001_dead_wire.qw")
        assert lint_main([warning_only]) == 0
        capsys.readouterr()
        assert lint_main(["--strict", warning_only]) == 1

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for registered in all_rules():
            assert registered.code in out

    def test_missing_file_is_an_error_finding(self, capsys, tmp_path):
        assert lint_main([str(tmp_path / "nope.qw")]) == 1
        assert "RPR000" in capsys.readouterr().out

    def test_empty_directory_fails(self, capsys, tmp_path):
        assert lint_main([str(tmp_path)]) == 1
