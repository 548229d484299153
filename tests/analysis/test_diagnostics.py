"""The diagnostics vocabulary: severities, findings, and the bag."""

import pytest

from repro.analysis.diagnostics import Diagnostic, DiagnosticBag, Severity
from repro.lang.builder import rx


class TestSeverity:
    def test_ordering_matches_badness(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_labels(self):
        assert Severity.INFO.label == "info"
        assert Severity.WARNING.label == "warning"
        assert Severity.ERROR.label == "error"


class TestDiagnostic:
    def test_format_minimal(self):
        d = Diagnostic(Severity.WARNING, "RPR001", "dead wire")
        assert d.format() == "warning RPR001: dead wire"

    def test_format_with_source_and_path(self):
        d = Diagnostic(
            Severity.ERROR,
            "RPR005",
            "saturating bound",
            path=("statement[0]", "branch[1]"),
            source="prog.qw",
        )
        assert d.format() == (
            "prog.qw: error RPR005: saturating bound (at statement[0]/branch[1])"
        )

    def test_node_does_not_participate_in_equality(self):
        a = Diagnostic(Severity.INFO, "RPR000", "x", node=rx(0.1, "q1"))
        b = Diagnostic(Severity.INFO, "RPR000", "x", node=rx(0.2, "q2"))
        assert a == b

    def test_frozen(self):
        d = Diagnostic(Severity.INFO, "RPR000", "x")
        with pytest.raises(AttributeError):
            d.message = "y"


class TestDiagnosticBag:
    def test_empty_bag(self):
        bag = DiagnosticBag()
        assert not bag
        assert len(bag) == 0
        assert not bag.has_errors
        assert bag.max_severity is None
        assert bag.format() == ""

    def test_report_appends_and_returns(self):
        bag = DiagnosticBag()
        d = bag.report(Severity.WARNING, "RPR001", "dead wire")
        assert list(bag) == [d]
        assert bag[0] is d
        assert bag.max_severity is Severity.WARNING
        assert not bag.has_errors

    def test_error_queries(self):
        bag = DiagnosticBag()
        bag.report(Severity.INFO, "RPR000", "note")
        bag.report(Severity.WARNING, "RPR001", "warn")
        bag.report(Severity.ERROR, "RPR005", "boom")
        assert bag.has_errors
        assert bag.max_severity is Severity.ERROR
        assert [d.code for d in bag.errors] == ["RPR005"]
        assert [d.code for d in bag.warnings] == ["RPR001"]

    def test_by_code_and_extend(self):
        bag = DiagnosticBag()
        bag.report(Severity.WARNING, "RPR001", "one")
        other = DiagnosticBag()
        other.report(Severity.WARNING, "RPR001", "two")
        other.report(Severity.WARNING, "RPR003", "three")
        bag.extend(other)
        assert len(bag) == 3
        assert [d.message for d in bag.by_code("RPR001")] == ["one", "two"]

    def test_format_one_line_per_finding(self):
        bag = DiagnosticBag()
        bag.report(Severity.WARNING, "RPR001", "a")
        bag.report(Severity.ERROR, "RPR005", "b")
        assert bag.format().splitlines() == [
            "warning RPR001: a",
            "error RPR005: b",
        ]
