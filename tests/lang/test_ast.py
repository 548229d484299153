"""Unit tests for the program AST (construction, qVar, parameters, equality)."""

import pickle

import pytest
from hypothesis import given, settings

from repro.additive.compile import canonical_abort
from repro.additive.essential_abort import essentially_aborts
from repro.errors import WellFormednessError
from repro.lang.ast import (
    Abort,
    Case,
    Init,
    Seq,
    Skip,
    Sum,
    UnitaryApp,
    While,
    _interned_abort,
    abort_over,
)
from repro.lang.builder import rx, ry, rz, rxx, seq
from repro.lang.gates import Rotation, hadamard
from repro.lang.parameters import Parameter
from repro.linalg.measurement import computational_measurement

from tests.conftest import program_strategy

THETA = Parameter("theta")
PHI = Parameter("phi")


class TestAtomicStatements:
    def test_abort_skip_qvars(self):
        assert Abort(["q1", "q2"]).qvars() == {"q1", "q2"}
        assert Skip(["q1"]).qvars() == {"q1"}

    def test_single_name_coercion(self):
        assert Skip("q1").qubits == ("q1",)

    def test_init_qvar(self):
        assert Init("q3").qvars() == {"q3"}

    def test_init_requires_name(self):
        with pytest.raises(WellFormednessError):
            Init("")

    def test_statement_requires_some_qubits(self):
        with pytest.raises(WellFormednessError):
            Abort([])

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(WellFormednessError):
            Skip(["q1", "q1"])

    @pytest.mark.parametrize(
        "build",
        [
            Abort,
            Skip,
            lambda names: UnitaryApp(hadamard(), names[-1:]),
            lambda names: Case(
                computational_measurement(1), names[-1:], {0: Skip(["q1"]), 1: Skip(["q1"])}
            ),
            lambda names: While(computational_measurement(1), names[-1:], Skip(["q1"]), 1),
        ],
        ids=["abort", "skip", "unitary", "case", "while"],
    )
    def test_empty_variable_name_rejected(self, build):
        # ``abort[]`` / ``H[]`` would print but never parse back.
        assert build(["q2"]).qvars() >= {"q2"}
        for names in ([""], ["q2", ""]):
            with pytest.raises(WellFormednessError, match="require a name"):
                build(names)

    def test_no_parameters(self):
        assert Abort(["q1"]).parameters() == frozenset()
        assert Init("q1").parameters() == frozenset()

    def test_not_additive(self):
        assert not Skip(["q1"]).is_additive()


class TestUnitaryApp:
    def test_arity_check(self):
        with pytest.raises(WellFormednessError):
            UnitaryApp(hadamard(), ("q1", "q2"))
        with pytest.raises(WellFormednessError):
            UnitaryApp(Rotation("X", THETA), ("q1", "q2"))

    def test_parameters(self):
        assert rx(THETA, "q1").parameters() == {THETA}
        assert rx(0.5, "q1").parameters() == frozenset()

    def test_qvars(self):
        assert rxx(THETA, "q1", "q2").qvars() == {"q1", "q2"}

    def test_equality(self):
        assert rx(THETA, "q1") == rx(THETA, "q1")
        assert rx(THETA, "q1") != rx(PHI, "q1")
        assert rx(THETA, "q1") != ry(THETA, "q1")


class TestComposite:
    def test_seq_collects_qvars_and_parameters(self):
        program = Seq(rx(THETA, "q1"), ry(PHI, "q2"))
        assert program.qvars() == {"q1", "q2"}
        assert program.parameters() == {THETA, PHI}
        assert program.children() == (rx(THETA, "q1"), ry(PHI, "q2"))

    def test_case_requires_branch_per_outcome(self):
        measurement = computational_measurement(1)
        with pytest.raises(WellFormednessError):
            Case(measurement, ("q1",), {0: Skip(["q1"])})

    def test_case_rejects_duplicate_branches(self):
        measurement = computational_measurement(1)
        with pytest.raises(WellFormednessError):
            Case(measurement, ("q1",), [(0, Skip(["q1"])), (0, Skip(["q1"])), (1, Skip(["q1"]))])

    def test_case_branch_lookup(self):
        measurement = computational_measurement(1)
        case = Case(measurement, ("q1",), {0: rx(THETA, "q2"), 1: Skip(["q1"])})
        assert case.branch(0) == rx(THETA, "q2")
        with pytest.raises(WellFormednessError):
            case.branch(3)

    def test_case_qvars_include_guard_and_branches(self):
        case = Case(computational_measurement(1), ("q1",), {0: rx(THETA, "q2"), 1: Skip(["q3"])})
        assert case.qvars() == {"q1", "q2", "q3"}
        assert case.parameters() == {THETA}

    def test_while_validation(self):
        measurement = computational_measurement(1)
        with pytest.raises(WellFormednessError):
            While(measurement, ("q1",), Skip(["q1"]), 0)
        three_outcome = computational_measurement(2)
        with pytest.raises(WellFormednessError):
            While(three_outcome, ("q1", "q2"), Skip(["q1"]), 2)

    def test_while_qvars(self):
        loop = While(computational_measurement(1), ("q1",), rz(THETA, "q2"), 2)
        assert loop.qvars() == {"q1", "q2"}
        assert loop.parameters() == {THETA}
        assert loop.children() == (rz(THETA, "q2"),)

    def test_sum_is_additive(self):
        program = Sum(Skip(["q1"]), Abort(["q1"]))
        assert program.is_additive()
        assert Seq(program, Skip(["q1"])).is_additive()
        assert not Seq(Skip(["q1"]), Skip(["q1"])).is_additive()

    def test_nested_equality(self):
        a = seq([rx(THETA, "q1"), ry(PHI, "q2"), rxx(THETA, "q1", "q2")])
        b = seq([rx(THETA, "q1"), ry(PHI, "q2"), rxx(THETA, "q1", "q2")])
        assert a == b

    def test_str_is_pretty_printed(self):
        text = str(rx(THETA, "q1"))
        assert "RX(theta)" in text


# Reference recursive definitions of the four facts, written out here so the
# stored facts are checked against the paper's definitions, not themselves.


def _reference_qvars(program) -> frozenset:
    """qVar(P), Appendix B.1."""
    if isinstance(program, Init):
        return frozenset({program.qubit})
    result = frozenset(getattr(program, "qubits", ()))
    for child in program.children():
        result |= _reference_qvars(child)
    return result


def _reference_parameters(program) -> frozenset:
    result = frozenset(program.gate.parameters()) if isinstance(program, UnitaryApp) else frozenset()
    for child in program.children():
        result |= _reference_parameters(child)
    return result


def _reference_additive(program) -> bool:
    return isinstance(program, Sum) or any(_reference_additive(c) for c in program.children())


def _reference_aborts(program) -> bool:
    """Definition 3.2, extended to ``+`` (both summands abort)."""
    if isinstance(program, Abort):
        return True
    if isinstance(program, Seq):
        return any(_reference_aborts(statement) for statement in program.statements)
    if isinstance(program, Case):
        return all(_reference_aborts(branch) for _, branch in program.branches)
    if isinstance(program, Sum):
        return all(_reference_aborts(summand) for summand in program.summands)
    return False


class TestStoredFacts:
    @settings(max_examples=300, deadline=None)
    @given(program=program_strategy(max_depth=4, allow_sum=True))
    def test_stored_facts_equal_the_recursive_definitions(self, program):
        assert program.qvars() == _reference_qvars(program)
        assert program.parameters() == _reference_parameters(program)
        assert program.is_additive() == _reference_additive(program)
        assert essentially_aborts(program) == _reference_aborts(program)

    def test_equal_sets_are_shared_between_nodes(self):
        first = seq([rx(THETA, "q1"), ry(PHI, "q2")])
        second = Sum(ry(PHI, "q2"), rx(THETA, "q1"))
        assert first.qvars() is second.qvars()
        assert first.parameters() is second.parameters()

    def test_pickles_and_digests_do_not_depend_on_memos(self):
        from repro.additive.compile import compile_additive
        from repro.analysis.cost import cost_report
        from repro.analysis.purity import purity_report, simulation_report
        from repro.service import wire

        def build():
            return Sum(
                seq([rx(THETA, "q1"), rxx(PHI, "q1", "q2")]),
                Case(computational_measurement(1), ("q2",), {0: Skip(["q2"]), 1: Abort(["q2"])}),
            )

        program = build()
        pickled, payload = pickle.dumps(program), wire.dumps(program)
        simulation_report(program)
        purity_report(program)
        cost_report(program, dims={"q1": 2, "q2": 2})
        compile_additive(program)
        digest = wire.content_digest(program)
        assert set(program.memo) == {
            "simulation", "purity", "cost", "compile", "digest", "pickle"
        }
        assert program.memo["pickle"] == payload
        assert pickle.dumps(program) == pickled
        assert wire.dumps(program) == payload
        clone = pickle.loads(pickled)
        assert clone == program and "memo" not in vars(clone)
        assert wire.content_digest(build()) == digest


class TestCanonicalAbort:
    """``abort_over`` keeps one ``abort[v]`` per variable set, in a bounded intern."""

    def test_one_node_per_variable_set(self):
        node = abort_over(["q2", "q1"])
        assert node == Abort(("q1", "q2"))
        assert abort_over(frozenset({"q1", "q2"})) is node
        assert canonical_abort(Seq(rx(THETA, "q2"), ry(PHI, "q1"))) is node
        assert abort_over(["q1"]) is not node

    def test_the_intern_is_bounded(self):
        bound = _interned_abort.cache_info().maxsize
        assert bound is not None
        first = abort_over(["b0"])
        for index in range(1, bound + 1):
            abort_over([f"b{index}"])
        assert abort_over(["b0"]) == first
        assert abort_over(["b0"]) is not first

    def test_empty_variable_set_rejected(self):
        with pytest.raises(WellFormednessError):
            abort_over([])


class TestDeepPrograms:
    """Facts are built bottom-up at construction, so no fact recurses."""

    def test_a_5000_gate_sequence(self):
        program = seq([rx(THETA, "q1") if i % 2 else ry(PHI, "q2") for i in range(5000)])
        assert program.qvars() == {"q1", "q2"}
        assert program.parameters() == {THETA, PHI}
        assert not program.is_additive()
        assert not essentially_aborts(program)
        assert canonical_abort(program) == Abort(("q1", "q2"))

    def test_a_200_deep_nested_case(self):
        program = Sum(rx(THETA, "q0"), Abort(["q0"]))
        for depth in range(1, 201):
            qubit = f"q{depth % 3}"
            program = Case(computational_measurement(1), (qubit,), {0: program, 1: Abort([qubit])})
        assert program.qvars() == {"q0", "q1", "q2"}
        assert program.parameters() == {THETA}
        assert program.is_additive()
        assert not essentially_aborts(program)
        assert canonical_abort(program) == Abort(("q0", "q1", "q2"))
