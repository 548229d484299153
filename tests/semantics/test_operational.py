"""Unit tests for the operational semantics and Proposition 3.1."""

import numpy as np
import pytest

from repro.lang.ast import Abort, Init, Skip, Sum
from repro.lang.builder import bounded_while_on_qubit, case_on_qubit, rx, ry, seq
from repro.lang.gates import hadamard, pauli_x
from repro.lang.ast import UnitaryApp
from repro.lang.parameters import Parameter, ParameterBinding
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.semantics.denotational import denote
from repro.semantics.operational import (
    Configuration,
    operational_denotation,
    run_to_terminals,
    step,
    terminal_states,
)
from repro.errors import SemanticsError

THETA = Parameter("theta")
LAYOUT = RegisterLayout(["q1", "q2"])


def _zero():
    return DensityState.zero_state(LAYOUT)


class TestSingleSteps:
    def test_terminal_configuration_has_no_successors(self):
        assert step(Configuration(None, _zero())) == []

    def test_abort_step(self):
        (successor,) = step(Configuration(Abort(["q1"]), _zero()))
        assert successor.is_terminal
        assert successor.state.is_null()

    def test_skip_step(self):
        (successor,) = step(Configuration(Skip(["q1"]), _zero()))
        assert successor.is_terminal
        assert successor.state == _zero()

    def test_init_step(self):
        plus = _zero().apply_unitary(hadamard().matrix(), ["q1"])
        (successor,) = step(Configuration(Init("q1"), plus))
        assert successor.is_terminal
        assert np.isclose(successor.state.matrix[0, 0], 1.0)

    def test_unitary_step(self):
        (successor,) = step(Configuration(UnitaryApp(pauli_x(), ("q1",)), _zero()))
        assert np.isclose(successor.state.matrix[0b10, 0b10], 1.0)

    def test_sequence_step_keeps_continuation(self):
        program = seq([UnitaryApp(pauli_x(), ("q1",)), Skip(["q2"])])
        (successor,) = step(Configuration(program, _zero()))
        assert not successor.is_terminal
        assert successor.program == Skip(["q2"])

    def test_case_steps_once_per_outcome(self):
        program = case_on_qubit("q1", {0: Skip(["q1"]), 1: Abort(["q1"])})
        successors = step(Configuration(program, _zero()))
        assert len(successors) == 2
        # Outcome probabilities are encoded in the (sub-normalized) traces.
        assert np.isclose(sum(s.state.trace() for s in successors), 1.0)

    def test_while_steps_to_termination_and_continuation(self):
        loop = bounded_while_on_qubit("q1", Skip(["q1"]), 2)
        successors = step(Configuration(loop, _zero()))
        assert len(successors) == 2
        terminal = [s for s in successors if s.is_terminal]
        assert len(terminal) == 1
        assert np.isclose(terminal[0].state.trace(), 1.0)

    def test_while_bound_one_continuation_aborts(self):
        loop = bounded_while_on_qubit("q1", Skip(["q1"]), 1)
        start = DensityState.basis_state(LAYOUT, {"q1": 1})
        successors = step(Configuration(loop, start))
        continuing = [s for s in successors if not s.is_terminal][0]
        # The continuation is body; abort.
        assert isinstance(continuing.program.statements[-1], Abort)

    def test_sum_steps_to_both_components(self):
        program = Sum(Skip(["q1"]), Abort(["q1"]))
        successors = step(Configuration(program, _zero()))
        assert [s.program for s in successors] == [Skip(["q1"]), Abort(["q1"])]

    def test_unknown_node_rejected(self):
        class Strange:  # not a Program
            pass

        with pytest.raises(SemanticsError):
            step(Configuration(Strange(), _zero()))


class TestTerminalMultisets:
    def test_deterministic_program_single_terminal(self):
        program = seq([UnitaryApp(pauli_x(), ("q1",)), UnitaryApp(pauli_x(), ("q2",))])
        terminals = run_to_terminals(program, _zero())
        assert len(terminals) == 1

    def test_case_produces_one_terminal_per_branch(self):
        program = seq(
            [
                UnitaryApp(hadamard(), ("q1",)),
                case_on_qubit("q1", {0: Skip(["q1"]), 1: UnitaryApp(pauli_x(), ("q2",))}),
            ]
        )
        states = terminal_states(program, _zero())
        assert len(states) == 2

    def test_drop_null_removes_zero_probability_branches(self):
        program = case_on_qubit("q1", {0: Skip(["q1"]), 1: UnitaryApp(pauli_x(), ("q2",))})
        # Guard is |0⟩ with certainty, so the 1-branch has probability zero.
        states = terminal_states(program, _zero(), drop_null=True)
        assert len(states) == 1

    def test_max_steps_guard(self):
        program = seq([Skip(["q1"])] * 10)
        with pytest.raises(SemanticsError):
            run_to_terminals(program, _zero(), max_steps=3)


class TestProposition31:
    """Prop. 3.1: [[P]]ρ equals the sum of the terminal multiset."""

    @pytest.mark.parametrize("theta_value", [0.0, 0.37, 1.9, -2.4])
    def test_agreement_on_branching_program(self, theta_value):
        binding = ParameterBinding({THETA: theta_value})
        program = seq(
            [
                rx(THETA, "q1"),
                case_on_qubit("q1", {0: ry(0.7, "q2"), 1: Abort(["q1"])}),
                bounded_while_on_qubit("q2", rx(0.3, "q1"), 2),
            ]
        )
        state = _zero()
        assert np.allclose(
            operational_denotation(program, state, binding).matrix,
            denote(program, state, binding).matrix,
        )

    def test_agreement_with_initialization(self):
        program = seq(
            [UnitaryApp(hadamard(), ("q1",)), Init("q1"), UnitaryApp(pauli_x(), ("q2",))]
        )
        state = _zero()
        assert np.allclose(
            operational_denotation(program, state).matrix,
            denote(program, state).matrix,
        )
