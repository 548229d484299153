"""Integration tests reproducing the worked examples of the paper.

* Example 6.1 (Simple-Case): transformation + compilation of a case program
  whose branches are rotation sequences;
* Appendix F.1: the compiled derivative multisets of the case-study
  classifiers P1 and P2 for parameters from each layer;
* the MUL/QMUL discussion of Section 1: the derivative of a two-rotation
  composition is a two-element collection (product rule without cloning).
"""

import numpy as np
import pytest

from repro.lang.ast import Abort, Case, Seq
from repro.lang.builder import case_on_qubit, rx, ry, rz, seq
from repro.lang.gates import ControlledRotation
from repro.lang.parameters import Parameter, ParameterBinding
from repro.lang.traversal import iter_gate_applications
from repro.linalg.observables import pauli_observable, projector_observable
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.additive.compile import compile_additive
from repro.autodiff.execution import differentiate_and_compile
from repro.autodiff.gadgets import rotation_prime
from repro.autodiff.transform import differentiate
from repro.baselines.finite_diff import finite_difference_derivative
from repro.vqc.classifier import build_p1, build_p2

THETA = Parameter("theta")


class TestSectionOneQMUL:
    """QMUL ≡ U1(θ); U2(θ): its derivative is a collection of two programs."""

    def test_derivative_of_composition_has_two_components(self):
        qmul = Seq(rx(THETA, "q1"), ry(THETA, "q1"))
        program_set = differentiate_and_compile(qmul, THETA)
        assert program_set.nonaborting_count == 2
        first, second = program_set.nonaborting_programs()
        # One component differentiates U2 (keeps U1), the other differentiates U1 (keeps U2).
        assert first == Seq(rx(THETA, "q1"), rotation_prime("Y", THETA, "anc_theta", "q1"))
        assert second == Seq(rotation_prime("X", THETA, "anc_theta", "q1"), ry(THETA, "q1"))

    def test_both_components_are_needed_for_the_value(self):
        qmul = Seq(rx(THETA, "q1"), ry(THETA, "q1"))
        layout = RegisterLayout(["q1"])
        state = DensityState.zero_state(layout)
        binding = ParameterBinding({THETA: 0.8})
        observable = pauli_observable("Z")
        program_set = differentiate_and_compile(qmul, THETA)
        total = program_set.evaluate(observable, state, binding)
        reference = finite_difference_derivative(qmul, THETA, observable, state, binding)
        assert total == pytest.approx(reference, abs=1e-6)
        assert abs(total) > 1e-3  # neither the value nor the test is vacuous


class TestExample61SimpleCase:
    """Example 6.1: P(θ) ≡ case M[q1] = 0 → RX(θ);RY(θ), 1 → RZ(θ)."""

    def _program(self):
        return case_on_qubit(
            "q1", {0: seq([rx(THETA, "q1"), ry(THETA, "q1")]), 1: rz(THETA, "q1")}
        )

    def test_transformation_shape(self):
        derivative = differentiate(self._program(), THETA, ancilla="A")
        assert isinstance(derivative, Case)
        zero_branch = derivative.branch(0)
        # The 0-branch is the additive choice (R'X; RY) + (RX; R'Y).
        assert zero_branch.summands == (
            Seq(rx(THETA, "q1"), rotation_prime("Y", THETA, "A", "q1")),
            Seq(rotation_prime("X", THETA, "A", "q1"), ry(THETA, "q1")),
        )
        # The 1-branch is the single gadget R'Z.
        assert derivative.branch(1) == rotation_prime("Z", THETA, "A", "q1")

    def test_compilation_produces_the_two_case_programs_of_the_paper(self):
        derivative = differentiate(self._program(), THETA, ancilla="A")
        compiled = compile_additive(derivative)
        assert len(compiled) == 2
        # The paper's Example 6.1 multiset, up to the order of the two entries:
        # one case pairs a differentiated 0-branch with R'Z, the other pairs the
        # remaining differentiated 0-branch with abort.
        zero_branches = {id(c): c.branch(0) for c in compiled}
        assert sorted(
            str(branch) for branch in zero_branches.values()
        ) == sorted(
            [
                str(Seq(rotation_prime("X", THETA, "A", "q1"), ry(THETA, "q1"))),
                str(Seq(rx(THETA, "q1"), rotation_prime("Y", THETA, "A", "q1"))),
            ]
        )
        one_branches = [c.branch(1) for c in compiled]
        assert rotation_prime("Z", THETA, "A", "q1") in one_branches
        assert any(isinstance(branch, Abort) for branch in one_branches)

    def test_compiled_programs_compute_the_derivative(self):
        program = self._program()
        layout = RegisterLayout(["q1"])
        observable = pauli_observable("X")
        binding = ParameterBinding({THETA: 1.1})
        program_set = differentiate_and_compile(program, THETA)
        for q1_value in (0, 1):
            state = DensityState.basis_state(layout, {"q1": q1_value})
            value = program_set.evaluate(observable, state, binding)
            reference = finite_difference_derivative(program, THETA, observable, state, binding)
            assert value == pytest.approx(reference, abs=1e-6)


class TestAppendixF1ClassifierDerivatives:
    """Appendix F.1: shapes of Compile(∂P1/∂α) and Compile(∂P2/∂α) per layer."""

    def test_p1_theta_layer_derivative_is_a_single_program(self):
        p1 = build_p1()
        alpha = p1.parameters[0]  # θ1, in the first layer
        program_set = differentiate_and_compile(p1.program, alpha)
        assert program_set.nonaborting_count == 1
        (program,) = program_set.nonaborting_programs()
        gadget_gates = [
            g for g in iter_gate_applications(program) if isinstance(g.gate, ControlledRotation)
        ]
        assert len(gadget_gates) == 1

    def test_p1_phi_layer_derivative_is_a_single_program(self):
        p1 = build_p1()
        alpha = p1.parameters[12]  # φ1, in the second layer
        program_set = differentiate_and_compile(p1.program, alpha)
        assert program_set.nonaborting_count == 1

    def test_p2_derivatives_keep_the_case_structure(self):
        p2 = build_p2()
        for index in (0, 12, 24):  # one parameter from Θ, Φ and Ψ
            alpha = p2.parameters[index]
            program_set = differentiate_and_compile(p2.program, alpha)
            assert program_set.nonaborting_count == 1
            (program,) = program_set.nonaborting_programs()
            if index == 0:
                # ∂/∂θ1: the gadget sits before the unchanged case statement.
                assert isinstance(program, Seq)
                assert isinstance(program.statements[-1], Case)
            else:
                # ∂/∂φ1 and ∂/∂ψ1: the gadget sits inside one branch of the case.
                assert isinstance(program, Seq)
                case = program.statements[-1]
                assert isinstance(case, Case)
                branch = case.branch(0) if index == 12 else case.branch(1)
                gadgets = [
                    g
                    for g in iter_gate_applications(branch)
                    if isinstance(g.gate, ControlledRotation)
                ]
                assert len(gadgets) == 1

    def test_p2_gradient_entry_against_finite_differences(self):
        p2 = build_p2()
        binding = p2.initial_binding(seed=0, spread=0.6)
        bits = (0, 1, 1, 0)
        state = p2.input_state(bits)
        observable = p2.readout_observable()
        alpha = p2.parameters[30]
        value = differentiate_and_compile(p2.program, alpha).evaluate(observable, state, binding)
        reference = finite_difference_derivative(p2.program, alpha, observable, state, binding)
        assert value == pytest.approx(reference, abs=1e-6)
