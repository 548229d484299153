"""Unit tests for the code-transformation rules of Figure 4."""

import numpy as np
import pytest

from repro.errors import TransformError
from repro.lang.ast import Abort, Case, Init, Seq, Skip, Sum, UnitaryApp, While
from repro.lang.builder import (
    apply_gate,
    bounded_while_on_qubit,
    case_on_qubit,
    rx,
    rxx,
    ry,
    rz,
    seq,
    sum_programs,
)
from repro.lang.gates import ControlledRotation, FixedGate, hadamard
from repro.lang.parameters import Parameter, ParameterBinding
from repro.linalg.gates import rotation_matrix
from repro.linalg.observables import pauli_observable
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.autodiff.transform import DifferentiationContext, ancilla_name_for, differentiate
from repro.autodiff.gadgets import differentiation_gadget
from repro.semantics.observable import (
    additive_observable_semantics_with_ancilla,
    differential_semantics,
)

THETA = Parameter("theta")
PHI = Parameter("phi")


class TestAncillaNaming:
    def test_default_name_embeds_parameter(self):
        assert ancilla_name_for(rx(THETA, "q1"), THETA) == "anc_theta"

    def test_name_avoids_collision(self):
        program = seq([rx(THETA, "q1"), Skip(["anc_theta"])])
        assert ancilla_name_for(program, THETA) == "anc_theta_1"

    def test_explicit_ancilla_collision_rejected(self):
        with pytest.raises(TransformError):
            differentiate(rx(THETA, "q1"), THETA, ancilla="q1")


class TestTrivialRules:
    def test_abort_skip_init_become_abort(self):
        context_vars = ("q1",)
        for statement in (Abort(["q1"]), Skip(["q1"]), Init("q1")):
            derivative = differentiate(statement, THETA, ancilla="a", variables=context_vars)
            assert derivative == Abort(("a", "q1"))

    def test_parameter_free_unitary_becomes_abort(self):
        derivative = differentiate(apply_gate(hadamard(), "q1"), THETA, ancilla="a")
        assert derivative == Abort(("a", "q1"))

    def test_unitary_with_other_parameter_becomes_abort(self):
        derivative = differentiate(rx(PHI, "q1"), THETA, ancilla="a")
        assert derivative == Abort(("a", "q1"))

    def test_fixed_angle_rotation_becomes_abort(self):
        derivative = differentiate(rx(0.4, "q1"), THETA, ancilla="a")
        assert derivative == Abort(("a", "q1"))


class TestRotationRules:
    def test_single_qubit_rotation_becomes_gadget(self):
        statement = rx(THETA, "q1")
        derivative = differentiate(statement, THETA, ancilla="a")
        assert derivative == differentiation_gadget(statement, "a")

    def test_coupling_becomes_gadget(self):
        statement = rxx(THETA, "q1", "q2")
        derivative = differentiate(statement, THETA, ancilla="a")
        assert derivative == differentiation_gadget(statement, "a")

    def test_unsupported_parameterized_gate_rejected(self):
        bespoke = FixedGate("U", rotation_matrix("X", 0.3))

        class FakeParameterizedGate(FixedGate):
            def uses(self, parameter):
                return True

        gate = FakeParameterizedGate("U", rotation_matrix("X", 0.3))
        statement = UnitaryApp(gate, ("q1",))
        with pytest.raises(TransformError):
            differentiate(statement, THETA)
        # Sanity: the plain fixed gate is fine (trivial rule applies).
        assert isinstance(differentiate(UnitaryApp(bespoke, ("q1",)), THETA), Abort)


class TestCompositeRules:
    def test_sequence_product_rule(self):
        s0, s1 = rx(THETA, "q1"), ry(THETA, "q2")
        derivative = differentiate(Seq(s0, s1), THETA, ancilla="a")
        assert isinstance(derivative, Sum)
        assert derivative.summands == (
            Seq(s0, differentiate(s1, THETA, ancilla="a", variables=["q1", "q2"])),
            Seq(differentiate(s0, THETA, ancilla="a", variables=["q1", "q2"]), s1),
        )

    def test_sequence_rule_sums_over_the_statements_that_use_theta_last_first(self):
        s0, s1, s2, s3 = rx(THETA, "q1"), ry(PHI, "q2"), rz(THETA, "q2"), Skip(["q1"])
        derivative = differentiate(seq([s0, s1, s2, s3]), THETA, ancilla="a")
        d0, d2 = (differentiation_gadget(s, "a") for s in (s0, s2))
        assert derivative == Sum(Seq(s0, s1, d2, s3), Seq(d0, s1, s2, s3))
        # One such statement gives its member alone, none the Trivial abort.
        assert differentiate(seq([s1, s2, s3]), THETA, ancilla="a") == Seq(s1, d2, s3)
        assert differentiate(seq([s1, s3]), THETA, ancilla="a") == Abort(("a", "q1", "q2"))

    def test_nesting_of_a_chain_does_not_change_its_derivative(self):
        s0, s1, s2 = rx(THETA, "q1"), ry(THETA, "q2"), rz(THETA, "q1")
        left = differentiate(Seq(Seq(s0, s1), s2), THETA, ancilla="a")
        assert left == differentiate(Seq(s0, Seq(s1, s2)), THETA, ancilla="a")
        assert len(left.summands) == 3

    def test_case_rule_differentiates_branches_under_same_guard(self):
        program = case_on_qubit("q1", {0: rx(THETA, "q2"), 1: rz(THETA, "q2")})
        derivative = differentiate(program, THETA, ancilla="a")
        assert isinstance(derivative, Case)
        assert derivative.measurement == program.measurement
        assert derivative.qubits == program.qubits
        assert derivative.branch(0) == differentiation_gadget(rx(THETA, "q2"), "a")
        assert derivative.branch(1) == differentiation_gadget(rz(THETA, "q2"), "a")

    def test_sum_rule_distributes(self):
        program = Sum(rx(THETA, "q1"), ry(THETA, "q1"))
        derivative = differentiate(program, THETA, ancilla="a")
        assert isinstance(derivative, Sum)
        assert derivative.summands == (
            differentiation_gadget(rx(THETA, "q1"), "a"),
            differentiation_gadget(ry(THETA, "q1"), "a"),
        )

    def test_while_rule_unfolds_to_case(self):
        program = bounded_while_on_qubit("q1", rx(THETA, "q1"), 2)
        derivative = differentiate(program, THETA, ancilla="a")
        assert isinstance(derivative, Case)
        # 0-branch of the derivative is the trivial abort.
        assert isinstance(derivative.branch(0), Abort)
        # 1-branch contains the additive choice of the product rule.
        assert isinstance(derivative.branch(1), Sum)

    def test_while_rule_builds_the_macro_derivative_with_one_body_derivative(self):
        body = seq([rx(THETA, "q1"), ry(PHI, "q2")])
        program = bounded_while_on_qubit("q1", body, 2)
        trivial = Abort(("a", "q1", "q2"))
        d_body = differentiate(body, THETA, ancilla="a")
        last = Seq(d_body, Abort(("q1", "q2")))
        inner = Case(program.measurement, ("q1",), {0: trivial, 1: last})
        smaller = bounded_while_on_qubit("q1", body, 1)
        expected = Case(
            program.measurement,
            ("q1",),
            {0: trivial, 1: Sum(Seq(body, inner), Seq(d_body, smaller))},
        )
        assert differentiate(program, THETA, ancilla="a") == expected
        # A loop whose body does not use θ differentiates to the Trivial abort in both arms.
        loop = bounded_while_on_qubit("q1", rx(PHI, "q1"), 3)
        assert differentiate(loop, THETA, ancilla="a", variables=["q1", "q2"]).children() == (
            trivial,
            trivial,
        )

    def test_transform_output_is_additive_over_extended_register(self):
        program = seq([rx(THETA, "q1"), ry(0.2, "q2"), rxx(THETA, "q1", "q2")])
        derivative = differentiate(program, THETA, ancilla="a")
        assert derivative.is_additive()
        assert derivative.qvars() == {"a", "q1", "q2"}

    def test_transform_is_purely_syntactic(self):
        """The same parameter object can be differentiated before any values exist."""
        program = seq([rx(THETA, "q1"), rz(PHI, "q1")])
        derivative = differentiate(program, THETA)
        assert derivative.parameters() >= {THETA}


class TestSemanticCorrectness:
    """Spot-checks of Theorem 6.2 directly on the transform output."""

    @pytest.mark.parametrize(
        "program_builder",
        [
            lambda: rx(THETA, "q1"),
            lambda: seq([rx(THETA, "q1"), ry(THETA, "q1")]),
            lambda: seq([rx(THETA, "q1"), rxx(PHI, "q1", "q2"), rz(THETA, "q2")]),
            lambda: case_on_qubit("q1", {0: rx(THETA, "q2"), 1: seq([ry(THETA, "q2"), rz(0.3, "q1")])}),
            lambda: seq([rx(THETA, "q1"), bounded_while_on_qubit("q1", ry(THETA, "q2"), 2)]),
            lambda: seq([Init("q1"), rx(THETA, "q1"), case_on_qubit("q1", {0: Skip(["q1"]), 1: Abort(["q1"])})]),
        ],
    )
    @pytest.mark.parametrize("theta_value", [0.3, -1.7])
    def test_transformed_program_computes_differential_semantics(self, program_builder, theta_value):
        program = program_builder()
        binding = ParameterBinding({THETA: theta_value, PHI: 0.8})
        layout = RegisterLayout(["q1", "q2"])
        state = DensityState.basis_state(layout, {"q1": 0, "q2": 1})
        observable = pauli_observable("ZZ")
        ancilla = ancilla_name_for(program, THETA)
        derivative = differentiate(program, THETA, ancilla=ancilla)
        transformed_value = additive_observable_semantics_with_ancilla(
            derivative, observable, state, ancilla, binding
        )
        reference = differential_semantics(program, THETA, observable, state, binding)
        assert transformed_value == pytest.approx(reference, abs=1e-6)

    def test_derivative_with_respect_to_absent_parameter_is_zero(self):
        program = seq([rx(PHI, "q1"), ry(0.3, "q2")])
        binding = ParameterBinding({THETA: 0.2, PHI: 0.9})
        layout = RegisterLayout(["q1", "q2"])
        state = DensityState.zero_state(layout)
        observable = pauli_observable("ZI")
        derivative = differentiate(program, THETA, ancilla="a")
        value = additive_observable_semantics_with_ancilla(derivative, observable, state, "a", binding)
        assert value == pytest.approx(0.0, abs=1e-12)


class TestDifferentiationContext:
    def test_trivial_abort_covers_all_variables(self):
        context = DifferentiationContext(THETA, "a", ("q2", "q1"))
        assert context.trivial_abort() == Abort(("a", "q1", "q2"))

    def test_every_trivial_rule_yields_the_one_shared_abort(self):
        # A sum differentiates every summand: Skip, a unitary without θ,
        # Init and a sequence in which no statement uses θ.
        theta_free = seq([Skip(["q2"]), rx(PHI, "q1")])
        summands = [Skip(["q1"]), rx(PHI, "q2"), Init("q1"), theta_free, rx(THETA, "q1")]
        program = sum_programs(summands)
        abort = DifferentiationContext(THETA, "a", ("q1", "q2")).trivial_abort()
        derivative = differentiate(program, THETA, ancilla="a")
        stack, found = [derivative], []
        while stack:
            node = stack.pop()
            if isinstance(node, Abort):
                found.append(node)
            stack.extend(node.children())
        assert len(found) == 4 and all(node is abort for node in found)
