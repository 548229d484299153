"""Unit tests for the R' differentiation gadget (Definition 6.1 / Lemma D.1)."""

import numpy as np
import pytest

from repro.errors import TransformError
from repro.lang.ast import Seq, UnitaryApp
from repro.lang.builder import apply_gate, rx, rxx
from repro.lang.gates import ControlledCoupling, ControlledRotation, hadamard
from repro.lang.parameters import Parameter, ParameterBinding
from repro.linalg.gates import PAULI_Z, coupling_matrix, rotation_matrix
from repro.linalg.observables import pauli_observable
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.semantics.denotational import denote
from repro.semantics.observable import observable_semantics_with_ancilla
from repro.autodiff.gadgets import (
    ANCILLA_OBSERVABLE,
    coupling_prime,
    differentiation_gadget,
    rotation_prime,
)

THETA = Parameter("theta")
BINDING = ParameterBinding({THETA: 0.73})


class TestGadgetStructure:
    def test_rotation_prime_shape(self):
        gadget = rotation_prime("X", THETA, "a", "q1")
        assert isinstance(gadget, Seq)
        statements = gadget.statements
        assert len(statements) == 3
        assert statements[0].gate.name == "H" and statements[0].qubits == ("a",)
        assert isinstance(statements[1].gate, ControlledRotation)
        assert statements[1].qubits == ("a", "q1")
        assert statements[2].gate.name == "H"

    def test_coupling_prime_shape(self):
        gadget = coupling_prime("XX", THETA, "a", "q1", "q2")
        assert gadget.qvars() == {"a", "q1", "q2"}
        inner = gadget.statements[1]
        assert isinstance(inner.gate, ControlledCoupling)
        assert inner.qubits == ("a", "q1", "q2")

    def test_differentiation_gadget_dispatch(self):
        assert differentiation_gadget(rx(THETA, "q1"), "a").qvars() == {"a", "q1"}
        assert differentiation_gadget(rxx(THETA, "q1", "q2"), "a").qvars() == {"a", "q1", "q2"}

    def test_differentiation_gadget_rejects_fixed_gates(self):
        with pytest.raises(TransformError):
            differentiation_gadget(apply_gate(hadamard(), "q1"), "a")

    def test_ancilla_observable_is_pauli_z(self):
        assert np.allclose(ANCILLA_OBSERVABLE, PAULI_Z)


class TestGadgetSemantics:
    """The key identity: the gadget's Z_A ⊗ O readout equals the analytic derivative."""

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    @pytest.mark.parametrize("theta_value", [0.0, 0.41, 1.57, -2.2])
    def test_rotation_gadget_computes_derivative(self, axis, theta_value):
        binding = ParameterBinding({THETA: theta_value})
        layout = RegisterLayout(["q1"])
        state = DensityState.basis_state(layout, {"q1": 0})
        observable = pauli_observable("Z")
        gadget = rotation_prime(axis, THETA, "a", "q1")
        readout = observable_semantics_with_ancilla(
            gadget, observable, state, "a", binding, ANCILLA_OBSERVABLE
        )
        eps = 1e-6
        f = lambda t: np.real(
            np.trace(
                observable.matrix
                @ rotation_matrix(axis, t)
                @ state.matrix
                @ rotation_matrix(axis, t).conj().T
            )
        )
        numeric = (f(theta_value + eps) - f(theta_value - eps)) / (2 * eps)
        assert readout == pytest.approx(numeric, abs=1e-6)

    @pytest.mark.parametrize("axis", ["XX", "YY", "ZZ"])
    def test_coupling_gadget_computes_derivative(self, axis):
        theta_value = 0.93
        binding = ParameterBinding({THETA: theta_value})
        layout = RegisterLayout(["q1", "q2"])
        state = DensityState.basis_state(layout, {"q1": 0, "q2": 1})
        observable = pauli_observable("ZZ")
        gadget = coupling_prime(axis, THETA, "a", "q1", "q2")
        readout = observable_semantics_with_ancilla(
            gadget, observable, state, "a", binding, ANCILLA_OBSERVABLE
        )
        eps = 1e-6
        f = lambda t: np.real(
            np.trace(
                observable.matrix
                @ coupling_matrix(axis, t)
                @ state.matrix
                @ coupling_matrix(axis, t).conj().T
            )
        )
        numeric = (f(theta_value + eps) - f(theta_value - eps)) / (2 * eps)
        assert readout == pytest.approx(numeric, abs=1e-6)

    def test_gadget_matches_lemma_d1_closed_form(self):
        """½ tr(O (U(θ)ρU(θ+π)† + U(θ+π)ρU(θ)†)) — Eq. (D.3)."""
        theta_value = 1.21
        binding = ParameterBinding({THETA: theta_value})
        layout = RegisterLayout(["q1"])
        state = DensityState.basis_state(layout, {"q1": 0})
        observable = pauli_observable("X")
        gadget = rotation_prime("Y", THETA, "a", "q1")
        readout = observable_semantics_with_ancilla(
            gadget, observable, state, "a", binding, ANCILLA_OBSERVABLE
        )
        u = rotation_matrix("Y", theta_value)
        u_shift = rotation_matrix("Y", theta_value + np.pi)
        closed_form = 0.5 * np.real(
            np.trace(observable.matrix @ (u @ state.matrix @ u_shift.conj().T
                                          + u_shift @ state.matrix @ u.conj().T))
        )
        assert readout == pytest.approx(closed_form, abs=1e-9)

    def test_gadget_output_state_keeps_original_circuit_on_average(self):
        """Tracing out the ancilla with the identity observable recovers
        the *average* of the θ and θ+π circuits, as in Eq. (D.76)."""
        binding = ParameterBinding({THETA: 0.5})
        layout = RegisterLayout(["q1"])
        state = DensityState.basis_state(layout, {"q1": 0})
        gadget = rotation_prime("X", THETA, "a", "q1")
        extended = state.extended("a", front=True)
        output = denote(gadget, extended, binding)
        identity_readout = output.expectation(np.kron(np.eye(2), PAULI_Z))
        u = rotation_matrix("X", 0.5)
        u_shift = rotation_matrix("X", 0.5 + np.pi)
        average = 0.5 * (
            np.real(np.trace(PAULI_Z @ u @ state.matrix @ u.conj().T))
            + np.real(np.trace(PAULI_Z @ u_shift @ state.matrix @ u_shift.conj().T))
        )
        assert identity_readout == pytest.approx(average, abs=1e-9)
