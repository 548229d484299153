"""Unit tests for the AST-level gate language (repro.lang.gates)."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.errors import LinalgError, ParameterError
from repro.lang.gates import (
    FIXED_GATE_REGISTRY,
    ControlledCoupling,
    ControlledRotation,
    Coupling,
    FixedGate,
    Rotation,
    cnot,
    hadamard,
    pauli_x,
)
from repro.lang.parameters import Parameter, ParameterBinding
from repro.linalg.gates import (
    HADAMARD,
    controlled_coupling_matrix,
    controlled_rotation_matrix,
    coupling_matrix,
    rotation_matrix,
)

THETA = Parameter("theta")
BINDING = ParameterBinding({THETA: 0.8})


class TestFixedGate:
    def test_arity_from_matrix(self):
        assert hadamard().arity == 1
        assert cnot().arity == 2

    def test_matrix_ignores_binding(self):
        assert np.allclose(hadamard().matrix(), HADAMARD)
        assert np.allclose(hadamard().matrix(BINDING), HADAMARD)

    def test_no_parameters(self):
        assert hadamard().parameters() == ()
        assert not hadamard().uses(THETA)

    def test_rejects_non_unitary(self):
        with pytest.raises(LinalgError):
            FixedGate("bad", np.array([[1, 0], [0, 2]]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(LinalgError):
            FixedGate("bad", np.eye(3))

    def test_display(self):
        assert pauli_x().display() == "X"

    def test_equality(self):
        assert hadamard() == hadamard()
        assert hadamard() != pauli_x()

    @pytest.mark.parametrize("name", sorted(FIXED_GATE_REGISTRY))
    def test_each_factory_returns_its_one_frozen_gate(self, name):
        factory = FIXED_GATE_REGISTRY[name]
        gate = factory()
        assert gate is factory() and gate.name == name
        with pytest.raises(FrozenInstanceError):
            gate.name = "other"


class TestRotation:
    def test_matrix_with_symbolic_angle(self):
        gate = Rotation("X", THETA)
        assert np.allclose(gate.matrix(BINDING), rotation_matrix("X", 0.8))

    def test_matrix_with_fixed_angle(self):
        gate = Rotation("Y", 0.3)
        assert np.allclose(gate.matrix(), rotation_matrix("Y", 0.3))

    def test_symbolic_angle_requires_binding(self):
        with pytest.raises(ParameterError):
            Rotation("Z", THETA).matrix()

    def test_uses(self):
        assert Rotation("X", THETA).uses(THETA)
        assert not Rotation("X", THETA).uses(Parameter("other"))
        assert not Rotation("X", 0.5).uses(THETA)

    def test_rejects_coupling_axis(self):
        with pytest.raises(LinalgError):
            Rotation("XX", THETA)

    def test_display(self):
        assert Rotation("X", THETA).display() == "RX(theta)"
        assert Rotation("Z", 0.5).display() == "RZ(0.5)"

    def test_generator(self):
        gen = Rotation("Z", THETA).generator()
        assert np.allclose(gen, np.diag([1, -1]))


class TestCoupling:
    def test_matrix(self):
        gate = Coupling("XX", THETA)
        assert gate.arity == 2
        assert np.allclose(gate.matrix(BINDING), coupling_matrix("XX", 0.8))

    def test_rejects_single_axis(self):
        with pytest.raises(LinalgError):
            Coupling("X", THETA)

    def test_display(self):
        assert Coupling("ZZ", THETA).display() == "RZZ(theta)"

    def test_generator_squares_to_identity(self):
        gen = Coupling("YY", THETA).generator()
        assert np.allclose(gen @ gen, np.eye(4))


class TestControlledGates:
    def test_controlled_rotation_matrix(self):
        gate = ControlledRotation("X", THETA)
        assert gate.arity == 2
        assert np.allclose(gate.matrix(BINDING), controlled_rotation_matrix("X", 0.8))

    def test_controlled_coupling_matrix(self):
        gate = ControlledCoupling("ZZ", THETA)
        assert gate.arity == 3
        assert np.allclose(gate.matrix(BINDING), controlled_coupling_matrix("ZZ", 0.8))

    def test_axis_validation(self):
        with pytest.raises(LinalgError):
            ControlledRotation("XX", THETA)
        with pytest.raises(LinalgError):
            ControlledCoupling("X", THETA)

    def test_display(self):
        assert ControlledRotation("Y", THETA).display() == "CRY(theta)"
        assert ControlledCoupling("XX", 1.0).display() == "CRXX(1.0)"

    def test_parameters(self):
        assert ControlledRotation("X", THETA).parameters() == (THETA,)
        assert ControlledCoupling("XX", 0.5).parameters() == ()
