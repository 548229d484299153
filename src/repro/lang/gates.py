"""Gate language: fixed gates and classically parameterized unitaries.

A :class:`Gate` is the syntactic object that appears inside a unitary
statement ``q := U(θ)[q]``.  The paper's code-transformation rules cover the
single-qubit Pauli rotations ``R_σ(θ)`` and the two-qubit couplings
``R_{σ⊗σ}(θ)`` (these form a universal set and are natively available on
ion-trap machines, Section 3.1); the differentiation gadget additionally
uses Hadamard and the controlled rotations ``C_R_σ(θ)`` of Definition 6.1.
Arbitrary fixed (non-parameterized) unitaries are supported as
:class:`FixedGate`; each common fixed gate's factory (:func:`hadamard`,
:func:`cnot`, …) validates its gate once and returns that one frozen
instance on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Union

import numpy as np

from repro.errors import LinalgError, ParameterError
from repro.linalg.gates import (
    CNOT,
    CZ,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SWAP,
    COUPLING_AXES,
    SINGLE_QUBIT_AXES,
    controlled_coupling_matrix,
    controlled_rotation_matrix,
    coupling_matrix,
    rotation_matrix,
    rotation_generator,
)
from repro.linalg.operators import is_unitary
from repro.lang.parameters import Parameter, ParameterBinding

#: An angle is either a symbolic parameter or a fixed real number.
Angle = Union[Parameter, float]


def _angle_value(angle: Angle, binding: ParameterBinding | None) -> float:
    if isinstance(angle, Parameter):
        if binding is None:
            raise ParameterError(
                f"gate angle {angle.name!r} is symbolic; a parameter binding is required"
            )
        return binding[angle]
    return float(angle)


def _angle_text(angle: Angle) -> str:
    if isinstance(angle, Parameter):
        return angle.name
    # repr() is the shortest representation that round-trips exactly, which the
    # pretty-print → parse round-trip property relies on.
    return repr(float(angle))


@lru_cache(maxsize=1024)
def _bound_matrix_cached(gate: "Gate", values: tuple[float, ...]) -> np.ndarray:
    binding = (
        ParameterBinding(dict(zip(gate.parameters(), values))) if values else None
    )
    matrix = gate.matrix(binding)
    # Cached arrays are shared across calls; freeze them.
    matrix.setflags(write=False)
    return matrix


def bound_gate_matrix(gate: "Gate", binding: "ParameterBinding | None" = None) -> np.ndarray:
    """Return ``gate.matrix(binding)`` through a bounded LRU cache.

    Simulation applies the same handful of gates at the same parameter point
    thousands of times per epoch; re-running ``gate.matrix(binding)`` each
    time rebuilds trigonometric matrix entries from scratch.  The cache key
    is the (hashable) gate together with the concrete values its parameters
    take under ``binding`` — never the whole binding, so one entry serves
    every binding that agrees on the gate's own angles.  Gates that are not
    hashable fall back to an uncached evaluation.
    """
    try:
        return _bound_matrix_cached(gate, tuple(binding[p] for p in gate.parameters()))
    except TypeError:
        return gate.matrix(binding)


class Gate:
    """Abstract base class of all gates."""

    #: number of qubits the gate acts on
    arity: int
    #: display name used by the pretty-printer
    name: str

    def matrix(self, binding: ParameterBinding | None = None) -> np.ndarray:
        """Return the unitary matrix of the gate at the given parameter point."""
        raise NotImplementedError

    def parameters(self) -> tuple[Parameter, ...]:
        """Return the symbolic parameters the gate depends on (possibly empty)."""
        return ()

    def uses(self, parameter: Parameter) -> bool:
        """Return True when the gate's matrix depends on ``parameter``.

        In the paper's terminology, the gate *non-trivially uses* the
        parameter; gates for which this is False are handled by the
        Trivial-Unitary rules.
        """
        return parameter in self.parameters()

    def display(self) -> str:
        """Return the concrete-syntax spelling of the gate."""
        return self.name

    def __str__(self) -> str:
        return self.display()


@dataclass(frozen=True)
class FixedGate(Gate):
    """A non-parameterized unitary with an explicit matrix."""

    name: str
    _matrix: tuple[tuple[complex, ...], ...]

    def __init__(self, name: str, matrix: np.ndarray):
        array = np.asarray(matrix, dtype=complex)
        if not is_unitary(array):
            raise LinalgError(f"gate {name!r} is not unitary")
        size = array.shape[0]
        arity = int(round(np.log2(size)))
        if 2**arity != size:
            raise LinalgError(f"gate {name!r} must act on a whole number of qubits")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_matrix", tuple(tuple(row) for row in array))

    @property
    def arity(self) -> int:
        return int(round(np.log2(len(self._matrix))))

    def matrix(self, binding: ParameterBinding | None = None) -> np.ndarray:
        return np.array(self._matrix, dtype=complex)


@dataclass(frozen=True)
class Rotation(Gate):
    """Single-qubit Pauli rotation ``R_σ(θ)`` with σ ∈ {X, Y, Z} (Eq. 3.2)."""

    axis: str
    angle: Angle

    arity = 1

    def __init__(self, axis: str, angle: Angle):
        axis = axis.upper()
        if axis not in SINGLE_QUBIT_AXES:
            raise LinalgError(f"rotation axis must be one of {SINGLE_QUBIT_AXES}, got {axis!r}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", angle)

    @property
    def name(self) -> str:
        return f"R{self.axis}"

    def parameters(self) -> tuple[Parameter, ...]:
        return (self.angle,) if isinstance(self.angle, Parameter) else ()

    def matrix(self, binding: ParameterBinding | None = None) -> np.ndarray:
        return rotation_matrix(self.axis, _angle_value(self.angle, binding))

    def generator(self) -> np.ndarray:
        """Return the Hermitian generator σ of the rotation."""
        return rotation_generator(self.axis)

    def display(self) -> str:
        return f"{self.name}({_angle_text(self.angle)})"


@dataclass(frozen=True)
class Coupling(Gate):
    """Two-qubit coupling ``R_{σ⊗σ}(θ)`` with σ ∈ {X, Y, Z} (Section 3.1)."""

    axis: str
    angle: Angle

    arity = 2

    def __init__(self, axis: str, angle: Angle):
        axis = axis.upper()
        if axis not in COUPLING_AXES:
            raise LinalgError(f"coupling axis must be one of {COUPLING_AXES}, got {axis!r}")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", angle)

    @property
    def name(self) -> str:
        return f"R{self.axis}"

    def parameters(self) -> tuple[Parameter, ...]:
        return (self.angle,) if isinstance(self.angle, Parameter) else ()

    def matrix(self, binding: ParameterBinding | None = None) -> np.ndarray:
        return coupling_matrix(self.axis, _angle_value(self.angle, binding))

    def generator(self) -> np.ndarray:
        """Return the Hermitian generator σ⊗σ of the coupling."""
        return rotation_generator(self.axis)

    def display(self) -> str:
        return f"{self.name}({_angle_text(self.angle)})"


@dataclass(frozen=True)
class ControlledRotation(Gate):
    """The gadget gate ``C_R_σ(θ)`` of Definition 6.1 (control qubit first)."""

    axis: str
    angle: Angle

    arity = 2

    def __init__(self, axis: str, angle: Angle):
        axis = axis.upper()
        if axis not in SINGLE_QUBIT_AXES:
            raise LinalgError(
                f"controlled-rotation axis must be one of {SINGLE_QUBIT_AXES}, got {axis!r}"
            )
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", angle)

    @property
    def name(self) -> str:
        return f"CR{self.axis}"

    def parameters(self) -> tuple[Parameter, ...]:
        return (self.angle,) if isinstance(self.angle, Parameter) else ()

    def matrix(self, binding: ParameterBinding | None = None) -> np.ndarray:
        return controlled_rotation_matrix(self.axis, _angle_value(self.angle, binding))

    def display(self) -> str:
        return f"{self.name}({_angle_text(self.angle)})"


@dataclass(frozen=True)
class ControlledCoupling(Gate):
    """The two-qubit-target gadget gate ``C_R_{σ⊗σ}(θ)`` (control qubit first)."""

    axis: str
    angle: Angle

    arity = 3

    def __init__(self, axis: str, angle: Angle):
        axis = axis.upper()
        if axis not in COUPLING_AXES:
            raise LinalgError(
                f"controlled-coupling axis must be one of {COUPLING_AXES}, got {axis!r}"
            )
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", angle)

    @property
    def name(self) -> str:
        return f"CR{self.axis}"

    def parameters(self) -> tuple[Parameter, ...]:
        return (self.angle,) if isinstance(self.angle, Parameter) else ()

    def matrix(self, binding: ParameterBinding | None = None) -> np.ndarray:
        return controlled_coupling_matrix(self.axis, _angle_value(self.angle, binding))

    def display(self) -> str:
        return f"{self.name}({_angle_text(self.angle)})"


# -- common fixed gates -------------------------------------------------------


@cache
def hadamard() -> FixedGate:
    """The Hadamard gate ``H``."""
    return FixedGate("H", HADAMARD)


@cache
def pauli_x() -> FixedGate:
    """The Pauli ``X`` gate."""
    return FixedGate("X", PAULI_X)


@cache
def pauli_y() -> FixedGate:
    """The Pauli ``Y`` gate."""
    return FixedGate("Y", PAULI_Y)


@cache
def pauli_z() -> FixedGate:
    """The Pauli ``Z`` gate."""
    return FixedGate("Z", PAULI_Z)


@cache
def cnot() -> FixedGate:
    """The controlled-NOT gate (control first)."""
    return FixedGate("CNOT", CNOT)


@cache
def cz() -> FixedGate:
    """The controlled-Z gate."""
    return FixedGate("CZ", CZ)


@cache
def swap() -> FixedGate:
    """The SWAP gate."""
    return FixedGate("SWAP", SWAP)


#: Registry of fixed-gate constructors keyed by surface-syntax name, used by the parser.
FIXED_GATE_REGISTRY = {
    "H": hadamard,
    "X": pauli_x,
    "Y": pauli_y,
    "Z": pauli_z,
    "CNOT": cnot,
    "CZ": cz,
    "SWAP": swap,
}
