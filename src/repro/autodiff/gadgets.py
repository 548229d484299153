"""The single-circuit differentiation gadget ``R'_σ(θ)`` (Definition 6.1).

For a rotation ``R_σ(θ) = exp(−iθσ/2)`` with ``σ² = I`` the entry-wise
derivative satisfies ``d/dθ R_σ(θ) = ½ R_σ(θ+π)`` (Lemma D.1).  The paper
exploits this through one extra ancilla qubit: the gadget

    R'_σ(θ)[A, q] ≡ A := H[A];  A,q := C_R_σ(θ)[A, q];  A := H[A]

with ``C_R_σ(θ) = |0⟩⟨0|⊗R_σ(θ) + |1⟩⟨1|⊗R_σ(θ+π)`` creates a superposition
of the original and the π-shifted circuit, and reading out ``Z_A ⊗ O`` on
the output recovers exactly ``∂/∂θ tr(O R_σ(θ) ρ R_σ(θ)†)``:

    tr((Z_A ⊗ O) [[R'_σ(θ)]](|0⟩⟨0|_A ⊗ ρ))
        = ½ tr(O (R_σ(θ) ρ R_σ(θ+π)† + R_σ(θ+π) ρ R_σ(θ)†)).

This uses *one* circuit per parameter occurrence where the phase-shift rule
of Schuld et al. needs two — the design difference the paper highlights and
which :mod:`repro.baselines.phase_shift` implements for comparison.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TransformError
from repro.lang.ast import Program, Seq, UnitaryApp
from repro.lang.gates import (
    ControlledCoupling,
    ControlledRotation,
    Coupling,
    Rotation,
    hadamard,
)
from repro.lang.parameters import Parameter

#: The observable measured on the ancilla qubit: ``Z_A = |0⟩⟨0| − |1⟩⟨1|``.
ANCILLA_OBSERVABLE = np.array([[1, 0], [0, -1]], dtype=complex)


def rotation_prime(axis: str, angle: Parameter | float, ancilla: str, qubit: str) -> Program:
    """Build the gadget program ``R'_σ(θ)[A, q]`` for a single-qubit rotation."""
    h = UnitaryApp(hadamard(), (ancilla,))
    return Seq(h, UnitaryApp(ControlledRotation(axis, angle), (ancilla, qubit)), h)


def coupling_prime(
    axis: str,
    angle: Parameter | float,
    ancilla: str,
    qubit1: str,
    qubit2: str,
) -> Program:
    """Build the gadget program ``R'_{σ⊗σ}(θ)[A, q1, q2]`` for a two-qubit coupling."""
    h = UnitaryApp(hadamard(), (ancilla,))
    return Seq(h, UnitaryApp(ControlledCoupling(axis, angle), (ancilla, qubit1, qubit2)), h)


def differentiation_gadget(statement: UnitaryApp, ancilla: str) -> Program:
    """Return the gadget program replacing a parameterized rotation/coupling statement.

    Implements the (1-qb) and (2-qb) code-transformation rules of Figure 4.
    Raises :class:`~repro.errors.TransformError` for any other gate — the
    paper's rule set covers exactly the Pauli rotations and couplings.
    """
    gate = statement.gate
    if isinstance(gate, Rotation):
        (qubit,) = statement.qubits
        return rotation_prime(gate.axis, gate.angle, ancilla, qubit)
    if isinstance(gate, Coupling):
        qubit1, qubit2 = statement.qubits
        return coupling_prime(gate.axis, gate.angle, ancilla, qubit1, qubit2)
    raise TransformError(
        f"no differentiation rule for gate {gate.display()}; only Pauli rotations "
        "R_σ(θ) and couplings R_{σ⊗σ}(θ) are supported (Figure 4)"
    )
