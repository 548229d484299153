"""Higher-order differentiation (an extension beyond the paper's first-order rules).

Figure 4 gives no rule for the controlled rotations ``C_R_σ(θ)`` that its own
gadget introduces, so the transformation cannot be applied twice as-is.  The
obstacle is purely syntactic: because ``R_σ(θ+π) = R_σ(θ)·R_σ(π)``, the
gadget gate factors as

    C_R_σ(θ) = (I ⊗ R_σ(θ)) · ( |0⟩⟨0| ⊗ I + |1⟩⟨1| ⊗ R_σ(π) ),

i.e. a *fixed* controlled-``R_σ(π)`` followed by an ordinary rotation of the
target.  :func:`eliminate_controlled_rotations` rewrites every gadget gate
into that two-statement form (an exact, semantics-preserving decomposition),
after which the first-order rules apply again.  Iterating transformation +
elimination yields programs computing arbitrary mixed partial derivatives,
with one fresh ancilla per differentiation — exactly the pattern footnote 7
of the paper anticipates.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

from repro.errors import TransformError
from repro.lang.ast import Program, Seq, UnitaryApp
from repro.lang.gates import (
    ControlledCoupling,
    ControlledRotation,
    Coupling,
    FixedGate,
    Rotation,
)
from repro.lang.parameters import Parameter, ParameterBinding
from repro.lang.traversal import map_program
from repro.linalg.gates import coupling_matrix, rotation_matrix
from repro.linalg.observables import Observable
from repro.sim.density import DensityState
from repro.additive.compile import compile_additive
from repro.additive.essential_abort import essentially_aborts
from repro.autodiff.gadgets import ANCILLA_OBSERVABLE
from repro.autodiff.transform import ancilla_name_for, differentiate
from repro.semantics.denotational import denote


@cache
def _controlled_pi_gate(axis: str, arity: int) -> FixedGate:
    """The fixed unitary ``|0⟩⟨0| ⊗ I + |1⟩⟨1| ⊗ R_σ(π)`` (control first),
    built once per axis and shared like the common fixed gates."""
    if arity == 2:
        block = rotation_matrix(axis, np.pi)
    else:
        block = coupling_matrix(axis, np.pi)
    dim = block.shape[0]
    matrix = np.zeros((2 * dim, 2 * dim), dtype=complex)
    matrix[:dim, :dim] = np.eye(dim)
    matrix[dim:, dim:] = block
    return FixedGate(f"C{axis}PI", matrix)


def eliminate_controlled_rotations(program: Program) -> Program:
    """Rewrite every ``C_R_σ(θ)`` / ``C_R_{σ⊗σ}(θ)`` into fixed-control + rotation.

    The rewriting is exact (the product of the two replacement unitaries is
    the original gate), keeps the parameter dependence inside an ordinary
    rotation/coupling, and therefore re-enables the Figure 4 rules on the
    output.
    """

    def rewrite(node: Program) -> Program:
        if not isinstance(node, UnitaryApp):
            return node
        gate = node.gate
        if isinstance(gate, ControlledRotation):
            control, target = node.qubits
            fixed = UnitaryApp(_controlled_pi_gate(gate.axis, 2), (control, target))
            rotation = UnitaryApp(Rotation(gate.axis, gate.angle), (target,))
            return Seq(fixed, rotation)
        if isinstance(gate, ControlledCoupling):
            control, target1, target2 = node.qubits
            fixed = UnitaryApp(_controlled_pi_gate(gate.axis, 3), (control, target1, target2))
            coupling = UnitaryApp(Coupling(gate.axis, gate.angle), (target1, target2))
            return Seq(fixed, coupling)
        return node

    return map_program(program, rewrite)


def iterated_derivative(
    program: Program,
    parameters: Sequence[Parameter],
) -> tuple[Program, tuple[str, ...]]:
    """Apply ``∂/∂θ`` once per entry of ``parameters`` (left to right).

    Returns the resulting additive program together with the ancilla names
    introduced at each order (first differentiation first).  Between
    successive differentiations the gadget gates of the previous order are
    eliminated so that the transformation rules remain applicable.
    """
    if not parameters:
        raise TransformError("at least one differentiation parameter is required")
    current: Program = program
    ancillae: list[str] = []
    for parameter in parameters:
        ancilla = ancilla_name_for(current, parameter)
        current = differentiate(current, parameter, ancilla=ancilla)
        current = eliminate_controlled_rotations(current)
        ancillae.append(ancilla)
    return current, tuple(ancillae)


def higher_order_derivative_expectation(
    program: Program,
    parameters: Sequence[Parameter],
    observable: Observable | np.ndarray,
    state: DensityState,
    binding: ParameterBinding,
) -> float:
    """Exactly evaluate a mixed partial derivative of the observable semantics.

    ``parameters`` lists the differentiation order, e.g. ``[θ, θ]`` for the
    second derivative or ``[θ, φ]`` for a mixed partial.  The readout
    observable is ``Z_{A_k} ⊗ … ⊗ Z_{A_1} ⊗ O`` with every ancilla prepared
    in ``|0⟩``, generalizing Definition 5.2 to iterated differentiation.
    """
    matrix = observable.matrix if isinstance(observable, Observable) else np.asarray(observable)
    if matrix.shape != (state.layout.total_dim, state.layout.total_dim):
        raise TransformError("the observable must act on the input state's register")
    derivative, ancillae = iterated_derivative(program, parameters)
    extended_state = state
    combined = matrix
    for ancilla in ancillae:
        extended_state = extended_state.extended(ancilla, dim=2, front=True)
        combined = np.kron(ANCILLA_OBSERVABLE, combined)
    total = 0.0
    for compiled in compile_additive(derivative):
        if essentially_aborts(compiled):
            continue
        output = denote(compiled, extended_state, binding)
        total += output.expectation(combined)
    return total
