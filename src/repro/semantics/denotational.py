"""Denotational semantics ``[[P]]`` (Figure 1b).

``[[P(θ*)]]`` is a trace-non-increasing superoperator on the partial density
operators over ``H_v``.  The evaluator here applies that superoperator to a
concrete :class:`~repro.sim.density.DensityState` rather than materializing
it as a matrix (the matrix form is available from
:mod:`repro.semantics.superoperators`).

The defining equations::

    [[abort]]ρ               = 0
    [[skip]]ρ                = ρ
    [[q := |0⟩]]ρ            = E_{q→0}(ρ)
    [[q := U(θ*)[q]]]ρ       = U(θ*) ρ U(θ*)†
    [[P1; P2]]ρ              = [[P2]]([[P1]]ρ)
    [[case M = m → P_m]]ρ    = Σ_m [[P_m]](M_m ρ M_m†)
    [[while(T) ...]]ρ        = Σ_{n=0}^{T−1} E_0 ∘ ([[P1]] ∘ E_1)^n (ρ)

The additive choice ``+`` has no single-superoperator denotation (its
denotational semantics is a *multiset*, Definition 4.1); evaluating it here
raises :class:`~repro.errors.SemanticsError`.
"""

from __future__ import annotations

from repro.errors import SemanticsError
from repro.lang.ast import (
    Abort,
    Case,
    Init,
    Program,
    Seq,
    Skip,
    Sum,
    UnitaryApp,
    While,
)
from repro.lang.gates import bound_gate_matrix
from repro.lang.parameters import ParameterBinding
from repro.sim.density import DensityState


def denote(program: Program, state: DensityState, binding: ParameterBinding | None = None) -> DensityState:
    """Apply ``[[P(θ*)]]`` to a density state.

    ``binding`` supplies θ*; it may be omitted for unparameterized programs.
    The state's layout must contain every variable the program accesses.
    """
    missing = program.qvars() - set(state.layout.names)
    if missing:
        raise SemanticsError(
            f"the input state does not carry variables {sorted(missing)} used by the program"
        )
    return _denote(program, state, binding)


def _denote(program: Program, state: DensityState, binding: ParameterBinding | None) -> DensityState:
    if isinstance(program, Abort):
        return DensityState.null_state(state.layout)
    if isinstance(program, Skip):
        return state
    if isinstance(program, Init):
        return state.initialize(program.qubit)
    if isinstance(program, UnitaryApp):
        return state.apply_unitary(bound_gate_matrix(program.gate, binding), program.qubits)
    if isinstance(program, Seq):
        for statement in program.statements:
            state = _denote(statement, state, binding)
        return state
    if isinstance(program, Case):
        result = DensityState.null_state(state.layout)
        for outcome, branch in program.branches:
            branch_state = state.measurement_branch(program.measurement, program.qubits, outcome)
            result = result.add(_denote(branch, branch_state, binding))
        return result
    if isinstance(program, While):
        total = DensityState.null_state(state.layout)
        current = state
        for _ in range(program.bound):
            terminated = current.measurement_branch(program.measurement, program.qubits, 0)
            total = total.add(terminated)
            continuing = current.measurement_branch(program.measurement, program.qubits, 1)
            current = _denote(program.body, continuing, binding)
        # After the T-th iteration the still-running branch aborts (contributes 0).
        return total
    if isinstance(program, Sum):
        raise SemanticsError(
            "the additive choice '+' has a multiset semantics; use "
            "repro.additive.semantics or compile the program first"
        )
    raise SemanticsError(f"unknown program node {type(program).__name__}")


def denote_matrix(
    program: Program,
    state: DensityState,
    binding: ParameterBinding | None = None,
):
    """Convenience wrapper returning the raw output density matrix (NumPy array)."""
    return denote(program, state, binding).matrix
