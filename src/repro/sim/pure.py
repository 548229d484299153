"""Batched pure-state (statevector) denotational semantics.

For programs the purity analysis (:mod:`repro.analysis.purity`) certifies
as measurement-free, ``[[P(θ*)]]`` maps pure states to pure states, so the
``O(4^n)`` density representation is redundant: this module evaluates the
defining equations of Figure 1b directly on amplitude vectors —

* over a whole *stack* of inputs at once: a ``(B, d^n)`` array is advanced
  through each gate with one broadcasted contraction
  (:func:`repro.sim.kernels.apply_operator_vector_batch`), which is how the
  training loop's data-point batches amortize per-gate numpy dispatch;
* with sub-normalized vectors for partiality: ``abort`` denotes the zero
  vector, whose outer product is exactly the zero partial density operator.

Leading ``q := |0⟩`` resets are evaluated by
:func:`repro.sim.kernels.reset_vector_batch`, which *verifies at runtime*
that the reset variable is unentangled (the static analysis only proves no
earlier statement touched it — the input state could still be entangled)
to within the trajectory walk's reset floor, ``TrajectoryOptions().prune_tol``
of relative purity defect, and raises :class:`~repro.errors.PurityError`
otherwise; callers such as
:class:`repro.api.StatevectorBackend` catch that and fall back to the
density simulator.  ``case``/``while``/``+`` raise
:class:`~repro.errors.SemanticsError` — they are exactly what the purity
analysis rejects, so reaching one here means the caller skipped the
analysis.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SemanticsError
from repro.lang.ast import (
    Abort,
    Init,
    Program,
    Seq,
    Skip,
    Sum,
    UnitaryApp,
)
from repro.lang.gates import bound_gate_matrix
from repro.lang.parameters import ParameterBinding
from repro.sim import kernels
from repro.sim.hilbert import RegisterLayout
from repro.sim.statevector import StateVector
from repro.sim.trajectories import TrajectoryOptions

__all__ = ["denote_amplitude_batch", "denote_pure"]

#: A reset keeps one row only below this relative purity defect: what it
#: discards is charged nowhere, so it uses the walk's pruning floor.
_RESET_ATOL = TrajectoryOptions().prune_tol


def denote_amplitude_batch(
    program: Program,
    layout: RegisterLayout,
    amplitudes: np.ndarray,
    binding: ParameterBinding | None = None,
) -> np.ndarray:
    """Apply ``[[P(θ*)]]`` to a ``(B, d^n)`` stack of pure-state amplitudes.

    Returns the output stack (possibly sub-normalized rows).  The program
    must be measurement-free (see the module docs for the failure modes).
    """
    missing = program.qvars() - set(layout.names)
    if missing:
        raise SemanticsError(
            f"the input state does not carry variables {sorted(missing)} used by the program"
        )
    batch = np.asarray(amplitudes, dtype=complex)
    if batch.ndim != 2 or batch.shape[1] != layout.total_dim:
        raise SemanticsError(
            f"batched amplitudes must have shape (B, {layout.total_dim}), got {batch.shape}"
        )
    return _denote(program, layout, batch, binding)


def _denote(
    program: Program,
    layout: RegisterLayout,
    batch: np.ndarray,
    binding: ParameterBinding | None,
) -> np.ndarray:
    if isinstance(program, Abort):
        return np.zeros_like(batch)
    if isinstance(program, Skip):
        return batch
    if isinstance(program, Init):
        return kernels.reset_vector_batch(
            batch, layout.dims, layout.index(program.qubit), atol=_RESET_ATOL
        )
    if isinstance(program, UnitaryApp):
        return kernels.apply_operator_vector_batch(
            batch,
            layout.dims,
            layout.axes_of(program.qubits),
            bound_gate_matrix(program.gate, binding),
        )
    if isinstance(program, Seq):
        for statement in program.statements:
            batch = _denote(statement, layout, batch, binding)
        return batch
    if isinstance(program, Sum):
        raise SemanticsError(
            "the additive choice '+' has a multiset semantics; compile the program first"
        )
    raise SemanticsError(
        f"{type(program).__name__} is not statevector-simulable; the purity analysis "
        "(repro.analysis.purity) gates which programs may take the pure-state path"
    )


def denote_pure(
    program: Program,
    state: StateVector,
    binding: ParameterBinding | None = None,
) -> StateVector:
    """Apply ``[[P(θ*)]]`` to a single pure state (batch-of-one convenience)."""
    output = denote_amplitude_batch(
        program, state.layout, state.amplitudes[np.newaxis, :], binding
    )
    return StateVector(state.layout, output[0])
