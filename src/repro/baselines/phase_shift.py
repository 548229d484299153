"""The two-circuit parameter-shift ("phase-shift") rule (Schuld et al. 2019).

For a circuit whose parameterized gates are Pauli rotations/couplings
``R_σ(θ)`` with ``σ² = I``, the derivative of the expectation with respect
to one *occurrence* of θ is

    ∂/∂θ f(θ) = ½ ( f(θ + π/2) − f(θ − π/2) ),

evaluated by running two shifted copies of the circuit.  When a parameter
occurs in several gates, the rule is applied per occurrence and the
contributions are summed — ``2 · OC_j(P)`` circuit executions in total,
versus the ``≤ OC_j(P)`` single-ancilla programs of the paper's gadget.

This baseline mirrors what PennyLane implements for quantum nodes and, like
PennyLane, it is restricted to *circuit* programs: measurement-controlled
branching (``case``/``while``) is outside its domain, which is exactly the
limitation the Section 8.1 case study exercises.

Each shifted circuit is evaluated through a per-call
:class:`~repro.api.Estimator` on a configurable backend.  Circuits are by
definition measurement-free, so the default ``backend="auto"`` runs every
shifted copy on the ``O(2^n)`` statevector tier (falling back to the
density simulator only for mixed input states); pass
``backend="exact-density"`` for the historical arithmetic.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import TransformError
from repro.lang.ast import Program, UnitaryApp
from repro.lang.builder import seq
from repro.lang.gates import Coupling, Rotation
from repro.lang.parameters import Parameter, ParameterBinding
from repro.lang.traversal import is_circuit
from repro.linalg.observables import Observable
from repro.sim.density import DensityState


def _require_circuit(program: Program) -> None:
    if not is_circuit(program):
        raise TransformError(
            "the parameter-shift baseline only applies to circuit programs "
            "(no case/while/init/abort); use repro.autodiff for programs with controls"
        )


def _shifted(statements: tuple[Program, ...], position: int, shifted_value: float) -> Program:
    """The circuit ``statements`` with the rotation or coupling at
    ``position`` set to the fixed angle ``shifted_value``."""
    statement = statements[position]
    gate = statement.gate
    if not isinstance(gate, (Rotation, Coupling)):
        raise TransformError(
            f"gate {gate.display()} uses the parameter but is not a rotation/coupling; "
            "the parameter-shift rule does not apply"
        )
    replacement = UnitaryApp(type(gate)(gate.axis, shifted_value), statement.qubits)
    return seq([*statements[:position], replacement, *statements[position + 1 :]])


def _resolve(backend):
    """The backend of a spec; one built here from a name caches nothing
    (every shifted circuit is a fresh program), an instance keeps its cache."""
    from repro.api import Backend, DenotationCache, resolve_backend

    if isinstance(backend, Backend):
        return backend
    backend = resolve_backend(backend)
    backend.cache = DenotationCache(0)
    return backend


def _evaluate(program, observable, state, binding, backend) -> float:
    from repro.api import Estimator

    return Estimator(program, observable, backend=backend).value(state, binding)


def phase_shift_derivative(
    program: Program,
    parameter: Parameter,
    observable: Observable | np.ndarray,
    state: DensityState,
    binding: ParameterBinding,
    *,
    shift: float = math.pi / 2,
    backend="auto",
) -> float:
    """Compute ``∂/∂θ_j tr(O[[P(θ)]]ρ)`` with the two-circuit parameter-shift rule.

    ``backend`` is any spec :func:`repro.api.resolve_backend` accepts; the
    default ``"auto"`` runs the ``2·OC_j`` shifted circuits on the
    statevector tier (circuits are always measurement-free).
    """
    _require_circuit(program)
    backend = _resolve(backend)
    total = 0.0
    # A circuit is one statement or one flat sequence of gates and skips.
    statements = program.children() or (program,)
    theta = binding[parameter]
    for position, statement in enumerate(statements):
        if not isinstance(statement, UnitaryApp) or not statement.gate.uses(parameter):
            continue
        plus_program = _shifted(statements, position, theta + shift)
        minus_program = _shifted(statements, position, theta - shift)
        plus = _evaluate(plus_program, observable, state, binding, backend)
        minus = _evaluate(minus_program, observable, state, binding, backend)
        total += 0.5 * (plus - minus)
    return total


def phase_shift_gradient(
    program: Program,
    parameters: Sequence[Parameter],
    observable: Observable | np.ndarray,
    state: DensityState,
    binding: ParameterBinding,
    *,
    backend="auto",
) -> np.ndarray:
    """Gradient over several parameters using the parameter-shift rule."""
    backend = _resolve(backend)
    return np.array(
        [
            phase_shift_derivative(
                program, parameter, observable, state, binding, backend=backend
            )
            for parameter in parameters
        ],
        dtype=float,
    )
