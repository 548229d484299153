"""The code-transformation rules ``∂/∂θ_j(·)`` of Figure 4.

``differentiate(S, θ_j)`` maps an additive program ``S(θ)`` over variables
``v`` to the additive program ``∂S/∂θ_j`` over ``v ∪ {A_j}``, where ``A_j``
is a fresh one-qubit ancilla.  The rules:

* **Trivial** — ``abort``, ``skip``, ``q := |0⟩`` and unitaries that do not
  use θ_j transform to ``abort[v ∪ {A}]`` (their observable semantics does
  not depend on θ_j, so the derivative program contributes nothing);
* **1-qb / 2-qb** — a rotation/coupling using θ_j transforms to the gadget
  ``R'``/``R'_{σ⊗σ}`` of Definition 6.1;
* **Sequence** — the quantum product rule ``∂(S₁;…;Sₙ) = Σᵢ
  (S₁;…;∂Sᵢ;…;Sₙ)``, expressed with the additive choice because no-cloning
  forbids running the summands on one copy of the state.  The sum runs over
  only the ``Sᵢ`` that use θ_j, last statement first (the order the binary
  rule ``(S₁;∂S₂) + (∂S₁;S₂)`` yields along any nesting), and is the Trivial
  ``abort[v ∪ {A}]`` when none does: any other member holds an essentially
  aborting ``∂Sᵢ``, which the Figure 3 compile drops anyway;
* **Case** — differentiate each branch under the same guard;
* **While(T)** — the rules above on the macro expansion (Eq. 3.1 / the
  ``Seq_T`` program of Appendix D) with the body ``P`` as one statement:
  the 1-branch is ``(P; ∂while(T−1)) + (∂P; while(T−1))``, or ``∂P;
  abort[v]`` at ``T = 1``, and ``∂P`` is built once;
* **S-C** — ``∂(S₁+…+Sₙ) = ∂S₁ + … + ∂Sₙ``.

Compiled, this gives the binary rules' multiset member for member on θ₁ of
every Table 3 instance and every parameter of P1–P3.  Elsewhere a member
may keep a ``case`` branch that essentially aborts where the binary rules'
fill-and-break wrote its filler ``abort`` (a ``case`` whose derivative is a
normal program compiles as itself); both are the zero map, and the
non-aborting counts agree.

The transformation itself never needs the parameter's numeric value; it is a
purely syntactic compile-time step, exactly as in classical source-to-source
automatic differentiation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from repro.errors import TransformError
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
    abort_over,
)
from repro.lang.builder import sum_programs
from repro.lang.gates import Coupling, Rotation
from repro.lang.parameters import Parameter
from repro.autodiff.gadgets import differentiation_gadget


def ancilla_name_for(program: Program, parameter: Parameter) -> str:
    """Return a fresh ancilla variable name ``A_{j}`` for differentiating ``program``.

    The name embeds the parameter so that ancillae of different partial
    derivatives never collide; a numeric suffix is appended in the unlikely
    event that the program already uses the name (e.g. iterated
    differentiation with respect to the same parameter).  The name is
    ``sys.intern``-ed: the shared aborts over ``v ∪ {A}`` hold the string of
    their first caller, and pickles write one string object once, so equal
    work digests alike only if every call hands out the same object.
    """
    used = program.qvars()
    base = f"anc_{parameter.name}"
    if base not in used:
        return sys.intern(base)
    counter = 1
    while f"{base}_{counter}" in used:
        counter += 1
    return sys.intern(f"{base}_{counter}")


@dataclass(frozen=True)
class DifferentiationContext:
    """Everything fixed during one application of ``∂/∂θ_j``.

    ``variables`` is the full variable set ``v`` of the root program, used
    to build the canonical ``abort[v ∪ {A}]`` of the trivial rules;
    ``ancilla`` is the fresh control qubit ``A_j``.
    """

    parameter: Parameter
    ancilla: str
    variables: tuple[str, ...]

    def trivial_abort(self) -> Abort:
        """The ``abort[v ∪ {A}]`` statement used by the Trivial rules."""
        return self._trivial_abort

    @cached_property
    def _trivial_abort(self) -> Abort:
        return abort_over((*self.variables, self.ancilla))


def differentiate(
    program: Program,
    parameter: Parameter,
    *,
    ancilla: str | None = None,
    variables: Iterable[str] | None = None,
) -> Program:
    """Apply the code-transformation rules of Figure 4: return ``∂ program / ∂ parameter``.

    Parameters
    ----------
    program:
        A normal or additive program ``S(θ)``.
    parameter:
        The parameter θ_j to differentiate with respect to.
    ancilla:
        Name of the ancilla qubit ``A_j``; a fresh one is chosen by default.
    variables:
        The variable universe ``v``; defaults to ``qVar(program)``.  Passing
        a larger universe only changes the variable annotation of the
        ``abort`` statements produced by the trivial rules.
    """
    variable_set = tuple(sorted(set(variables) if variables is not None else program.qvars()))
    ancilla = ancilla if ancilla is not None else ancilla_name_for(program, parameter)
    if ancilla in variable_set:
        raise TransformError(
            f"ancilla {ancilla!r} collides with a program variable; choose a fresh name"
        )
    context = DifferentiationContext(parameter, ancilla, variable_set)
    return _transform(program, context)


def _transform(program: Program, context: DifferentiationContext) -> Program:
    if isinstance(program, (Abort, Skip, Init)):
        # (Trivial): these statements do not depend on any parameter.
        return context.trivial_abort()
    if isinstance(program, UnitaryApp):
        return _transform_unitary(program, context)
    if isinstance(program, Seq):
        # (Sequence): ∂(S₁;…;Sₙ) ≡ Σᵢ (S₁;…;∂Sᵢ;…;Sₙ) over the Sᵢ that use θ.
        statements = program.statements
        members = [
            Seq(*statements[:index], _transform(statement, context), *statements[index + 1 :])
            for index, statement in reversed(list(enumerate(statements)))
            if context.parameter in statement.parameters()
        ]
        return sum_programs(members) if members else context.trivial_abort()
    if isinstance(program, Case):
        # (Case): differentiate every branch under the same guard.
        return Case(
            program.measurement,
            program.qubits,
            [(outcome, _transform(branch, context)) for outcome, branch in program.branches],
        )
    if isinstance(program, While):
        # (While(T)): differentiate the case/sequence macro expansion.
        return _transform_while(program, context)
    if isinstance(program, Sum):
        # (S-C): ∂ distributes over the additive choice.
        return Sum(*(_transform(summand, context) for summand in program.summands))
    raise TransformError(f"unknown program node {type(program).__name__}")


def _transform_while(loop: While, context: DifferentiationContext) -> Case:
    """``∂(while(T))``, unfolding by unfolding from ``while(1)`` outwards."""
    trivial = context.trivial_abort()
    if context.parameter not in loop.parameters():
        return Case(loop.measurement, loop.qubits, {0: trivial, 1: trivial})
    body_derivative = _transform(loop.body, context)
    continuation: Program = Seq(body_derivative, abort_over(loop.qvars()))
    for bound in range(1, loop.bound):
        smaller = While(loop.measurement, loop.qubits, loop.body, bound)
        derivative = Case(loop.measurement, loop.qubits, {0: trivial, 1: continuation})
        continuation = Sum(Seq(loop.body, derivative), Seq(body_derivative, smaller))
    return Case(loop.measurement, loop.qubits, {0: trivial, 1: continuation})


def _transform_unitary(statement: UnitaryApp, context: DifferentiationContext) -> Program:
    gate = statement.gate
    if not gate.uses(context.parameter):
        # (Trivial-U): the gate only trivially uses θ_j.
        return context.trivial_abort()
    if isinstance(gate, (Rotation, Coupling)):
        # (1-qb) / (2-qb): replace the rotation by the R' gadget.
        return differentiation_gadget(statement, context.ancilla)
    raise TransformError(
        f"gate {gate.display()} depends on parameter {context.parameter.name!r} but is not "
        "a Pauli rotation or coupling; Figure 4 has no rule for it"
    )
