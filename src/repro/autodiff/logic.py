"""The differentiation logic (Figure 5) and its soundness (Theorem 6.2).

The logic derives judgements ``S′(θ) | S(θ)`` — "``S′`` computes the j-th
differential semantics of ``S``" (Definition 5.3).  This module provides

* :class:`Judgement` and :class:`Derivation` — proof trees whose nodes are
  instances of the rules of Figure 5;
* :func:`derive` — builds the canonical derivation for the program produced
  by the code transformation (the derivation mirrors the program's syntax);
* :func:`check_derivation` — a purely structural proof checker: every node
  is verified against its rule's side conditions and the way its conclusion
  must be assembled from the premises.  It does *not* call the code
  transformation, so it is an independent witness that the transformation's
  output is derivable.  The Sequence rule is n-ary, like the ``Seq`` node:
  ``∂(S₁;…;Sₙ) | S₁;…;Sₙ`` has one premise ``∂Sᵢ | Sᵢ`` per statement that
  uses θ_j, its conclusion is ``Σᵢ (S₁;…;∂Sᵢ;…;Sₙ)`` over them, last
  statement first, and θ_j may occur in no other statement;
* :func:`validate_soundness` — the semantic (numerical) counterpart of
  Theorem 6.2: it compares the observable semantics of ``S′`` (with the
  ancilla observable ``Z_A``) against a finite-difference evaluation of the
  differential semantics of ``S`` over supplied observables, states, and
  parameter points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import LogicError
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
from repro.lang.parameters import Parameter, ParameterBinding
from repro.linalg.observables import Observable
from repro.sim.density import DensityState
from repro.semantics.observable import (
    additive_observable_semantics_with_ancilla,
    differential_semantics,
)
from repro.autodiff.gadgets import ANCILLA_OBSERVABLE, differentiation_gadget
from repro.autodiff.transform import (
    DifferentiationContext,
    ancilla_name_for,
    differentiate,
)


@dataclass(frozen=True)
class Judgement:
    """The judgement ``derivative | original`` for one parameter θ_j."""

    derivative: Program
    original: Program
    parameter: Parameter


@dataclass(frozen=True)
class Derivation:
    """A derivation tree: a rule instance with premise sub-derivations."""

    rule: str
    judgement: Judgement
    premises: tuple["Derivation", ...] = ()

    def size(self) -> int:
        """Number of rule instances in the derivation."""
        return 1 + sum(premise.size() for premise in self.premises)

    def rules_used(self) -> set[str]:
        """The set of rule names appearing anywhere in the derivation."""
        result = {self.rule}
        for premise in self.premises:
            result |= premise.rules_used()
        return result


# -- derivation construction ----------------------------------------------------------


def derive(
    program: Program,
    parameter: Parameter,
    *,
    ancilla: str | None = None,
    variables: Iterable[str] | None = None,
) -> Derivation:
    """Build the canonical derivation of ``∂S/∂θ_j | S`` for the transformed program."""
    variable_set = tuple(sorted(set(variables) if variables is not None else program.qvars()))
    ancilla = ancilla if ancilla is not None else ancilla_name_for(program, parameter)
    context = DifferentiationContext(parameter, ancilla, variable_set)
    return _derive(program, context)


def _derive(program: Program, context: DifferentiationContext) -> Derivation:
    parameter = context.parameter

    def conclude(rule: str, derivative: Program, premises: tuple[Derivation, ...] = ()) -> Derivation:
        return Derivation(rule, Judgement(derivative, program, parameter), premises)

    if isinstance(program, Abort):
        return conclude("Abort", context.trivial_abort())
    if isinstance(program, Skip):
        return conclude("Skip", context.trivial_abort())
    if isinstance(program, Init):
        return conclude("Initialization", context.trivial_abort())
    if isinstance(program, UnitaryApp):
        if not program.gate.uses(parameter):
            return conclude("Trivial-Unitary", context.trivial_abort())
        return conclude("Rot-Couple", differentiation_gadget(program, context.ancilla))
    if isinstance(program, Seq):
        premises = tuple(
            _derive(program.statements[index], context) for index in _using(program, parameter)
        )
        derivative = _sequence_derivative(program, premises, context)
        return conclude("Sequence", derivative, premises)
    if isinstance(program, Case):
        premises = tuple(_derive(branch, context) for _, branch in program.branches)
        derivative = Case(
            program.measurement,
            program.qubits,
            [
                (outcome, premise.judgement.derivative)
                for (outcome, _), premise in zip(program.branches, premises)
            ],
        )
        return conclude("Case", derivative, premises)
    if isinstance(program, While):
        body = _derive(program.body, context)
        derivative = _while_derivative(program, body.judgement.derivative, context)
        return conclude("While", derivative, (body,))
    if isinstance(program, Sum):
        premises = tuple(_derive(summand, context) for summand in program.summands)
        derivative = Sum(*(premise.judgement.derivative for premise in premises))
        return conclude("Sum-Component", derivative, premises)
    raise LogicError(f"unknown program node {type(program).__name__}")


def _using(program: Seq, parameter: Parameter) -> list[int]:
    """The positions of a sequence's statements that use ``parameter``."""
    return [index for index, s in enumerate(program.statements) if parameter in s.parameters()]


def _sequence_derivative(
    program: Seq, premises: Sequence[Derivation], context: DifferentiationContext
) -> Program:
    """The Sequence rule's conclusion ``Σᵢ (S₁;…;∂Sᵢ;…;Sₙ)``, last statement
    first, from one premise per statement that uses θ_j, in order; the
    Trivial ``abort[v ∪ {A}]`` when no statement does."""
    statements = program.statements
    members = [
        Seq(*statements[:index], premise.judgement.derivative, *statements[index + 1 :])
        for index, premise in reversed(list(zip(_using(program, context.parameter), premises)))
    ]
    return sum_programs(members) if members else context.trivial_abort()


def _while_derivative(loop: While, body_derivative: Program, context: DifferentiationContext) -> Program:
    """Assemble ``∂(while(T))`` from ``∂(body)`` following the macro expansion.

    ``∂(while(T))`` is the ``Seq_T`` program of Appendix D: unfold
    ``while(T)`` into its case/sequence macro and apply the Case, Sequence
    and Trivial rules with the body as one statement.  The 0-branch is
    ``abort[v ∪ {A}]``; the 1-branch is ``(P; ∂while(T−1)) + (∂P;
    while(T−1))``, ``∂P; abort[v]`` at ``T = 1``, and ``abort[v ∪ {A}]``
    when the body ``P`` does not use θ_j.
    """
    trivial = context.trivial_abort()
    if context.parameter not in loop.parameters():
        continuation: Program = trivial
    elif loop.bound == 1:
        continuation = Seq(body_derivative, abort_over(loop.qvars()))
    else:
        smaller = While(loop.measurement, loop.qubits, loop.body, loop.bound - 1)
        continuation = Sum(
            Seq(loop.body, _while_derivative(smaller, body_derivative, context)),
            Seq(body_derivative, smaller),
        )
    return Case(loop.measurement, loop.qubits, {0: trivial, 1: continuation})


# -- derivation checking ----------------------------------------------------------------


def check_derivation(
    derivation: Derivation,
    *,
    ancilla: str,
    variables: Sequence[str],
) -> bool:
    """Structurally verify a derivation against the rules of Figure 5.

    Every node is checked locally: the rule must be applicable to the
    original program's top construct, the premises must be derivations for
    the correct sub-programs (with the same parameter), and the conclusion's
    derivative must be assembled from the premises exactly as the rule
    prescribes.  Raises :class:`~repro.errors.LogicError` on the first
    violation and returns True otherwise.
    """
    context = DifferentiationContext(
        derivation.judgement.parameter, ancilla, tuple(sorted(variables))
    )
    _check(derivation, context)
    return True


def _check(derivation: Derivation, context: DifferentiationContext) -> None:
    judgement = derivation.judgement
    original = judgement.original
    derivative = judgement.derivative
    rule = derivation.rule
    parameter = context.parameter

    for premise in derivation.premises:
        if premise.judgement.parameter != parameter:
            raise LogicError("premises must concern the same differentiation parameter")

    if rule in ("Abort", "Skip", "Initialization"):
        expected_types = {"Abort": Abort, "Skip": Skip, "Initialization": Init}
        if not isinstance(original, expected_types[rule]):
            raise LogicError(f"rule {rule} applied to {type(original).__name__}")
        _expect(derivative == context.trivial_abort(), rule, "conclusion must be abort[v ∪ {A}]")
        _expect(not derivation.premises, rule, "axioms take no premises")
    elif rule == "Trivial-Unitary":
        if not isinstance(original, UnitaryApp):
            raise LogicError("Trivial-Unitary applied to a non-unitary statement")
        _expect(
            not original.gate.uses(parameter),
            rule,
            "side condition θ_j ∉ θ(U) violated: the gate uses the parameter",
        )
        _expect(derivative == context.trivial_abort(), rule, "conclusion must be abort[v ∪ {A}]")
        _expect(not derivation.premises, rule, "axioms take no premises")
    elif rule == "Rot-Couple":
        if not isinstance(original, UnitaryApp) or not isinstance(
            original.gate, (Rotation, Coupling)
        ):
            raise LogicError("Rot-Couple applies only to Pauli rotations and couplings")
        _expect(
            original.gate.uses(parameter),
            rule,
            "the rotation must use the differentiation parameter",
        )
        _expect(
            derivative == differentiation_gadget(original, context.ancilla),
            rule,
            "conclusion must be the R' gadget",
        )
        _expect(not derivation.premises, rule, "axioms take no premises")
    elif rule == "Sequence":
        if not isinstance(original, Seq):
            raise LogicError("Sequence rule applied to a non-sequence program")
        # One premise per statement that uses θ_j, in order: every statement
        # without one must satisfy the side condition θ_j ∉ θ(Sᵢ).
        _expect(
            [premise.judgement.original for premise in derivation.premises]
            == [original.statements[index] for index in _using(original, parameter)],
            rule,
            "premises must be the statements that use the parameter, in order",
        )
        expected = _sequence_derivative(original, derivation.premises, context)
        _expect(derivative == expected, rule, "conclusion must follow the product rule")
    elif rule == "Case":
        if not isinstance(original, Case):
            raise LogicError("Case rule applied to a non-case program")
        _expect(
            len(derivation.premises) == len(original.branches),
            rule,
            "one premise per branch required",
        )
        if not isinstance(derivative, Case):
            raise LogicError("the conclusion of the Case rule must be a case statement")
        _expect(
            derivative.measurement == original.measurement
            and derivative.qubits == original.qubits,
            rule,
            "the guard must be unchanged",
        )
        for (outcome, branch), premise in zip(original.branches, derivation.premises):
            _expect(premise.judgement.original == branch, rule, "branch premise mismatch")
            _expect(
                derivative.branch(outcome) == premise.judgement.derivative,
                rule,
                f"branch {outcome} of the conclusion must be the branch derivative",
            )
    elif rule == "While":
        if not isinstance(original, While):
            raise LogicError("While rule applied to a non-while program")
        _expect(len(derivation.premises) == 1, rule, "exactly one premise (the body) required")
        body = derivation.premises[0]
        _expect(body.judgement.original == original.body, rule, "body premise mismatch")
        expected = _while_derivative(original, body.judgement.derivative, context)
        _expect(derivative == expected, rule, "conclusion must be the unfolded Seq_T program")
    elif rule == "Sum-Component":
        if not isinstance(original, Sum):
            raise LogicError("Sum-Component rule applied to a non-additive program")
        _expect(
            tuple(premise.judgement.original for premise in derivation.premises)
            == original.summands,
            rule,
            "premises must be the summands, in order",
        )
        expected = Sum(*(premise.judgement.derivative for premise in derivation.premises))
        _expect(derivative == expected, rule, "conclusion must be the sum of premise derivatives")
    else:
        raise LogicError(f"unknown rule {rule!r}")

    for premise in derivation.premises:
        _check(premise, context)


def _expect(condition: bool, rule: str, message: str) -> None:
    if not condition:
        raise LogicError(f"rule {rule}: {message}")


# -- semantic soundness (Theorem 6.2) ----------------------------------------------------


def validate_soundness(
    program: Program,
    parameter: Parameter,
    cases: Sequence[tuple[Observable, DensityState]],
    bindings: Sequence[ParameterBinding],
    *,
    finite_difference_step: float = 1e-5,
) -> float:
    """Numerically validate Theorem 6.2 on a family of observables, states and points.

    For every ``(O, ρ)`` pair and every binding θ*, compares

        [[((O, Z_A), ρ) → ∂S/∂θ_j]](θ*)   (the transformed program's readout)

    against a central finite difference of ``[[(O, ρ) → S]]`` at θ*.
    Returns the maximum absolute discrepancy across all cases.
    """
    derivative = differentiate(program, parameter)
    ancilla = ancilla_name_for(program, parameter)
    worst = 0.0
    for observable, state in cases:
        for binding in bindings:
            transformed_value = additive_observable_semantics_with_ancilla(
                derivative,
                observable,
                state,
                ancilla,
                binding,
                ancilla_observable=ANCILLA_OBSERVABLE,
            )
            reference = differential_semantics(
                program,
                parameter,
                observable,
                state,
                binding,
                step=finite_difference_step,
            )
            worst = max(worst, abs(transformed_value - reference))
    return worst
