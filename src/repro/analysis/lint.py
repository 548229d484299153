"""Lint rules over program ASTs: a registry of static checks.

Each rule is a function registered under a stable diagnostic code
(``RPR001`` …) that inspects one program via :mod:`repro.lang.traversal`
and reports findings into a shared
:class:`~repro.analysis.diagnostics.DiagnosticBag`.  The rules are
structural companions to the semantic analyses: they catch programs that
are *well-formed but almost certainly wrong* — dead wires, parameters that
can never train, ``case`` arms no input can reach, ``while`` bounds whose
unrolling saturates the branch-bound arithmetic, and adjacent gate pairs
that cancel.

Run them via :func:`lint_program` (programmatic) or ``python -m
repro.analysis`` (files, through :mod:`repro.lang.parser`).

Registered rules
================

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
RPR001    warning   dead wire: a variable is declared on ``skip``/``abort``
                    but no statement ever acts on it
RPR002    warning   a declared parameter does not occur in the program
RPR003    warning   a parameter name shadows a quantum variable name
RPR004    warning   unreachable ``case`` arm: the measured variables are
                    freshly initialized to ``|0⟩`` and the arm's operator
                    annihilates ``|0…0⟩``
RPR005    error     a ``while`` unrolling saturates the static branch
                    bound (effectively unbounded trajectory fan-out)
RPR006    warning   adjacent gates on the same wires cancel to the
                    identity
RPR007    warning   adjacent rotations on the same wire sum to ``2π``
                    (identity up to a global ``−1`` — observable only in
                    additive sums)
RPR008    warning   differentiating a parameter with zero occurrences
                    (the derivative is identically zero)
========  ========  =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.analysis.diagnostics import Diagnostic, DiagnosticBag, Severity
from repro.analysis.purity import BRANCH_BOUND_CAP, simulation_report
from repro.analysis.resources import occurrence_count
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
from repro.lang.gates import FixedGate, Rotation
from repro.lang.parameters import Parameter
from repro.lang.traversal import child_labels, iter_with_paths

__all__ = [
    "LintContext",
    "LintRule",
    "all_rules",
    "lint_program",
    "rule",
]

_ATOL = 1e-9
_FULL_PERIOD = 4.0 * math.pi  # R_σ(θ) = exp(−iθσ/2): R(2π) = −I, R(4π) = I


@dataclass(frozen=True)
class LintContext:
    """Everything a rule may inspect; rules report into ``bag``."""

    program: Program
    parameters: tuple[Parameter, ...]
    differentiating: tuple[Parameter, ...]
    bag: DiagnosticBag
    source: str | None = None

    def report(
        self,
        severity: Severity,
        code: str,
        message: str,
        *,
        path: tuple[str, ...] = (),
        node: Program | None = None,
    ) -> Diagnostic:
        return self.bag.report(
            severity, code, message, path=path, node=node, source=self.source
        )


@dataclass(frozen=True)
class LintRule:
    """One registered check: a stable code plus the checking function."""

    code: str
    name: str
    severity: Severity
    check: Callable[[LintContext], None]


_REGISTRY: dict[str, LintRule] = {}


def rule(code: str, name: str, severity: Severity):
    """Register a lint rule under ``code``; used as a decorator."""

    def register(check: Callable[[LintContext], None]) -> Callable[[LintContext], None]:
        if code in _REGISTRY:
            raise ValueError(f"duplicate lint rule code {code}")
        _REGISTRY[code] = LintRule(code=code, name=name, severity=severity, check=check)
        return check

    return register


def all_rules() -> tuple[LintRule, ...]:
    """Every registered rule, ordered by code."""
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def lint_program(
    program: Program,
    *,
    parameters: Iterable[Parameter] | None = None,
    differentiating: Iterable[Parameter] | None = None,
    rules: Iterable[str] | None = None,
    source: str | None = None,
) -> DiagnosticBag:
    """Run the registered rules over one program.

    ``parameters`` declares the parameter vector the caller intends to bind
    (enables the unused-parameter rule); ``differentiating`` names the
    parameters the caller intends to differentiate by (enables the
    zero-occurrence rule); ``rules`` restricts the run to a subset of codes.
    """
    bag = DiagnosticBag()
    context = LintContext(
        program=program,
        parameters=tuple(parameters or ()),
        differentiating=tuple(differentiating or ()),
        bag=bag,
        source=source,
    )
    selected = sorted(_REGISTRY) if rules is None else list(rules)
    for code in selected:
        try:
            registered = _REGISTRY[code]
        except KeyError:
            raise ValueError(f"unknown lint rule code {code!r}") from None
        registered.check(context)
    return bag


# -- RPR001: dead wires ---------------------------------------------------------------


@rule("RPR001", "dead-wire", Severity.WARNING)
def _dead_wires(ctx: LintContext) -> None:
    """A variable listed only on ``skip``/``abort`` is never acted on."""
    active: set[str] = set()
    declared: set[str] = set()
    for _, node in iter_with_paths(ctx.program):
        if isinstance(node, (Skip, Abort)):
            declared.update(node.qubits)
        elif isinstance(node, Init):
            active.add(node.qubit)
        elif isinstance(node, (UnitaryApp, Case, While)):
            active.update(node.qubits)
    for name in sorted(declared - active):
        ctx.report(
            Severity.WARNING,
            "RPR001",
            f"variable {name!r} is declared but no statement acts on it (dead wire)",
            node=ctx.program,
        )


# -- RPR002/RPR003: parameter hygiene -------------------------------------------------


@rule("RPR002", "unused-parameter", Severity.WARNING)
def _unused_parameters(ctx: LintContext) -> None:
    if not ctx.parameters:
        return
    used = ctx.program.parameters()
    for parameter in ctx.parameters:
        if parameter not in used:
            ctx.report(
                Severity.WARNING,
                "RPR002",
                f"parameter {parameter.name!r} is declared but never used",
                node=ctx.program,
            )


@rule("RPR003", "shadowed-parameter", Severity.WARNING)
def _shadowed_parameters(ctx: LintContext) -> None:
    qvars = ctx.program.qvars()
    seen: set[str] = set()
    for parameter in tuple(ctx.program.parameters()) + ctx.parameters:
        if parameter.name in qvars and parameter.name not in seen:
            seen.add(parameter.name)
            ctx.report(
                Severity.WARNING,
                "RPR003",
                f"parameter {parameter.name!r} shadows a quantum variable of the "
                "same name (confusing bindings; rename one of them)",
                node=ctx.program,
            )


# -- RPR004: unreachable case arms ----------------------------------------------------


def _operator_annihilates_zero(operator: np.ndarray) -> bool:
    """True when ``M_m |0…0⟩ ≈ 0`` — the arm's branch has zero mass."""
    column = np.asarray(operator)[:, 0]
    return bool(float(np.linalg.norm(column)) <= _ATOL)


def _walk_known_zero(
    ctx: LintContext,
    node: Program,
    path: tuple[str, ...],
    zeroed: set[str],
) -> set[str]:
    """Forward dataflow: which variables are freshly ``|0⟩`` (and unentangled)?

    ``Init`` proves its variable; any gate, guard, or branch collapse on a
    variable conservatively forgets it.  Returns the state after ``node``.
    """
    if isinstance(node, (Skip, Abort)):
        return zeroed
    if isinstance(node, Init):
        return zeroed | {node.qubit}
    if isinstance(node, UnitaryApp):
        return zeroed - set(node.qubits)
    if isinstance(node, Seq):
        for label, statement in zip(child_labels(node), node.statements):
            zeroed = _walk_known_zero(ctx, statement, path + (label,), zeroed)
        return zeroed
    if isinstance(node, Case):
        if set(node.qubits) <= zeroed:
            operators = dict(zip(node.measurement.outcomes, node.measurement.operators))
            for outcome, _branch in node.branches:
                operator = operators.get(outcome)
                if operator is not None and _operator_annihilates_zero(operator):
                    ctx.report(
                        Severity.WARNING,
                        "RPR004",
                        f"case arm for outcome {outcome} is unreachable: the "
                        f"measured variables {sorted(node.qubits)} are freshly "
                        "|0⟩ and the arm's operator annihilates |0…0⟩",
                        path=path + (f"branch[{outcome}]",),
                        node=node,
                    )
        after = zeroed - set(node.qubits)
        results = []
        for label, (_, branch) in zip(child_labels(node), node.branches):
            results.append(_walk_known_zero(ctx, branch, path + (label,), set(after)))
        return set.intersection(*results) if results else after
    if isinstance(node, While):
        touched = node.qvars()
        inside = zeroed - touched
        _walk_known_zero(ctx, node.body, path + ("body",), set(inside))
        return inside
    if isinstance(node, Sum):
        return set.intersection(
            *(
                _walk_known_zero(ctx, summand, path + (label,), set(zeroed))
                for label, summand in zip(child_labels(node), node.summands)
            )
        )
    return set()


@rule("RPR004", "unreachable-case-arm", Severity.WARNING)
def _unreachable_case_arms(ctx: LintContext) -> None:
    _walk_known_zero(ctx, ctx.program, (), set())


# -- RPR005: saturating branch bounds -------------------------------------------------


@rule("RPR005", "saturating-branch-bound", Severity.ERROR)
def _saturating_bounds(ctx: LintContext) -> None:
    """Flag the innermost ``while`` whose unrolling saturates the bound cap."""
    for path, node in iter_with_paths(ctx.program):
        if not isinstance(node, While):
            continue
        if simulation_report(node).branch_bound < BRANCH_BOUND_CAP:
            continue
        if simulation_report(node.body).branch_bound >= BRANCH_BOUND_CAP:
            continue  # the body is the real cause; it is flagged separately
        ctx.report(
            Severity.ERROR,
            "RPR005",
            f"while(bound={node.bound}) unrolls to a saturated static branch "
            f"bound (≥ 2^62): the trajectory fan-out is effectively unbounded "
            "and no execution tier can unroll it; lower the bound or simplify "
            "the body",
            path=path,
            node=node,
        )


# -- RPR006/RPR007: cancelling adjacent gates -----------------------------------------


def _straight_line_runs(
    program: Program,
) -> Iterable[list[tuple[tuple[str, ...], UnitaryApp]]]:
    """Maximal runs of consecutive gate applications of one ``Seq``.

    A run is broken by any non-gate statement; gates inside branches, loop
    bodies and summands form their own runs.
    """
    runs: list[list[tuple[tuple[str, ...], UnitaryApp]]] = []
    current: list[tuple[tuple[str, ...], UnitaryApp]] = []

    def flush() -> None:
        nonlocal current
        if len(current) >= 2:
            runs.append(current)
        current = []

    def spine(node: Program, path: tuple[str, ...]) -> None:
        if isinstance(node, UnitaryApp):
            current.append((path, node))
            return
        flush()
        for label, child in zip(child_labels(node), node.children()):
            spine(child, path + (label,))
            if not isinstance(node, Seq):
                flush()

    spine(program, ())
    flush()
    return runs


def _numeric_rotation_pair(first: UnitaryApp, second: UnitaryApp) -> float | None:
    """The angle sum of two same-axis same-type numeric rotations, else None."""
    g1, g2 = first.gate, second.gate
    if type(g1) is not type(g2):
        return None
    axis = getattr(g1, "axis", None)
    if axis is None or axis != getattr(g2, "axis", None):
        return None
    a1, a2 = getattr(g1, "angle", None), getattr(g2, "angle", None)
    if isinstance(a1, (int, float)) and isinstance(a2, (int, float)):
        return float(a1) + float(a2)
    return None


def _angle_is(angle_sum: float, target: float) -> bool:
    remainder = math.fmod(angle_sum - target, _FULL_PERIOD)
    if remainder < 0:
        remainder += _FULL_PERIOD
    return min(remainder, _FULL_PERIOD - remainder) <= _ATOL


@rule("RPR006", "adjacent-inverse-gates", Severity.WARNING)
def _adjacent_inverse_gates(ctx: LintContext) -> None:
    for run in _straight_line_runs(ctx.program):
        for (path1, app1), (_path2, app2) in zip(run, run[1:]):
            if app1.qubits != app2.qubits:
                continue
            angle_sum = _numeric_rotation_pair(app1, app2)
            if angle_sum is not None:
                if _angle_is(angle_sum, 0.0):
                    ctx.report(
                        Severity.WARNING,
                        "RPR006",
                        f"adjacent rotations {app1.gate.display()} and "
                        f"{app2.gate.display()} on {list(app1.qubits)} sum to 0 "
                        "mod 4π: the pair is the identity and can be deleted",
                        path=path1,
                        node=app1,
                    )
                continue
            if isinstance(app1.gate, FixedGate) and isinstance(app2.gate, FixedGate):
                product = app2.gate.matrix() @ app1.gate.matrix()
                if np.allclose(product, np.eye(product.shape[0]), atol=_ATOL):
                    ctx.report(
                        Severity.WARNING,
                        "RPR006",
                        f"adjacent gates {app1.gate.display()} and "
                        f"{app2.gate.display()} on {list(app1.qubits)} compose to "
                        "the identity and can be deleted",
                        path=path1,
                        node=app1,
                    )


@rule("RPR007", "rotation-identity", Severity.WARNING)
def _rotation_global_phase(ctx: LintContext) -> None:
    for run in _straight_line_runs(ctx.program):
        for (path1, app1), (_path2, app2) in zip(run, run[1:]):
            if app1.qubits != app2.qubits:
                continue
            if not isinstance(app1.gate, Rotation):
                continue
            angle_sum = _numeric_rotation_pair(app1, app2)
            if angle_sum is not None and _angle_is(angle_sum, 2.0 * math.pi):
                ctx.report(
                    Severity.WARNING,
                    "RPR007",
                    f"adjacent rotations {app1.gate.display()} and "
                    f"{app2.gate.display()} on {list(app1.qubits)} sum to 2π: "
                    "the pair is −I, the identity up to a global phase (the "
                    "sign is observable inside additive '+' sums — only delete "
                    "the pair in non-additive programs)",
                    path=path1,
                    node=app1,
                )


# -- RPR008: zero-occurrence derivatives ----------------------------------------------


@rule("RPR008", "zero-occurrence-derivative", Severity.WARNING)
def _zero_occurrence_derivative(ctx: LintContext) -> None:
    for parameter in ctx.differentiating:
        if occurrence_count(ctx.program, parameter) == 0:
            ctx.report(
                Severity.WARNING,
                "RPR008",
                f"differentiating by {parameter.name!r}, which has zero "
                "occurrences: the derivative program multiset is empty and "
                "the gradient component is identically 0",
                node=ctx.program,
            )
