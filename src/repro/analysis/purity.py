"""Purity / simulability analysis: which execution tier can run a program?

The density-matrix simulator is the reference substrate because it
represents probabilistic branching exactly — but it pays ``O(4^n)`` memory
and ``O(2^k · 4^n)`` per gate.  Most VQC workloads (the Figure 6
classifiers, the Table 2/3 circuit instances and the non-aborting members
of their derivative multisets) never branch: they are straight-line
sequences of unitaries, so a *pure* input stays pure and ``O(2^n)``
amplitudes suffice.  Programs that *do* branch are still cheap when the
branching is bounded: a measured branch of a pure state is an ensemble of
sub-normalized pure states, so splitting the trajectory per outcome keeps
the computation at ``O(B · 2^n)`` for ``B`` branches
(:mod:`repro.sim.trajectories`) instead of ``O(4^n)``.

This module classifies, statically and per program, which tier applies:

* :attr:`SimulationClass.PURE` — ``[[P]]`` maps pure states to pure states:
  no ``case``/``while`` guards, no additive ``+``, and no *mid-circuit*
  ``q := |0⟩`` (a reset of a variable that earlier statements may have
  entangled mixes the state; a *leading* initialize is allowed and verified
  at runtime, raising :class:`~repro.errors.PurityError` on violation);
* :attr:`SimulationClass.BRANCHING` — the program measures (``case``,
  ``while``), uses the additive choice ``+``, or resets mid-circuit, but a
  branch-splitting trajectory simulation applies: every construct maps a
  pure-state ensemble to a pure-state ensemble.  The report carries a
  static *branch-count bound* so the backend can decide when ``B · 2^n``
  beats ``4^n``;
* :attr:`SimulationClass.DENSITY_ONLY` — an unknown program node; only the
  reference density simulator is trusted to run it.

The static branch bound counts measurement-driven splits — ``case``
contributes the sum of its branches' bounds over all arities, a bounded
``while(T)`` the bounded unrolling ``Σ_{t<T} bound(body)^t`` (the
still-running branch after ``T`` iterations aborts exactly), ``+`` the sum
of its summands, sequencing the product.  Mid-circuit resets split only
when the runtime entanglement check finds a non-product branch (by at most
the variable's dimension) and are covered by the trajectory evaluator's
runtime branch cap rather than the static bound.

Both reports are memoized in the program node's own ``memo``: ASTs are
immutable, the backends consult the analysis on every call of the
execution hot path, and a report dies with its program.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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

__all__ = [
    "BRANCH_BOUND_CAP",
    "PurityReport",
    "SimulationClass",
    "SimulationReport",
    "is_statevector_simulable",
    "purity_report",
    "simulation_report",
]

#: Saturation value for the static branch bound: bounds are only compared
#: against runtime branch caps orders of magnitude smaller, so anything past
#: this is reported as "effectively unbounded" without big-integer blowups.
BRANCH_BOUND_CAP = 2**62


class SimulationClass(enum.Enum):
    """The cheapest execution tier the static analysis certifies."""

    PURE = "pure"
    BRANCHING = "branching"
    DENSITY_ONLY = "density-only"


@dataclass(frozen=True)
class PurityReport:
    """The verdict of the purity analysis on one program.

    ``statevector_simulable`` is the headline answer; ``reason`` names the
    first blocking construct when it is ``False`` (for diagnostics and
    error messages) and is ``None`` otherwise.
    """

    statevector_simulable: bool
    reason: str | None = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience only
        return self.statevector_simulable


@dataclass(frozen=True)
class SimulationReport:
    """The tiered verdict: simulation class plus the static branch bound.

    ``branch_bound`` bounds the number of sub-normalized pure branches a
    trajectory simulation can produce (saturating at
    :data:`BRANCH_BOUND_CAP`); it is ``1`` exactly for
    :attr:`SimulationClass.PURE` programs and meaningless for
    :attr:`SimulationClass.DENSITY_ONLY`.  ``additive`` flags programs
    containing the ``+`` choice (their observable semantics is the sum over
    the compiled multiset).  ``reason`` names the first construct that
    blocks the pure tier (``None`` when the program is pure).
    """

    simulation_class: SimulationClass
    branch_bound: int
    additive: bool = False
    reason: str | None = None


def _saturating_add(a: int, b: int) -> int:
    return min(a + b, BRANCH_BOUND_CAP)


def _saturating_mul(a: int, b: int) -> int:
    return a if a >= BRANCH_BOUND_CAP or b == 1 else min(a * b, BRANCH_BOUND_CAP)


class _Survey:
    """One execution-order walk collecting every field of the report.

    ``touched`` accumulates the variables earlier statements may have acted
    on, so that a ``q := |0⟩`` is classified as leading (allowed on the pure
    tier) or mid-circuit (branching: the trajectory evaluator resets or
    Kraus-splits it at runtime).
    """

    __slots__ = ("reason", "additive", "unknown")

    def __init__(self) -> None:
        self.reason: str | None = None
        self.additive = False
        self.unknown = False

    def _block(self, reason: str) -> None:
        if self.reason is None:
            self.reason = reason

    def walk(self, program: Program, touched: set[str]) -> int:
        """Return the branch bound of ``program``; records blockers on the way."""
        if isinstance(program, (Abort, Skip)):
            return 1
        if isinstance(program, Init):
            if program.qubit in touched:
                self._block(
                    f"mid-circuit initialize of {program.qubit!r} "
                    "(the reset channel on a possibly-entangled variable mixes the state)"
                )
            touched.add(program.qubit)
            return 1
        if isinstance(program, UnitaryApp):
            touched.update(program.qubits)
            return 1
        if isinstance(program, Seq):
            bound = 1
            for statement in program.statements:
                bound = _saturating_mul(bound, self.walk(statement, touched))
            return bound
        if isinstance(program, Case):
            self._block(f"measurement-controlled case on {list(program.qubits)}")
            touched.update(program.qubits)
            bound = 0
            branch_touched: set[str] = set()
            for _, branch in program.branches:
                local = set(touched)
                bound = _saturating_add(bound, self.walk(branch, local))
                branch_touched |= local
            touched |= branch_touched
            return bound
        if isinstance(program, While):
            self._block(f"bounded while guard on {list(program.qubits)}")
            touched.update(program.qubits)
            local = set(touched)
            body = self.walk(program.body, local)
            touched |= local
            # One terminated branch per unrolled prefix of 0..T-1 body runs;
            # the branch still running after T iterations aborts exactly.
            bound, power = 0, 1
            for _ in range(program.bound):
                bound = _saturating_add(bound, power)
                power = _saturating_mul(power, body)
            return bound
        if isinstance(program, Sum):
            self._block("additive choice '+' (multiset semantics)")
            self.additive = True
            bound = 0
            for summand in program.summands:
                bound = _saturating_add(bound, self.walk(summand, touched))
            return bound
        self.unknown = True
        self._block(f"unknown program node {type(program).__name__}")
        return BRANCH_BOUND_CAP


def simulation_report(program: Program) -> SimulationReport:
    """Classify one program into an execution tier; memoized on the program."""
    report = program.memo.get("simulation")
    if report is not None:
        return report
    survey = _Survey()
    bound = survey.walk(program, set())
    if survey.unknown:
        klass = SimulationClass.DENSITY_ONLY
    elif survey.reason is None:
        klass = SimulationClass.PURE
    else:
        klass = SimulationClass.BRANCHING
    report = SimulationReport(
        simulation_class=klass,
        branch_bound=bound,
        additive=survey.additive,
        reason=survey.reason,
    )
    return program.memo.setdefault("simulation", report)


def purity_report(program: Program) -> PurityReport:
    """The boolean pure-tier verdict (see :func:`simulation_report` for tiers)."""
    purity = program.memo.get("purity")
    if purity is not None:
        return purity
    report = simulation_report(program)
    purity = PurityReport(
        statevector_simulable=report.simulation_class is SimulationClass.PURE,
        reason=report.reason,
    )
    return program.memo.setdefault("purity", purity)


def is_statevector_simulable(program: Program) -> bool:
    """``True`` when ``[[P]]`` maps pure states to pure states (see module docs)."""
    return simulation_report(program).simulation_class is SimulationClass.PURE
