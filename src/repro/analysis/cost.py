"""Abstract-interpretation cost model for the execution tiers.

For each program the model computes, per tier, an *interval* of model-unit
flop counts and peak working-set bytes — the same units the instrumented
kernels charge (:func:`repro.sim.kernels.count_kernel_ops`), so the upper
bounds are *testably sound*: the hypothesis suite asserts that instrumented
actuals never exceed the predicted interval maxima.

The abstract domain tracks, per unit of input stack width:

* ``F`` — an interval of kernel model-flops (a k-local operator contraction
  on a ``d^n`` vector charges ``e · d^n`` units for operator dimension
  ``e``; density conjugations charge ``2 · e · d^{2n}``; resets, guards and
  readouts follow the kernels' own charging, see :mod:`repro.sim.kernels`);
* ``W`` — an interval of output stack width (trajectory branching: ``case``
  splits per outcome, ``while(T)`` accumulates one terminated branch per
  unrolled prefix, ``+`` evaluates both summands — the static
  *amplitude-stack width* derived from the same saturating recurrences as
  :func:`repro.analysis.purity.simulation_report`);
* ``P`` — the peak width any *single* kernel call observes (the counters
  track per-call working sets, and peak bytes are ``2 · B · d^n · 16`` for
  a width-``B`` stack of complex amplitudes).

Transfer functions mirror the evaluators exactly: the pure tier
(:mod:`repro.sim.pure`) and the trajectory tier
(:mod:`repro.sim.trajectories`) share the vector rules (a pure program's
width degenerates to 1), the density tier mirrors
:mod:`repro.semantics.denotational`.  Additive programs on the *density*
tier are evaluated member-by-member through the compiled multiset, so their
upper bound scales the single-pass cost by the saturating member bound.

Reports are memoized in the program node's own ``memo``, one per
``(dims, observable_dim)`` key: admission prices every request, and
requests share few programs, so a program already analyzed must cost no
more than a dict probe.  The reports die with their program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

from repro.analysis.purity import SimulationClass, simulation_report
from repro.analysis.resources import gate_count, qubit_count
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
    "CostInterval",
    "CostReport",
    "TierCost",
    "cost_report",
]

_BYTES_PER_AMPLITUDE = 16.0  # complex128
_WORKING_FACTOR = 2.0  # input + output copies of the working array


def _mul(a: float, b: float) -> float:
    """Product with the measure-theoretic ``0 · inf = 0`` convention."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _pow(base: float, exponent: float) -> float:
    if base == 0.0:
        return 0.0 if exponent > 0 else 1.0
    try:
        return base**exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class CostInterval:
    """A closed interval ``[lo, hi]`` of non-negative model units."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi):
            raise ValueError(f"invalid cost interval [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(value: float) -> "CostInterval":
        return CostInterval(float(value), float(value))

    @staticmethod
    def zero() -> "CostInterval":
        return CostInterval(0.0, 0.0)

    def __add__(self, other: "CostInterval") -> "CostInterval":
        return CostInterval(self.lo + other.lo, self.hi + other.hi)

    def times(self, other: "CostInterval") -> "CostInterval":
        """Interval product (both operands non-negative)."""
        return CostInterval(_mul(self.lo, other.lo), _mul(self.hi, other.hi))

    def scaled(self, factor: float) -> "CostInterval":
        return CostInterval(_mul(self.lo, factor), _mul(self.hi, factor))

    def hull(self, other: "CostInterval") -> "CostInterval":
        return CostInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def contains(self, value: float, *, rel: float = 1e-9) -> bool:
        slack = rel * max(1.0, abs(value))
        return self.lo - slack <= value <= self.hi + slack

    def __str__(self) -> str:
        return f"[{self.lo:.6g}, {self.hi:.6g}]"


@dataclass(frozen=True)
class TierCost:
    """Predicted cost of running one program once on one tier."""

    flops: CostInterval
    stack_width: CostInterval
    peak_bytes: CostInterval


@dataclass(frozen=True)
class _Vec:
    """Vector-tier abstract value per unit of input stack width."""

    flops: CostInterval
    width: CostInterval
    peak: float  # peak per-call stack width (upper bound)


class _CostWalk:
    """One recursive walk computing both tiers' transfer functions."""

    __slots__ = ("dims", "total")

    def __init__(self, dims: Mapping[str, int]) -> None:
        self.dims = dims
        self.total = 1.0
        for dim in dims.values():
            self.total = _mul(self.total, float(dim))

    def _arity_dim(self, qubits: tuple[str, ...]) -> float:
        extent = 1.0
        for qubit in qubits:
            extent *= float(self.dims.get(qubit, 2))
        return extent

    # -- vector tier (pure + trajectory) ------------------------------------------

    def vector(self, program: Program) -> _Vec:
        total = self.total
        if isinstance(program, Abort):
            # The trajectory tier prunes the zero-mass branch (width 0); the
            # pure tier keeps contracting the zeroed row (width 1), so the
            # upper bound must not collapse the downstream cost.
            return _Vec(CostInterval.zero(), CostInterval(0.0, 1.0), 1.0)
        if isinstance(program, Skip):
            return _Vec(CostInterval.zero(), CostInterval.exact(1.0), 1.0)
        if isinstance(program, Init):
            d = float(self.dims.get(program.qubit, 2))
            # Happy path: one reset kernel (d · total).  Entangled input:
            # the evaluator Kraus-splits into d one-axis operators after the
            # failed reset attempt (d · total + d² · total), fanning the
            # stack out by at most d.
            return _Vec(
                CostInterval(_mul(d, total), _mul(d * (1.0 + d), total)),
                CostInterval(1.0, d),
                d,
            )
        if isinstance(program, UnitaryApp):
            extent = self._arity_dim(program.qubits)
            return _Vec(
                CostInterval.exact(_mul(extent, total)),
                CostInterval.exact(1.0),
                1.0,
            )
        if isinstance(program, Seq):
            first, *rest = map(self.vector, program.statements)
            for second in rest:
                first = _Vec(
                    first.flops + second.flops.times(first.width),
                    first.width.times(second.width),
                    max(first.peak, _mul(first.width.hi, second.peak)),
                )
            return first
        if isinstance(program, Case):
            outcomes = len(program.branches)
            guard = _mul(float(outcomes) * self._arity_dim(program.qubits), total)
            branches = [self.vector(branch) for _, branch in program.branches]
            flops_hi = guard + sum(vec.flops.hi for vec in branches)
            flops_lo = guard + min(vec.flops.lo for vec in branches)
            width_hi = sum(vec.width.hi for vec in branches)
            # Zero-mass pruning may drop every branch but the lightest.
            width_lo = min(vec.width.lo for vec in branches)
            peak = max([1.0] + [vec.peak for vec in branches])
            return _Vec(
                CostInterval(flops_lo, flops_hi),
                CostInterval(width_lo, width_hi),
                peak,
            )
        if isinstance(program, While):
            guard = _mul(2.0 * self._arity_dim(program.qubits), total)
            body = self.vector(program.body)
            bound = float(program.bound)
            growth = body.width.hi
            # u_t = growth^t is the (upper-bound) stack width entering
            # iteration t; each iteration applies both outcome operators to
            # the full stack, runs the body on the continuing branch, and
            # banks one terminated branch of width u_t.
            if growth == 1.0:
                series, u_last = bound, 1.0
            elif growth == 0.0:
                series, u_last = 1.0, 1.0
            else:
                u_last = _pow(growth, bound - 1.0)
                grown = _pow(growth, bound)
                series = math.inf if math.isinf(grown) else (grown - 1.0) / (growth - 1.0)
            flops_hi = _mul(series, guard + body.flops.hi)
            # Certified truncation and pruning can cut every iteration after
            # the first, and the T-th guard forms only its 0 outcome: the
            # first guard's 0 outcome always runs.
            return _Vec(
                CostInterval(guard / 2.0, flops_hi),
                CostInterval(0.0, series),
                max(1.0, _mul(u_last, max(1.0, body.peak))),
            )
        if isinstance(program, Sum):
            left, *rest = map(self.vector, program.summands)
            for right in rest:
                left = _Vec(
                    left.flops + right.flops,
                    left.width + right.width,
                    max(1.0, left.peak, right.peak),
                )
            return left
        # Unknown node: nothing sound can be said about the vector tier.
        return _Vec(
            CostInterval(0.0, math.inf), CostInterval(0.0, math.inf), math.inf
        )

    # -- density tier --------------------------------------------------------------

    def density(self, program: Program) -> CostInterval:
        total_sq = _mul(self.total, self.total)
        if isinstance(program, (Abort, Skip)):
            return CostInterval.zero()
        if isinstance(program, Init):
            d = float(self.dims.get(program.qubit, 2))
            # The reset channel is d Kraus conjugations of one-axis operators.
            return CostInterval.exact(_mul(2.0 * d * d, total_sq))
        if isinstance(program, UnitaryApp):
            extent = self._arity_dim(program.qubits)
            return CostInterval.exact(_mul(2.0 * extent, total_sq))
        if isinstance(program, (Seq, Sum)):
            return sum(map(self.density, program.children()), CostInterval.zero())
        if isinstance(program, Case):
            outcomes = len(program.branches)
            guard = _mul(2.0 * float(outcomes) * self._arity_dim(program.qubits), total_sq)
            branches = [self.density(branch) for _, branch in program.branches]
            return CostInterval(
                guard + sum(b.lo for b in branches),
                guard + sum(b.hi for b in branches),
            )
        if isinstance(program, While):
            # Each of the `bound` unrolled iterations conjugates both
            # measurement operators and runs the body on the continuing arm.
            guard = _mul(4.0 * self._arity_dim(program.qubits), total_sq)
            body = self.density(program.body)
            bound = float(program.bound)
            return CostInterval(_mul(bound, guard + body.lo), _mul(bound, guard + body.hi))
        return CostInterval(0.0, math.inf)

    # -- unroll depth --------------------------------------------------------------

    def depth(self, program: Program) -> float:
        if isinstance(program, (Abort, Skip, Init, UnitaryApp)):
            return 1.0
        if isinstance(program, Seq):
            return sum(map(self.depth, program.statements))
        if isinstance(program, Case):
            return 1.0 + max(self.depth(branch) for _, branch in program.branches)
        if isinstance(program, While):
            return _mul(float(program.bound), 1.0 + self.depth(program.body))
        if isinstance(program, Sum):
            return max(map(self.depth, program.summands))
        return 1.0


@dataclass(frozen=True)
class CostReport:
    """Per-tier cost intervals for one program on one register shape.

    ``tier`` names the tier the routing analysis selects (``"pure"``,
    ``"trajectory"`` or ``"density"``); :attr:`routed` is its
    :class:`TierCost` and :attr:`predicted_cost` its flop upper bound — the
    number ``max_cost`` admission compares against.  :attr:`worst_case`
    additionally absorbs a mid-run demotion to the density tier (mixed
    input, runtime :class:`~repro.errors.PurityError` or trajectory
    overflow), which is the bound that holds unconditionally.
    """

    tier: str
    reason: str | None
    additive: bool
    branch_bound: int
    unroll_depth: float
    gate_count: int
    qubit_count: int
    total_dim: float
    dims: tuple[tuple[str, int], ...]
    observable_dim: float
    pure: TierCost
    trajectory: TierCost
    density: TierCost

    @property
    def routed(self) -> TierCost:
        if self.tier == "pure":
            return self.pure
        if self.tier == "trajectory":
            return self.trajectory
        return self.density

    @property
    def worst_case(self) -> TierCost:
        routed = self.routed
        if self.tier == "density":
            return routed
        density = self.density
        return TierCost(
            flops=CostInterval(routed.flops.lo, routed.flops.hi + density.flops.hi),
            stack_width=routed.stack_width.hull(density.stack_width),
            peak_bytes=CostInterval(
                routed.peak_bytes.lo,
                max(routed.peak_bytes.hi, density.peak_bytes.hi),
            ),
        )

    @property
    def predicted_cost(self) -> float:
        return self.routed.flops.hi

    @property
    def predicted_peak_bytes(self) -> float:
        return self.routed.peak_bytes.hi

    def describe(self) -> str:
        """A human-readable justification of the routing decision."""
        lines = [
            f"tier: {self.tier}"
            + (f" (blocked from pure: {self.reason})" if self.reason else ""),
            f"register: {dict(self.dims)} (total dimension {self.total_dim:.6g})",
            f"gates: {self.gate_count}, unroll depth: {self.unroll_depth:.6g}, "
            f"static branch bound: {self.branch_bound}",
        ]
        for name, tier_cost in (
            ("pure", self.pure),
            ("trajectory", self.trajectory),
            ("density", self.density),
        ):
            marker = " <- routed" if name == self.tier else ""
            lines.append(
                f"  {name}: flops {tier_cost.flops}, width {tier_cost.stack_width}, "
                f"peak bytes {tier_cost.peak_bytes}{marker}"
            )
        lines.append(
            f"predicted cost: {self.predicted_cost:.6g} model flops, "
            f"peak {self.predicted_peak_bytes:.6g} bytes"
        )
        return "\n".join(lines)


_TIER_NAMES = {
    SimulationClass.PURE: "pure",
    SimulationClass.BRANCHING: "trajectory",
    SimulationClass.DENSITY_ONLY: "density",
}


def _resolve_dims(
    program: Program,
    layout,
    dims: Mapping[str, int] | None,
) -> dict[str, int]:
    if layout is not None:
        return {name: int(dim) for name, dim in zip(layout.names, layout.dims)}
    table = {name: int(dim) for name, dim in dims.items()} if dims else {}
    for variable in sorted(program.qvars()):
        table.setdefault(variable, 2)
    return table


def cost_report(
    program: Program,
    *,
    layout=None,
    dims: Mapping[str, int] | None = None,
    observable_dim: float | None = None,
    tier: str | None = None,
) -> CostReport:
    """The memoized per-tier cost analysis of ``program``.

    ``layout`` (a :class:`~repro.sim.hilbert.RegisterLayout`) pins the exact
    register the kernels will contract over, including ride-along variables
    the program never touches; without it, ``dims`` maps variables to
    dimensions and unlisted program variables default to qubits.
    ``observable_dim`` is the dimension of the readout observable's operand
    space; it defaults to the full register dimension, which is the sound
    choice for every readout kernel.  ``tier`` overrides the routed tier
    label (backends pass their actual routing decision).
    """
    table = _resolve_dims(program, layout, dims)
    key = (tuple(sorted(table.items())), observable_dim)
    per_shape = program.memo.setdefault("cost", {})
    cached = per_shape.get(key)
    if cached is not None:
        return cached if tier is None or cached.tier == tier else replace(cached, tier=tier)

    report = simulation_report(program)
    walk = _CostWalk(table)
    total = walk.total
    obs_dim = float(observable_dim) if observable_dim is not None else total

    vec = walk.vector(program)
    # Readout: apply the observable to the compacted stack and contract each
    # row (two-factor readouts charge total·(lead+rest) ≤ total² + total,
    # covered by the default obs_dim = total).  Even a fully-aborted program
    # pays one readout row — the zero-amplitude stack is still contracted.
    vector_readout_hi = _mul(
        max(vec.width.hi, 1.0), _mul(obs_dim, total) + total
    )
    vector_flops = CostInterval(vec.flops.lo, vec.flops.hi + vector_readout_hi)
    vector_peak_width = max(vec.peak, vec.width.hi, 1.0)
    vector_cost = TierCost(
        flops=vector_flops,
        stack_width=vec.width.hull(CostInterval.exact(1.0)),
        peak_bytes=CostInterval(
            _WORKING_FACTOR * total * _BYTES_PER_AMPLITUDE,
            _mul(_WORKING_FACTOR * _BYTES_PER_AMPLITUDE, _mul(vector_peak_width, total)),
        ),
    )

    density_program = walk.density(program)
    total_sq = _mul(total, total)
    density_readout = CostInterval(total_sq, total_sq + _mul(obs_dim, obs_dim))
    if report.additive:
        # Additive programs run the density tier member-by-member through
        # the compiled multiset: scale one full pass (an upper bound on any
        # single member) by the saturating member bound.
        members = float(report.branch_bound)
        density_flops = CostInterval(
            density_program.lo + density_readout.lo,
            _mul(members, density_program.hi + density_readout.hi),
        )
    else:
        density_flops = density_program + density_readout
    density_cost = TierCost(
        flops=density_flops,
        stack_width=CostInterval.exact(1.0),
        peak_bytes=CostInterval.exact(_WORKING_FACTOR * total_sq * _BYTES_PER_AMPLITUDE),
    )

    result = CostReport(
        tier=_TIER_NAMES[report.simulation_class],
        reason=report.reason,
        additive=report.additive,
        branch_bound=report.branch_bound,
        unroll_depth=walk.depth(program),
        gate_count=gate_count(program),
        qubit_count=qubit_count(program),
        total_dim=total,
        dims=tuple(sorted(table.items())),
        observable_dim=obs_dim,
        pure=vector_cost,
        trajectory=vector_cost,
        density=density_cost,
    )
    result = per_shape.setdefault(key, result)
    return result if tier is None or result.tier == tier else replace(result, tier=tier)
