"""Branch-splitting trajectory simulation of measuring programs.

The pure-state tier of :mod:`repro.sim.pure` refuses every program the
purity analysis rejects — but a measured branch of a pure state is still an
*ensemble of sub-normalized pure states*: for a measurement ``{M_m}``,

    [[case M = m → P_m]](|ψ⟩⟨ψ|)  =  Σ_m [[P_m]](M_m|ψ⟩⟨ψ|M_m†),

and each ``M_m|ψ⟩`` is again pure.  This module evaluates the defining
equations of Figure 1b on a *branch ensemble* — a ``(B, d^n)`` stack of
sub-normalized amplitude vectors representing ``ρ = Σ_b |ψ_b⟩⟨ψ_b|`` — so
that branching programs stay at ``O(B · 2^k · 2^n)`` per gate instead of
the density simulator's ``O(2^k · 4^n)``:

* ``case`` splits the stack per outcome
  (:func:`repro.sim.kernels.measure_branch_vector_batch`), denotes each
  branch program on its sub-stack, and concatenates the results;
* ``while(T)`` unrolls: each iteration appends the guard-0 (terminated)
  branches to the output and feeds the guard-1 branches through the body;
  the branch still running at the ``T``-th guard aborts — exactly the
  macro expansion of Eq. (3.1), so the ``T``-th guard applies only its
  0 outcome.  When an error budget is configured, the unrolling stops
  early once the *remaining continuing probability mass* is certified
  below the budget (the dropped readout error is at most that mass times
  the observable's spectral norm — see ``mass_budget`` below); an additive
  program never stops early, since a later ``+`` would read the cut mass
  once per summand;
* the additive choice ``+`` stacks its summands' trajectories (its
  observable semantics is the sum over the compiled multiset,
  Definition 4.1/5.2);
* a sequence runs its statements in order, in one loop over the flat
  ``Seq`` (see *Fused runs* below);
* ``q := |0⟩`` resets in one of two exact ways: branches the runtime
  entanglement check certifies as product-form (to within ``prune_tol``
  of discarded mass) keep a single trajectory
  (:func:`repro.sim.kernels.reset_vector_batch`); otherwise the reset
  channel's Kraus operators ``K_i = |0⟩⟨i|_q`` split every branch into at
  most ``dim(q)`` sub-branches — still an exact pure-state ensemble;
* a sub-program that essentially aborts (Definition 3.2) yields the empty
  ensemble without being simulated;
* zero-probability branches are pruned at a tolerance, and branches that
  are identical up to a global phase are coalesced (their masses add:
  ``|ψ⟩⟨ψ| + c|ψ⟩⟨ψ| = (1+c)|ψ⟩⟨ψ|``).

Every branch has an *owner*, the input row it descends from.  Every
discarded branch's probability mass is accounted in
:attr:`TrajectoryResult.dropped` per owner, so callers can *certify*
``|tr(O ρ_exact) − Σ_b ⟨ψ_b|O|ψ_b⟩| ≤ dropped · ‖O‖`` and fall back to the
density simulator when the bound cannot be met.  The branches of each
owner are capped (:attr:`TrajectoryOptions.max_branches`), however many
other rows share its batch; exceeding the cap raises
:class:`~repro.errors.TrajectoryError`, the signal for the same fallback —
past ``B ≈ 2^n`` branches the ``O(4^n)`` density representation is the
cheaper encoding of the mixture anyway.

**Tangent mode.**  Figure 4's product rule ``∂(S₁;…;Sₙ) = Σᵢ
(S₁;…;∂Sᵢ;…;Sₙ)``, over the statements that use θ, is forward-mode
differentiation, and Definition 6.1's readout
``tr((Z_A ⊗ O)[[R'_σ(θ)]](|0⟩⟨0| ⊗ ρ)) = ½ tr(O(R ρ R(θ+π)† + R(θ+π) ρ R†))``
is bilinear in a branch ``ψ`` and ``½R(θ+π)ψ = (dR/dθ)ψ`` (Lemma D.1).  So
the summed readout over ``Compile(∂P/∂θ)`` is ``2 Re⟨ψ|O|∂ψ⟩``, where the
*tangent* ``∂ψ`` is one vector that every later statement maps linearly.
``denote_trajectory_batch(P, layout, stack, binding, parameters=(θ_1, …,
θ_K))`` walks ``P`` once on the program's own register and carries, per
branch, its forward row ``ψ_b`` and one tangent row ``∂_kψ_b`` for each
column ``k`` that has forked into it:

* every kernel step — a gate, a ``case`` or guard projector, a Kraus
  split — applies to a branch's forward and tangent rows in one stacked
  call (∂ of a ``case`` is the ``case`` of the ∂ branches), and a ``case``
  forms all its outcomes, a reset all its Kraus branches, in that one call;
* at a rotation or coupling ``U`` that uses ``θ_k`` the tangent becomes
  ``U ∂_kψ + ½U(θ+π) ψ``; a branch's first fork of ``k`` creates the row,
  so a column costs nothing before (or without) its first occurrence.
  However many columns a gate or a fused run forks, their shifts take one
  stacked kernel call and one scatter (``_Evaluator._fork``), and new
  tangent rows append column by column, rows ascending;
* branch bookkeeping acts on the forward rows, and tangents ride along:
  the cap counts forward branches per input, as a value evaluation does,
  and coalescing merges phase-parallel forward rows as it does there — a
  merged branch's tangent is ``(∂ψ_a + c̄·∂ψ_b)/s`` (``c`` is ``b``'s
  projection coefficient on ``a``, ``s`` the forward scale), which keeps
  ``Σ|∂ψ⟩⟨ψ|`` unchanged;
* a reset splits into its Kraus operators once a branch carries a tangent
  (the product-form shortcut would lose the tangent's phase relative to
  ``ψ``), and coalescing merges the parallel forward rows again;
* a branch whose forward row is exactly zero contributes exactly zero from
  then on and drops free.  Any other dropped branch — pruned, or cut by a
  certified ``while`` truncation — charges its (input, ``k``) owner
  ``2√(m·t_k) + S_k·m`` for forward mass ``m`` and tangent mass ``t_k``:
  ``|2 Re⟨ψ|O|∂ψ⟩| ≤ 2‖O‖‖ψ‖‖∂ψ‖``, and each of the at most ``S_k`` later
  forks adds at most ``½‖ψ‖`` to ``‖∂ψ‖`` (``S_k`` is Definition 7.1's
  occurrence count of ``θ_k`` in ``P``).  Pruning on the forward mass
  alone would be wrong: a forward row of mass ``1e-19`` may carry a
  tangent of mass ``¼``.

The readout ``Σ_b 2 Re⟨ψ_b|O|∂_kψ_b⟩`` over input ``r``'s branches is
then exactly ``Σ_i tr((Z_A ⊗ O)[[P'_i]](|0⟩⟨0| ⊗ ρ_r))`` over
``Compile(∂P/∂θ_k)`` — one forward pass plus one pass per requested
parameter, however often the parameter occurs.  The forward rows reach the
end of the walk, so their own readout is the value.

**Fused runs.**  The consecutive unitary statements of a ``Seq`` form
runs.  A run of at least two statements fuses when its gates are
parameter-free, rotations or couplings, and its variables span ``W``
amplitudes with ``W ≤ _FUSE_MAX`` and ``W`` at most the sum of its gates'
dimensions (so the fused application charges no more model flops than the
gates it replaces).  A fused run is bound once per walk, however often a
``while`` body re-enters it: its product ``R = M_m⋯M_1`` on its own
variables and, for each requested ``θ_k`` it uses, ``D_k = ∂R/∂θ_k``.  The
chain that builds ``R`` passes every prefix ``P_i = M_i⋯M_1``; as each
rotation's generator ``G_i`` is a Pauli string, ``dU_i/dθ = −½i·G_i·U_i``
and ``D_k = −½i · R · Σ_{i uses θ_k} P_iᴴ G_i P_i``, where ``G_i P_i`` is a
signed gather of ``P_i``'s rows — a fixed number of batched products,
however many columns the run forks.  ``R`` then maps every forward and
tangent row in one kernel call, the whole ``D`` stack maps the forward rows
as they entered the run in one more, and one scatter adds each shift into
its column's tangent.  The rule is static — it reads the statements and the
register layout, never the binding or the rows, so a row's bits never
depend on its batch — and each ``Seq`` files its plan in its own memo, per
layout.  A run that does not fuse goes gate by gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from repro.additive.essential_abort import essentially_aborts
from repro.analysis.resources import occurrence_count
from repro.errors import PurityError, SemanticsError, TrajectoryError, TransformError
from repro.lang.ast import (
    Case,
    Init,
    Program,
    Seq,
    Skip,
    Sum,
    UnitaryApp,
    While,
)
from repro.lang.gates import Coupling, Rotation, bound_gate_matrix
from repro.lang.parameters import Parameter, ParameterBinding
from repro.sim import kernels
from repro.sim.hilbert import RegisterLayout, frozen

__all__ = [
    "TrajectoryOptions",
    "TrajectoryResult",
    "coalesce_branches",
    "denote_trajectory_batch",
]


@dataclass(frozen=True)
class TrajectoryOptions:
    """Tuning knobs of the branch-splitting evaluator.

    ``prune_tol`` is the absolute squared-norm (probability-mass) floor
    below which a branch is discarded; exact zeros are always discarded
    (they carry no mass, so dropping them never changes any readout).  In
    tangent mode a branch is discarded only when its charge to every owner
    (see the module docstring) is below the floor too.
    ``mass_budget`` is the total probability mass the evaluator may discard
    *per owner* beyond exact zeros — it enables the early ``while``
    truncation (ignored in an additive program) and must be chosen by the
    caller as ``tolerable readout error / ‖O‖`` for certification.
    ``max_branches`` caps the branches of each input row, whatever else
    shares the batch; in tangent mode it counts the forward branches, as a
    value evaluation does, and the tangent rows riding on them are not
    counted (``None`` derives ``max(64, d^n)``, the point where the density
    representation becomes the cheaper encoding); exceeding it raises
    :class:`~repro.errors.TrajectoryError`.
    ``coalesce_tol`` bounds ``sin²θ`` of the angle between two branches
    considered parallel — at the default ``1e-24`` a merge perturbs the
    represented state by at most ``~1e-12`` of the merged mass.
    """

    prune_tol: float = 1e-14
    mass_budget: float = 0.0
    max_branches: int | None = None
    coalesce: bool = True
    coalesce_tol: float = 1e-24

    def key(self) -> tuple:
        """A hashable identity of everything that affects the output."""
        return (
            self.prune_tol,
            self.mass_budget,
            self.max_branches,
            self.coalesce,
            self.coalesce_tol,
        )


@dataclass
class TrajectoryResult:
    """The output ensemble of one trajectory evaluation.

    ``amplitudes`` is the ``(B, d^n)`` stack of surviving sub-normalized
    (forward) branches and ``owners[b]`` the input row branch ``b``
    descends from — readouts sum ``⟨ψ_b|O|ψ_b⟩`` over the branch axis per
    owner.  In tangent mode ``tangents`` holds the tangent rows:
    ``tangents[j]`` is ``∂_kψ_b`` for branch ``b = parents[j]`` and column
    ``k = columns[j]``, and a derivative readout sums ``2 Re⟨ψ_b|O|∂_kψ_b⟩``
    per (``owners[parents[j]]``, ``columns[j]``); in plain mode all three
    are empty.  ``dropped`` upper-bounds what was discarded (pruning below
    tolerance plus certified ``while`` truncation): in plain mode
    ``dropped[r]`` is the probability mass discarded from input ``r``, and
    the readout error it induces is at most ``dropped[r] · ‖O‖``; in
    tangent mode it is ``(inputs, 1 + K)``, column 0 that forward mass and
    column ``1 + k`` the charge of parameter ``k``'s readout, whose error is
    at most ``dropped[r, 1 + k] · ‖O‖``.  ``branch_peak`` is the most
    forward branches any one input held during evaluation.  The
    statevector backend caches only what it reads off a result, never the
    result itself.
    """

    amplitudes: np.ndarray
    owners: np.ndarray
    dropped: np.ndarray
    branch_peak: int
    tangents: np.ndarray
    parents: np.ndarray
    columns: np.ndarray


class _Rows(NamedTuple):
    """A branch ensemble: the forward rows first, then their tangent rows.

    ``owners[b]`` is forward row ``b``'s input; tangent row ``j`` is
    ``stack[len(owners) + j]``, of forward row ``parents[j]`` and column
    ``columns[j]``.
    """

    stack: np.ndarray
    owners: np.ndarray
    parents: np.ndarray
    columns: np.ndarray


_NO_ROWS = np.zeros(0, dtype=np.intp)

#: Widest run, in amplitudes, that the walk applies as one bound operator.
#: Binding a run takes ``W × W`` products per gate, so past some width it
#: costs more than the per-gate kernel calls it saves.  Measured on one
#: ``repro.vqc.generators.vqe_block`` on the first or last qubits of an 8-
#: and a 12-qubit register, one input row, 2 vCPUs, median walk time of the
#: value / θ₁ derivative, fused against gate by gate:
#:
#: * ``W = 8``: 0.18–0.21 / 0.28–0.37 ms against 0.46–0.88 / 0.70–1.68 ms;
#: * ``W = 16``: 0.29–0.35 / 0.48–0.57 ms against 0.61–1.15 / 1.22–2.42 ms;
#: * ``W = 32``: 1.62–1.81 / 2.28–2.61 ms against 0.74–2.30 / 1.62–4.71 ms,
#:   slower on 8 qubits, where the binding alone takes about 1.2 ms.
#:
#: A cap of 8 would leave the 4-qubit blocks of the 12-qubit VQE instances
#: gate by gate.
_FUSE_MAX = 16


def _branch_masses(stack: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("bi,bi->b", np.conj(stack), stack))


class _Merges(NamedTuple):
    """What coalescing does to a stack: see :func:`_coalesce_plan`."""

    kept: np.ndarray
    scales: np.ndarray
    merged: np.ndarray
    into: np.ndarray
    coefficients: np.ndarray


def _coalesce_plan(
    stack: np.ndarray, owners: np.ndarray, tol: float
) -> _Merges | None:
    """Which branches of the same owner are parallel up to a phase.

    ``None`` when nothing merges.  Otherwise ``kept`` lists the surviving
    rows in output order (grouped by owner, stable), ``scales[i]`` is the
    factor ``√(total/m)`` that carries the merged mass onto ``kept[i]``
    (exactly ``1.0`` where nothing merged into it), and row ``merged[j]``
    merged into ``into[j]`` with ``row ≈ coefficients[j] · stack[into[j]]``.

    Each branch is compared, in order, with its owner's earlier
    representatives and merges into the first it is parallel to.  Only
    pairs whose overlap passes ``|⟨a,b⟩|² ≥ (½ − tol)·m_a·m_b`` are
    candidates: a parallel pair has ``|⟨a,b⟩|² = m_a·m_b·cos²θ`` with
    ``sin²θ ≤ tol``, so the bound rejects only pairs the exact test would.
    The outcome is the same as testing every same-owner pair.
    """
    count = stack.shape[0]
    if count <= 1:
        return None
    order = np.argsort(owners, kind="stable")
    grouped = owners[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    sizes = np.diff(np.r_[starts, count])
    if sizes.max() == 1:
        return None  # every owner holds a single branch
    masses = _branch_masses(stack)
    factor = max(0.0, 0.5 - tol)
    firsts, seconds = [], []
    # One batched Gram matrix per group size: rows[g] are the row indices of
    # the g-th owner of that size, in order.
    for size in np.unique(sizes[sizes > 1]).tolist():
        rows = order[starts[sizes == size][:, np.newaxis] + np.arange(size)]
        block = stack[rows]
        gram = np.matmul(np.conj(block), block.transpose(0, 2, 1))
        weights = masses[rows]
        near = np.abs(gram) ** 2 >= factor * weights[:, :, np.newaxis] * weights[:, np.newaxis, :]
        group, left, right = np.nonzero(np.triu(near, 1))
        firsts.append(rows[group, left])
        seconds.append(rows[group, right])
    first = np.concatenate(firsts)
    if first.size == 0:
        return None
    second = np.concatenate(seconds)
    candidates = set(zip(first.tolist(), second.tolist()))
    tiny = np.finfo(float).tiny
    keep = np.ones(count, dtype=bool)
    totals: dict[int, tuple[float, float]] = {}  # representative -> (mass, total)
    merged, into, coefficients = [], [], []
    for owner in np.unique(owners[first]):
        representatives: list[int] = []
        for index in np.flatnonzero(owners == owner).tolist():
            row, mass = stack[index], float(masses[index])
            for rep in representatives:
                if (rep, index) not in candidates:
                    continue
                rep_mass, total = totals[rep]
                # sin²θ is measured as the residual of projecting `row`
                # onto the representative, ‖row − proj(row)‖² = mass·sin²θ.
                # The algebraically equivalent `rep_mass·mass − |⟨rep,row⟩|²`
                # cancels catastrophically: for branches differing by a
                # ~1e-9 component the overlap rounds to the full mass and
                # the test merges states that are measurably distinct.
                projection = np.vdot(stack[rep], row) / max(rep_mass, tiny)
                residual = row - projection * stack[rep]
                if float(np.vdot(residual, residual).real) <= tol * max(mass, tiny):
                    totals[rep] = (rep_mass, total + mass)
                    keep[index] = False
                    merged.append(index)
                    into.append(rep)
                    coefficients.append(projection)
                    break
            else:
                representatives.append(index)
                totals[index] = (mass, mass)
    if keep.all():
        return None
    kept = order[keep[order]]
    scales = np.ones(kept.size)
    for position, index in enumerate(kept.tolist()):
        rep_mass, total = totals.get(index, (0.0, 0.0))
        if total != rep_mass:
            scales[position] = np.sqrt(total / max(rep_mass, tiny))
    return _Merges(
        kept,
        scales,
        np.array(merged, dtype=np.intp),
        np.array(into, dtype=np.intp),
        np.array(coefficients, dtype=complex),
    )


def _merged_stack(stack: np.ndarray, plan: _Merges) -> np.ndarray:
    merged = stack[plan.kept]
    for position in np.flatnonzero(plan.scales != 1.0).tolist():
        merged[position] = stack[plan.kept[position]] * plan.scales[position]
    return merged


def coalesce_branches(
    stack: np.ndarray,
    owners: np.ndarray,
    *,
    tol: float = 1e-24,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge branches of the same owner that are parallel up to a phase.

    Two sub-normalized branches with ``sin²`` of their angle below ``tol``
    represent (numerically) the same pure state; their outer products add,
    so the merged branch keeps the representative's direction with the
    combined probability mass.  Projective measurements of basis-heavy
    states and symmetric ``+`` summands produce such duplicates routinely —
    coalescing keeps the ensemble width at the number of *distinct* states
    rather than the number of syntactic branches.  The output is the same,
    bit for bit, as testing every same-owner pair in order.
    """
    plan = _coalesce_plan(stack, owners, tol)
    if plan is None:
        return stack, owners
    return _merged_stack(stack, plan), owners[plan.kept].astype(np.intp)


def _fork_bounds(program: Program, parameters: tuple[Parameter, ...]) -> np.ndarray:
    """Each parameter's Definition 7.1 occurrence count in ``program``: the
    most gates using it that one branch can pass.  Memoized in its memo."""
    key = ("occurrences", parameters)
    found = program.memo.get(key)
    if found is None:
        found = np.array([occurrence_count(program, parameter) for parameter in parameters], float)
        found = program.memo.setdefault(key, frozen(found))
    return found


@lru_cache(maxsize=1024)
def _placement(dims: tuple[int, ...], axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Where an operator on ``axes`` of a ``dims`` register lands in the
    register's operator ``E``: ``E[r, c] = A[target[r], target[c]]`` where
    ``same[r, c]`` (``r`` and ``c`` agree off the targets), else 0."""
    index = np.arange(math.prod(dims))
    digits = np.unravel_index(index, dims)
    target, rest = np.zeros(index.size, dtype=np.intp), index.copy()
    for axis in axes:
        target = target * dims[axis] + digits[axis]
        rest -= digits[axis] * math.prod(dims[axis + 1 :])
    return frozen(target), frozen(rest[:, np.newaxis] == rest)


def _embedded(operator: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    """``operator`` on ``axes``, as an operator on the whole ``dims`` register."""
    target, same = _placement(dims, axes)
    return operator[target[:, np.newaxis], target] * same


class _Run:
    """A run of unitary statements that the walk applies as one operator.

    ``axes`` are the run's variables in layout order, and every matrix acts
    on their ``W``-dimensional product.  ``steps`` are the run's factors in
    order: ``(i, None)`` is ``products[i]``, the product of consecutive
    parameter-free gates, and ``(j, θ)`` the ``j``-th rotation or coupling,
    of angle ``θ = angles[j]``.  Its generator is a Pauli string, whose
    embedding ``G`` has one nonzero per row: ``G[r, perms[j, r]] =
    phases[j, r]``.  ``uses`` maps each parameter to the rotations whose
    angle it is, parameters in the order they first occur.
    """

    __slots__ = ("axes", "products", "perms", "phases", "angles", "steps", "uses")

    def __init__(self, statements: Sequence[UnitaryApp], layout: RegisterLayout, axes):
        dims = tuple(layout.dims[axis] for axis in axes)
        position = {layout.names[axis]: index for index, axis in enumerate(axes)}
        rows = np.arange(math.prod(dims))
        products, perms, phases, angles, steps = [], [], [], [], []
        fixed = None
        for statement in statements:
            gate = statement.gate
            targets = tuple(position[qubit] for qubit in statement.qubits)
            if not gate.parameters():
                embedded = _embedded(bound_gate_matrix(gate), dims, targets)
                fixed = embedded if fixed is None else embedded @ fixed
                continue
            if fixed is not None:
                steps.append((len(products), None))
                products.append(fixed)
                fixed = None
            generator = _embedded(gate.generator(), dims, targets)
            steps.append((len(angles), gate.angle))
            perms.append(np.argmax(np.abs(generator), axis=1))
            phases.append(generator[rows, perms[-1]])
            angles.append(gate.angle)
        if fixed is not None:
            steps.append((len(products), None))
            products.append(fixed)
        self.axes = tuple(axes)
        self.products = frozen(np.array(products, dtype=complex).reshape(-1, rows.size, rows.size))
        self.perms = frozen(np.array(perms, dtype=np.intp).reshape(-1, rows.size))
        self.phases = frozen(np.array(phases, dtype=complex).reshape(-1, rows.size))
        self.angles = tuple(angles)
        self.steps = tuple(steps)
        uses: dict[Parameter, list[int]] = {}
        for index, angle in enumerate(angles):
            if isinstance(angle, Parameter):
                uses.setdefault(angle, []).append(index)
        self.uses = {parameter: tuple(indices) for parameter, indices in uses.items()}


def _fusable(statements: Sequence[UnitaryApp], layout: RegisterLayout) -> _Run | None:
    """The run as one operator, or ``None`` when it goes gate by gate.

    It fuses when it has at least two statements, each gate is
    parameter-free or a rotation or coupling (a gate with no tangent rule
    stays on the per-gate path, which raises for it), and the ``W``
    amplitudes its variables span are at most ``_FUSE_MAX`` and at most the
    sum of its gates' dimensions, what the gates it replaces charge.
    """
    if len(statements) < 2:
        return None
    axes: set[int] = set()
    replaced = 0
    for statement in statements:
        gate = statement.gate
        if gate.parameters() and not isinstance(gate, (Rotation, Coupling)):
            return None
        targets = layout.axes_of(statement.qubits)
        axes.update(targets)
        replaced += math.prod(layout.dims[axis] for axis in targets)
    width = math.prod(layout.dims[axis] for axis in axes)
    if width > min(_FUSE_MAX, replaced):
        return None
    return _Run(statements, layout, sorted(axes))


def _fusion_plan(program: Seq, layout: RegisterLayout) -> tuple:
    """A ``Seq``'s statements as ``(start, end, run)`` segments, in order.

    A run of consecutive unitaries is one segment, ``run`` its
    :class:`_Run` when it fuses and ``None`` when it goes gate by gate;
    every other statement is a segment of its own with ``run = None``.
    Memoized in the node's memo per layout.
    """
    key = ("fusion", layout.names, layout.dims)
    found = program.memo.get(key)
    if found is None:
        statements = program.statements
        segments, start = [], 0
        while start < len(statements):
            end = start
            while end < len(statements) and isinstance(statements[end], UnitaryApp):
                end += 1
            if end == start:
                segments.append((start, start + 1, None))
                start += 1
            else:
                segments.append((start, end, _fusable(statements[start:end], layout)))
                start = end
        found = program.memo.setdefault(key, tuple(segments))
    return found


def _rotations(angles: Sequence[float], perms: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """``U(θ) = cos(θ/2)·I − i·sin(θ/2)·G`` per angle, as a ``(n, W, W)`` stack.

    Each generator is a Pauli string (``G² = I``), given by its one nonzero
    per row: ``G[r, perms[j, r]] = phases[j, r]``.
    """
    half = 0.5 * np.asarray(angles, dtype=float)[:, np.newaxis]
    count, width = perms.shape
    rows = np.arange(width)
    unitaries = np.zeros((count, width, width), dtype=complex)
    unitaries[:, rows, rows] = np.cos(half)
    unitaries[np.arange(count)[:, np.newaxis], rows, perms] += -1j * np.sin(half) * phases
    return unitaries


class _Evaluator:
    def __init__(
        self,
        layout: RegisterLayout,
        binding: ParameterBinding | None,
        options: TrajectoryOptions,
        num_inputs: int,
        parameters: tuple[Parameter, ...],
        forks: np.ndarray,
    ):
        self.layout = layout
        self.binding = binding if binding is not None else ParameterBinding()
        self.options = options
        self.cap = (
            options.max_branches
            if options.max_branches is not None
            else max(64, layout.total_dim)
        )
        # Tangent mode: each requested parameter's columns, and the most
        # forks of each column one branch can take.
        self.columns: dict[Parameter, list[int]] = {}
        for column, parameter in enumerate(parameters):
            self.columns.setdefault(parameter, []).append(column)
        self.forks = forks
        # Each fused run's R, D stack and forked columns, bound on its first
        # use in this walk.
        self.bound: dict[_Run, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Per input: the forward mass dropped, then each column's charge.
        self.dropped = np.zeros((num_inputs, 1 + len(parameters)))
        self.peak = 0

    # -- bookkeeping -------------------------------------------------------

    def _check_cap(self, *owner_arrays: np.ndarray) -> None:
        """Raise when some input holds more forward branches than the cap."""
        counts = np.zeros(self.dropped.shape[0], dtype=np.intp)
        for owners in owner_arrays:
            counts += np.bincount(owners, minlength=counts.size)
        peak = int(counts.max(initial=0))
        self.peak = max(self.peak, peak)
        if peak > self.cap:
            owner = int(np.flatnonzero(counts > self.cap)[0])
            raise TrajectoryError(
                f"a trajectory ensemble grew to {counts[owner]} branches of one owner, "
                f"past its cap of {self.cap}; the density representation is the "
                "cheaper encoding of this mixture"
            )

    def _charges(self, rows: _Rows, masses: np.ndarray) -> np.ndarray:
        """Per forward row: its mass, then what dropping it costs each column.

        Column ``1 + k`` is ``2√(m·t_k) + S_k·m``, which bounds the branch's
        whole contribution to column ``k``'s readout per unit of ``‖O‖``.
        """
        count = rows.owners.size
        forward = masses[:count, np.newaxis]
        if not self.forks.size:
            return forward
        tangent = np.zeros((count, self.forks.size))
        tangent[rows.parents, rows.columns] = masses[count:]
        return np.hstack([forward, 2.0 * np.sqrt(forward * tangent) + self.forks * forward])

    def _prune(self, rows: _Rows) -> _Rows:
        """Drop (numerically) zero-charge branches, charging what they carried.

        A forward row that is exactly zero, and a tangent row that is, drop
        free: they contribute exactly zero from then on.
        """
        count = rows.owners.size
        if count == 0:
            return rows
        masses = _branch_masses(rows.stack)
        charges = self._charges(rows, masses)
        keep = charges.max(axis=1) > self.options.prune_tol
        if rows.parents.size:
            live = keep[rows.parents] & (masses[count:] > 0.0)
            if keep.all() and live.all():
                return rows
        elif keep.all():
            return rows
        lost = ~keep
        np.add.at(self.dropped, rows.owners[lost], charges[lost])
        if not rows.parents.size:
            return _Rows(rows.stack[keep], rows.owners[keep], rows.parents, rows.columns)
        index = np.cumsum(keep) - 1
        return _Rows(
            np.concatenate([rows.stack[:count][keep], rows.stack[count:][live]]),
            rows.owners[keep],
            index[rows.parents[live]],
            rows.columns[live],
        )

    def _compact(self, parts: list[_Rows]) -> _Rows:
        """Concatenate, coalesce and cap-check a list of partial ensembles."""
        parts = [part for part in parts if part.owners.size]
        if not parts:
            return self._empty()
        if len(parts) == 1:
            rows = parts[0]
        else:
            offsets = np.cumsum([0] + [part.owners.size for part in parts[:-1]])
            rows = _Rows(
                np.concatenate(
                    [part.stack[: part.owners.size] for part in parts]
                    + [part.stack[part.owners.size :] for part in parts]
                ),
                np.concatenate([part.owners for part in parts]),
                np.concatenate(
                    [part.parents + offset for part, offset in zip(parts, offsets.tolist())]
                ),
                np.concatenate([part.columns for part in parts]),
            )
        if self.options.coalesce:
            rows = self._coalesce(rows)
        self._check_cap(rows.owners)
        return rows

    def _coalesce(self, rows: _Rows) -> _Rows:
        """Merge phase-parallel forward rows; their tangents merge along.

        Merging ``b ≈ c·a`` into ``a`` scales ``a`` by ``s = √(total/m_a)``
        and makes ``a``'s tangent ``(∂ψ_a + c̄·∂ψ_b)/s``: then
        ``|∂ψ_a⟩⟨ψ_a| + |∂ψ_b⟩⟨ψ_b|`` is the merged branch's
        ``|∂ψ⟩⟨ψ|``, so every derivative readout is unchanged.
        """
        count = rows.owners.size
        plan = _coalesce_plan(rows.stack[:count], rows.owners, self.options.coalesce_tol)
        if plan is None:
            return rows
        forward = _merged_stack(rows.stack[:count], plan)
        owners = rows.owners[plan.kept].astype(np.intp)
        if not rows.parents.size:
            return _Rows(forward, owners, rows.parents, rows.columns)
        position = np.empty(count, dtype=np.intp)
        position[plan.kept] = np.arange(plan.kept.size)
        representative = np.arange(count)
        representative[plan.merged] = plan.into
        weight = np.ones(count, dtype=complex)
        weight[plan.merged] = np.conj(plan.coefficients)
        weight /= plan.scales[position[representative]]
        width = self.forks.size
        keys, slots = np.unique(
            position[representative[rows.parents]] * width + rows.columns, return_inverse=True
        )
        tangents = np.zeros((keys.size, rows.stack.shape[1]), dtype=complex)
        np.add.at(tangents, slots, rows.stack[count:] * weight[rows.parents, np.newaxis])
        return _Rows(
            np.concatenate([forward, tangents]), owners, keys // width, keys % width
        )

    def _empty(self) -> _Rows:
        return _Rows(
            np.zeros((0, self.layout.total_dim), dtype=complex), _NO_ROWS, _NO_ROWS, _NO_ROWS
        )

    # -- the defining equations --------------------------------------------

    def denote(self, program: Program, rows: _Rows) -> _Rows:
        """``[[program]]`` on every forward row, its tangent rows riding along."""
        if rows.owners.size == 0:
            return rows
        if essentially_aborts(program):
            return self._empty()
        if isinstance(program, Skip):
            return rows
        if isinstance(program, Init):
            return self._reset(program.qubit, rows)
        if isinstance(program, UnitaryApp):
            return self._gates((program,), rows)
        if isinstance(program, Seq):
            return self._sequence(program, rows)
        if isinstance(program, Case):
            return self._case(program, rows)
        if isinstance(program, While):
            return self._while(program, rows)
        if isinstance(program, Sum):
            return self._compact([self.denote(summand, rows) for summand in program.summands])
        raise SemanticsError(
            f"{type(program).__name__} is not trajectory-simulable; the simulation "
            "report (repro.analysis.purity) gates which programs may take this path"
        )

    def _sequence(self, program: Seq, rows: _Rows) -> _Rows:
        """A sequence's statements in order, each run of unitaries fused or
        gate by gate as its plan says."""
        statements = program.statements
        for start, end, run in _fusion_plan(program, self.layout):
            if not rows.owners.size:
                break
            if run is not None:
                rows = self._fused(run, rows)
            elif isinstance(statements[start], UnitaryApp):
                rows = self._gates(statements[start:end], rows)
            else:
                rows = self.denote(statements[start], rows)
        return rows

    def _forked(self, statement: UnitaryApp) -> list[int]:
        """The requested columns whose parameter ``statement`` uses."""
        return [
            column
            for parameter in statement.parameters()
            for column in self.columns.get(parameter, ())
        ]

    def _derivative(self, statement: UnitaryApp, matrix: np.ndarray) -> np.ndarray:
        """``dU/dθ = ½U(θ+π) = −½i·G·U(θ)`` (Lemma D.1) of a rotation or
        coupling bound to ``matrix``, ``G`` its Pauli generator."""
        gate = statement.gate
        if not isinstance(gate, (Rotation, Coupling)):
            raise TransformError(
                f"no tangent rule for gate {gate.display()}; only Pauli rotations "
                "R_σ(θ) and couplings R_{σ⊗σ}(θ) are supported (Figure 4)"
            )
        return -0.5j * (gate.generator() @ matrix)

    def _gates(self, statements: Sequence[UnitaryApp], rows: _Rows) -> _Rows:
        """A run of unitary statements, gate by gate.

        A run the plan fuses takes :meth:`_fused` instead: whether a run
        fuses is static (:func:`_fusable`), and a fused run is bound once
        per walk (:meth:`_bind`) and applied in one call, plus one for all
        the columns it forks.  Here each gate ``U`` applies to every row in
        one call, bound through ``bound_gate_matrix``.  At a statement that
        uses a requested ``θ_k``, ``½U(θ+π)`` applies to the forward rows as
        they entered it, and :meth:`_fork` adds the result into each
        branch's ``∂_kψ`` — or makes it that, at the branch's first fork of
        ``k``.  Each gate writes into the one of two buffers its input does
        not occupy, and new tangent rows append behind it, so a run
        allocates two stacks rather than one per gate.
        """
        forks = [self._forked(statement) if self.columns else () for statement in statements]
        count = rows.owners.size
        capacity = rows.stack.shape[0] + count * len({column for fork in forks for column in fork})
        stack, parents, columns = rows.stack, rows.parents, rows.columns
        buffers: list[np.ndarray | None] = [None, None]
        side = 0
        for statement, forked in zip(statements, forks):
            size = stack.shape[0]
            if buffers[side] is None:
                buffers[side] = np.empty((capacity, stack.shape[1]), dtype=complex)
            target = buffers[side]
            axes = self.layout.axes_of(statement.qubits)
            matrix = bound_gate_matrix(statement.gate, self.binding)
            self._apply(axes, matrix, stack, target[:size])
            if forked:
                derivative = self._derivative(statement, matrix)
                size, parents, columns = self._fork(
                    axes,
                    derivative[np.newaxis].repeat(len(forked), axis=0),
                    stack[:count],
                    target,
                    size,
                    np.array(forked),
                    parents,
                    columns,
                )
            stack, side = target[:size], 1 - side
        return _Rows(stack, rows.owners, parents, columns)

    def _fused(self, run: _Run, rows: _Rows) -> _Rows:
        """A fused run: ``R`` on every row, then every ``D_k ψ`` into its column.

        ``ψ`` are the forward rows as they entered the run.  One call maps
        every row through ``R``, and one :meth:`_fork` applies the whole
        ``D`` stack to the forward rows and scatters the shifts, however
        many columns the run forks.  The tangent rows a run creates start
        from ``D_k ψ``, which already carries the rest of the run, so ``R``
        never applies to them.
        """
        operator, derivatives, forked = self._bind(run)
        count = rows.owners.size
        size = rows.stack.shape[0]
        target = np.empty((size + count * forked.size, rows.stack.shape[1]), dtype=complex)
        self._apply(run.axes, operator, rows.stack, target[:size])
        parents, columns = rows.parents, rows.columns
        if forked.size:
            size, parents, columns = self._fork(
                run.axes, derivatives, rows.stack[:count], target, size, forked, parents, columns
            )
        return _Rows(target[:size], rows.owners, parents, columns)

    def _fork(
        self,
        axes: tuple[int, ...],
        derivatives: np.ndarray,
        forward: np.ndarray,
        target: np.ndarray,
        size: int,
        forked: np.ndarray,
        parents: np.ndarray,
        columns: np.ndarray,
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Add ``derivatives[f]`` of each forward row into its tangent of
        column ``forked[f]``, for every ``f`` at once.

        ``target`` holds the ``count`` forward rows, then tangent rows up
        to ``size``, then room for the tangent rows the fork adds.  One
        stacked call applies every ``derivatives[f]`` to ``forward``, the
        forward rows as they entered the statement or run, and one scatter
        adds each shift into the tangent row its (row, column) pair already
        has.  The other pairs' shifts become new
        tangent rows at ``target[size:]``, column by column and rows
        ascending; where every pair is new, the call writes them there
        directly.  Returns the new ``(size, parents, columns)``.
        """
        count = forward.shape[0]
        grid = target[size : size + forked.size * count]
        fresh = np.ones((forked.size, count), dtype=bool)
        which, mine = np.nonzero(columns == forked[:, np.newaxis])
        if mine.size:
            shifts = self._apply(axes, derivatives, forward)
            rows = parents[mine]
            target[count + mine] += shifts[which, rows]
            fresh[which, rows] = False
            which, rows = np.nonzero(fresh)
            if not rows.size:
                return size, parents, columns
            grid[: rows.size] = shifts[which, rows]
        else:
            self._apply(axes, derivatives, forward, grid.reshape(forked.size, count, -1))
            which, rows = np.nonzero(fresh)
        return (
            size + rows.size,
            np.concatenate([parents, rows]),
            np.concatenate([columns, forked[which]]),
        )

    def _bind(self, run: _Run) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A fused run's ``R``, the stack of its forked columns' ``D_k =
        ∂R/∂θ_k`` and those columns, bound on the run's first use in this
        walk.

        One chain of ``W × W`` products builds ``R = M_m⋯M_1`` (its
        rotations bound by one :func:`_rotations` call) and keeps the prefix
        ``P_i = M_i⋯M_1`` at each rotation ``i`` of a requested parameter.
        As ``dU_i/dθ = −½i·G_i·U_i`` and every factor is unitary,
        ``∂R/∂θ_k = −½i · R · Σ_{i uses θ_k} P_iᴴ G_i P_i``, and ``G_i P_i``
        gathers ``P_i``'s rows through the generator's ``perms``/``phases``.
        So the columns cost a fixed number of batched products however many
        the run forks: one gather, one stacked ``P_iᴴ(G_i P_i)``, one
        stacked product with ``R``, and between them one add per further
        use of the most-used parameter.  Columns come in the order their
        parameters first occur in the run, a parameter's columns ascending.
        This is binding work, not kernel calls.
        """
        found = self.bound.get(run)
        if found is not None:
            return found
        unitaries = _rotations([self.binding[angle] for angle in run.angles], run.perms, run.phases)
        # Each requested parameter the run uses: its rotations and columns.
        used = [
            (rotations, self.columns[parameter])
            for parameter, rotations in run.uses.items()
            if parameter in self.columns
        ]
        # The requested rotations rank by rank, the most-used parameters
        # first: every parameter's first rotation, then the second of those
        # used twice or more, and so on.
        order = sorted(range(len(used)), key=lambda index: -len(used[index][0]))
        ranks = [
            [used[index][0][rank] for index in order if len(used[index][0]) > rank]
            for rank in range(len(used[order[0]][0]) if used else 0)
        ]
        requested = [j for rank in ranks for j in rank]
        slots = {j: slot for slot, j in enumerate(requested)}
        width = run.products.shape[-1]
        prefixes = np.empty((len(requested), width, width), dtype=complex)
        product = None
        for index, angle in run.steps:
            factor = run.products[index] if angle is None else unitaries[index]
            slot = None if angle is None else slots.get(index)
            if product is not None:
                factor = np.matmul(factor, product, out=None if slot is None else prefixes[slot])
            elif slot is not None:
                prefixes[slot] = factor
            product = factor
        if not requested:
            found = self.bound[run] = (product, prefixes, _NO_ROWS)
            return found
        forked = np.array([column for _, columns in used for column in columns], dtype=np.intp)
        # P_iᴴ (G_i P_i) per requested rotation.
        terms = np.matmul(
            np.conj(prefixes).swapaxes(1, 2),
            run.phases[requested][:, :, np.newaxis]
            * prefixes[np.arange(len(requested))[:, np.newaxis], run.perms[requested]],
        )
        # Each parameter's terms summed in rotation order, one rank at a time,
        # so a column's bits do not depend on what else is requested.
        sums, start = terms[: len(used)], len(used)
        for rank in ranks[1:]:
            sums[: len(rank)] += terms[start : start + len(rank)]
            start += len(rank)
        # Then one sum per forked column, in column order: a copy only where
        # that order is not already the sums' own.
        position = {index: row for row, index in enumerate(order)}
        rows = [position[index] for index, (_, columns) in enumerate(used) for _ in columns]
        if rows != list(range(len(order))):
            sums = sums[rows]
        found = self.bound[run] = (product, np.matmul(-0.5j * product, sums), forked)
        return found

    def _apply(
        self,
        axes: tuple[int, ...],
        matrix: np.ndarray,
        stack: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        return kernels.apply_operator_vector_batch(
            stack, self.layout.dims, axes, matrix, out=out
        )

    def _reset(self, variable: str, rows: _Rows) -> _Rows:
        axis = self.layout.index(variable)
        if not rows.parents.size:
            # One row per branch, charging nothing: only below the pruning floor.
            try:
                return rows._replace(
                    stack=kernels.reset_vector_batch(
                        rows.stack, self.layout.dims, axis, atol=self.options.prune_tol
                    )
                )
            except PurityError:
                pass
        # Some branch is entangled with the reset variable, or carries a
        # tangent: split the reset channel into its Kraus operators
        # K_i = |0⟩⟨i| — each K_i|ψ⟩ is pure, and Σ_i K_i|ψ⟩⟨ψ|K_i† is the
        # channel exactly (and Σ_i K_i|∂ψ⟩⟨ψ|K_i† its tangent).
        dim = self.layout.dims[axis]
        kraus = np.zeros((dim, dim, dim), dtype=complex)
        kraus[:, 0, :] = np.eye(dim)
        splits = kernels.apply_operator_vector_batch(rows.stack, self.layout.dims, (axis,), kraus)
        return self._compact([self._prune(rows._replace(stack=split)) for split in splits])

    def _case(self, program: Case, rows: _Rows) -> _Rows:
        axes = self.layout.axes_of(program.qubits)
        outcome_stacks = kernels.measure_branch_vector_batch(
            rows.stack,
            self.layout.dims,
            axes,
            [program.measurement.operator(m) for m, _ in program.branches],
        )
        splits = [self._prune(rows._replace(stack=split)) for split in outcome_stacks]
        self._check_cap(*(split.owners for split in splits))
        return self._compact(
            [
                self.denote(branch, split)
                for split, (_, branch) in zip(splits, program.branches)
                if split.owners.size
            ]
        )

    def _while(self, program: While, rows: _Rows) -> _Rows:
        axes = self.layout.axes_of(program.qubits)
        operators = {
            outcome: program.measurement.operator(outcome) for outcome in (0, 1)
        }
        finished: list[_Rows] = []
        for iteration in range(program.bound):
            if rows.owners.size == 0:
                break
            terminated = kernels.apply_operator_vector_batch(
                rows.stack, self.layout.dims, axes, operators[0]
            )
            terminated = self._prune(rows._replace(stack=terminated))
            if terminated.owners.size:
                finished.append(terminated)
            if iteration + 1 == program.bound:
                # The branch still running at the T-th guard aborts — its
                # mass is removed by the semantics itself, not an
                # approximation — so its guard-1 arm is never formed.
                break
            continuing = kernels.apply_operator_vector_batch(
                rows.stack, self.layout.dims, axes, operators[1]
            )
            rows = self._prune(rows._replace(stack=continuing))
            if self._truncate_while(rows):
                break
            self._check_cap(*(part.owners for part in finished), rows.owners)
            rows = self.denote(program.body, rows)
        return self._compact(finished)

    def _truncate_while(self, rows: _Rows) -> bool:
        """Certified early exit: may the continuing branches be discarded?

        Truncating at iteration ``t < T`` only loses the mass that would
        have *terminated* in iterations ``t..T-1``, which is at most the
        continuing mass (mass never increases) — and in tangent mode at
        most each continuing branch's charge to each column.  The exit
        engages only when every owner with something to charge stays within
        its budget after being charged — otherwise the loop unrolls to its
        exact bound.
        """
        if self.options.mass_budget <= 0.0 or rows.owners.size == 0:
            return False
        owner_charges = np.zeros_like(self.dropped)
        np.add.at(owner_charges, rows.owners, self._charges(rows, _branch_masses(rows.stack)))
        active = owner_charges > 0.0
        if not np.all(
            self.dropped[active] + owner_charges[active] <= self.options.mass_budget
        ):
            return False
        self.dropped += owner_charges
        return True


def denote_trajectory_batch(
    program: Program,
    layout: RegisterLayout,
    amplitudes: np.ndarray,
    binding: ParameterBinding | None = None,
    *,
    options: TrajectoryOptions | None = None,
    parameters: Sequence[Parameter] | None = None,
) -> TrajectoryResult:
    """Apply ``[[P(θ*)]]`` to a stack of pure inputs by branch splitting.

    Each row of the ``(B, d^n)`` input stack is an independent (possibly
    sub-normalized) pure input state; the result's ``owners`` maps every
    output branch back to its input row.  Raises
    :class:`~repro.errors.TrajectoryError` when some input's ensemble
    outgrows the branch cap — the caller's cue to use the density simulator
    instead.

    ``parameters`` selects tangent mode (see the module docstring): the
    result then also holds each branch's tangent rows, one per requested
    parameter that forked into it, and ``dropped`` is per (input, column).
    """
    missing = program.qvars() - set(layout.names)
    if missing:
        raise SemanticsError(
            f"the input state does not carry variables {sorted(missing)} used by the program"
        )
    stack = np.asarray(amplitudes, dtype=complex)
    if stack.ndim != 2 or stack.shape[1] != layout.total_dim:
        raise SemanticsError(
            f"batched amplitudes must have shape (B, {layout.total_dim}), got {stack.shape}"
        )
    requested = tuple(parameters) if parameters is not None else ()
    options = options if options is not None else TrajectoryOptions()
    if program.is_additive() and options.mass_budget:
        # A `+` evaluates each branch once per summand it reaches, but a
        # truncated branch is charged once: an additive program gets no
        # early-truncation budget (discarding less is always compliant).
        options = replace(options, mass_budget=0.0)
    evaluator = _Evaluator(
        layout,
        binding,
        options,
        stack.shape[0],
        requested,
        _fork_bounds(program, requested),
    )
    rows = _Rows(stack, np.arange(stack.shape[0], dtype=np.intp), _NO_ROWS, _NO_ROWS)
    evaluator._check_cap(rows.owners)
    out = evaluator.denote(program, rows)
    count = out.owners.size
    return TrajectoryResult(
        amplitudes=out.stack[:count],
        owners=out.owners,
        dropped=evaluator.dropped if parameters is not None else evaluator.dropped[:, 0],
        branch_peak=evaluator.peak,
        tangents=out.stack[count:],
        parents=out.parents,
        columns=out.columns,
    )
