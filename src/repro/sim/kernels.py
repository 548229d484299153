"""Local tensor-contraction kernels for k-local operators.

The simulation hot path of the paper's execution scheme (Section 7) applies
1–2 qubit gates, measurement branches, reset channels and local-observable
readouts to states over ``n`` variables, over and over, for every program in
the compiled multiset ``{|P'_i|}``.  The historical implementation embedded
every local operator into the full ``2^n × 2^n`` space
(:meth:`repro.sim.hilbert.RegisterLayout.embed_operator`) and then performed
full-space matrix products — ``O(8^n)`` work per gate on a density state,
regardless of how small the gate is.

This module is the replacement: every primitive contracts the k-local
operator directly against the *target axes* of the state tensor.  A state
vector over variables of dimensions ``(d_1, …, d_n)`` is viewed as an
``n``-axis tensor, a density operator as a ``2n``-axis tensor (row axes
first, column axes second); a k-local operator then touches only ``k`` (or
``2k``) of those axes.  The costs become

=======================  =======================  =====================
primitive                embed path               contraction kernel
=======================  =======================  =====================
unitary on |ψ⟩           ``O(4^n)``               ``O(2^k · 2^n)``
unitary on B |ψ⟩, tail   ``O(B · 4^n)``           ``O(B · w · d^n)`` in one matmul call, ``w ≤ _TAIL_MAX``
unitary on ρ             ``O(8^n)``               ``O(2^k · 4^n)``
Kraus channel on ρ       ``O(K · 8^n)``           ``O(K · 2^k · 4^n)``
tr(Oρ), O k-local        ``O(8^n)``               ``O(4^n)``
=======================  =======================  =====================

(The expectation kernel first partial-traces ρ onto the target factors —
one ``O(4^n)`` reduction — and then contracts the ``2^k × 2^k`` observable
against the reduced matrix, never forming ``Oρ``.)

Flops alone do not set the time; the number of BLAS calls does.  A plan
(:class:`_Plan`) picks one of three contraction geometries from
``(dims, axes)`` alone:

* **block view** — consecutive targets: the stack is viewed as
  ``(B, left, t, right)`` and one broadcast matmul applies the ``t × t``
  operator, which is ``B · left`` GEMMs of ``t × right``.  With a wide
  ``right`` that is a few large calls.  On the register's last qubits
  ``right`` is tiny and ``left`` huge, so it degenerates into thousands of
  calls that each do a handful of flops: on a 13-qubit stack this view
  takes about 30× as long for a 1-qubit gate on axis 11 as on axis 0
  (OpenBLAS, 2 vCPUs).
* **tail window** — the shortest run of trailing axes that holds every
  target and is at least ``_TAIL_MIN`` wide, used when it is at most
  ``_TAIL_MAX`` wide.  Scatter indices computed once per plan embed the
  operator into a ``w × w`` window operator, and one matmul advances each
  row as a ``(d^n / w) × w`` by ``w × w`` product.  That does ``w / 2^k``
  times the exact contraction's flops, which pays only while ``w`` stays
  small.  Any target order, non-consecutive targets and qudit dimensions
  work.
* **targets to the front** (``tensordot``'s geometry) — everything else: a
  copy moves the targets to the front, in the operator's order, one matmul
  applies the ``t × t`` operator, and the result moves back.

The window and the targets-to-the-front matmul are cut into GEMMs of at
most ``_GEMM_MAX`` multiply-adds, so that BLAS runs every one of them on
the calling thread.  All three forms keep the batch as a stacked axis, so a
row runs the same GEMM shapes whatever ``B`` is and its bits never depend
on how many rows share the call.  A stack of ``K`` operators on the same
targets is one more stacked axis in front: one call runs every operator's
GEMMs, each as it would alone.  A density conjugation takes its column
side through the same geometry: ``ρ ↦ ρ (A ⊗ I)†`` applies ``conj(A)`` to
every row of ``ρ`` as a statevector; where that is neither a window nor a
block view, both its sides go through ``tensordot`` itself.

All kernels are layout-agnostic: they take the tuple of per-variable
dimensions and the list of target axis positions, so they work for qubits,
bounded-integer variables and any mixture of the two.  The embedding path is
retained in :mod:`repro.sim.hilbert` as the reference implementation; the
property tests in ``tests/sim/test_kernels.py`` cross-check every kernel
against it on random states and random target subsets.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from repro.errors import DimensionMismatchError, LinalgError, PurityError

__all__ = [
    "KernelCounters",
    "apply_operator_vector",
    "apply_operator_vector_batch",
    "conjugate_operator_density",
    "apply_kraus_density",
    "count_kernel_ops",
    "reduced_density",
    "expectation_density",
    "expectation_vector",
    "expectation_vector_batch",
    "measure_branch_vector_batch",
    "reset_vector_batch",
    "branch_probabilities_density",
    "two_factor_expectation_density",
]


# -- instrumentation ----------------------------------------------------------
#
# The static cost model (:mod:`repro.analysis.cost`) predicts upper bounds on
# the work these kernels perform.  To make that claim *testable*, every kernel
# can charge an active :class:`KernelCounters` with the same per-primitive
# cost formula the model uses — ``B · e · d^n`` model flops for a batched
# k-local apply with target dimension ``e``, ``2 · e · (d^n)²`` for a density
# conjugation, and so on — plus the peak single-kernel working set in bytes
# (``2 · B · d^n · 16``: input and output stacks of complex128 amplitudes;
# ``(1 + K) · B · d^n · 16`` for ``K`` operators applied in one call).
# The soundness suite then asserts measured ≤ predicted on random programs.
#
# Counting is off by default and costs one ``None`` check per kernel call.


class KernelCounters:
    """Model-unit operation counters charged by the kernels while active.

    ``flops`` accumulates the model cost units of every kernel invocation;
    ``peak_bytes`` tracks the largest single-invocation working set
    (input + output buffers); ``calls`` counts kernel invocations.
    """

    __slots__ = ("flops", "peak_bytes", "calls")

    def __init__(self) -> None:
        self.flops = 0.0
        self.peak_bytes = 0.0
        self.calls = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"KernelCounters(flops={self.flops:.3g}, "
            f"peak_bytes={self.peak_bytes:.3g}, calls={self.calls})"
        )


_COUNTERS: "KernelCounters | None" = None


def _charge(flops: float, working_elements: float) -> None:
    counters = _COUNTERS
    if counters is None:
        return
    counters.flops += flops
    counters.calls += 1
    working = 2.0 * working_elements * 16.0
    if working > counters.peak_bytes:
        counters.peak_bytes = working


@contextmanager
def count_kernel_ops():
    """Activate kernel op-counting for the dynamic extent of the block.

    Yields the :class:`KernelCounters` the kernels charge.  Not reentrant
    across threads (a single module-global slot): the soundness tests that
    use it run their backend calls single-threaded.
    """
    global _COUNTERS
    previous = _COUNTERS
    _COUNTERS = counters = KernelCounters()
    try:
        yield counters
    finally:
        _COUNTERS = previous


#: Tail-window bounds, in amplitudes per window.  The window of a target set
#: is the shortest run of trailing axes that holds every target and is at
#: least ``_TAIL_MIN`` wide; a plan uses it when it is at most ``_TAIL_MAX``
#: wide.  Both come from a per-axis micro-benchmark of 1- and 2-qubit gates
#: on a 13-qubit stack: below 8 the GEMM is too thin to pay its call, and
#: from 64 on the window's ``w``-fold redundant flops cost more than the
#: broadcast matmul's per-block calls save.
_TAIL_MIN = 8
_TAIL_MAX = 32

#: Most multiply-adds one GEMM of the tail window or of the targets-to-the-
#: front form may do.  OpenBLAS splits a complex GEMM across its threads
#: from ``2^16`` on; a split call waits for a second core, so its time
#: depends on what else that core runs, and the idle thread then spins
#: beside the caller.  Cut to at most this size, each stays on the calling
#: thread.
_GEMM_MAX = 2**15


def _gemm_extent(dims: Sequence[int], width: int) -> int:
    """The free extent of one GEMM against a ``width × width`` operator.

    ``dims`` are the axes that extent runs along, innermost last; it is the
    product of as many of the last of them as keep ``extent · width · width``
    within ``_GEMM_MAX``, and 1 for an operator too wide for even that.
    """
    extent = 1
    for dim in reversed(dims):
        if extent * dim * width * width > _GEMM_MAX:
            break
        extent *= dim
    return extent


def _window_scatter(dims: tuple[int, ...], axes: tuple[int, ...]):
    """Scatter indices that embed an operator on ``axes`` into a window.

    ``dims`` are the window's axes and ``axes`` the targets' positions among
    them, in the operator's order.  Returns ``(w, positions, source)``: on a
    zeroed ``w × w`` array, ``window.flat[positions] = operator.flat[source]``
    writes ``(A ⊗ I)ᵀ``, the window operator a row vector is multiplied by.
    """
    width = math.prod(dims)
    index = np.arange(width)
    digits = np.unravel_index(index, dims)
    target = np.zeros(width, dtype=np.intp)
    rest = index.copy()
    for axis in axes:
        target = target * dims[axis] + digits[axis]
        rest -= digits[axis] * math.prod(dims[axis + 1 :])
    # (A ⊗ I)[r, c] = A[target[r], target[c]] where r and c agree off the targets.
    rows, cols = np.nonzero(rest[:, None] == rest[None, :])
    expected = math.prod(dims[axis] for axis in axes)
    return width, cols * width + rows, target[rows] * expected + target[cols]


class _Plan:
    """Pre-computed contraction geometry for one ``(dims, axes)`` pair.

    The hot loop applies gates to the same few target tuples millions of
    times; everything that depends only on the layout geometry — validation,
    the axis sort, the operator-permutation indices, the consecutive-axes
    block factorization, the tail-window scatter indices, the
    targets-to-the-front permutation and the GEMM cuts — is computed once
    and memoized.
    """

    __slots__ = (
        "dims",
        "axes",
        "n",
        "total",
        "expected",
        "target_dims",
        "sorted_axes",
        "sorted_dims",
        "operator_permutation",
        "blocks",
        "window",
        "front",
        "reduce_permutation",
        "other_dim",
    )

    def __init__(self, dims: tuple[int, ...], axes: tuple[int, ...]):
        if len(set(axes)) != len(axes):
            raise LinalgError(f"target axes must be distinct, got {list(axes)}")
        for axis in axes:
            if not 0 <= axis < len(dims):
                raise LinalgError(f"axis {axis} out of range for {len(dims)} variables")
        self.dims = dims
        self.axes = axes
        self.n = len(dims)
        self.total = math.prod(dims)
        self.target_dims = tuple(dims[a] for a in axes)
        self.expected = math.prod(self.target_dims)
        k = len(axes)
        order = sorted(range(k), key=axes.__getitem__)
        self.sorted_axes = tuple(axes[i] for i in order)
        self.sorted_dims = tuple(self.target_dims[i] for i in order)
        if order == list(range(k)):
            self.operator_permutation = None
        else:
            self.operator_permutation = tuple(order) + tuple(k + i for i in order)
        # Consecutive (sorted) axes admit the (left, target, right) block view:
        # one broadcasted matmul per side, no transposition of the big state.
        # Empty targets are the degenerate scalar case (a 1×1 operator scales
        # the state), which the embed path also supported.
        if not axes:
            self.blocks = (1, 1, self.total)
        elif all(b == a + 1 for a, b in zip(self.sorted_axes, self.sorted_axes[1:])):
            first, last = self.sorted_axes[0], self.sorted_axes[-1]
            self.blocks = (
                math.prod(dims[:first]),
                math.prod(dims[first : last + 1]),
                math.prod(dims[last + 1 :]),
            )
        else:
            self.blocks = None
        # Targets among the last axes: one (rows, w) @ (w, w) GEMM per state
        # instead of a broadcast matmul's left-many tiny ones.
        self.window = None
        if axes:
            start = min(axes)
            while start > 0 and math.prod(dims[start:]) < _TAIL_MIN:
                start -= 1
            if math.prod(dims[start:]) <= _TAIL_MAX:
                width, positions, source = _window_scatter(
                    dims[start:], tuple(a - start for a in axes)
                )
                self.window = (width, _gemm_extent(dims[:start], width), positions, source)
        other = [i for i in range(self.n) if i not in axes]
        # Everything else moves the targets to the front, in the operator's
        # order, behind the batch axis.
        self.front = None
        if self.window is None and self.blocks is None:
            order = [0] + [1 + a for a in axes] + [1 + i for i in other]
            self.front = (
                tuple(order),
                tuple(order.index(axis) for axis in range(len(order))),
                _gemm_extent([dims[i] for i in other], self.expected),
            )
        # Partial-trace geometry: targets (in given order) first, the rest after.
        reduce_perm = list(axes) + other
        self.reduce_permutation = tuple(reduce_perm) + tuple(self.n + p for p in reduce_perm)
        self.other_dim = math.prod(dims[o] for o in other)

    def validate_operator(self, operator: np.ndarray, *, stacked: bool = False) -> np.ndarray:
        """Check that the operator matches the target dimensions.

        With ``stacked``, a ``(K, e, e)`` stack of operators passes too.
        """
        operator = np.asarray(operator, dtype=complex)
        square = (self.expected, self.expected)
        if not (
            operator.shape == square
            or (stacked and operator.ndim == 3 and operator.shape[1:] == square)
        ):
            raise DimensionMismatchError(
                f"operator shape {operator.shape} does not match target dims "
                f"{list(self.target_dims)}"
            )
        return operator

    def sort_operator(self, operator: np.ndarray) -> np.ndarray:
        """Permute a validated operator, or each of a stack, onto the sorted
        target axes."""
        if self.operator_permutation is not None:
            stack = operator.shape[:-2]
            operator = (
                operator.reshape(stack + self.target_dims + self.target_dims)
                .transpose(
                    tuple(range(len(stack)))
                    + tuple(len(stack) + axis for axis in self.operator_permutation)
                )
                .reshape(stack + (self.expected, self.expected))
            )
        return operator


#: FIFO-evicting memo for contraction plans.  Hits do not reorder entries (a
#: ``move_to_end`` per gate application would tax the hottest lookup in the
#: simulator); a working set anywhere near the limit does not occur in
#: practice, so evicting the oldest insertion is enough to stay bounded
#: without ever flushing the whole cache.
_PLAN_CACHE: "OrderedDict[tuple, _Plan]" = OrderedDict()
_PLAN_CACHE_LIMIT = 8192


def _plan(dims: Sequence[int], axes: Sequence[int]) -> _Plan:
    key = (tuple(dims), tuple(axes))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _Plan(*key)
        while len(_PLAN_CACHE) >= _PLAN_CACHE_LIMIT:
            _PLAN_CACHE.popitem(last=False)
        _PLAN_CACHE[key] = plan
    return plan


def _contract(tensor: np.ndarray, op_tensor: np.ndarray, axes: tuple[int, ...], k: int) -> np.ndarray:
    """Contract the ``2k``-axis operator tensor onto ``axes`` of ``tensor``.

    ``tensordot`` moves the contracted axes to the front (in the order the
    axes were listed); ``moveaxis`` puts them back where they came from, so
    the result has the same axis order as the input.
    """
    moved = np.tensordot(op_tensor, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(moved, tuple(range(k)), axes)


def _advance(
    plan: _Plan, operator: np.ndarray, psi: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply a validated operator to every row of a ``(B, d^n)`` stack.

    The tail window, else the block view, else the targets moved to the
    front (see the module docstring).  Every form keeps ``B`` a stacked
    axis — never ``psi.reshape(-1, w) @ window``, whose BLAS kernel choice
    depends on the row count — so a row's bits do not depend on the batch
    it rides in.  A ``(K, e, e)`` stack of operators adds a leading axis,
    ``(K, B, d^n)``: each operator runs the GEMMs it would run alone, so
    row ``(k, b)`` has the bits operator ``k`` alone gives row ``b``.
    ``out``, a C-contiguous array of the result's shape, receives the
    result in place of a new array.
    """
    batch = psi.shape[0]
    if operator.ndim == 2:
        stack = spread = ()
    else:
        # Each operator of a stack broadcasts over the batch and block axes.
        stack = operator.shape[:1]
        spread = stack + (1, 1)
    if plan.window is not None:
        width, rows, positions, source = plan.window
        window = np.zeros(stack + (width * width,), dtype=complex)
        if stack:
            window[:, positions] = operator.reshape(stack + (-1,))[:, source]
        else:
            window[positions] = operator.reshape(-1)[source]
        segments = psi.reshape(batch, plan.total // (rows * width), rows, width)
        result = np.matmul(
            segments,
            window.reshape(spread + (width, width)),
            out=None if out is None else out.reshape(stack + segments.shape),
        )
    elif plan.blocks is not None:
        shape = (batch,) + plan.blocks
        operator = plan.sort_operator(operator)
        result = np.matmul(
            operator.reshape(spread + operator.shape[-2:]) if stack else operator,
            psi.reshape(shape),
            out=None if out is None else out.reshape(stack + shape),
        )
    else:
        order, inverse, columns = plan.front
        moved = psi.reshape((batch,) + plan.dims).transpose(order)
        shape = (batch, plan.expected, plan.total // (plan.expected * columns), columns)
        if stack:
            operator = operator.reshape(spread + operator.shape[-2:])
            inverse = (0,) + tuple(1 + axis for axis in inverse)
        result = np.matmul(operator, moved.reshape(shape).swapaxes(1, 2))
        result = result.swapaxes(-3, -2).reshape(stack + moved.shape).transpose(inverse)
        if out is not None:
            out.reshape(result.shape)[...] = result
            return out
    return result.reshape(stack + (batch, plan.total))


# -- state-vector kernels -----------------------------------------------------


def apply_operator_vector(
    amplitudes: np.ndarray,
    dims: Sequence[int],
    axes: Sequence[int],
    operator: np.ndarray,
) -> np.ndarray:
    """Apply a k-local operator to a state vector: ``|ψ⟩ ↦ (A ⊗ I)|ψ⟩``.

    ``O(2^k · 2^n)`` instead of the ``O(4^n)`` full-space matrix–vector
    product of the embedding path.
    """
    plan = _plan(dims, axes)
    operator = plan.validate_operator(operator)
    psi = np.asarray(amplitudes, dtype=complex).reshape(1, plan.total)
    _charge(plan.expected * plan.total, plan.total)
    return _advance(plan, operator, psi)[0]


def expectation_vector(
    amplitudes: np.ndarray,
    dims: Sequence[int],
    axes: Sequence[int],
    observable: np.ndarray,
) -> float:
    """Return ``⟨ψ|(O ⊗ I)|ψ⟩`` for a k-local observable without embedding."""
    applied = apply_operator_vector(amplitudes, dims, axes, observable)
    _charge(math.prod(dims), math.prod(dims))
    return float(np.real(np.vdot(np.asarray(amplitudes, dtype=complex).reshape(-1), applied)))


# -- batched state-vector kernels ---------------------------------------------
#
# The data-point batches of the training loop, and the forward and tangent
# rows of a gradient's tangent walk, run the *same* program at the *same*
# parameter point over a stack of vectors.  These kernels advance a stack of
# ``B`` statevectors shaped ``(B, d^n)`` through one gate with a single
# broadcasted contraction — ``O(B · 2^k · 2^n)`` total, one numpy dispatch
# per gate instead of ``B``.


def _as_batch(amplitudes: np.ndarray, total: int) -> np.ndarray:
    batch = np.asarray(amplitudes, dtype=complex)
    if batch.ndim != 2 or batch.shape[1] != total:
        raise DimensionMismatchError(
            f"batched amplitudes must have shape (B, {total}), got {batch.shape}"
        )
    return batch


def apply_operator_vector_batch(
    amplitudes: np.ndarray,
    dims: Sequence[int],
    axes: Sequence[int],
    operator: np.ndarray,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a k-local operator to a ``(B, d^n)`` stack of statevectors.

    One broadcasted contraction advances the whole stack:
    ``O(B · 2^k · 2^n)``, with a single numpy call per gate.  A ``(K, e,
    e)`` stack of operators on the same targets applies each of them to
    every row in that one call and returns ``(K, B, d^n)``; row ``(k, b)``
    has the bits of operator ``k`` applied alone, and the call charges
    ``K`` applies' model flops and a working set of the input plus ``K``
    outputs.  ``out`` — a C-contiguous complex array of the result's
    shape, e.g. rows of a larger stack — receives the result instead of a
    new array.
    """
    plan = _plan(dims, axes)
    operator = plan.validate_operator(operator, stacked=True)
    psi = _as_batch(amplitudes, plan.total)
    count = 1 if operator.ndim == 2 else len(operator)
    if out is not None and (
        out.shape != operator.shape[:-2] + psi.shape
        or out.dtype != complex
        or not out.flags.c_contiguous
    ):
        raise DimensionMismatchError(
            f"out must be a C-contiguous complex array of shape {operator.shape[:-2] + psi.shape}"
        )
    rows = psi.shape[0] * plan.total
    _charge(count * plan.expected * rows, 0.5 * (1 + count) * rows)
    return _advance(plan, operator, psi, out)


def expectation_vector_batch(
    amplitudes: np.ndarray,
    dims: Sequence[int],
    axes: Sequence[int],
    observable: np.ndarray,
) -> np.ndarray:
    """Return ``⟨ψ_b|(O ⊗ I)|ψ_b⟩`` for every row of a ``(B, d^n)`` stack."""
    psi = _as_batch(amplitudes, math.prod(dims))
    applied = apply_operator_vector_batch(psi, dims, axes, observable)
    _charge(psi.shape[0] * psi.shape[1], psi.shape[0] * psi.shape[1])
    return np.real(np.einsum("bi,bi->b", np.conj(psi), applied))


def measure_branch_vector_batch(
    amplitudes: np.ndarray,
    dims: Sequence[int],
    axes: Sequence[int],
    operators: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Split a ``(B, d^n)`` stack into per-outcome sub-normalized stacks.

    For a measurement ``{M_m}`` on the target axes, outcome ``m``'s stack is
    ``M_m`` applied to every row: each input branch ``|ψ_b⟩`` contributes
    the sub-normalized branch ``M_m|ψ_b⟩`` whose squared norm is that
    branch's Born-rule probability mass, and summing the outer products of
    all outcome stacks reproduces the density semantics of the measurement
    exactly.  One stacked contraction for every outcome — ``O(K · B · 2^k ·
    2^n)`` total for ``K`` outcomes, the pure-state counterpart of the
    ``O(K · 2^k · 4^n)`` density branch channels.
    """
    return list(apply_operator_vector_batch(amplitudes, dims, axes, np.asarray(operators)))


def reset_vector_batch(
    amplitudes: np.ndarray,
    dims: Sequence[int],
    axis: int,
    *,
    atol: float = 1e-10,
) -> np.ndarray:
    """Apply the reset channel ``E_{q→0}`` to a stack of pure states.

    ``E_{q→0}(|ψ⟩⟨ψ|) = |0⟩⟨0|_q ⊗ tr_q(|ψ⟩⟨ψ|)`` is pure exactly when the
    reset variable is unentangled with the rest of the register.  Writing
    ``ψ`` as the ``d_q × d_rest`` amplitude matrix ``M`` (rows indexed by the
    reset variable), the marginal ``tr_q = M† M`` has rank 1 iff
    ``tr(G²) = (tr G)²`` for the small Gram matrix ``G = M M†`` — a
    ``O(d_q² · d_rest)`` check.  Rows that violate it (beyond ``atol``,
    relative to ``(tr G)²``) raise :class:`~repro.errors.PurityError`; the
    purity-aware backends catch that and fall back to the density simulator.

    The surviving pure output is ``|0⟩_q ⊗ v`` with ``v`` the dominant row
    direction of ``M``, rescaled to preserve the squared norm (the branch
    probability mass of a partial state).  All-zero rows (aborted branches)
    pass through as zero vectors.
    """
    plan = _plan(dims, (axis,))
    psi = _as_batch(amplitudes, plan.total)
    batch = psi.shape[0]
    dim = dims[axis]
    _charge(batch * dim * plan.total, batch * plan.total)
    # View each row as (d_q, rest) with the reset variable's axis leading.
    tensor = np.moveaxis(psi.reshape((batch,) + plan.dims), axis + 1, 1)
    rest_shape = tensor.shape[2:]
    matrix = tensor.reshape(batch, dim, -1)
    gram = np.einsum("bdr,ber->bde", matrix, np.conj(matrix))
    trace = np.real(np.einsum("bdd->b", gram))
    trace_sq = np.real(np.einsum("bde,bed->b", gram, gram))
    defect = trace**2 - trace_sq
    scale = np.maximum(trace**2, np.finfo(float).tiny)
    impure = defect > atol * scale
    if np.any(impure):
        raise PurityError(
            f"reset of axis {axis} on an entangled pure state: the marginal of "
            f"{int(np.count_nonzero(impure))} of {batch} stacked states has rank > 1 "
            f"(relative purity defect up to {float(np.max(defect / scale)):.2e})"
        )
    # Dominant row per state: all rows are parallel, so any nonzero row spans
    # the marginal; take the largest for numerical stability.
    row_norms_sq = np.real(np.einsum("bdr,bdr->bd", matrix, np.conj(matrix)))
    dominant = np.argmax(row_norms_sq, axis=1)
    rows = matrix[np.arange(batch), dominant]
    dominant_sq = row_norms_sq[np.arange(batch), dominant]
    safe = np.maximum(dominant_sq, np.finfo(float).tiny)
    rescale = np.sqrt(trace / safe)
    rescale[trace <= 0.0] = 0.0
    result = np.zeros_like(matrix)
    result[:, 0, :] = rows * rescale[:, None]
    result = np.moveaxis(result.reshape((batch, dim) + rest_shape), 1, axis + 1)
    return result.reshape(batch, plan.total)


# -- density-matrix kernels ----------------------------------------------------


def conjugate_operator_density(
    matrix: np.ndarray,
    dims: Sequence[int],
    axes: Sequence[int],
    operator: np.ndarray,
) -> np.ndarray:
    """Return ``(A ⊗ I) ρ (A ⊗ I)†`` for a k-local ``A`` (unitary or not).

    Covers unitary conjugation and single measurement branches
    ``M_m ρ M_m†``.  The operator is applied once to the row axes and once
    (conjugated) to the column axes of the ``2n``-axis state tensor —
    ``O(2^k · 4^n)`` instead of ``O(8^n)``.
    """
    plan = _plan(dims, axes)
    operator = plan.validate_operator(operator)
    total = plan.total
    rho = np.asarray(matrix, dtype=complex)
    _charge(2.0 * plan.expected * total * total, total * total)
    # Row side: (A ⊗ I)ρ.  The consecutive-axes view groups the row index as
    # (left, target, right·D), a broadcasted matmul with no transposition of
    # the big state; otherwise tensordot on the row axes.
    sorted_operator = plan.sort_operator(operator)
    if plan.blocks is not None:
        left, target, right = plan.blocks
        rows = np.matmul(sorted_operator, rho.reshape(left, target, right * total))
    else:
        k = len(plan.sorted_axes)
        op_tensor = sorted_operator.reshape(plan.sorted_dims + plan.sorted_dims)
        rows = _contract(rho.reshape(plan.dims + plan.dims), op_tensor, plan.sorted_axes, k)
        if plan.window is None:
            column_axes = tuple(plan.n + a for a in plan.sorted_axes)
            return _contract(rows, np.conj(op_tensor), column_axes, k).reshape(total, total)
    # Column side: ·(A ⊗ I)† applies conj(A) to every row of the result as a
    # statevector, so it takes the statevector geometry — the tail window
    # when the targets sit on the last axes, where the block view would
    # run D·left tiny GEMMs.
    return _advance(plan, np.conj(operator), rows.reshape(total, total))


def apply_kraus_density(
    matrix: np.ndarray,
    dims: Sequence[int],
    axes: Sequence[int],
    kraus_operators: Sequence[np.ndarray],
) -> np.ndarray:
    """Apply a Kraus-form channel ``ρ ↦ Σ_k E_k ρ E_k†`` acting on the target axes."""
    result: np.ndarray | None = None
    for operator in kraus_operators:
        term = conjugate_operator_density(matrix, dims, axes, operator)
        result = term if result is None else result + term
    if result is None:
        raise LinalgError("a Kraus channel needs at least one operator")
    return result


def reduced_density(matrix: np.ndarray, dims: Sequence[int], axes: Sequence[int]) -> np.ndarray:
    """Partial-trace ρ onto the target factors (in the order of ``axes``).

    One ``O(4^n)`` transpose+trace; the result is the ``d_t × d_t`` reduced
    density matrix on which k-local readouts become ``O(4^k)``.
    """
    plan = _plan(dims, axes)
    _charge(plan.total * plan.total, plan.total * plan.total)
    rho = np.asarray(matrix, dtype=complex).reshape(plan.dims + plan.dims)
    rho = rho.transpose(plan.reduce_permutation)
    rho = rho.reshape(plan.expected, plan.other_dim, plan.expected, plan.other_dim)
    return np.trace(rho, axis1=1, axis2=3)


def expectation_density(
    matrix: np.ndarray,
    dims: Sequence[int],
    axes: Sequence[int],
    observable: np.ndarray,
) -> float:
    """Return ``tr((O ⊗ I) ρ)`` for a k-local observable without forming ``Oρ``."""
    plan = _plan(dims, axes)
    observable = plan.validate_operator(observable)
    reduced = reduced_density(matrix, dims, axes)
    _charge(plan.expected * plan.expected, plan.expected * plan.expected)
    return float(np.real(np.einsum("ij,ji->", observable, reduced)))


def branch_probabilities_density(
    matrix: np.ndarray,
    dims: Sequence[int],
    axes: Sequence[int],
    operators: Sequence[np.ndarray],
) -> list[float]:
    """Return ``tr(M_m ρ M_m†)`` for every operator of a measurement.

    The state is partial-traced onto the target factors once; each outcome
    then costs one ``O(8^k)`` product of small matrices — the Born-rule
    distribution never touches the full space.
    """
    plan = _plan(dims, axes)
    reduced = reduced_density(matrix, dims, axes)
    probabilities = []
    for operator in operators:
        operator = plan.validate_operator(operator)
        _charge(
            plan.expected**3 + plan.expected**2, plan.expected * plan.expected
        )
        effect = operator.conj().T @ operator
        probabilities.append(float(np.real(np.einsum("ij,ji->", effect, reduced))))
    return probabilities


def two_factor_expectation_density(
    matrix: np.ndarray,
    lead_dim: int,
    lead_operator: np.ndarray,
    rest_operator: np.ndarray,
) -> float:
    """Return ``tr((A ⊗ O) ρ)`` where ``A`` acts on the leading tensor factor.

    The derivative readout of Definition 5.2 contracts ``Z_A ⊗ O`` against
    the output state whose ancilla is the *first* factor; this kernel does
    that contraction blockwise — ``Σ_{a,b} A[a,b] · tr(O ρ_{b,a})`` over the
    ``lead_dim × lead_dim`` grid of blocks — without ever forming the
    ``(lead_dim·d) × (lead_dim·d)`` Kronecker product.
    """
    matrix = np.asarray(matrix, dtype=complex)
    lead_operator = np.asarray(lead_operator, dtype=complex)
    rest_operator = np.asarray(rest_operator, dtype=complex)
    if lead_operator.shape != (lead_dim, lead_dim):
        raise DimensionMismatchError("leading operator does not match the leading dimension")
    rest_dim = rest_operator.shape[0]
    if matrix.shape != (lead_dim * rest_dim, lead_dim * rest_dim):
        raise DimensionMismatchError("state dimension does not match the operator factors")
    total = lead_dim * rest_dim
    _charge(float(total) * total, float(total) * total)
    blocks = matrix.reshape(lead_dim, rest_dim, lead_dim, rest_dim)
    value = np.einsum("ab,ij,bjai->", lead_operator, rest_operator, blocks)
    return float(np.real(value))
