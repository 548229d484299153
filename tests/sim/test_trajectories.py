"""The branch-splitting trajectory evaluator vs the exact density semantics.

For every program the simulation analysis classes as PURE or BRANCHING, the
ensemble ``Σ_b |ψ_b⟩⟨ψ_b|`` produced by ``denote_trajectory_batch`` must
equal ``[[P(θ*)]]ρ`` of the reference density evaluator (for additive
programs: the sum over the compiled multiset, Definition 4.1/5.2).  The
hypothesis sweep covers random ``case``/``while``/``Sum`` programs; the
directed tests pin pruning, coalescing (bit for bit against the pairwise
loop it replaced), the Kraus-split reset, the per-owner branch cap and the
certified ``while`` truncation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.additive.compile import compile_additive
from repro.errors import TrajectoryError
from repro.lang.ast import Abort, Init, Skip, Sum
from repro.lang.builder import bounded_while_on_qubit, case_on_qubit, rx, ry, seq
from repro.lang.parameters import Parameter, ParameterBinding
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.sim.trajectories import (
    TrajectoryOptions,
    _branch_masses,
    coalesce_branches,
    denote_trajectory_batch,
)
from repro.semantics import denotational

from tests.conftest import binding_strategy, program_strategy

THETA = Parameter("theta")
PHI = Parameter("phi")
BINDING = ParameterBinding({THETA: 0.47, PHI: -1.2})

LAYOUT = RegisterLayout(("q1", "q2"))


def _reference_matrix(program, state, binding):
    """``[[P]]ρ`` — summed over the compiled multiset for additive programs."""
    members = compile_additive(program) if program.is_additive() else [program]
    total = DensityState.null_state(state.layout)
    for member in members:
        total = total.add(denotational.denote(member, state, binding))
    return total.matrix


def _ensemble_matrix(result, dim, row=0):
    """The density operator represented by one input row's branches."""
    rows = result.amplitudes[result.owners == row]
    total = np.zeros((dim, dim), dtype=complex)
    for branch in rows:
        total += np.outer(branch, np.conj(branch))
    return total


class TestAgainstDensitySemantics:
    @settings(max_examples=40, deadline=None)
    @given(
        program=program_strategy(max_depth=2, allow_sum=True),
        binding=binding_strategy(),
    )
    def test_random_programs_reproduce_the_density_state(self, program, binding):
        state = DensityState.basis_state(LAYOUT, {"q1": 1})
        result = denote_trajectory_batch(
            program, LAYOUT, state.pure_amplitudes()[np.newaxis, :], binding
        )
        reference = _reference_matrix(program, state, binding)
        assert np.allclose(_ensemble_matrix(result, LAYOUT.total_dim), reference, atol=1e-10)
        # Nothing beyond numerically-zero branches may be discarded by default.
        assert np.all(result.dropped <= 1e-10)

    def test_case_splits_per_outcome(self):
        program = seq(
            [rx(THETA, "q1"), case_on_qubit("q1", {0: ry(PHI, "q2"), 1: rx(PHI, "q2")})]
        )
        state = DensityState.basis_state(LAYOUT, {})
        result = denote_trajectory_batch(
            program, LAYOUT, state.pure_amplitudes()[np.newaxis, :], BINDING
        )
        assert result.amplitudes.shape[0] == 2  # one branch per outcome
        reference = _reference_matrix(program, state, BINDING)
        assert np.allclose(_ensemble_matrix(result, 4), reference, atol=1e-12)

    def test_while_unrolls_and_aborts_the_still_running_branch(self):
        program = bounded_while_on_qubit("q1", rx(1.1, "q1"), 3)
        state = DensityState.basis_state(LAYOUT, {"q1": 1})
        result = denote_trajectory_batch(
            program, LAYOUT, state.pure_amplitudes()[np.newaxis, :], BINDING
        )
        reference = _reference_matrix(program, state, BINDING)
        assert np.allclose(_ensemble_matrix(result, 4), reference, atol=1e-12)
        # The still-running branch aborts: total mass strictly below one.
        assert float(np.real(np.trace(reference))) < 1.0
        assert np.all(result.dropped == 0.0)

    def test_batched_inputs_keep_their_owners(self):
        program = seq([rx(THETA, "q1"), case_on_qubit("q1", {0: Skip(("q1",)), 1: ry(PHI, "q2")})])
        states = [
            DensityState.basis_state(LAYOUT, {"q1": b1, "q2": b2})
            for b1, b2 in ((0, 0), (1, 0), (1, 1))
        ]
        stack = np.array([s.pure_amplitudes() for s in states])
        result = denote_trajectory_batch(program, LAYOUT, stack, BINDING)
        for row, state in enumerate(states):
            reference = _reference_matrix(program, state, BINDING)
            assert np.allclose(_ensemble_matrix(result, 4, row), reference, atol=1e-12)

    def test_abort_yields_the_empty_ensemble(self):
        result = denote_trajectory_batch(
            Abort(("q1", "q2")), LAYOUT, np.eye(4, dtype=complex)[:1], None
        )
        assert result.amplitudes.shape == (0, 4)


class TestPruningAndCoalescing:
    def test_zero_probability_branches_are_pruned(self):
        # Measuring a basis state: one outcome carries all the mass.
        program = case_on_qubit("q1", {0: Skip(("q1",)), 1: Skip(("q1",))})
        state = DensityState.basis_state(LAYOUT, {"q1": 1})
        result = denote_trajectory_batch(
            program, LAYOUT, state.pure_amplitudes()[np.newaxis, :], None
        )
        assert result.amplitudes.shape[0] == 1
        assert np.all(result.dropped == 0.0)

    def test_identical_sum_branches_coalesce(self):
        program = Sum(rx(THETA, "q1"), rx(THETA, "q1"))
        state = DensityState.basis_state(LAYOUT, {})
        result = denote_trajectory_batch(
            program, LAYOUT, state.pure_amplitudes()[np.newaxis, :], BINDING
        )
        # Two identical summand trajectories merge into one double-mass branch.
        assert result.amplitudes.shape[0] == 1
        assert np.allclose(
            _ensemble_matrix(result, 4), _reference_matrix(program, state, BINDING), atol=1e-12
        )

    def test_coalescing_can_be_disabled(self):
        program = Sum(rx(THETA, "q1"), rx(THETA, "q1"))
        state = DensityState.basis_state(LAYOUT, {})
        result = denote_trajectory_batch(
            program,
            LAYOUT,
            state.pure_amplitudes()[np.newaxis, :],
            BINDING,
            options=TrajectoryOptions(coalesce=False),
        )
        assert result.amplitudes.shape[0] == 2

    def test_coalesce_branches_respects_owners(self):
        row = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        stack = np.array([row, row, row])
        owners = np.array([0, 0, 1], dtype=np.intp)
        merged, merged_owners = coalesce_branches(stack, owners)
        assert merged.shape[0] == 2  # same-owner duplicates merge, owners never mix
        assert sorted(merged_owners.tolist()) == [0, 1]
        masses = np.real(np.einsum("bi,bi->b", np.conj(merged), merged))
        assert masses[merged_owners.tolist().index(0)] == pytest.approx(2.0)


def _pairwise_coalesce(stack, owners, *, tol=1e-24):
    """The reference: every same-owner branch against every representative."""
    if stack.shape[0] <= 1:
        return stack, owners
    masses = _branch_masses(stack)
    tiny = np.finfo(float).tiny
    keep_rows, keep_owners = [], []
    for owner in np.unique(owners):
        representatives = []  # (row, row_mass, total)
        for index in np.flatnonzero(owners == owner):
            row, mass = stack[index], float(masses[index])
            for position, (rep, rep_mass, total) in enumerate(representatives):
                projection = np.vdot(rep, row) / max(rep_mass, tiny)
                residual = row - projection * rep
                if float(np.vdot(residual, residual).real) <= tol * max(mass, tiny):
                    representatives[position] = (rep, rep_mass, total + mass)
                    break
            else:
                representatives.append((row, mass, mass))
        for rep, rep_mass, total in representatives:
            if total != rep_mass:
                rep = rep * np.sqrt(total / max(rep_mass, tiny))
            keep_rows.append(rep)
            keep_owners.append(int(owner))
    if len(keep_rows) == stack.shape[0]:
        return stack, owners
    return np.array(keep_rows), np.array(keep_owners, dtype=np.intp)


@st.composite
def _ensembles(draw):
    """Branch stacks full of near-duplicates: rescaled and phase-rotated
    copies of a few base states, ~1e-9 perturbations of them, exact copies,
    zero rows and unrelated rows, spread over a few owners."""
    dim = draw(st.sampled_from([2, 4, 8]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    bases = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    kinds = draw(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    rows = []
    for kind in kinds:
        base = bases[rng.integers(0, 3)]
        if kind == 0:
            rows.append(base * rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        elif kind == 1:
            rows.append(base + 1e-9 * rng.normal(size=dim))
        elif kind == 2:
            rows.append(np.zeros(dim, dtype=complex))
        elif kind == 3:
            rows.append(base.copy())
        else:
            rows.append(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    owners = draw(
        st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows))
    )
    return np.array(rows), np.array(owners, dtype=np.intp)


class TestCoalescing:
    @settings(max_examples=200, deadline=None)
    @given(
        ensemble=_ensembles(),
        tol=st.sampled_from([1e-24, 1e-12, 0.3, 0.7]),
    )
    def test_matches_the_pairwise_loop_bit_for_bit(self, ensemble, tol):
        stack, owners = ensemble
        merged, merged_owners = coalesce_branches(stack, owners, tol=tol)
        expected, expected_owners = _pairwise_coalesce(stack, owners, tol=tol)
        assert merged.dtype == expected.dtype
        assert merged_owners.dtype == expected_owners.dtype
        assert np.array_equal(merged, expected)
        assert np.array_equal(merged_owners, expected_owners)

    def test_a_1e9_component_keeps_two_branches(self):
        row = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        nudged = row + np.array([0.0, 1e-9, 0.0, 0.0])
        merged, _ = coalesce_branches(np.array([row, nudged]), np.zeros(2, dtype=np.intp))
        assert merged.shape[0] == 2

    @pytest.mark.parametrize("bound", [3, 4, 6, 8])
    def test_cap_overflow_program_ends_at_three_branches(self, bound):
        # A while(T) around a case doubles its continuing branches per
        # iteration; coalescing holds the output at three distinct states.
        body = seq([case_on_qubit("q2", {0: rx(0.3, "q2"), 1: ry(0.4, "q2")}), rx(0.7, "q1")])
        program = bounded_while_on_qubit("q1", body, bound)
        stack = np.array([[0.6, 0.0, 0.0, 0.8]], dtype=complex)
        result = denote_trajectory_batch(program, LAYOUT, stack, None)
        assert result.amplitudes.shape[0] == 3
        state = DensityState.from_pure(LAYOUT, stack[0])
        reference = _reference_matrix(program, state, None)
        assert np.allclose(_ensemble_matrix(result, 4), reference, atol=1e-12)


class TestResets:
    def test_product_form_reset_keeps_one_branch(self):
        program = seq([rx(THETA, "q1"), Init("q1")])  # mid-circuit but unentangled
        state = DensityState.basis_state(LAYOUT, {})
        result = denote_trajectory_batch(
            program, LAYOUT, state.pure_amplitudes()[np.newaxis, :], BINDING
        )
        assert result.amplitudes.shape[0] == 1
        assert np.allclose(
            _ensemble_matrix(result, 4), _reference_matrix(program, state, BINDING), atol=1e-12
        )

    def test_entangled_reset_kraus_splits_exactly(self):
        # A Bell state's marginal is mixed: the pure tier must refuse it,
        # the trajectory tier splits the reset channel into Kraus branches.
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 2**-0.5
        state = DensityState.from_pure(LAYOUT, bell)
        result = denote_trajectory_batch(
            Init("q1"), LAYOUT, bell[np.newaxis, :], None
        )
        assert result.amplitudes.shape[0] == 2
        reference = denotational.denote(Init("q1"), state, None).matrix
        assert np.allclose(_ensemble_matrix(result, 4), reference, atol=1e-12)

    def test_a_barely_entangled_reset_is_not_taken_for_product_form(self):
        # cos(φ/2)|00⟩ − i·sin(φ/2)|11⟩ at φ = 1e-5: the marginal's minor
        # weight is 2.5e-11, above the pruning floor, so the reset splits
        # instead of keeping one rescaled row (which misread ⟨ZZ⟩ by 5e-11
        # per reset, uncharged to ``dropped``).
        amplitudes = np.zeros(4, dtype=complex)
        amplitudes[0], amplitudes[3] = np.cos(5e-6), -1j * np.sin(5e-6)
        state = DensityState.from_pure(LAYOUT, amplitudes)
        result = denote_trajectory_batch(Init("q1"), LAYOUT, amplitudes[np.newaxis, :], None)
        assert result.amplitudes.shape[0] == 2
        reference = denotational.denote(Init("q1"), state, None).matrix
        assert np.allclose(_ensemble_matrix(result, 4), reference, rtol=0, atol=1e-15)


class TestBudgets:
    def test_branch_cap_raises_trajectory_error(self):
        body = case_on_qubit("q2", {0: rx(0.3, "q2"), 1: ry(0.4, "q2")})
        program = bounded_while_on_qubit("q1", seq([body, rx(0.7, "q1")]), 6)
        state = DensityState.from_pure(
            LAYOUT, np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
        )
        with pytest.raises(TrajectoryError):
            denote_trajectory_batch(
                program,
                LAYOUT,
                state.pure_amplitudes()[np.newaxis, :],
                None,
                options=TrajectoryOptions(max_branches=4),
            )

    def test_branch_cap_counts_per_owner(self):
        # Each input leaves its loop in at most six branches, so sixteen
        # inputs (96 branches in all) stay far below the cap of 64.
        program = seq(
            [
                rx(THETA, "q1"),
                bounded_while_on_qubit("q1", seq([rx(np.pi / 3, "q1"), ry(0.3, "q2")]), 6),
            ]
        )
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4))
        stack /= np.linalg.norm(stack, axis=1, keepdims=True)
        result = denote_trajectory_batch(program, LAYOUT, stack, BINDING)
        assert result.amplitudes.shape[0] > 64
        assert result.branch_peak <= 7
        for row in (0, 15):
            reference = _reference_matrix(
                program, DensityState.from_pure(LAYOUT, stack[row]), BINDING
            )
            assert np.allclose(_ensemble_matrix(result, 4, row), reference, atol=1e-12)

    def test_while_truncation_respects_the_certified_mass_budget(self):
        # Guard stays 1 with probability one half per iteration: continuing
        # mass decays as 2^-t, so a budget of 1e-3 truncates around t=10,
        # well before the exact bound of 40.
        program = bounded_while_on_qubit("q1", rx(np.pi / 2, "q1"), 40)
        state = DensityState.basis_state(LAYOUT, {"q1": 1})
        exact = denote_trajectory_batch(
            program, LAYOUT, state.pure_amplitudes()[np.newaxis, :], None
        )
        truncated = denote_trajectory_batch(
            program,
            LAYOUT,
            state.pure_amplitudes()[np.newaxis, :],
            None,
            options=TrajectoryOptions(mass_budget=1e-3),
        )
        assert np.all(exact.dropped == 0.0)
        # Truncation engaged (mass was charged) and stayed within budget.
        assert 0.0 < truncated.dropped[0] <= 1e-3
        # The represented states differ by no more than the certified mass.
        difference = _ensemble_matrix(exact, 4) - _ensemble_matrix(truncated, 4)
        assert float(np.linalg.norm(difference, 2)) <= truncated.dropped[0] + 1e-12

    def test_zero_budget_never_truncates(self):
        program = bounded_while_on_qubit("q1", rx(np.pi / 2, "q1"), 12)
        state = DensityState.basis_state(LAYOUT, {"q1": 1})
        result = denote_trajectory_batch(
            program, LAYOUT, state.pure_amplitudes()[np.newaxis, :], None
        )
        assert np.all(result.dropped == 0.0)
        assert np.allclose(
            _ensemble_matrix(result, 4), _reference_matrix(program, state, None), atol=1e-12
        )


class TestKernel:
    def test_measure_branch_vector_batch_matches_density_branches(self):
        from repro.linalg.measurement import computational_measurement
        from repro.sim import kernels

        rng = np.random.default_rng(5)
        stack = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        measurement = computational_measurement(1)
        splits = kernels.measure_branch_vector_batch(
            stack, LAYOUT.dims, (0,), measurement.operators
        )
        assert len(splits) == 2
        for row in range(3):
            state = DensityState.from_pure(LAYOUT, stack[row])
            total_mass = 0.0
            for outcome, split in enumerate(splits):
                branch = state.measurement_branch(measurement, ("q1",), outcome)
                outer = np.outer(split[row], np.conj(split[row]))
                assert np.allclose(outer, branch.matrix, atol=1e-12)
                total_mass += float(np.real(np.vdot(split[row], split[row])))
            assert total_mass == pytest.approx(
                float(np.real(np.vdot(stack[row], stack[row])))
            )
