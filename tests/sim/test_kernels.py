"""Property-style cross-checks: contraction kernels vs the embedding reference.

Every kernel of :mod:`repro.sim.kernels` must agree (up to numerical noise)
with the full-space path through
:meth:`repro.sim.hilbert.RegisterLayout.embed_operator` on random states,
random target subsets in random order, and mixed qubit/qudit layouts.
"""

import numpy as np
import pytest

from repro.errors import DimensionMismatchError, LinalgError
from repro.linalg.measurement import Measurement, computational_measurement
from repro.linalg.superop import initialization_channel
from repro.sim import kernels
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.sim.statevector import StateVector

#: (dims per variable) layouts exercised by every property test: pure qubit
#: registers plus mixed qubit/qudit registers.
LAYOUT_DIMS = [
    (2, 2),
    (2, 2, 2),
    (2, 2, 2, 2),
    (3, 2),
    (2, 3, 2),
    (4, 2, 3),
]


def _layout(dims):
    names = [f"q{i}" for i in range(len(dims))]
    return RegisterLayout(names, dims)


def _random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _random_density(rng, dim):
    raw = _random_matrix(rng, dim)
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)


def _random_vector(rng, dim):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def _random_targets(rng, layout):
    count = int(rng.integers(1, layout.num_variables + 1))
    picked = rng.permutation(layout.num_variables)[:count]
    return [layout.names[i] for i in picked]


def _target_dim(layout, targets):
    return int(np.prod([layout.dim_of(name) for name in targets]))


@pytest.mark.parametrize("dims", LAYOUT_DIMS)
@pytest.mark.parametrize("trial", range(3))
class TestAgainstEmbedReference:
    def test_unitary_conjugation(self, dims, trial):
        rng = np.random.default_rng(hash((dims, trial, 1)) % 2**32)
        layout = _layout(dims)
        targets = _random_targets(rng, layout)
        operator = _random_matrix(rng, _target_dim(layout, targets))
        rho = _random_density(rng, layout.total_dim)

        kernel = DensityState(layout, rho).apply_unitary(operator, targets).matrix
        full = layout.embed_operator(operator, targets)
        reference = full @ rho @ full.conj().T
        assert np.allclose(kernel, reference)

    def test_kraus_channel(self, dims, trial):
        rng = np.random.default_rng(hash((dims, trial, 2)) % 2**32)
        layout = _layout(dims)
        targets = _random_targets(rng, layout)
        dim = _target_dim(layout, targets)
        kraus = [_random_matrix(rng, dim) for _ in range(3)]
        rho = _random_density(rng, layout.total_dim)

        kernel = DensityState(layout, rho).apply_kraus(kraus, targets).matrix
        reference = np.zeros_like(rho)
        for op in kraus:
            full = layout.embed_operator(op, targets)
            reference += full @ rho @ full.conj().T
        assert np.allclose(kernel, reference)

    def test_measurement_branches_and_probabilities(self, dims, trial):
        rng = np.random.default_rng(hash((dims, trial, 3)) % 2**32)
        layout = _layout(dims)
        targets = _random_targets(rng, layout)
        dim = _target_dim(layout, targets)
        # A random (not necessarily complete) two-outcome measurement.
        measurement = Measurement(
            (_random_matrix(rng, dim), _random_matrix(rng, dim)), (0, 1)
        )
        rho = _random_density(rng, layout.total_dim)
        state = DensityState(layout, rho)

        probabilities = state.measurement_probabilities(measurement, targets)
        for outcome in measurement.outcomes:
            full = layout.embed_operator(measurement.operator(outcome), targets)
            reference_branch = full @ rho @ full.conj().T
            branch = state.measurement_branch(measurement, targets, outcome)
            assert np.allclose(branch.matrix, reference_branch)
            assert probabilities[outcome] == pytest.approx(
                float(np.real(np.trace(reference_branch)))
            )

    def test_density_expectation(self, dims, trial):
        rng = np.random.default_rng(hash((dims, trial, 4)) % 2**32)
        layout = _layout(dims)
        targets = _random_targets(rng, layout)
        dim = _target_dim(layout, targets)
        hermitian = _random_matrix(rng, dim)
        hermitian = hermitian + hermitian.conj().T
        rho = _random_density(rng, layout.total_dim)

        kernel = DensityState(layout, rho).expectation(hermitian, targets)
        full = layout.embed_operator(hermitian, targets)
        assert kernel == pytest.approx(float(np.real(np.trace(full @ rho))))

    def test_statevector_apply_and_expectation(self, dims, trial):
        rng = np.random.default_rng(hash((dims, trial, 5)) % 2**32)
        layout = _layout(dims)
        targets = _random_targets(rng, layout)
        dim = _target_dim(layout, targets)
        operator = _random_matrix(rng, dim)
        psi = _random_vector(rng, layout.total_dim)

        applied = StateVector(layout, psi.copy()).apply_unitary(operator, targets)
        full = layout.embed_operator(operator, targets)
        assert np.allclose(applied.amplitudes, full @ psi)

        hermitian = operator + operator.conj().T
        expectation = StateVector(layout, psi.copy()).expectation(hermitian, targets)
        embedded = layout.embed_operator(hermitian, targets)
        assert expectation == pytest.approx(float(np.real(np.vdot(psi, embedded @ psi))))

    def test_reduced_density_against_definition(self, dims, trial):
        rng = np.random.default_rng(hash((dims, trial, 6)) % 2**32)
        layout = _layout(dims)
        targets = _random_targets(rng, layout)
        rho = _random_density(rng, layout.total_dim)
        axes = layout.axes_of(targets)

        reduced = kernels.reduced_density(rho, layout.dims, axes)
        # Definition check: tr(O ρ_red) = tr(embed(O) ρ) for a random local O.
        dim = _target_dim(layout, targets)
        probe = _random_matrix(rng, dim)
        lhs = np.trace(probe @ reduced)
        rhs = np.trace(layout.embed_operator(probe, targets) @ rho)
        assert np.allclose(lhs, rhs)
        assert np.trace(reduced) == pytest.approx(np.trace(rho))


class TestTwoFactorExpectation:
    @pytest.mark.parametrize("trial", range(5))
    def test_matches_kronecker_reference(self, trial):
        rng = np.random.default_rng(100 + trial)
        lead_dim, rest_dim = 2, 8
        lead = _random_matrix(rng, lead_dim)
        lead = lead + lead.conj().T
        rest = _random_matrix(rng, rest_dim)
        rest = rest + rest.conj().T
        rho = _random_density(rng, lead_dim * rest_dim)
        kernel = kernels.two_factor_expectation_density(rho, lead_dim, lead, rest)
        reference = float(np.real(np.trace(np.kron(lead, rest) @ rho)))
        assert kernel == pytest.approx(reference)

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatchError):
            kernels.two_factor_expectation_density(np.eye(4), 2, np.eye(3), np.eye(2))
        with pytest.raises(DimensionMismatchError):
            kernels.two_factor_expectation_density(np.eye(5), 2, np.eye(2), np.eye(2))


class TestInitializationChannel:
    @pytest.mark.parametrize("dims", LAYOUT_DIMS)
    def test_reset_matches_embed_path(self, dims):
        rng = np.random.default_rng(hash((dims, 7)) % 2**32)
        layout = _layout(dims)
        rho = _random_density(rng, layout.total_dim)
        variable = layout.names[int(rng.integers(layout.num_variables))]
        channel = initialization_channel(layout.dim_of(variable))

        kernel = DensityState(layout, rho).initialize(variable).matrix
        reference = np.zeros_like(rho)
        for op in channel.kraus_operators:
            full = layout.embed_operator(op, [variable])
            reference += full @ rho @ full.conj().T
        assert np.allclose(kernel, reference)


class TestValidation:
    def test_duplicate_targets_rejected(self):
        layout = _layout((2, 2))
        state = DensityState.zero_state(layout)
        with pytest.raises(LinalgError):
            state.apply_unitary(np.eye(4), ["q0", "q0"])

    def test_unknown_target_rejected(self):
        layout = _layout((2, 2))
        state = DensityState.zero_state(layout)
        with pytest.raises(LinalgError):
            state.apply_unitary(np.eye(2), ["nope"])

    def test_operator_shape_rejected(self):
        layout = _layout((2, 2))
        state = DensityState.zero_state(layout)
        with pytest.raises(DimensionMismatchError):
            state.apply_unitary(np.eye(4), ["q0"])

    def test_empty_kraus_rejected(self):
        with pytest.raises(LinalgError):
            kernels.apply_kraus_density(np.eye(4), (2, 2), (0,), [])

    def test_computational_measurement_probabilities_normalized(self):
        layout = _layout((2, 2, 2))
        state = DensityState.zero_state(layout).apply_unitary(
            np.array([[1, 1], [1, -1]]) / np.sqrt(2), ["q1"]
        )
        probabilities = state.measurement_probabilities(computational_measurement(1), ["q1"])
        assert sum(probabilities.values()) == pytest.approx(1.0)


class TestEmptyTargets:
    def test_scalar_operator_on_empty_targets_matches_embed_semantics(self):
        layout = _layout((2, 2))
        rng = np.random.default_rng(11)
        rho = _random_density(rng, 4)
        state = DensityState(layout, rho)
        # A 1x1 operator acts as a scalar: c ρ c* for conjugation, c·tr(ρ) for readout.
        scaled = state.apply_unitary(np.array([[2.0 + 1.0j]]), [])
        assert np.allclose(scaled.matrix, 5.0 * rho)
        assert state.expectation(np.array([[2.0]]), []) == pytest.approx(2.0)


#: Wider registers, one target set per contraction geometry of a plan: the
#: tail window (targets among the last axes, in any order), the broadcast
#: block view (consecutive targets with a wide right) and ``tensordot``
#: (everything else).  The small layouts above all fit in one window.
GEOMETRIES = [
    ((2,) * 8, (7,), "window"),
    ((2,) * 8, (7, 5), "window"),
    ((2, 3, 2, 2, 3, 2, 2), (6, 4), "window"),
    ((2,) * 8, (1,), "blocks"),
    ((2, 3, 2, 2, 3, 2, 2), (2, 1), "blocks"),
    ((2,) * 8, (0, 6), "tensordot"),
    ((2, 3, 2, 2, 3, 2, 2), (3, 0), "tensordot"),
]


class TestContractionGeometries:
    @pytest.mark.parametrize("dims,axes,geometry", GEOMETRIES)
    def test_each_geometry_matches_embed_reference(self, dims, axes, geometry):
        plan = kernels._plan(dims, axes)
        if plan.window is not None:
            chosen = "window"
        else:
            chosen = "blocks" if plan.blocks is not None else "tensordot"
        assert chosen == geometry
        layout = _layout(dims)
        targets = [layout.names[a] for a in axes]
        rng = np.random.default_rng(sum(axes))
        operator = _random_matrix(rng, _target_dim(layout, targets))
        full = layout.embed_operator(operator, targets)
        stack = np.stack([_random_vector(rng, layout.total_dim) for _ in range(3)])
        applied = kernels.apply_operator_vector_batch(stack, dims, axes, operator)
        assert np.allclose(applied, stack @ full.T)
        empty = kernels.apply_operator_vector_batch(stack[:0], dims, axes, operator)
        assert empty.shape == (0, layout.total_dim)
        single = kernels.apply_operator_vector(stack[0], dims, axes, operator)
        assert np.allclose(single, full @ stack[0])
        rho = _random_density(rng, layout.total_dim)
        conjugated = kernels.conjugate_operator_density(rho, dims, axes, operator)
        assert np.allclose(conjugated, full @ rho @ full.conj().T)

    @pytest.mark.parametrize("dims,axes", [
        ((2,) * 13, (12,)),
        ((2,) * 13, (9, 11)),
        ((2, 3) * 6, (11, 10)),
        ((2,) * 13, (0, 6, 12)),
        ((2, 3) * 6, (7, 0)),
    ])
    def test_gemms_stay_below_the_blas_thread_split(self, dims, axes):
        # On a wide register the window and targets-to-the-front GEMMs are
        # cut to at most _GEMM_MAX multiply-adds; cut, they still give the
        # tensordot result.
        plan = kernels._plan(dims, axes)
        if plan.window is not None:
            width, extent = plan.window[:2]
        else:
            width, extent = plan.expected, plan.front[2]
        assert extent * width * width <= kernels._GEMM_MAX
        assert extent * width < plan.total
        rng = np.random.default_rng(len(dims))
        stack = np.stack([_random_vector(rng, plan.total) for _ in range(2)])
        operator = _random_matrix(rng, plan.expected)
        reference = kernels._contract(
            stack.reshape((2,) + dims),
            operator.reshape(plan.target_dims * 2),
            tuple(a + 1 for a in axes),
            len(axes),
        ).reshape(2, plan.total)
        applied = kernels.apply_operator_vector_batch(stack, dims, axes, operator)
        assert np.allclose(applied, reference)


#: A stack of operators on one target tuple, per contraction geometry: the
#: wider registers above, qudit dimensions, targets out of layout order,
#: and the 4-, 10- and 12-qubit shapes of the trajectory walk's fused runs.
STACKED = GEOMETRIES + [
    ((2,) * 4, (0, 1, 2, 3), "window"),
    ((2,) * 10, (3, 2, 1, 0), "blocks"),
    ((2,) * 12, (4, 5, 6, 7), "blocks"),
    ((2,) * 12, (11, 8, 9, 10), "window"),
    ((2,) * 12, (0, 3), "tensordot"),
]


class TestStackedOperators:
    @pytest.mark.parametrize("dims,axes,geometry", STACKED)
    def test_a_stack_is_each_operator_applied_alone_bit_for_bit(self, dims, axes, geometry):
        plan = kernels._plan(dims, axes)
        if plan.window is not None:
            assert geometry == "window"
        else:
            assert geometry == ("blocks" if plan.blocks is not None else "tensordot")
        rng = np.random.default_rng(len(dims) + sum(axes))
        operators = np.stack([_random_matrix(rng, plan.expected) for _ in range(3)])
        stack = np.stack([_random_vector(rng, plan.total) for _ in range(2)])
        with kernels.count_kernel_ops() as alone:
            singles = [
                kernels.apply_operator_vector_batch(stack, dims, axes, operator)
                for operator in operators
            ]
        with kernels.count_kernel_ops() as stacked:
            applied = kernels.apply_operator_vector_batch(stack, dims, axes, operators)
        assert applied.shape == (3,) + stack.shape
        for row, single in zip(applied, singles):
            assert np.array_equal(row, single)
        out = np.empty(applied.shape, dtype=complex)
        kernels.apply_operator_vector_batch(stack, dims, axes, operators, out=out)
        assert np.array_equal(out, applied)
        # K applies' model flops in one call; its working set is the input
        # plus the K outputs.
        assert stacked.calls == 1 and alone.calls == 3
        assert stacked.flops == alone.flops
        assert stacked.peak_bytes == (1 + 3) * stack.size * 16

    def test_measurement_branches_come_from_one_call(self):
        layout = _layout((2, 3, 2))
        rng = np.random.default_rng(5)
        operators = [_random_matrix(rng, 6) for _ in range(3)]
        stack = np.stack([_random_vector(rng, layout.total_dim) for _ in range(4)])
        with kernels.count_kernel_ops() as counters:
            branches = kernels.measure_branch_vector_batch(stack, layout.dims, (2, 1), operators)
        assert counters.calls == 1
        assert isinstance(branches, list) and len(branches) == 3
        for branch, operator in zip(branches, operators):
            full = layout.embed_operator(operator, ["q2", "q1"])
            assert np.allclose(branch, stack @ full.T)
            assert np.array_equal(
                branch, kernels.apply_operator_vector_batch(stack, layout.dims, (2, 1), operator)
            )

    def test_shapes_are_checked(self):
        dims = (2, 2, 2)
        stack = np.zeros((2, 8), dtype=complex)
        with pytest.raises(DimensionMismatchError):
            kernels.apply_operator_vector_batch(stack, dims, (0,), np.zeros((3, 4, 4)))
        with pytest.raises(DimensionMismatchError):
            kernels.apply_operator_vector_batch(
                stack, dims, (0,), np.zeros((3, 2, 2)), out=np.empty((2, 8), dtype=complex)
            )
        # Only the statevector apply takes a stack.
        with pytest.raises(DimensionMismatchError):
            kernels.conjugate_operator_density(np.eye(8), dims, (0,), np.zeros((3, 2, 2)))
