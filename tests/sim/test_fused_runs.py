"""Fused gate runs in the trajectory walk (translation validation).

A run of consecutive unitary statements on at most ``_FUSE_MAX`` amplitudes
applies as one bound operator ``R`` on its own variables, plus one
``D_k = ∂R/∂θ_k`` per column it forks, all applied in one stacked call.  The
reference is the exact density simulator: values and gradient rows of random
programs whose runs fuse, inside and around ``case`` and ``while``, agree
with it to 1e-10, on a register of five qubits and on one with a qutrit
riding along.  The fusion rule is static, a bound ``D_k`` is the central
difference of the bound ``R``, a row's bits depend neither on its batch nor
on the other columns requested, the one scatter of a fork equals one fork
per column, a run is bound once per walk, a gate with no tangent rule still
raises, and the plans live on the program, so a dropped program is
collected.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    DenotationCache,
    Estimator,
    ExactDensityBackend,
    ObservableSpec,
    StatevectorBackend,
)
from repro.api.estimator import ordered_parameters
from repro.autodiff.execution import differentiate_and_compile
from repro.errors import TransformError
from repro.lang.ast import Init, UnitaryApp
from repro.lang.builder import (
    bounded_while_on_qubit,
    case_on_qubit,
    rx,
    rxx,
    ry,
    ryy,
    rz,
    rzz,
    seq,
)
from repro.lang.gates import ControlledRotation, cnot, hadamard
from repro.lang.parameters import Parameter, ParameterBinding
from repro.linalg.observables import pauli_observable
from repro.sim import kernels, trajectories
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.sim.statevector import StateVector
from repro.sim.trajectories import _FUSE_MAX, _fusion_plan, denote_trajectory_batch
from repro.vqc.classifier import build_p2, build_p3
from repro.vqc.datasets import paper_dataset
from repro.vqc.generators import build_instance

THETA = Parameter("theta")
PHI = Parameter("phi")
PSI = Parameter("psi")
PARAMETERS = (THETA, PHI, PSI)
QUBITS = ("q1", "q2", "q3", "q4", "q5")
LAYOUTS = {
    "five-qubits": RegisterLayout(QUBITS),
    "qutrit-ride-along": RegisterLayout(QUBITS + ("t",), {"t": 3}),
}
SPEC = ObservableSpec(pauli_observable("ZX").matrix, targets=("q1", "q4"))
ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)

_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _gates(window: tuple[str, ...]):
    """Rotations, couplings and parameter-free gates on ``window``'s qubits."""
    angle = st.one_of(
        st.sampled_from(PARAMETERS),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False),
    )
    one = st.sampled_from(window)
    options = [
        st.builds(lambda build, a, q: build(a, q), st.sampled_from((rx, ry, rz)), angle, one),
        st.builds(lambda q: UnitaryApp(hadamard(), (q,)), one),
    ]
    if len(window) > 1:
        pair = st.permutations(window).map(lambda order: order[:2])
        options += [
            st.builds(lambda build, a, p: build(a, *p), st.sampled_from((rxx, ryy, rzz)), angle, pair),
            st.builds(lambda p: UnitaryApp(cnot(), p), pair),
        ]
    return st.one_of(*options)


def _runs():
    """Straight-line runs of 2–7 gates on 1–4 of the five qubits."""
    windows = st.integers(1, 4).flatmap(
        lambda size: st.permutations(QUBITS).map(lambda order: tuple(order[:size]))
    )
    return windows.flatmap(lambda window: st.lists(_gates(window), min_size=2, max_size=7)).map(seq)


def _programs():
    """Runs alone, around a ``case`` and inside ``case`` arms and ``while`` bodies."""
    runs = _runs()
    guard = st.sampled_from(QUBITS)
    block = st.one_of(
        runs,
        st.builds(lambda q, a, b: case_on_qubit(q, {0: a, 1: b}), guard, runs, runs),
        st.builds(
            lambda q, body, bound: bounded_while_on_qubit(q, body, bound),
            guard,
            runs,
            st.integers(1, 2),
        ),
    )
    return st.lists(block, min_size=1, max_size=3).map(seq)


def _random_vectors(seed: int, count: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def _fused_runs(program, layout) -> list:
    """The fused runs in the plans a walk filed on ``program``'s nodes."""
    found, seen, pending = [], set(), [program]
    while pending:
        node = pending.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        pending.extend(node.children())
        plan = node.memo.get(("fusion", layout.names, layout.dims), ())
        found.extend(run for _, _, run in plan if run is not None)
    return found


def _walk_values(program, layout, vectors, binding) -> np.ndarray:
    """``Σ_b ⟨ψ_b|O|ψ_b⟩`` per input, read off a plain trajectory walk."""
    result = denote_trajectory_batch(program, layout, vectors, binding)
    assert np.all(result.dropped <= 1e-12)
    applied = kernels.apply_operator_vector_batch(
        result.amplitudes, layout.dims, layout.axes_of(SPEC.targets), SPEC.matrix
    )
    values = np.zeros(vectors.shape[0])
    np.add.at(
        values, result.owners, np.real(np.einsum("bi,bi->b", np.conj(result.amplitudes), applied))
    )
    return values


def _check_against_density(program, layout, binding, seed) -> None:
    vectors = _random_vectors(seed, 2, layout.total_dim)
    density = ExactDensityBackend()
    states = [DensityState.from_pure(layout, vector) for vector in vectors]
    expected = [density.value(program, SPEC, state, binding) for state in states]
    assert np.allclose(_walk_values(program, layout, vectors, binding), expected, rtol=0.0, atol=1e-10)

    program_sets = [differentiate_and_compile(program, parameter) for parameter in PARAMETERS]
    backend = StatevectorBackend(cache=DenotationCache(max_entries=0))
    rows = backend.derivative_batch(
        program_sets, SPEC, [(StateVector(layout, vector), binding) for vector in vectors]
    )
    assert backend.tier_counts["density"] == 0
    reference = [
        [density.derivative(program_set, SPEC, state, binding) for program_set in program_sets]
        for state in states
    ]
    assert np.allclose(rows, reference, rtol=0.0, atol=1e-10)


class TestAgainstDensity:
    @pytest.mark.parametrize("layout", list(LAYOUTS.values()), ids=list(LAYOUTS))
    @settings(**_SETTINGS)
    @given(
        program=_programs(),
        values=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_programs(self, layout, program, values, seed):
        binding = ParameterBinding(dict(zip(PARAMETERS, values)))
        _check_against_density(program, layout, binding, seed)

    @pytest.mark.parametrize("layout", list(LAYOUTS.values()), ids=list(LAYOUTS))
    def test_a_parameter_used_several_times_in_one_run(self, layout):
        run = seq(
            [
                rx(THETA, "q1"),
                rzz(THETA, "q1", "q2"),
                UnitaryApp(hadamard(), ("q2",)),
                ry(THETA, "q2"),
                UnitaryApp(cnot(), ("q1", "q3")),
                rz(PHI, "q3"),
                ryy(THETA, "q3", "q1"),
            ]
        )
        body = seq([ry(PSI, "q4"), rxx(THETA, "q4", "q5"), rz(0.4, "q5")])
        program = seq(
            [
                run,
                case_on_qubit("q2", {0: run, 1: body}),
                bounded_while_on_qubit("q3", body, 2),
                run,
            ]
        )
        binding = ParameterBinding({THETA: 0.7, PHI: -1.3, PSI: 2.1})
        _check_against_density(program, layout, binding, seed=5)
        # Both runs of the outer sequence, the case arm's run and the loop
        # body, which is also the other arm.
        assert len(_fused_runs(program, layout)) == 4
        ((_, _, fused),) = _fusion_plan(run, layout)
        assert fused.angles.count(THETA) == 4


class TestTheRule:
    LAYOUT = LAYOUTS["qutrit-ride-along"]

    def _plan(self, statements):
        program = seq(statements)
        return program, _fusion_plan(program, self.LAYOUT)

    def test_a_narrow_run_fuses_on_its_own_variables_in_layout_order(self):
        _, plan = self._plan([rx(THETA, "q4"), UnitaryApp(cnot(), ("q4", "q2")), ry(0.3, "q2")])
        ((start, end, run),) = plan
        assert (start, end) == (0, 3)
        assert run.axes == (1, 3)

    @pytest.mark.parametrize(
        "statements",
        [
            # A run of one statement, here before a reset: nothing to fuse.
            [rx(THETA, "q1"), Init("q2")],
            # W = 8 exceeds the gates' summed dimension 6.
            [rx(THETA, "q1"), ry(PHI, "q2"), rz(PSI, "q3")],
            # W = 32 exceeds _FUSE_MAX, though not the gates' summed dimension.
            [rxx(THETA, a, b) for a, b in (("q1", "q2"), ("q2", "q3"), ("q3", "q4"), ("q4", "q5"),
                                           ("q5", "q1"), ("q1", "q3"), ("q2", "q4"), ("q3", "q5"))],
            # A parameterized gate with no tangent rule.
            [rx(THETA, "q1"), UnitaryApp(ControlledRotation("Y", PHI), ("q1", "q2"))],
        ],
        ids=["one-statement", "wider-than-its-gates", "wider-than-the-cap", "no-tangent-rule"],
    )
    def test_runs_that_go_gate_by_gate(self, statements):
        _, plan = self._plan(statements)
        assert all(run is None for _, _, run in plan)

    def test_sixteen_amplitudes_fuse_once_the_gates_sum_to_sixteen(self):
        assert _FUSE_MAX == 16
        statements = [
            rxx(THETA, "q1", "q2"), rxx(PHI, "q2", "q3"), rxx(PSI, "q3", "q4"), rx(0.2, "q1")
        ]
        # W = 16 is within the cap, but not within the gates' summed 14 ...
        assert self._plan(statements)[1][0][2] is None
        # ... until one more gate makes it 16.
        assert self._plan(statements + [ry(THETA, "q4")])[1][0][2] is not None

    def test_a_parameter_free_controlled_rotation_fuses(self):
        _, plan = self._plan([rx(THETA, "q1"), UnitaryApp(ControlledRotation("Y", 0.4), ("q1", "q2"))])
        assert plan[0][2] is not None

    @pytest.mark.parametrize("axes", [(2,), (3, 1), (1, 3), (0, 1, 2, 3), (3, 0, 2, 1)])
    def test_a_gate_embeds_as_the_reference_embedding_does(self, axes):
        # Mixed dimensions and targets out of layout order, bit for bit.
        layout = RegisterLayout(("a", "b", "c", "d"), (2, 3, 2, 2))
        size = math.prod(layout.dims[axis] for axis in axes)
        rng = np.random.default_rng(len(axes))
        operator = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        expected = layout.embed_operator(operator, [layout.names[axis] for axis in axes])
        assert np.array_equal(trajectories._embedded(operator, layout.dims, axes), expected)

    def test_the_plan_is_filed_per_layout_and_reused(self):
        program, plan = self._plan([rx(THETA, "q1"), ry(PHI, "q2")])
        assert _fusion_plan(program, self.LAYOUT) is plan
        other = RegisterLayout(("q2", "q1"))
        assert _fusion_plan(program, other) is not plan
        assert _fusion_plan(program, other)[0][2].axes == (0, 1)
        assert len([key for key in program.memo if key[0] == "fusion"]) == 2


class TestBindingOncePerWalk:
    def test_a_loop_body_is_bound_once(self, monkeypatch):
        builds, uses = [], []
        bind, fused = trajectories._rotations, trajectories._Evaluator._fused

        def counting_bind(*args):
            builds.append(args)
            return bind(*args)

        def counting_fused(self, *args):
            uses.append(args)
            return fused(self, *args)

        monkeypatch.setattr(trajectories, "_rotations", counting_bind)
        monkeypatch.setattr(trajectories._Evaluator, "_fused", counting_fused)
        layout = RegisterLayout(("q1", "q2"))
        body = seq([rx(THETA, "q1"), ry(PHI, "q2"), rxx(THETA, "q1", "q2")])
        program = bounded_while_on_qubit("q1", body, 4)
        vectors = np.array([[0.0, 0.0, 1.0, 0.0]], dtype=complex)  # q1 = 1: the loop runs
        binding = ParameterBinding({THETA: 0.9, PHI: -0.4})
        for parameters in ((), (THETA, PHI)):
            builds.clear()
            uses.clear()
            denote_trajectory_batch(program, layout, vectors, binding, parameters=parameters)
            assert len(uses) == 3
            assert len(builds) == 1


def _bound(run, layout, values, parameters):
    """``(R, D stack, forked columns)`` of ``run`` bound at ``values``."""
    evaluator = trajectories._Evaluator(
        layout,
        ParameterBinding(values),
        trajectories.TrajectoryOptions(),
        1,
        tuple(parameters),
        np.zeros(len(parameters)),
    )
    return evaluator._bind(run)


class TestBoundDerivatives:
    LAYOUT = LAYOUTS["qutrit-ride-along"]
    STATEMENTS = [
        rx(THETA, "q1"),
        UnitaryApp(hadamard(), ("q2",)),
        rzz(THETA, "q1", "q2"),
        UnitaryApp(cnot(), ("q2", "q3")),
        ry(PHI, "q3"),
        rx(THETA, "q3"),
        ryy(PSI, "q1", "q3"),
        rz(0.4, "q2"),
    ]
    VALUES = {THETA: 0.7, PHI: -1.3, PSI: 2.1}

    def _run(self):
        ((_, _, run),) = _fusion_plan(seq(self.STATEMENTS), self.LAYOUT)
        assert run is not None and len(run.uses[THETA]) == 3
        return run

    def test_the_bound_operator_is_the_gates_multiplied_out(self):
        run = self._run()
        dims = tuple(self.LAYOUT.dims[axis] for axis in run.axes)
        position = {self.LAYOUT.names[axis]: index for index, axis in enumerate(run.axes)}
        binding = ParameterBinding(self.VALUES)
        expected = np.eye(math.prod(dims), dtype=complex)
        for statement in self.STATEMENTS:
            targets = tuple(position[qubit] for qubit in statement.qubits)
            gate = trajectories._embedded(statement.gate.matrix(binding), dims, targets)
            expected = gate @ expected
        operator, _, _ = _bound(run, self.LAYOUT, self.VALUES, ())
        assert np.allclose(operator, expected, rtol=0.0, atol=1e-13)

    def test_each_column_is_the_derivative_of_the_bound_operator(self):
        # θ is requested twice and used three times, with a coupling and
        # fixed gates between its uses; ψ's column comes first.
        run = self._run()
        requested = (PSI, THETA, PHI, THETA)
        _, derivatives, forked = _bound(run, self.LAYOUT, self.VALUES, requested)
        # Columns in the order their parameters first occur in the run.
        assert forked.tolist() == [1, 3, 2, 0]
        step = 1e-5
        for column, derivative in zip(forked.tolist(), derivatives):
            parameter = requested[column]
            up, down = (
                _bound(run, self.LAYOUT, {**self.VALUES, parameter: value}, ())[0]
                for value in (self.VALUES[parameter] + step, self.VALUES[parameter] - step)
            )
            assert np.allclose(derivative, (up - down) / (2 * step), rtol=0.0, atol=1e-8)

    def test_a_column_does_not_depend_on_what_else_is_requested(self):
        run = self._run()
        _, together, forked = _bound(run, self.LAYOUT, self.VALUES, (PSI, THETA, PHI))
        for column, parameter in ((1, THETA), (0, PSI)):
            _, alone, _ = _bound(run, self.LAYOUT, self.VALUES, (parameter,))
            assert np.array_equal(alone[0], together[forked.tolist().index(column)])

    @pytest.mark.parametrize("build", [build_p2, build_p3])
    def test_a_tangent_row_does_not_depend_on_what_else_is_requested(self, build):
        classifier = build()
        layout = classifier.layout()
        binding = classifier.initial_binding(seed=4, spread=1.0)
        vectors = np.array(
            [classifier.input_statevector(bits).amplitudes for bits, _ in paper_dataset()]
        )
        every = tuple(classifier.parameters)
        both = denote_trajectory_batch(classifier.program, layout, vectors, binding, parameters=every)
        for column in (0, 17, len(every) - 1):
            alone = denote_trajectory_batch(
                classifier.program, layout, vectors, binding, parameters=(every[column],)
            )
            assert np.array_equal(alone.amplitudes, both.amplitudes)
            mine = both.columns == column
            assert np.array_equal(alone.parents, both.parents[mine])
            assert np.array_equal(alone.tangents, both.tangents[mine])


def _fork_one_column(target, size, count, shift, column, parents, columns):
    """One column's fork, as the walk made one per column: the reference."""
    mine = np.flatnonzero(columns == column)
    target[count + mine] += shift[parents[mine]]
    missing = np.ones(count, dtype=bool)
    missing[parents[mine]] = False
    fresh = np.flatnonzero(missing)
    target[size : size + fresh.size] = shift[fresh]
    return (
        size + fresh.size,
        np.concatenate([parents, fresh]),
        np.concatenate([columns, np.full(fresh.size, column, dtype=np.intp)]),
    )


class TestOneScatter:
    LAYOUT = RegisterLayout(("q1", "q2", "t"), {"t": 3})
    AXES = (2, 0)

    @pytest.mark.parametrize(
        "parents,columns",
        [
            ([], []),
            # Tangents of columns the statement does not fork.
            ([0, 2], [1, 1]),
            # Rows that already carry some of the forked columns, in any order.
            ([2, 0, 1, 0, 2], [3, 3, 1, 0, 2]),
            # Every row carries every forked column.
            ([0, 1, 2, 0, 1, 2, 2, 1, 0], [0, 0, 0, 2, 2, 2, 3, 3, 3]),
        ],
        ids=["no-tangents", "other-columns", "some-columns", "every-column"],
    )
    def test_one_scatter_is_one_fork_per_column(self, parents, columns):
        rng = np.random.default_rng(len(parents))
        count, forked = 3, np.array([3, 0, 2])
        parents = np.array(parents, dtype=np.intp)
        columns = np.array(columns, dtype=np.intp)
        size = count + parents.size
        width = self.LAYOUT.total_dim
        target = np.empty((size + count * forked.size, width), dtype=complex)
        target[:size] = _random_vectors(7, size, width)
        reference = target.copy()
        forward = _random_vectors(8, count, width)
        shape = (forked.size, 6, 6)
        derivatives = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        evaluator = trajectories._Evaluator(
            self.LAYOUT, None, trajectories.TrajectoryOptions(), count, PARAMETERS + (Parameter("x"),),
            np.zeros(4),
        )
        got = evaluator._fork(self.AXES, derivatives, forward, target, size, forked, parents, columns)
        expected = (size, parents, columns)
        for column, derivative in zip(forked.tolist(), derivatives):
            shift = kernels.apply_operator_vector_batch(forward, self.LAYOUT.dims, self.AXES, derivative)
            expected = _fork_one_column(reference, expected[0], count, shift, column, *expected[1:])
        assert got[0] == expected[0]
        assert np.array_equal(target[: got[0]], reference[: expected[0]])
        assert np.array_equal(got[1], expected[1])
        assert np.array_equal(got[2], expected[2])


class TestNoTangentRule:
    def test_a_controlled_rotation_of_a_requested_parameter_still_raises(self):
        layout = RegisterLayout(("q1", "q2"))
        program = seq(
            [rx(THETA, "q1"), UnitaryApp(ControlledRotation("X", THETA), ("q1", "q2")), ry(PHI, "q2")]
        )
        assert [run for _, _, run in _fusion_plan(program, layout)] == [None]
        vectors = np.array([[1.0, 0.0, 0.0, 0.0]], dtype=complex)
        binding = ParameterBinding({THETA: 0.3, PHI: 0.8})
        denote_trajectory_batch(program, layout, vectors, binding, parameters=[PHI])
        with pytest.raises(TransformError, match="no tangent rule"):
            denote_trajectory_batch(program, layout, vectors, binding, parameters=[THETA])


def _vqe(variant: str):
    instance = build_instance("VQE", "M", variant)
    layout = RegisterLayout([f"q{i + 1}" for i in range(12)])
    parameters = ordered_parameters(instance.program)
    binding = ParameterBinding.from_values(
        parameters, np.random.default_rng(11).uniform(-np.pi, np.pi, len(parameters))
    )
    return instance, layout, parameters, binding


class TestTwelveQubitVqe:
    @pytest.mark.parametrize("variant", ["i", "w"])
    def test_kernel_calls_per_readout(self, variant):
        # Per gate, these readouts took 165 / 185 (VQE_M,i) and 102 / 114
        # (VQE_M,w) kernel calls; each block's 32 gates on 4 qubits fuse.
        instance, layout, parameters, binding = _vqe(variant)
        estimator = Estimator(
            instance.program,
            ZZ,
            layout,
            targets=("q11", "q12"),
            parameters=parameters,
            backend=StatevectorBackend(cache=DenotationCache(max_entries=0)),
        )
        state = StateVector.basis_state(layout, {})
        estimator.program_set(instance.shared_parameter)
        with kernels.count_kernel_ops() as value:
            estimator.value(state, binding)
        with kernels.count_kernel_ops() as derivative:
            estimator.derivative(instance.shared_parameter, state, binding)
        assert estimator.backend.tier_counts["density"] == 0
        assert value.calls <= 12
        assert derivative.calls <= 20

    @pytest.mark.parametrize("variant", ["i", "w"])
    def test_a_row_alone_is_the_row_in_a_5_input_batch(self, variant):
        instance, layout, parameters, binding = _vqe(variant)
        spec = ObservableSpec(ZZ, targets=("q11", "q12"))
        program_sets = [
            differentiate_and_compile(instance.program, parameter)
            for parameter in (instance.shared_parameter, parameters[5], parameters[-1])
        ]
        vectors = _random_vectors(23, 5, layout.total_dim)
        inputs = [(StateVector(layout, vector), binding) for vector in vectors]
        backend = StatevectorBackend(cache=DenotationCache(max_entries=0))
        values = backend.value_batch(instance.program, spec, inputs)
        rows = backend.derivative_batch(program_sets, spec, inputs)
        for index in (0, 2, 4):
            assert backend.value_batch(instance.program, spec, [inputs[index]]) == [values[index]]
            alone = backend.derivative_batch(program_sets, spec, [inputs[index]])
            assert np.array_equal(np.array(alone[0]), np.array(rows[index]))
        assert backend.tier_counts["density"] == 0


class TestPlansLiveOnTheProgram:
    def test_dropped_programs_are_collected(self):
        # Each Seq files its plan in its own memo; a side table keyed by
        # the statements, or by their ids, would pin every walked program
        # (or hand a later program at a reused address a stale plan).
        layout = RegisterLayout(("q1", "q2"))
        vectors = np.array([[1.0, 0.0, 0.0, 0.0]], dtype=complex)
        binding = ParameterBinding({THETA: 0.2, PHI: 1.1})
        refs = []
        for index in range(20):
            program = seq([rx(float(index), "q1"), ry(PHI, "q2"), rxx(THETA, "q1", "q2")])
            denote_trajectory_batch(program, layout, vectors, binding, parameters=[THETA])
            assert _fused_runs(program, layout)
            refs.append(weakref.ref(program))
        del program
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
