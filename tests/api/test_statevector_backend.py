"""Cross-checks of the purity-aware statevector tier against the density path.

The :class:`repro.api.StatevectorBackend` must be *observationally
indistinguishable* from :class:`repro.api.ExactDensityBackend` — values and
gradients agree to 1e-10 — on every program: measurement-free ones take the
batched pure-state path, everything else must transparently fall back.  The
hypothesis suites sweep random programs of both kinds; the directed tests
pin the routing itself (pure path actually used, fallback actually taken).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.purity import is_statevector_simulable
from repro.errors import SemanticsError
from repro.lang.ast import Init, Skip
from repro.lang.builder import bounded_while_on_qubit, case_on_qubit, rx, rxx, ry, seq
from repro.lang.parameters import Parameter, ParameterBinding
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.api import (
    DenotationCache,
    Estimator,
    ExactDensityBackend,
    StatevectorBackend,
    resolve_backend,
)
from repro.autodiff.execution import differentiate_and_compile

from tests.conftest import binding_strategy, input_state_strategy, program_strategy

THETA = Parameter("theta")
PHI = Parameter("phi")
BINDING = ParameterBinding({THETA: 0.52, PHI: -0.8})

ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
Z1 = np.diag([1.0, -1.0]).astype(complex)


class _ExplodingBackend(ExactDensityBackend):
    """A fallback that fails loudly — proves the pure path was taken."""

    def value(self, *args, **kwargs):  # pragma: no cover - must not be hit
        raise AssertionError("fallback used on a measurement-free program")

    value_batch = None  # any batch use would raise TypeError immediately

    def derivative(self, *args, **kwargs):  # pragma: no cover - must not be hit
        raise AssertionError("fallback used on a measurement-free program")


class _CountingBackend(ExactDensityBackend):
    """Counts how often the density fallback serves a whole-input request."""

    def __init__(self):
        self.value_calls = 0
        self.derivative_calls = 0

    def value(self, *args, **kwargs):
        self.value_calls += 1
        return super().value(*args, **kwargs)

    def derivative(self, *args, **kwargs):
        self.derivative_calls += 1
        return super().derivative(*args, **kwargs)


def _estimators(program, observable, *, targets=None):
    exact = Estimator(program, observable, targets=targets)
    fast = exact.with_backend(StatevectorBackend())
    return exact, fast


class TestHypothesisCrossCheck:
    @settings(max_examples=25, deadline=None)
    @given(
        program=program_strategy(allow_controls=False, max_depth=2),
        binding=binding_strategy(),
        state=input_state_strategy(),
    )
    def test_values_agree_on_measurement_free_programs(self, program, binding, state):
        exact, fast = _estimators(program, ZZ)
        assert fast.value(state, binding) == pytest.approx(
            exact.value(state, binding), abs=1e-10
        )

    @settings(max_examples=15, deadline=None)
    @given(
        program=program_strategy(allow_controls=False, allow_abort=False, max_depth=2),
        binding=binding_strategy(),
        state=input_state_strategy(),
    )
    def test_gradients_agree_on_measurement_free_programs(self, program, binding, state):
        exact, fast = _estimators(program, ZZ)
        reference = exact.gradient(state, binding)
        assert np.allclose(fast.gradient(state, binding), reference, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(
        program=program_strategy(max_depth=2),
        binding=binding_strategy(),
        state=input_state_strategy(),
    )
    def test_values_and_gradients_agree_on_arbitrary_programs(
        self, program, binding, state
    ):
        # Control flow included: the backend must agree through its fallback.
        exact, fast = _estimators(program, ZZ)
        assert fast.value(state, binding) == pytest.approx(
            exact.value(state, binding), abs=1e-10
        )
        reference = exact.gradient(state, binding)
        assert np.allclose(fast.gradient(state, binding), reference, atol=1e-10)


class TestDerivativeProgramSetReadouts:
    def test_program_set_readout_matches_density_evaluate(self):
        program = seq([rx(THETA, "q1"), rxx(PHI, "q1", "q2"), ry(THETA, "q2")])
        program_set = differentiate_and_compile(program, THETA)
        layout = RegisterLayout(("q1", "q2"))
        state = DensityState.basis_state(layout, {"q2": 1})
        reference = program_set.evaluate(ZZ, state, BINDING)
        backend = StatevectorBackend()
        from repro.api.backends import ObservableSpec

        estimate = backend.derivative(program_set, ObservableSpec(ZZ), state, BINDING)
        assert estimate == pytest.approx(reference, abs=1e-10)

    def test_local_observable_readout_matches(self):
        program = seq([rx(THETA, "q1"), rxx(PHI, "q1", "q2")])
        program_set = differentiate_and_compile(program, PHI)
        layout = RegisterLayout(("q1", "q2"))
        state = DensityState.basis_state(layout, {})
        reference = program_set.evaluate(Z1, state, BINDING, targets=("q2",))
        from repro.api.backends import ObservableSpec

        backend = StatevectorBackend()
        estimate = backend.derivative(
            program_set, ObservableSpec(Z1, targets=("q2",)), state, BINDING
        )
        assert estimate == pytest.approx(reference, abs=1e-10)


class TestRouting:
    def test_pure_path_used_for_measurement_free_programs(self):
        program = seq([rx(THETA, "q1"), rxx(PHI, "q1", "q2")])
        assert is_statevector_simulable(program)
        layout = RegisterLayout(("q1", "q2"))
        state = DensityState.basis_state(layout, {})
        backend = StatevectorBackend(fallback=_ExplodingBackend())
        estimator = Estimator(program, ZZ, backend=backend)
        value = estimator.value(state, BINDING)
        gradient = estimator.gradient(state, BINDING)
        reference = Estimator(program, ZZ)
        assert value == pytest.approx(reference.value(state, BINDING), abs=1e-10)
        assert np.allclose(gradient, reference.gradient(state, BINDING), atol=1e-10)

    def test_case_program_runs_on_the_trajectory_tier(self):
        # Since the branch-splitting tier landed, a case program no longer
        # demotes to density: it splits the trajectory per outcome and the
        # fallback stays cold.
        program = seq(
            [rx(THETA, "q1"), case_on_qubit("q1", {0: Skip(("q1",)), 1: ry(PHI, "q2")})]
        )
        counting = _CountingBackend()
        backend = StatevectorBackend(fallback=counting)
        layout = RegisterLayout(("q1", "q2"))
        state = DensityState.basis_state(layout, {})
        estimator = Estimator(program, ZZ, backend=backend)
        reference = Estimator(program, ZZ)
        assert estimator.value(state, BINDING) == pytest.approx(
            reference.value(state, BINDING), abs=1e-10
        )
        assert counting.value_calls == 0
        assert backend.tier_for(program) == "trajectory"
        assert backend.tier_counts["trajectory"] >= 1
        # The branching members of the derivative multiset take their own
        # branch ensembles; the readout still matches the density reference.
        grad = estimator.gradient(state, BINDING)
        assert np.allclose(grad, reference.gradient(state, BINDING), atol=1e-10)
        assert counting.derivative_calls == 0

    def test_while_program_runs_on_the_trajectory_tier(self):
        program = bounded_while_on_qubit("q1", ry(THETA, "q2"), 2)
        counting = _CountingBackend()
        backend = StatevectorBackend(fallback=counting)
        layout = RegisterLayout(("q1", "q2"))
        state = DensityState.basis_state(layout, {"q1": 1})
        estimator = Estimator(program, ZZ, backend=backend)
        reference = Estimator(program, ZZ)
        assert estimator.value(state, BINDING) == pytest.approx(
            reference.value(state, BINDING), abs=1e-10
        )
        assert counting.value_calls == 0
        assert backend.tier_for(program) == "trajectory"

    def test_mixed_input_state_falls_back(self):
        program = seq([rx(THETA, "q1"), ry(PHI, "q2")])
        counting = _CountingBackend()
        backend = StatevectorBackend(fallback=counting)
        layout = RegisterLayout(("q1", "q2"))
        mixed = DensityState(layout, np.eye(4, dtype=complex) / 4.0)
        estimator = Estimator(program, ZZ, backend=backend)
        reference = Estimator(program, ZZ)
        assert estimator.value(mixed, BINDING) == pytest.approx(
            reference.value(mixed, BINDING), abs=1e-12
        )
        assert counting.value_calls == 1

    def test_entangled_leading_reset_falls_back_at_runtime(self):
        # Statically fine (leading init) but the input entangles q1 with q2,
        # so the pure reset kernel raises and the batch demotes to density.
        program = Init("q1")
        layout = RegisterLayout(("q1", "q2"))
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 2**-0.5
        state = DensityState.from_pure(layout, bell)
        counting = _CountingBackend()
        estimator = Estimator(program, ZZ, backend=StatevectorBackend(fallback=counting))
        reference = Estimator(program, ZZ)
        assert estimator.value(state, None) == pytest.approx(
            reference.value(state, None), abs=1e-12
        )
        assert counting.value_calls == 1

    def test_entangled_leading_reset_demotes_only_that_input(self):
        # The reset kernel raises on the Bell input alone: the product input
        # beside it stays on the pure tier.
        program = Init("q1")
        layout = RegisterLayout(("q1", "q2"))
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 2**-0.5
        points = [
            (DensityState.from_pure(layout, bell), None),
            (DensityState.basis_state(layout, {"q2": 1}), None),
        ]
        counting = _CountingBackend()
        backend = StatevectorBackend(fallback=counting)
        values = Estimator(program, ZZ, backend=backend).values(points)
        assert np.allclose(values, Estimator(program, ZZ).values(points), atol=1e-12)
        assert counting.value_calls == 1
        assert backend.tier_counts["pure"] == 1

    def test_a_weakly_entangled_reset_is_not_served_as_a_product_state(self):
        # cos(ε)|00⟩ − i·sin(ε)|11⟩ with ε = 5e-6 has a relative purity
        # defect of about 1e-10 at the reset: a pure-tier reset that keeps
        # one row must discard no more than the walk's pruning floor, or the
        # readout is off by about 5e-11 with nothing in `dropped`.
        program = seq([Init("q1"), rx(THETA, "q2")])
        layout = RegisterLayout(("q1", "q2"))
        epsilon = 5e-6
        amplitudes = np.zeros(4, dtype=complex)
        amplitudes[0], amplitudes[3] = np.cos(epsilon), -1j * np.sin(epsilon)
        state = DensityState.from_pure(layout, amplitudes)
        estimator = Estimator(program, ZZ, layout, backend="auto")
        exact = Estimator(program, ZZ, layout, backend="exact-density").value(state, BINDING)
        assert abs(estimator.value(state, BINDING) - exact) <= 1e-14
        assert estimator.backend.tier_counts["pure"] == 0

    def test_batches_mix_pure_and_mixed_inputs(self):
        program = seq([rx(THETA, "q1"), rxx(PHI, "q1", "q2")])
        layout = RegisterLayout(("q1", "q2"))
        pure = DensityState.basis_state(layout, {"q1": 1})
        mixed = DensityState(layout, np.eye(4, dtype=complex) / 4.0)
        other = ParameterBinding({THETA: -1.3, PHI: 0.4})
        inputs = [(pure, BINDING), (mixed, BINDING), (pure, other)]
        exact = Estimator(program, ZZ)
        fast = exact.with_backend(StatevectorBackend())
        assert np.allclose(fast.values(inputs), exact.values(inputs), atol=1e-10)
        assert np.allclose(fast.gradients(inputs), exact.gradients(inputs), atol=1e-10)


class TestStateVectorInputs:
    """Backends accept pure StateVector inputs — no O(4^n) density lift on
    the pure path, an automatic lift on the density paths."""

    def _setup(self):
        program = seq([rx(THETA, "q1"), rxx(PHI, "q1", "q2")])
        layout = RegisterLayout(("q1", "q2"))
        from repro.sim.statevector import StateVector

        vector = StateVector.basis_state(layout, {"q2": 1})
        density = DensityState.from_pure(layout, vector.amplitudes)
        return program, vector, density

    def test_statevector_input_on_pure_tier(self):
        program, vector, density = self._setup()
        estimator = Estimator(program, ZZ, backend=StatevectorBackend(fallback=_ExplodingBackend()))
        reference = Estimator(program, ZZ)
        assert estimator.value(vector, BINDING) == pytest.approx(
            reference.value(density, BINDING), abs=1e-10
        )
        assert np.allclose(
            estimator.gradient(vector, BINDING),
            reference.gradient(density, BINDING),
            atol=1e-10,
        )

    def test_statevector_input_on_density_backend(self):
        program, vector, density = self._setup()
        estimator = Estimator(program, ZZ, backend=ExactDensityBackend())
        assert estimator.value(vector, BINDING) == pytest.approx(
            estimator.value(density, BINDING), abs=1e-12
        )
        assert np.allclose(
            estimator.gradient(vector, BINDING),
            estimator.gradient(density, BINDING),
            atol=1e-12,
        )

    def test_statevector_input_on_branching_program_matches_density(self):
        from repro.sim.statevector import StateVector

        program = seq(
            [rx(THETA, "q1"), case_on_qubit("q1", {0: Skip(("q1",)), 1: ry(PHI, "q2")})]
        )
        layout = RegisterLayout(("q1", "q2"))
        vector = StateVector.basis_state(layout, {})
        density = DensityState.from_pure(layout, vector.amplitudes)
        fast = Estimator(program, ZZ, backend=StatevectorBackend())
        reference = Estimator(program, ZZ)
        assert fast.value(vector, BINDING) == pytest.approx(
            reference.value(density, BINDING), abs=1e-12
        )

    def test_bare_statevector_accepted_in_batches(self):
        from repro.sim.statevector import StateVector

        program = seq([rx(THETA, "q1"), ry(PHI, "q2")])
        layout = RegisterLayout(("q1", "q2"))
        states = [StateVector.basis_state(layout, {"q1": b}) for b in (0, 1)]
        values = Estimator(program, ZZ, backend=StatevectorBackend()).values(
            [(state, BINDING) for state in states]
        )
        reference = Estimator(program, ZZ).values(
            [(DensityState.from_pure(layout, s.amplitudes), BINDING) for s in states]
        )
        assert np.allclose(values, reference, atol=1e-10)


class TestCacheAndResolution:
    def test_amplitude_cache_hits_on_repeated_batches(self):
        program = seq([rx(THETA, "q1"), ry(PHI, "q2")])
        backend = StatevectorBackend()
        layout = RegisterLayout(("q1", "q2"))
        state = DensityState.basis_state(layout, {})
        estimator = Estimator(program, ZZ, backend=backend)
        estimator.value(state, BINDING)
        misses = backend.cache.stats.misses
        estimator.value(state, BINDING)
        assert backend.cache.stats.misses == misses
        assert backend.cache.stats.hits >= 1

    def test_the_cache_holds_readouts_only(self):
        # A pure value, a case value and a two-parameter gradient of three
        # inputs: each entry is (values, dropped) of shape (inputs, 1 + K),
        # never an amplitude stack or a branch ensemble.
        layout = RegisterLayout(("q1", "q2"))
        straight = seq([rx(THETA, "q1"), ry(PHI, "q2")])
        branching = seq(
            [rx(THETA, "q1"), case_on_qubit("q1", {0: ry(PHI, "q2"), 1: rx(PHI, "q2")})]
        )
        points = [
            (DensityState.basis_state(layout, {"q1": bit, "q2": other}), BINDING)
            for bit, other in ((0, 0), (1, 0), (0, 1))
        ]
        backend = StatevectorBackend()
        Estimator(straight, ZZ, backend=backend).values(points)
        estimator = Estimator(branching, ZZ, backend=backend)
        estimator.values(points)
        estimator.gradients(points)
        entries = list(backend.cache._entries.items())
        assert {key[2][0] for key, _ in entries} == {"sv", "traj"}
        shapes = []
        for _, (_, payload) in entries:
            assert isinstance(payload, tuple) and len(payload) == 2
            values, dropped = payload
            assert values.dtype == dropped.dtype == np.float64
            assert values.shape == dropped.shape
            shapes.append(values.shape)
        assert sorted(shapes) == [(3, 1), (3, 1), (3, 3)]

    def test_cache_disabled_when_asked(self):
        backend = StatevectorBackend(cache=DenotationCache(max_entries=0))
        program = rx(THETA, "q1")
        layout = RegisterLayout(("q1",))
        state = DensityState.basis_state(layout, {})
        estimator = Estimator(program, Z1, backend=backend)
        estimator.value(state, BINDING)
        estimator.value(state, BINDING)
        assert backend.cache.stats.hits == 0

    def test_resolve_backend_spellings(self):
        assert isinstance(resolve_backend("auto"), StatevectorBackend)
        assert isinstance(resolve_backend("statevector"), StatevectorBackend)
        assert isinstance(resolve_backend("exact"), ExactDensityBackend)
        assert resolve_backend(None).name == "exact-density"
        backend = StatevectorBackend()
        assert resolve_backend(backend) is backend
        with pytest.raises(SemanticsError):
            resolve_backend("quantum-hardware")

    def test_pickling_drops_the_cache(self):
        import pickle

        backend = StatevectorBackend()
        program = rx(THETA, "q1")
        layout = RegisterLayout(("q1",))
        state = DensityState.basis_state(layout, {})
        Estimator(program, Z1, backend=backend).value(state, BINDING)
        assert len(backend.cache) > 0
        clone = pickle.loads(pickle.dumps(backend))
        assert len(clone.cache) == 0
        assert clone.atol == backend.atol
