"""Soundness of the cost model: instrumented actuals never exceed predictions.

The cost model (:func:`repro.analysis.cost.cost_report`) and the kernel
instrumentation (:func:`repro.sim.kernels.count_kernel_ops`) charge in the
same model units, so soundness is directly testable: run a program through
a backend with the counters on and assert the observed flops and peak
working-set bytes stay within the predicted upper bound for the tier that
actually served the evaluation — the routed tier normally, the
demotion-absorbing ``worst_case`` when the backend fell back mid-run.

Hypothesis sweeps random programs through the statevector tiers (pure and
trajectory routing, runtime demotions included) and the exact density
backend; directed cases pin qutrit ride-along registers, additive sums,
and local-observable readouts.  A gradient's single tangent walk must cost
no more than the planner's price of the multiset it replaces, including a
column whose parameter never occurs.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.analysis.cost import cost_report
from repro.api import (
    DenotationCache,
    Estimator,
    ExactDensityBackend,
    ObservableSpec,
    StatevectorBackend,
)
from repro.lang.ast import Sum, UnitaryApp
from repro.lang.builder import bounded_while_on_qubit, case_on_qubit, rx, ry, rz, rzz, seq
from repro.lang.gates import cnot, hadamard
from repro.lang.parameters import Parameter, ParameterBinding
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.sim.kernels import count_kernel_ops
from repro.sim.trajectories import _fusion_plan
from repro.service.planner import request_cost

from tests.conftest import (
    binding_strategy,
    input_state_strategy,
    program_strategy,
)

THETA = Parameter("theta")
PHI = Parameter("phi")
ABSENT = Parameter("absent")
LAYOUT = RegisterLayout(("q1", "q2"))
ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
SPEC = ObservableSpec(ZZ)

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Floating-point slack on the bound comparison (the model and the counters
#: accumulate the same products in different orders).
_REL = 1.0 + 1e-9


def _assert_within(counters, bound) -> None:
    assert counters.flops <= bound.flops.hi * _REL, (
        f"counted {counters.flops} model flops, predicted at most "
        f"{bound.flops.hi}"
    )
    assert counters.peak_bytes <= bound.peak_bytes.hi * _REL, (
        f"observed peak {counters.peak_bytes} bytes, predicted at most "
        f"{bound.peak_bytes.hi}"
    )


def _check_statevector_value(program, state, binding) -> None:
    backend = StatevectorBackend()
    before = dict(backend.tier_counts)
    with count_kernel_ops() as counters:
        backend.value(program, SPEC, state, binding)
    demoted = (
        backend.tier_for(program) != "density"
        and backend.tier_counts["density"] > before["density"]
    )
    report = backend.explain_tier(program, layout=state.layout)
    _assert_within(counters, report.worst_case if demoted else report.routed)


@given(
    program=program_strategy(allow_sum=False, allow_controls=False),
    state=input_state_strategy(),
    binding=binding_strategy(),
)
@settings(**_SETTINGS)
def test_pure_tier_never_exceeds_prediction(program, state, binding):
    _check_statevector_value(program, state, binding)


@given(
    program=program_strategy(allow_sum=False),
    state=input_state_strategy(),
    binding=binding_strategy(),
)
@settings(**_SETTINGS)
def test_branching_tier_never_exceeds_prediction(program, state, binding):
    _check_statevector_value(program, state, binding)


@given(
    program=program_strategy(allow_sum=False),
    state=input_state_strategy(),
    binding=binding_strategy(),
)
@settings(**_SETTINGS)
def test_density_tier_never_exceeds_prediction(program, state, binding):
    backend = ExactDensityBackend()
    with count_kernel_ops() as counters:
        backend.value(program, SPEC, state, binding)
    report = cost_report(program, layout=state.layout)
    _assert_within(counters, report.density)


@given(
    program=program_strategy(allow_sum=True),
    state=input_state_strategy(),
    binding=binding_strategy(),
)
@settings(**_SETTINGS)
def test_additive_density_evaluation_never_exceeds_prediction(
    program, state, binding
):
    backend = ExactDensityBackend()
    with count_kernel_ops() as counters:
        backend.value(program, SPEC, state, binding)
    report = cost_report(program, layout=state.layout)
    _assert_within(counters, report.density)


@given(
    program=program_strategy(allow_sum=True),
    state=input_state_strategy(),
    binding=binding_strategy(),
)
@settings(**_SETTINGS)
def test_gradient_walk_never_exceeds_the_request_cost(program, state, binding):
    backend = StatevectorBackend(cache=DenotationCache(max_entries=0))
    estimator = Estimator(program, ZZ, parameters=(THETA, PHI, ABSENT), backend=backend)
    request = estimator.request_gradient(state, binding)
    with count_kernel_ops() as counters:
        backend.derivative_batch(
            list(request.program_sets), request.observable, [(state, binding)]
        )
    assert backend.tier_counts["density"] == 0
    assert counters.flops <= request_cost(request) * _REL, (
        f"the walk counted {counters.flops} model flops, the multiset is priced "
        f"at {request_cost(request)}"
    )


class TestDirectedShapes:
    def test_qutrit_ride_along_register(self):
        layout = RegisterLayout(("q1", "q2", "aux"), {"aux": 3})
        state = DensityState.basis_state(layout, {"q1": 0, "q2": 1, "aux": 0})
        program = seq(
            [
                rx(THETA, "q1"),
                case_on_qubit("q1", {0: ry(PHI, "q2"), 1: rx(0.4, "q2")}),
            ]
        )
        binding = ParameterBinding({THETA: 0.3, PHI: -0.8})
        backend = StatevectorBackend()
        spec = ObservableSpec(ZZ, targets=("q1", "q2"))
        with count_kernel_ops() as counters:
            backend.value(program, spec, state, binding)
        report = backend.explain_tier(program, layout=layout)
        assert report.total_dim == 12.0
        _assert_within(counters, report.worst_case)

    def test_qutrit_density_register(self):
        layout = RegisterLayout(("q1", "aux"), {"aux": 3})
        state = DensityState.basis_state(layout, {"q1": 1, "aux": 2})
        program = seq([rx(THETA, "q1"), ry(0.2, "q1")])
        binding = ParameterBinding({THETA: 0.9})
        backend = ExactDensityBackend()
        spec = ObservableSpec(np.diag([1.0, -1.0]).astype(complex), targets=("q1",))
        with count_kernel_ops() as counters:
            backend.value(program, spec, state, binding)
        report = cost_report(program, layout=layout)
        _assert_within(counters, report.density)

    def test_bounded_while_on_the_trajectory_tier(self):
        program = bounded_while_on_qubit("q1", rx(THETA, "q1"), 5)
        state = DensityState.basis_state(LAYOUT, {"q1": 1, "q2": 0})
        binding = ParameterBinding({THETA: 1.1})
        _check_statevector_value(program, state, binding)

    def test_additive_sum_on_the_statevector_tiers(self):
        program = Sum(
            seq([rx(THETA, "q1"), ry(0.3, "q2")]),
            seq([ry(PHI, "q1"), rx(-0.2, "q2")]),
        )
        state = DensityState.basis_state(LAYOUT, {"q1": 0, "q2": 0})
        binding = ParameterBinding({THETA: 0.5, PHI: -0.4})
        _check_statevector_value(program, state, binding)

    def test_fused_runs_stay_within_the_prediction(self):
        # The hypothesis suites above run on two qubits, where few runs fuse;
        # here every straight-line run of the walk is one bound operator.
        layout = RegisterLayout(("q1", "q2", "q3", "q4"))
        block = seq(
            [
                rx(THETA, "q1"),
                rx(THETA, "q2"),
                rz(PHI, "q3"),
                UnitaryApp(hadamard(), ("q2",)),
                UnitaryApp(cnot(), ("q1", "q2")),
                UnitaryApp(cnot(), ("q2", "q3")),
                rzz(THETA, "q3", "q1"),
                ry(PHI, "q2"),
            ]
        )
        tail = seq([ry(THETA, "q4"), rzz(PHI, "q4", "q3"), rx(0.3, "q3")])
        program = seq(
            [block, case_on_qubit("q1", {0: block, 1: tail}), bounded_while_on_qubit("q2", tail, 2)]
        )
        state = DensityState.basis_state(layout, {"q1": 0, "q2": 1, "q3": 0, "q4": 1})
        binding = ParameterBinding({THETA: 0.9, PHI: -1.7})
        backend = StatevectorBackend(cache=DenotationCache(max_entries=0))
        spec = ObservableSpec(ZZ, targets=("q2", "q3"))
        with count_kernel_ops() as counters:
            backend.value(program, spec, state, binding)
        assert backend.tier_counts["density"] == 0
        assert [run is not None for _, _, run in _fusion_plan(block, layout)] == [True]
        assert [run is not None for _, _, run in _fusion_plan(tail, layout)] == [True]
        _assert_within(counters, backend.explain_tier(program, layout=layout).routed)

        estimator = Estimator(
            program, ZZ, layout, targets=("q2", "q3"), parameters=(THETA, PHI, ABSENT),
            backend=backend,
        )
        request = estimator.request_gradient(state, binding)
        with count_kernel_ops() as counters:
            backend.derivative_batch(
                list(request.program_sets), request.observable, [(state, binding)]
            )
        assert backend.tier_counts["density"] == 0
        assert counters.flops <= request_cost(request) * _REL

    def test_counters_observe_something(self):
        # Guard against a silently disabled instrumentation layer: a real
        # gate on a real register must charge a nonzero cost.
        backend = ExactDensityBackend()
        state = DensityState.basis_state(LAYOUT, {"q1": 0, "q2": 0})
        with count_kernel_ops() as counters:
            backend.value(rx(0.5, "q1"), SPEC, state, None)
        assert counters.flops > 0
        assert counters.peak_bytes > 0
        assert counters.calls > 0

    def test_prediction_is_finite_for_modest_programs(self):
        program = seq([rx(THETA, "q1"), case_on_qubit("q1", {0: ry(0.1, "q2"), 1: rx(0.2, "q2")})])
        report = cost_report(program, layout=LAYOUT)
        assert math.isfinite(report.routed.flops.hi)
        assert math.isfinite(report.worst_case.flops.hi)
