"""Unit tests for the Section 8.1 classifiers P1/P2 and the P3 extension."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.lang.ast import Case, Seq, While
from repro.lang.parameters import Parameter, ParameterBinding, ParameterVector
from repro.lang.traversal import contains_case, is_circuit
from repro.analysis.resources import gate_count
from repro.baselines.finite_diff import finite_difference_derivative
from repro.vqc.classifier import BooleanClassifier, build_p1, build_p2, build_p3, build_q_layer
from repro.vqc.datasets import paper_dataset


class TestQLayer:
    def test_structure_and_gate_count(self):
        params = ParameterVector("g", 12).as_tuple()
        layer = build_q_layer(params)
        assert gate_count(layer) == 12
        assert layer.qvars() == {"q1", "q2", "q3", "q4"}
        assert is_circuit(layer)

    def test_requires_three_parameters_per_qubit(self):
        with pytest.raises(TrainingError):
            build_q_layer(ParameterVector("g", 8).as_tuple())


class TestBuildClassifiers:
    def test_p1_is_a_plain_circuit_with_24_parameters(self):
        p1 = build_p1()
        assert len(p1.parameters) == 24
        assert is_circuit(p1.program)
        assert gate_count(p1.program) == 24

    def test_p2_has_controls_and_36_parameters(self):
        p2 = build_p2()
        assert len(p2.parameters) == 36
        assert contains_case(p2.program)
        assert isinstance(p2.program, Seq)
        assert isinstance(p2.program.statements[-1], Case)

    def test_p3_has_a_bounded_while_and_24_parameters(self):
        p3 = build_p3()
        assert len(p3.parameters) == 24
        assert isinstance(p3.program, Seq)
        loop = p3.program.statements[-1]
        assert isinstance(loop, While)
        assert loop.bound == 2
        assert gate_count(loop.body) == 12

    def test_p3_predictions_are_sub_normalized_probabilities(self):
        p3 = build_p3()
        binding = p3.initial_binding(seed=1, spread=0.6)
        for bits in ((0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)):
            probability = p3.predict_probability(bits, binding)
            assert 0.0 <= probability <= 1.0 + 1e-12

    def test_p1_and_p2_execute_the_same_number_of_gates_per_run(self):
        """Each run of P2 applies one of the two 12-gate branches: 24 gates, like P1."""
        p2 = build_p2()
        *layer, case = p2.program.statements
        assert sum(map(gate_count, layer)) == 12
        assert gate_count(case.branch(0)) == 12
        assert gate_count(case.branch(1)) == 12

    def test_custom_parameters_are_accepted(self):
        theta = ParameterVector("a", 12).as_tuple()
        phi = ParameterVector("b", 12).as_tuple()
        classifier = build_p1(theta, phi)
        assert classifier.parameters == theta + phi


class TestClassifierBehaviour:
    def test_layout_and_input_state(self):
        p1 = build_p1()
        state = p1.input_state((1, 0, 1, 1))
        assert state.layout.names == ("q1", "q2", "q3", "q4")
        assert np.isclose(state.trace(), 1.0)
        index = int("1011", 2)
        assert np.isclose(state.matrix[index, index], 1.0)

    def test_input_state_validates_length(self):
        with pytest.raises(TrainingError):
            build_p1().input_state((1, 0))

    def test_prediction_at_zero_parameters_reads_input_bit(self):
        """With all angles 0 the circuit is the identity, so l(z) = z4."""
        p1 = build_p1()
        binding = ParameterBinding.zeros(p1.parameters)
        assert p1.predict_probability((0, 0, 0, 0), binding) == pytest.approx(0.0)
        assert p1.predict_probability((0, 0, 0, 1), binding) == pytest.approx(1.0)

    def test_prediction_is_a_probability(self):
        p2 = build_p2()
        binding = p2.initial_binding(seed=3, spread=1.5)
        for bits, _ in paper_dataset()[:6]:
            probability = p2.predict_probability(bits, binding)
            assert -1e-9 <= probability <= 1 + 1e-9

    def test_predict_label_thresholds(self):
        p1 = build_p1()
        binding = ParameterBinding.zeros(p1.parameters)
        assert p1.predict_label((0, 0, 0, 1), binding) == 1
        assert p1.predict_label((0, 0, 0, 0), binding) == 0

    def test_accuracy_at_identity_parameters(self):
        """The identity circuit predicts z4, which matches f(z)=¬(z1⊕z4) on half the inputs."""
        p1 = build_p1()
        binding = ParameterBinding.zeros(p1.parameters)
        assert p1.accuracy(paper_dataset(), binding) == pytest.approx(0.5)

    def test_accuracy_requires_data(self):
        with pytest.raises(TrainingError):
            build_p1().accuracy([], ParameterBinding.zeros(build_p1().parameters))

    def test_initial_binding_is_deterministic(self):
        p1 = build_p1()
        assert p1.initial_binding(seed=5).to_dict() == p1.initial_binding(seed=5).to_dict()

    def test_derivative_program_sets_cover_every_parameter(self):
        p2 = build_p2()
        program_sets = p2.derivative_program_sets()
        assert len(program_sets) == 36
        # Each parameter occurs exactly once, so at most one program per parameter survives.
        assert all(ps.nonaborting_count <= 1 for ps in program_sets)

    def test_gradient_of_prediction_matches_finite_differences(self):
        p2 = build_p2()
        binding = p2.initial_binding(seed=1, spread=0.7)
        bits = (1, 0, 1, 0)
        state = p2.input_state(bits)
        observable = p2.readout_observable()
        parameter = p2.parameters[0]
        program_set = p2.derivative_program_sets()[0]
        exact = program_set.evaluate(observable, state, binding)
        reference = finite_difference_derivative(
            p2.program, parameter, observable, state, binding
        )
        assert exact == pytest.approx(reference, abs=1e-6)
