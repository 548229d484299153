"""End-to-end integration tests across the whole stack.

These tests deliberately cross module boundaries: text → AST → semantics →
differentiation → execution → training, plus cross-checks between the two
simulators and between exact and shot-based execution.
"""

import numpy as np
import pytest

import repro
from repro.errors import ReproError, TransformError
from repro.lang import Parameter, ParameterBinding, parse_program, pretty_print
from repro.lang.builder import rx, ry, rxx, seq
from repro.linalg.observables import pauli_observable
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.sim.statevector import StateVector
from repro.semantics.denotational import denote
from repro.autodiff.execution import differentiate_and_compile
from repro.baselines.finite_diff import finite_difference_derivative
from repro.vqc.classifier import build_p2
from repro.vqc.datasets import boolean_dataset, parity_label_function
from repro.vqc.training import GradientDescentTrainer, TrainingConfig

THETA = Parameter("theta")
PHI = Parameter("phi")


class TestPackageSurface:
    def test_top_level_import_exposes_subpackages(self):
        assert repro.__version__
        for name in ("lang", "linalg", "sim", "semantics", "additive", "autodiff",
                     "analysis", "baselines", "vqc"):
            assert hasattr(repro, name)

    def test_error_hierarchy(self):
        assert issubclass(TransformError, ReproError)
        from repro.errors import (
            CompilationError,
            LinalgError,
            LogicError,
            ParameterError,
            ParseError,
            SemanticsError,
            TrainingError,
            WellFormednessError,
        )

        for error_type in (
            CompilationError,
            LinalgError,
            LogicError,
            ParameterError,
            ParseError,
            SemanticsError,
            TrainingError,
            WellFormednessError,
        ):
            assert issubclass(error_type, ReproError)


class TestTextToGradient:
    SOURCE = """
    q1 := |0>;
    q1 := RX(theta)[q1];
    q1, q2 := RXX(phi)[q1, q2];
    case M[q1] =
      0 -> { q2 := RY(theta)[q2] }
      1 -> { q2 := RZ(theta)[q2] }
    end
    """

    def test_parse_differentiate_execute(self):
        program = parse_program(self.SOURCE)
        binding = ParameterBinding({THETA: 1.2, PHI: -0.5})
        layout = RegisterLayout(["q1", "q2"])
        state = DensityState.basis_state(layout, {"q1": 1, "q2": 0})
        observable = pauli_observable("IZ")
        program_set = differentiate_and_compile(program, THETA)
        value = program_set.evaluate(observable, state, binding)
        reference = finite_difference_derivative(program, THETA, observable, state, binding)
        assert value == pytest.approx(reference, abs=1e-6)

    def test_derivative_programs_round_trip_through_the_surface_syntax(self):
        program = parse_program(self.SOURCE)
        program_set = differentiate_and_compile(program, THETA)
        binding = ParameterBinding({THETA: 0.3, PHI: 0.9})
        layout = RegisterLayout(["anc_theta", "q1", "q2"])
        state = DensityState.zero_state(layout)
        for compiled in program_set.nonaborting_programs():
            reparsed = parse_program(pretty_print(compiled))
            assert reparsed == compiled
            # Semantically identical too.
            direct = denote(compiled, state, binding)
            via_text = denote(reparsed, state, binding)
            assert np.allclose(direct.matrix, via_text.matrix)


class TestSimulatorCrossChecks:
    def test_statevector_matches_density_matrix_on_unitary_programs(self):
        program = seq([rx(0.7, "q1"), ry(-0.4, "q2"), rxx(1.1, "q1", "q2")])
        layout = RegisterLayout(["q1", "q2"])
        density = denote(program, DensityState.zero_state(layout))
        vector = StateVector(layout)
        for statement in [rx(0.7, "q1"), ry(-0.4, "q2"), rxx(1.1, "q1", "q2")]:
            vector.apply_unitary(statement.gate.matrix(), statement.qubits)
        assert np.allclose(vector.density_matrix(), density.matrix, atol=1e-10)

    def test_trajectory_average_matches_density_for_branching_program(self):
        """Sampling the guard measurement and averaging reproduces the case semantics."""
        from repro.lang.builder import case_on_qubit
        from repro.linalg.measurement import computational_measurement

        layout = RegisterLayout(["q1", "q2"])
        binding = ParameterBinding({THETA: 0.9})
        program = seq([rx(1.1, "q1"), case_on_qubit("q1", {0: ry(THETA, "q2"), 1: rx(0.2, "q2")})])
        observable = pauli_observable("IZ")
        exact = denote(program, DensityState.zero_state(layout), binding).expectation(
            observable.matrix
        )
        rng = np.random.default_rng(3)
        measurement = computational_measurement(1)
        readouts = []
        for _ in range(600):
            vector = StateVector(layout)
            vector.apply_unitary(rx(1.1, "q1").gate.matrix(), ("q1",))
            outcome = vector.measure(measurement, ["q1"], rng=rng)
            branch = ry(THETA, "q2") if outcome == 0 else rx(0.2, "q2")
            vector.apply_unitary(branch.gate.matrix(binding), branch.qubits)
            readouts.append(vector.expectation(observable.matrix))
        assert np.mean(readouts) == pytest.approx(exact, abs=0.08)


class TestSmallTrainingRun:
    def test_p2_can_learn_a_two_bit_parity_slice(self):
        """A tiny end-to-end training run on a 4-point sub-task finishes and improves."""
        classifier = build_p2()
        dataset = boolean_dataset(
            lambda bits: parity_label_function((bits[0], bits[3])),
            inputs=[(0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1)],
        )
        trainer = GradientDescentTrainer(
            classifier,
            TrainingConfig(epochs=4, learning_rate=0.6, record_accuracy=True, seed=1),
        )
        result = trainer.train(dataset)
        assert result.final_loss < result.losses[0]
        assert result.accuracies[-1] >= 0.75
