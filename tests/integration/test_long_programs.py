"""Programs of realistic length: nothing recurses once per statement.

``;`` chains are flat nodes, and every walker — the transform, the
compile, the evaluators, pickling, the printer and parser, the analyses —
loops over a chain's statements, so a long straight-line program costs
stack depth one, not one frame per statement.  (Nesting still recurses
once per level.)
"""

import pickle

import numpy as np
import pytest

from repro.analysis.lint import lint_program
from repro.api import Estimator
from repro.lang.builder import rx, rxx, ry, rz, seq
from repro.lang.parameters import Parameter, ParameterBinding
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_print
from repro.linalg.observables import pauli_observable
from repro.service import wire
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout

THETA = Parameter("theta")
STATEMENTS = 2000
OCCURRENCES = 20


def _long_program():
    """2000 straight-line statements on two qubits, θ in 20 of them."""
    rng = np.random.default_rng(0)
    fixed = (
        lambda angle: rx(angle, "q1"),
        lambda angle: ry(angle, "q2"),
        lambda angle: rz(angle, "q1"),
        lambda angle: rxx(angle, "q1", "q2"),
    )
    statements = []
    for index in range(STATEMENTS):
        if index % (STATEMENTS // OCCURRENCES) == 7:
            statements.append(rx(THETA, "q1") if index % 2 else ry(THETA, "q2"))
        elif index in (1500, 1501):  # a cancelling pair for the linter to find
            statements.append(rx(0.5 if index == 1500 else -0.5, "q1"))
        else:
            statements.append(fixed[index % len(fixed)](round(float(rng.uniform(-1, 1)), 6)))
    return seq(statements)


@pytest.fixture(scope="module")
def program():
    return _long_program()


def test_the_program_is_one_flat_sequence(program):
    assert len(program.statements) == STATEMENTS
    assert sum(THETA in s.parameters() for s in program.statements) == OCCURRENCES


def test_value_and_gradient_agree_across_backends(program):
    layout = RegisterLayout(["q1", "q2"])
    state = DensityState.basis_state(layout, {"q1": 0, "q2": 1})
    binding = ParameterBinding({THETA: 0.37})
    readouts = {}
    for backend in ("auto", "exact-density"):
        estimator = Estimator(
            program, pauli_observable("ZZ"), layout, parameters=[THETA], backend=backend
        )
        readouts[backend] = (
            estimator.value(state, binding),
            estimator.gradient(state, binding)[0],
        )
    assert np.allclose(readouts["auto"], readouts["exact-density"], rtol=0, atol=1e-10)
    assert abs(readouts["auto"][1]) > 1e-6  # the derivative is not trivially zero


def test_pickle_digest_and_surface_syntax_round_trip(program):
    assert pickle.loads(pickle.dumps(program)) == program
    assert wire.content_digest(program) == wire.content_digest(_long_program())
    assert parse_program(pretty_print(program)) == program


def test_lint_names_the_statement(program):
    found = [(d.code, d.path) for d in lint_program(program)]
    assert found == [("RPR006", ("statement[1500]",))]
