"""Unit tests for AST traversal utilities and while-loop unfolding."""

import numpy as np
import pytest

from repro.lang.ast import Abort, Case, Seq, Skip, Sum, While
from repro.lang.builder import bounded_while_on_qubit, case_on_qubit, rx, ry, seq
from repro.lang.parameters import Parameter, ParameterBinding
from repro.lang.traversal import (
    children,
    contains_case,
    contains_while,
    fully_unfold_whiles,
    is_circuit,
    iter_gate_applications,
    iter_subprograms,
    map_program,
    program_size,
    unfold_while,
)
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.semantics.denotational import denote

THETA = Parameter("theta")


def _sample_program():
    return seq(
        [
            rx(THETA, "q1"),
            case_on_qubit("q1", {0: ry(0.5, "q2"), 1: Skip(["q1"])}),
            bounded_while_on_qubit("q2", rx(0.3, "q1"), 2),
        ]
    )


class TestIteration:
    def test_children(self):
        program = Seq(Skip(["q1"]), Abort(["q1"]))
        assert children(program) == (Skip(["q1"]), Abort(["q1"]))

    def test_iter_subprograms_preorder(self):
        program = _sample_program()
        nodes = list(iter_subprograms(program))
        assert nodes[0] is program
        assert program_size(program) == len(nodes)

    def test_iter_gate_applications(self):
        gates = list(iter_gate_applications(_sample_program()))
        assert len(gates) == 3  # loop bodies yielded once

    def test_program_size_counts_nodes(self):
        assert program_size(Skip(["q1"])) == 1
        assert program_size(Seq(Skip(["q1"]), Skip(["q1"]))) == 3


class TestMapProgram:
    def test_identity_map_preserves_structure(self):
        program = _sample_program()
        assert map_program(program, lambda node: node) == program

    def test_replace_leaves(self):
        program = Seq(rx(THETA, "q1"), ry(0.5, "q2"))

        def replace(node):
            if node == rx(THETA, "q1"):
                return Skip(["q1"])
            return node

        assert map_program(program, replace) == Seq(Skip(["q1"]), ry(0.5, "q2"))


class TestWhileUnfolding:
    def test_unfold_bound_one(self):
        loop = bounded_while_on_qubit("q1", rx(THETA, "q1"), 1)
        unfolded = unfold_while(loop)
        assert isinstance(unfolded, Case)
        assert unfolded.branch(0) == Skip(("q1",))
        body_then_abort = unfolded.branch(1)
        assert isinstance(body_then_abort, Seq)
        assert isinstance(body_then_abort.statements[-1], Abort)

    def test_unfold_bound_two_keeps_smaller_loop(self):
        loop = bounded_while_on_qubit("q1", rx(THETA, "q1"), 2)
        unfolded = unfold_while(loop)
        continuation = unfolded.branch(1)
        assert isinstance(continuation.statements[-1], While)
        assert continuation.statements[-1].bound == 1

    def test_fully_unfold_removes_all_whiles(self):
        program = _sample_program()
        assert contains_while(program)
        unfolded = fully_unfold_whiles(program)
        assert not contains_while(unfolded)

    def test_unfolding_preserves_semantics(self):
        layout = RegisterLayout(["q1", "q2"])
        state = DensityState.basis_state(layout, {"q1": 1, "q2": 0})
        binding = ParameterBinding({THETA: 0.9})
        program = seq(
            [rx(THETA, "q1"), bounded_while_on_qubit("q1", ry(0.4, "q2"), 3)]
        )
        direct = denote(program, state, binding)
        unfolded = denote(fully_unfold_whiles(program), state, binding)
        assert np.allclose(direct.matrix, unfolded.matrix)


class TestPredicates:
    def test_contains_case(self):
        assert contains_case(_sample_program())
        assert not contains_case(seq([rx(THETA, "q1"), ry(0.2, "q2")]))

    def test_is_circuit(self):
        assert is_circuit(seq([rx(THETA, "q1"), ry(0.2, "q2"), Skip(["q1"])]))
        assert not is_circuit(_sample_program())
        assert not is_circuit(Sum(rx(THETA, "q1"), ry(0.2, "q1")))
        assert not is_circuit(seq([rx(THETA, "q1"), Abort(["q1"])]))
