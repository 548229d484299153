"""Unit tests for the differentiation logic (Figure 5) and Theorem 6.2."""

import pytest

from repro.errors import LogicError
from repro.lang.ast import Abort, Init, Seq, Skip, Sum
from repro.lang.builder import bounded_while_on_qubit, case_on_qubit, rx, rxx, ry, rz, seq
from repro.lang.parameters import Parameter, ParameterBinding
from repro.linalg.observables import pauli_observable
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.autodiff.logic import (
    Derivation,
    Judgement,
    check_derivation,
    derive,
    validate_soundness,
)
from repro.autodiff.transform import ancilla_name_for, differentiate

THETA = Parameter("theta")
PHI = Parameter("phi")


def _derivation_for(program):
    ancilla = ancilla_name_for(program, THETA)
    derivation = derive(program, THETA, ancilla=ancilla)
    return derivation, ancilla


class TestDerivationConstruction:
    def test_axiom_rules(self):
        derivation, _ = _derivation_for(Skip(["q1"]))
        assert derivation.rule == "Skip"
        assert derivation.premises == ()

        derivation, _ = _derivation_for(Init("q1"))
        assert derivation.rule == "Initialization"

        derivation, _ = _derivation_for(rx(0.3, "q1"))
        assert derivation.rule == "Trivial-Unitary"

        derivation, _ = _derivation_for(rx(THETA, "q1"))
        assert derivation.rule == "Rot-Couple"

    def test_composite_rules(self):
        derivation, _ = _derivation_for(Seq(rx(THETA, "q1"), ry(THETA, "q2")))
        assert derivation.rule == "Sequence"
        assert len(derivation.premises) == 2

        # One premise per statement that uses θ; none when no statement does.
        derivation, _ = _derivation_for(seq([rx(PHI, "q1"), ry(THETA, "q2"), Skip(["q1"])]))
        assert [p.judgement.original for p in derivation.premises] == [ry(THETA, "q2")]
        derivation, ancilla = _derivation_for(seq([rx(PHI, "q1"), Skip(["q2"])]))
        assert derivation.premises == ()
        assert derivation.judgement.derivative == Abort((ancilla, "q1", "q2"))

        derivation, _ = _derivation_for(case_on_qubit("q1", {0: rx(THETA, "q2"), 1: Skip(["q1"])}))
        assert derivation.rule == "Case"
        assert len(derivation.premises) == 2

        derivation, _ = _derivation_for(bounded_while_on_qubit("q1", rx(THETA, "q1"), 2))
        assert derivation.rule == "While"
        assert len(derivation.premises) == 1

        derivation, _ = _derivation_for(Sum(rx(THETA, "q1"), ry(THETA, "q1")))
        assert derivation.rule == "Sum-Component"

    def test_derivation_size_and_rules_used(self):
        program = seq([rx(THETA, "q1"), case_on_qubit("q1", {0: ry(THETA, "q2"), 1: Skip(["q1"])})])
        derivation, _ = _derivation_for(program)
        assert derivation.size() >= 5
        assert {"Sequence", "Case", "Rot-Couple", "Skip"} <= derivation.rules_used()

    def test_conclusion_matches_code_transformation(self):
        """The canonical derivation proves exactly the transformed program."""
        programs = [
            rx(THETA, "q1"),
            seq([rx(THETA, "q1"), ry(THETA, "q2"), rxx(PHI, "q1", "q2")]),
            case_on_qubit("q1", {0: seq([rx(THETA, "q1"), ry(THETA, "q1")]), 1: rz(THETA, "q1")}),
            seq([rx(THETA, "q1"), bounded_while_on_qubit("q1", ry(THETA, "q2"), 2)]),
        ]
        for program in programs:
            ancilla = ancilla_name_for(program, THETA)
            derivation = derive(program, THETA, ancilla=ancilla)
            assert derivation.judgement.derivative == differentiate(program, THETA, ancilla=ancilla)
            assert derivation.judgement.original == program


class TestDerivationChecking:
    def test_valid_derivations_pass(self):
        programs = [
            rx(THETA, "q1"),
            seq([rx(THETA, "q1"), ry(THETA, "q2")]),
            case_on_qubit("q1", {0: rx(THETA, "q2"), 1: Abort(["q1"])}),
            bounded_while_on_qubit("q1", seq([rx(THETA, "q1"), ry(PHI, "q2")]), 2),
            Sum(rx(THETA, "q1"), seq([ry(THETA, "q2"), rz(0.2, "q1")])),
        ]
        for program in programs:
            ancilla = ancilla_name_for(program, THETA)
            derivation = derive(program, THETA, ancilla=ancilla)
            assert check_derivation(
                derivation, ancilla=ancilla, variables=sorted(program.qvars())
            )

    def test_wrong_conclusion_is_rejected(self):
        program = Seq(rx(THETA, "q1"), ry(THETA, "q2"))
        ancilla = "a"
        derivation = derive(program, THETA, ancilla=ancilla)
        # Swap the summands of the conclusion: no longer literally the rule's shape.
        tampered = Derivation(
            derivation.rule,
            Judgement(
                Sum(*reversed(derivation.judgement.derivative.summands)),
                program,
                THETA,
            ),
            derivation.premises,
        )
        with pytest.raises(LogicError):
            check_derivation(tampered, ancilla=ancilla, variables=["q1", "q2"])

    def test_wrong_rule_name_is_rejected(self):
        program = rx(THETA, "q1")
        derivation = derive(program, THETA, ancilla="a")
        tampered = Derivation("Skip", derivation.judgement, derivation.premises)
        with pytest.raises(LogicError):
            check_derivation(tampered, ancilla="a", variables=["q1"])

    def test_premise_for_a_statement_without_the_parameter_is_rejected(self):
        program = seq([rx(THETA, "q1"), ry(PHI, "q2")])
        derivation = derive(program, THETA, ancilla="a")
        extra = derive(ry(PHI, "q2"), THETA, ancilla="a", variables=["q1", "q2"])
        tampered = Derivation(derivation.rule, derivation.judgement, derivation.premises + (extra,))
        with pytest.raises(LogicError):
            check_derivation(tampered, ancilla="a", variables=["q1", "q2"])

    def test_missing_premise_is_rejected(self):
        program = Seq(rx(THETA, "q1"), ry(THETA, "q2"))
        derivation = derive(program, THETA, ancilla="a")
        tampered = Derivation(derivation.rule, derivation.judgement, derivation.premises[:1])
        with pytest.raises(LogicError):
            check_derivation(tampered, ancilla="a", variables=["q1", "q2"])

    def test_trivial_unitary_side_condition(self):
        # Claiming Trivial-Unitary for a gate that *does* use θ must fail.
        program = rx(THETA, "q1")
        bad = Derivation("Trivial-Unitary", Judgement(Abort(("a", "q1")), program, THETA))
        with pytest.raises(LogicError):
            check_derivation(bad, ancilla="a", variables=["q1"])

    def test_unknown_rule_rejected(self):
        bad = Derivation("Magic", Judgement(Abort(("a", "q1")), Skip(["q1"]), THETA))
        with pytest.raises(LogicError):
            check_derivation(bad, ancilla="a", variables=["q1"])


class TestSoundness:
    """Numerical validation of Theorem 6.2 over observables, states and points."""

    def test_soundness_on_control_flow_program(self):
        program = seq(
            [
                rx(THETA, "q1"),
                case_on_qubit("q1", {0: ry(THETA, "q2"), 1: rz(THETA, "q2")}),
            ]
        )
        layout = RegisterLayout(["q1", "q2"])
        cases = [
            (pauli_observable("ZZ"), DensityState.basis_state(layout, {"q1": 0, "q2": 0})),
            (pauli_observable("XZ"), DensityState.basis_state(layout, {"q1": 1, "q2": 0})),
            (pauli_observable("IZ"), DensityState.basis_state(layout, {"q1": 0, "q2": 1})),
        ]
        bindings = [ParameterBinding({THETA: value, PHI: 0.0}) for value in (-1.1, 0.0, 0.4, 2.0)]
        worst = validate_soundness(program, THETA, cases, bindings)
        assert worst < 1e-6

    def test_soundness_on_while_program(self):
        program = seq(
            [rx(THETA, "q1"), bounded_while_on_qubit("q1", seq([ry(THETA, "q2"), rx(0.7, "q1")]), 2)]
        )
        layout = RegisterLayout(["q1", "q2"])
        cases = [(pauli_observable("ZZ"), DensityState.basis_state(layout, {"q1": 1, "q2": 0}))]
        bindings = [ParameterBinding({THETA: 0.9})]
        assert validate_soundness(program, THETA, cases, bindings) < 1e-6

    def test_soundness_strongest_quantifier_order(self):
        """One fixed derivative program works for *every* (O, ρ) pair (Definition 5.3)."""
        program = seq([rx(THETA, "q1"), rxx(THETA, "q1", "q2")])
        layout = RegisterLayout(["q1", "q2"])
        observables = [pauli_observable(label) for label in ("ZZ", "XX", "ZI", "IZ", "YI")]
        states = [
            DensityState.basis_state(layout, {"q1": a, "q2": b}) for a in (0, 1) for b in (0, 1)
        ]
        cases = [(obs, state) for obs in observables for state in states]
        bindings = [ParameterBinding({THETA: 0.37})]
        assert validate_soundness(program, THETA, cases, bindings) < 1e-6
