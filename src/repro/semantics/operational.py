"""Small-step operational semantics (Figure 1a and Figure 2).

Configurations are pairs ``⟨P, ρ⟩`` of a remaining program (or the empty
program ``↓``) and a partial density operator; the probabilities of
measurement outcomes are encoded in the (sub-normalized) trace of ρ, so the
transition relation itself is non-probabilistic.  ``case`` statements (and
the guard of ``while``) step once per outcome; the additive choice steps
once per summand (the Sum-Components rule).  The multiset of terminal states
reachable from ``⟨P, ρ⟩`` therefore realizes exactly the right-hand side of
Proposition 3.1 (normal programs) and Definition 4.1 (additive programs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SemanticsError
from repro.lang.ast import (
    Abort,
    Case,
    Init,
    Program,
    Seq,
    Skip,
    Sum,
    UnitaryApp,
    While,
    abort_over,
)
from repro.lang.builder import seq
from repro.lang.gates import bound_gate_matrix
from repro.lang.parameters import ParameterBinding
from repro.sim.density import DensityState


@dataclass(frozen=True, eq=False)
class Configuration:
    """A configuration ``⟨P, ρ⟩``; ``program is None`` encodes the empty program ``↓``."""

    program: Program | None
    state: DensityState

    @property
    def is_terminal(self) -> bool:
        """True when the configuration is ``⟨↓, ρ⟩``."""
        return self.program is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.program == other.program and self.state == other.state


def step(config: Configuration, binding: ParameterBinding | None = None) -> list[Configuration]:
    """Return every configuration reachable from ``config`` in exactly one step.

    Terminal configurations have no successors.  ``case`` produces one
    successor per measurement outcome and ``+`` one per summand; every other
    statement is deterministic.
    """
    if config.is_terminal:
        return []
    program = config.program
    state = config.state
    assert program is not None

    if isinstance(program, Abort):
        return [Configuration(None, DensityState.null_state(state.layout))]
    if isinstance(program, Skip):
        return [Configuration(None, state)]
    if isinstance(program, Init):
        return [Configuration(None, state.initialize(program.qubit))]
    if isinstance(program, UnitaryApp):
        evolved = state.apply_unitary(bound_gate_matrix(program.gate, binding), program.qubits)
        return [Configuration(None, evolved)]
    if isinstance(program, Seq):
        first, *rest = program.statements
        successors = []
        for inner in step(Configuration(first, state), binding):
            if inner.is_terminal:
                successors.append(Configuration(seq(rest), inner.state))
            else:
                successors.append(Configuration(Seq(inner.program, *rest), inner.state))
        return successors
    if isinstance(program, Case):
        successors = []
        for outcome, branch in program.branches:
            branch_state = state.measurement_branch(program.measurement, program.qubits, outcome)
            successors.append(Configuration(branch, branch_state))
        return successors
    if isinstance(program, While):
        terminated = state.measurement_branch(program.measurement, program.qubits, 0)
        continuing = state.measurement_branch(program.measurement, program.qubits, 1)
        successors = [Configuration(None, terminated)]
        if program.bound >= 2:
            rest: Program = While(
                program.measurement, program.qubits, program.body, program.bound - 1
            )
            successors.append(Configuration(Seq(program.body, rest), continuing))
        else:
            # while(1): one more body execution followed by abort (Eq. 3.1).
            abort = abort_over(program.qvars())
            successors.append(Configuration(Seq(program.body, abort), continuing))
        return successors
    if isinstance(program, Sum):
        return [Configuration(summand, state) for summand in program.summands]
    raise SemanticsError(f"unknown program node {type(program).__name__}")


def run_to_terminals(
    program: Program,
    state: DensityState,
    binding: ParameterBinding | None = None,
    *,
    max_steps: int = 1_000_000,
) -> list[Configuration]:
    """Exhaustively explore the transition system and return all terminal configurations.

    The returned list is a multiset: syntactically different execution paths
    contribute separate entries even when they reach numerically equal
    states, matching the multiset conventions of Proposition 3.1 and
    Definition 4.1.
    """
    pending = [Configuration(program, state)]
    terminals: list[Configuration] = []
    steps_taken = 0
    while pending:
        config = pending.pop()
        if config.is_terminal:
            terminals.append(config)
            continue
        steps_taken += 1
        if steps_taken > max_steps:
            raise SemanticsError(
                f"operational exploration exceeded {max_steps} steps; "
                "the program's branching is too large for exhaustive execution"
            )
        pending.extend(step(config, binding))
    return terminals


def terminal_states(
    program: Program,
    state: DensityState,
    binding: ParameterBinding | None = None,
    *,
    drop_null: bool = False,
) -> list[DensityState]:
    """Return the multiset of terminal states ``{| ρ' : ⟨P, ρ⟩ →* ⟨↓, ρ'⟩ |}``.

    ``drop_null=True`` removes (numerically) zero states, as done on both
    sides of Proposition 4.2.
    """
    states = [config.state for config in run_to_terminals(program, state, binding)]
    if drop_null:
        states = [s for s in states if not s.is_null()]
    return states


def operational_denotation(
    program: Program,
    state: DensityState,
    binding: ParameterBinding | None = None,
) -> DensityState:
    """Sum the terminal multiset into a single state (left side of Prop. 3.1).

    For normal programs this equals the denotational semantics; tests use the
    agreement as a cross-validation of the two evaluators.
    """
    total = DensityState.null_state(state.layout)
    for terminal in terminal_states(program, state, binding):
        total = total.add(terminal)
    return total
