"""Resource analysis of programs and of their derivatives (Section 7).

The central quantities are

* ``OC_j(P(θ))`` — the *occurrence count* of parameter θ_j (Definition 7.1):
  the number of non-trivial uses of θ_j, with ``case`` counted by the
  maximum over branches and ``while(T)`` by ``T ×`` the body's count;
* ``|#∂P/∂θ_j|`` — the number of non-aborting programs produced by
  transforming and compiling ``P`` (Definition 4.3), i.e. the number of
  fresh copies of the input state the execution phase needs;
* Proposition 7.2: ``|#∂P/∂θ_j| ≤ OC_j(P(θ))``.

The remaining metrics (#gates, #lines, #layers proxy, #qubits) are the
static size columns of Tables 2 and 3; as in the paper, gate and depth
counts of a bounded loop multiply the body by the bound.
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
)
from repro.lang.parameters import Parameter
from repro.lang.pretty import line_count
from repro.additive.compile import nonaborting_count
from repro.autodiff.transform import differentiate


def occurrence_count(program: Program, parameter: Parameter) -> int:
    """Return ``OC_j(P(θ))``, the occurrence count of Definition 7.1.

    The additive choice is counted like sequencing (the sum of its
    summands), which is the natural extension used when analyzing
    intermediate additive programs; for normal programs the definition
    coincides with the paper's.
    """
    if isinstance(program, (Abort, Skip, Init)):
        return 0
    if isinstance(program, UnitaryApp):
        return 1 if program.gate.uses(parameter) else 0
    if isinstance(program, (Seq, Sum)):
        return sum(occurrence_count(child, parameter) for child in program.children())
    if isinstance(program, Case):
        return max(occurrence_count(branch, parameter) for _, branch in program.branches)
    if isinstance(program, While):
        return program.bound * occurrence_count(program.body, parameter)
    raise SemanticsError(f"unknown program node {type(program).__name__}")


def derivative_program_count(program: Program, parameter: Parameter) -> int:
    """Return ``|#∂P/∂θ_j|`` by actually transforming and compiling the program."""
    return nonaborting_count(differentiate(program, parameter))


def gate_count(program: Program) -> int:
    """Count executed unitary statements, multiplying loop bodies by their bound.

    ``case`` branches are summed (every branch's gates are part of the
    program text and of the compiled circuits), matching the counting used
    for the instances of Table 3.
    """
    if isinstance(program, (Abort, Skip, Init)):
        return 0
    if isinstance(program, UnitaryApp):
        return 1
    if isinstance(program, (Seq, Sum)):
        return sum(map(gate_count, program.children()))
    if isinstance(program, Case):
        return sum(gate_count(branch) for _, branch in program.branches)
    if isinstance(program, While):
        return program.bound * gate_count(program.body)
    raise SemanticsError(f"unknown program node {type(program).__name__}")


def qubit_count(program: Program) -> int:
    """Number of distinct quantum variables the program accesses."""
    return len(program.qvars())


def circuit_depth(program: Program) -> int:
    """A depth proxy: the longest chain of gates on any single variable.

    Gates on disjoint qubits can run in parallel; a loop body contributes
    ``bound`` copies; ``case`` contributes the deepest branch on top of one
    step for the guard measurement.
    """
    depth_by_qubit = _depth_map(program)
    return max(depth_by_qubit.values(), default=0)


def _depth_map(program: Program) -> dict[str, int]:
    if isinstance(program, (Abort, Skip, Init)):
        return {q: 0 for q in program.qvars()}
    if isinstance(program, UnitaryApp):
        return {q: 1 for q in program.qubits}
    if isinstance(program, Seq):
        merged: dict[str, int] = {}
        for statement in program.statements:
            for qubit, depth in _depth_map(statement).items():
                merged[qubit] = merged.get(qubit, 0) + depth
        return merged
    if isinstance(program, (Case, While)):
        if isinstance(program, Case):
            branch_maps = [_depth_map(branch) for _, branch in program.branches]
            repetitions = 1
        else:
            branch_maps = [_depth_map(program.body)]
            repetitions = program.bound
        merged: dict[str, int] = {q: 1 for q in program.qubits}  # the guard measurement
        for branch_map in branch_maps:
            for qubit, depth in branch_map.items():
                merged[qubit] = max(merged.get(qubit, 0), depth * repetitions + 1)
        return merged
    if isinstance(program, Sum):
        merged = {}
        for summand in program.summands:
            for qubit, depth in _depth_map(summand).items():
                merged[qubit] = max(merged.get(qubit, 0), depth)
        return merged
    raise SemanticsError(f"unknown program node {type(program).__name__}")


@dataclass(frozen=True)
class ResourceReport:
    """One row of a Table 2 / Table 3 style resource report."""

    name: str
    occurrence_count: int
    derivative_program_count: int
    gate_count: int
    line_count: int
    layer_count: int
    qubit_count: int

    def satisfies_bound(self) -> bool:
        """Proposition 7.2: the derivative program count never exceeds the occurrence count."""
        return self.derivative_program_count <= self.occurrence_count

    def as_row(self) -> tuple:
        """Return the row as a plain tuple (for table printing)."""
        return (
            self.name,
            self.occurrence_count,
            self.derivative_program_count,
            self.gate_count,
            self.line_count,
            self.layer_count,
            self.qubit_count,
        )


def analyze_program(
    program: Program,
    parameter: Parameter,
    *,
    name: str = "P",
    layer_count: int | None = None,
    measured_derivative_count: int | None = None,
) -> ResourceReport:
    """Compute the full resource report of a program for one parameter.

    ``layer_count`` lets callers (the VQC generators) report their declared
    layer structure; when omitted, the circuit-depth proxy is used.
    ``measured_derivative_count`` lets callers that already hold the compiled
    multiset (e.g. an :class:`repro.api.Estimator`'s program set) supply
    ``|#∂P/∂θ_j|`` instead of paying the transform + compile a second time.
    """
    return ResourceReport(
        name=name,
        occurrence_count=occurrence_count(program, parameter),
        derivative_program_count=(
            measured_derivative_count
            if measured_derivative_count is not None
            else derivative_program_count(program, parameter)
        ),
        gate_count=gate_count(program),
        line_count=line_count(program),
        layer_count=layer_count if layer_count is not None else circuit_depth(program),
        qubit_count=qubit_count(program),
    )
