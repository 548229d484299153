"""Convenience constructors for building programs programmatically.

The AST constructors in :mod:`repro.lang.ast` are deliberately minimal; this
module provides the ergonomic layer used throughout the examples, the VQC
generators, and the tests: n-ary sequencing, rotation shortcuts (``rx``,
``rxx``, ...), and case/while statements guarded by computational-basis
measurements on a single qubit (the only guards the paper's evaluation
uses).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import WellFormednessError
from repro.lang.ast import Case, Program, Seq, Sum, UnitaryApp, While
from repro.lang.gates import Coupling, Gate, Rotation
from repro.lang.parameters import Parameter
from repro.linalg.measurement import Measurement, computational_measurement

Angle = Parameter | float


def seq(programs: Sequence[Program]) -> Program:
    """Sequence a non-empty list of programs: ``seq([a, b, c])`` is ``a; b; c``.

    One program is returned as it is; more build one flat :class:`Seq`.
    """
    programs = tuple(programs)
    if not programs:
        raise WellFormednessError("cannot sequence an empty list of programs")
    return programs[0] if len(programs) == 1 else Seq(*programs)


def sum_programs(programs: Sequence[Program]) -> Program:
    """Combine a non-empty list of programs with the additive choice ``+``."""
    programs = tuple(programs)
    if not programs:
        raise WellFormednessError("cannot sum an empty list of programs")
    return programs[0] if len(programs) == 1 else Sum(*programs)


def apply_gate(gate: Gate, qubits: Sequence[str] | str) -> UnitaryApp:
    """Apply a gate to the given qubits (``q := U(θ)[q]``)."""
    return UnitaryApp(gate, qubits if not isinstance(qubits, str) else (qubits,))


def rx(angle: Angle, qubit: str) -> UnitaryApp:
    """Single-qubit rotation ``R_X(angle)`` on ``qubit``."""
    return UnitaryApp(Rotation("X", angle), (qubit,))


def ry(angle: Angle, qubit: str) -> UnitaryApp:
    """Single-qubit rotation ``R_Y(angle)`` on ``qubit``."""
    return UnitaryApp(Rotation("Y", angle), (qubit,))


def rz(angle: Angle, qubit: str) -> UnitaryApp:
    """Single-qubit rotation ``R_Z(angle)`` on ``qubit``."""
    return UnitaryApp(Rotation("Z", angle), (qubit,))


def rxx(angle: Angle, qubit1: str, qubit2: str) -> UnitaryApp:
    """Two-qubit coupling ``R_{X⊗X}(angle)``."""
    return UnitaryApp(Coupling("XX", angle), (qubit1, qubit2))


def ryy(angle: Angle, qubit1: str, qubit2: str) -> UnitaryApp:
    """Two-qubit coupling ``R_{Y⊗Y}(angle)``."""
    return UnitaryApp(Coupling("YY", angle), (qubit1, qubit2))


def rzz(angle: Angle, qubit1: str, qubit2: str) -> UnitaryApp:
    """Two-qubit coupling ``R_{Z⊗Z}(angle)``."""
    return UnitaryApp(Coupling("ZZ", angle), (qubit1, qubit2))


def case_on_qubit(
    qubit: str,
    branches: Mapping[int, Program],
    measurement: Measurement | None = None,
) -> Case:
    """A ``case`` statement guarded by a computational-basis measurement of one qubit.

    ``branches`` maps the outcomes 0 and 1 to their programs.  A custom
    two-outcome measurement may be supplied instead of the default
    computational one.
    """
    measurement = measurement if measurement is not None else computational_measurement(1)
    return Case(measurement, (qubit,), dict(branches))


def bounded_while_on_qubit(
    qubit: str,
    body: Program,
    bound: int,
    measurement: Measurement | None = None,
) -> While:
    """A ``while(T)`` loop guarded by a computational-basis measurement of one qubit.

    The loop runs ``body`` while the measurement yields 1, for at most
    ``bound`` iterations.
    """
    measurement = measurement if measurement is not None else computational_measurement(1)
    return While(measurement, (qubit,), body, bound)
