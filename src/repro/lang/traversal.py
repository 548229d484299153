"""Generic AST traversals and structural transformations.

Utilities shared by the semantics, the resource analysis, and the
differentiation transformation: iterating over sub-programs, rebuilding
trees bottom-up, counting nodes, and expanding bounded while-loops into
their case/sequence macro form (Eq. 3.1).
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import WellFormednessError
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


def children(program: Program) -> tuple[Program, ...]:
    """Return the immediate sub-programs of a node."""
    return program.children()


def iter_subprograms(program: Program) -> Iterator[Program]:
    """Yield the program and every sub-program, in pre-order."""
    yield program
    for child in program.children():
        yield from iter_subprograms(child)


def child_labels(program: Program) -> tuple[str, ...]:
    """Human-readable labels of a node's children, aligned with ``children()``.

    Used by diagnostics to address a sub-program from the root as a *path*
    of labels (``("statement[0]", "branch[1]", "body")``).
    """
    if isinstance(program, Seq):
        return tuple(f"statement[{index}]" for index in range(len(program.statements)))
    if isinstance(program, Sum):
        return tuple(f"summand[{index}]" for index in range(len(program.summands)))
    if isinstance(program, Case):
        return tuple(f"branch[{outcome}]" for outcome, _ in program.branches)
    if isinstance(program, While):
        return ("body",)
    return ()


def iter_with_paths(program: Program) -> Iterator[tuple[tuple[str, ...], Program]]:
    """Yield ``(path, node)`` for the program and every sub-program, pre-order.

    ``path`` is the tuple of :func:`child_labels` entries leading from the
    root to the node; the root itself has the empty path.
    """

    def walk(node: Program, path: tuple[str, ...]) -> Iterator[tuple[tuple[str, ...], Program]]:
        yield path, node
        for label, child in zip(child_labels(node), node.children()):
            yield from walk(child, path + (label,))

    return walk(program, ())


def iter_gate_applications(program: Program) -> Iterator[UnitaryApp]:
    """Yield every unitary statement in the program, in pre-order.

    Loop bodies are yielded once (not ``bound`` times); the resource
    analysis multiplies by the bound separately when counting gates.
    """
    for node in iter_subprograms(program):
        if isinstance(node, UnitaryApp):
            yield node


def program_size(program: Program) -> int:
    """Return the number of AST nodes in the program."""
    return sum(1 for _ in iter_subprograms(program))


def map_program(program: Program, transform: Callable[[Program], Program]) -> Program:
    """Rebuild the tree bottom-up, applying ``transform`` to every rebuilt node.

    ``transform`` receives a node whose children have already been
    transformed and returns its replacement (possibly the node itself).
    """
    if isinstance(program, (Abort, Skip, Init, UnitaryApp)):
        rebuilt: Program = program
    elif isinstance(program, (Seq, Sum)):
        rebuilt = type(program)(*(map_program(child, transform) for child in program.children()))
    elif isinstance(program, Case):
        rebuilt = Case(
            program.measurement,
            program.qubits,
            [(m, map_program(p, transform)) for m, p in program.branches],
        )
    elif isinstance(program, While):
        rebuilt = While(
            program.measurement,
            program.qubits,
            map_program(program.body, transform),
            program.bound,
        )
    else:
        raise WellFormednessError(f"unknown program node {type(program).__name__}")
    return transform(rebuilt)


def unfold_while(loop: While) -> Case:
    """Expand one level of a bounded while-loop into its macro form (Eq. 3.1).

    * ``while(1) M[q]=1 do P done  ≡  case M[q] = 0 → skip, 1 → P; abort end``
    * ``while(T) M[q]=1 do P done  ≡  case M[q] = 0 → skip, 1 → P; while(T−1) end``
    """
    qubits = loop.qubits
    if loop.bound == 1:
        continuation: Program = Seq(loop.body, abort_over(loop.qvars()))
    else:
        continuation = Seq(
            loop.body,
            While(loop.measurement, loop.qubits, loop.body, loop.bound - 1),
        )
    return Case(
        loop.measurement,
        qubits,
        {0: Skip(qubits), 1: continuation},
    )


def fully_unfold_whiles(program: Program) -> Program:
    """Recursively replace every bounded while-loop by its full macro expansion.

    The result contains no :class:`While` node; it is semantically equal to
    the input and is used by analyses that only handle the core constructs.
    """

    def expand(node: Program) -> Program:
        if isinstance(node, While):
            # The freshly built Case still contains a While with a smaller
            # bound; keep expanding until none remain.
            return fully_unfold_whiles(unfold_while(node))
        return node

    return map_program(program, expand)


def contains_while(program: Program) -> bool:
    """Return True when the program contains a bounded while-loop."""
    return any(isinstance(node, While) for node in iter_subprograms(program))


def contains_case(program: Program) -> bool:
    """Return True when the program contains a case statement (or a while loop)."""
    return any(isinstance(node, (Case, While)) for node in iter_subprograms(program))


def is_circuit(program: Program) -> bool:
    """Return True when the program is a pure circuit.

    A circuit in the paper's sense contains only unitary applications,
    ``skip`` and sequencing — no measurement-controlled branching, no loops,
    no initialization, no abort and no additive choice.  The parameter-shift
    baseline of :mod:`repro.baselines.phase_shift` applies exactly to this
    fragment.
    """
    for node in iter_subprograms(program):
        if isinstance(node, (Case, While, Sum, Abort, Init)):
            return False
    return True
