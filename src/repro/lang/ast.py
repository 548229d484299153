"""Abstract syntax of parameterized quantum bounded while-programs.

The node set follows the grammar of Section 3.1::

    P(θ) ::= abort[q] | skip[q] | q := |0⟩ | q := U(θ)[q]
           | P₁(θ); P₂(θ)
           | case M[q] = m → P_m(θ) end
           | while(T) M[q] = 1 do P₁(θ) done

plus the additive choice ``P₁(θ) + P₂(θ)`` of Section 4.  A *normal* program
is one that contains no :class:`Sum` node; an *additive* program may contain
them.  The same node classes serve both languages — the paper's additive
language is a strict superset — and :func:`repro.lang.wellformed.
assert_normal_program` enforces the distinction where it matters.

``;`` and ``+`` are associative, so :class:`Seq` and :class:`Sum` are
n-ary: ``Seq(S₁, …, Sₙ)`` holds its statements in one flat tuple, splicing
in any ``Seq`` it is given, and ``Sum`` does the same with its summands.
A chain of any nesting is one node, every walker loops over its children
instead of recursing once per statement, and the tree has one shape per
program text.

All nodes are immutable; program transformations build new trees.  Each
constructor stores the node's *facts*, built from its children's stored
facts without recursing: qVar (Appendix B.1), the parameters, additivity,
and the "essentially aborts" verdict of Definition 3.2.  A program has few
distinct variable and parameter sets, so its nodes share them through one
bounded intern, and the canonical ``abort[v]`` that the Figure 4 transform
and the Figure 3 compile emit for a variable set ``v`` is one shared node
from a second one (:func:`abort_over`).  Equal nodes may therefore be one
object: compare nodes with ``==``.  Results derived from a node — analysis
reports, its wire digest, its compiled multiset — live in the node's own
:attr:`Program.memo`.  Pickling re-runs the constructor, so facts and memos
never enter a pickle; a ``Seq`` or ``Sum`` pickles as its flat tuple of
children.  Variable names are interned, so equal programs pickle alike.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Sequence

from repro.errors import WellFormednessError
from repro.lang.gates import Gate
from repro.lang.parameters import Parameter
from repro.linalg.measurement import Measurement

_EMPTY: frozenset = frozenset()


@lru_cache(maxsize=4096)
def _shared(items: frozenset) -> frozenset:
    """The one stored set equal to ``items``, shared by every node that has it."""
    return items


def _join(a: frozenset, b: frozenset) -> frozenset:
    """The shared union of two shared sets: no new set when one holds the other."""
    if b <= a:
        return a
    if a <= b:
        return b
    return _shared(a | b)


#: How a constructor sets the fields and facts of its frozen node.
_set = object.__setattr__


class Program:
    """Base class of all program AST nodes.

    Each constructor stores the node's facts ``_qvars``, ``_parameters``,
    ``_additive`` and ``_aborts`` (the Definition 3.2 verdict that
    :func:`repro.additive.essentially_aborts` returns); a fact that is the
    same for every node of a type is a class attribute.
    """

    _parameters = _EMPTY
    _additive = False
    _aborts = False

    def qvars(self) -> frozenset[str]:
        """Return qVar(P), the set of quantum variables accessible to the program.

        Follows the recursive definition of Appendix B.1, applied once per
        node at construction.
        """
        return self._qvars

    def parameters(self) -> frozenset[Parameter]:
        """Return every symbolic parameter occurring in the program."""
        return self._parameters

    def children(self) -> tuple["Program", ...]:
        """Return the immediate sub-programs of this node."""
        return ()

    def is_additive(self) -> bool:
        """Return True when the program contains at least one ``+`` node."""
        return self._additive

    @cached_property
    def memo(self) -> dict:
        """Results derived from this node, each filed under its own key by
        the module that derives it.  They die with the node and are never
        pickled, compared or hashed."""
        return {}

    def __reduce__(self):
        """Rebuild through the constructor, so facts and memos are never pickled."""
        return (type(self), tuple(getattr(self, field.name) for field in fields(self)))

    def __str__(self) -> str:
        from repro.lang.pretty import pretty_print

        return pretty_print(self)


@dataclass(frozen=True)
class Abort(Program):
    """``abort[q]`` — terminate, producing the zero partial density operator."""

    qubits: tuple[str, ...]

    _aborts = True

    def __init__(self, qubits: Sequence[str]):
        qubits = _normalize_qubits(qubits)
        _set(self, "qubits", qubits)
        _set(self, "_qvars", _shared(frozenset(qubits)))


@dataclass(frozen=True)
class Skip(Program):
    """``skip[q]`` — do nothing."""

    qubits: tuple[str, ...]

    def __init__(self, qubits: Sequence[str]):
        qubits = _normalize_qubits(qubits)
        _set(self, "qubits", qubits)
        _set(self, "_qvars", _shared(frozenset(qubits)))


@dataclass(frozen=True)
class Init(Program):
    """``q := |0⟩`` — reset one quantum variable to the basis state ``|0⟩``."""

    qubit: str

    def __init__(self, qubit: str):
        if not qubit:
            raise WellFormednessError("initialization requires a variable name")
        qubit = _name(qubit)
        _set(self, "qubit", qubit)
        _set(self, "_qvars", _shared(frozenset((qubit,))))


@dataclass(frozen=True)
class UnitaryApp(Program):
    """``q := U(θ)[q]`` — apply a (possibly parameterized) unitary gate."""

    gate: Gate
    qubits: tuple[str, ...]

    def __init__(self, gate: Gate, qubits: Sequence[str]):
        qubits = _normalize_qubits(qubits)
        if len(qubits) != gate.arity:
            raise WellFormednessError(
                f"gate {gate.display()} acts on {gate.arity} qubit(s) "
                f"but {len(qubits)} were given: {qubits}"
            )
        _set(self, "gate", gate)
        _set(self, "qubits", qubits)
        _set(self, "_qvars", _shared(frozenset(qubits)))
        _set(self, "_parameters", _shared(frozenset(gate.parameters())))


@dataclass(frozen=True)
class Seq(Program):
    """``S₁(θ); …; Sₙ(θ)`` — sequential composition of ``n ≥ 2`` statements.

    ``;`` is associative, so the node is n-ary: a ``Seq`` given as a
    statement is spliced in, and ``Seq(Seq(a, b), c) == Seq(a, Seq(b, c))``.
    No statement of a ``Seq`` is itself a ``Seq``.
    """

    statements: tuple[Program, ...]

    def __init__(self, *statements: Program):
        statements = _spliced(Seq, statements)
        _set(self, "statements", statements)
        _set(self, "_qvars", reduce(_join, (s._qvars for s in statements)))
        _set(self, "_parameters", reduce(_join, (s._parameters for s in statements)))
        _set(self, "_additive", any(s._additive for s in statements))
        _set(self, "_aborts", any(s._aborts for s in statements))

    def children(self) -> tuple[Program, ...]:
        return self.statements

    def __reduce__(self):
        return (Seq, self.statements)


@dataclass(frozen=True)
class Case(Program):
    """``case M[q] = m → P_m(θ) end`` — measurement-controlled branching.

    ``branches`` associates every outcome of the measurement with the program
    executed when that outcome is observed.
    """

    measurement: Measurement
    qubits: tuple[str, ...]
    branches: tuple[tuple[int, Program], ...]

    def __init__(
        self,
        measurement: Measurement,
        qubits: Sequence[str],
        branches: Sequence[tuple[int, Program]] | dict[int, Program],
    ):
        qubits = _normalize_qubits(qubits)
        if isinstance(branches, dict):
            items = tuple(sorted(branches.items()))
        else:
            items = tuple(sorted((int(m), p) for m, p in branches))
        outcomes = tuple(m for m, _ in items)
        if len(set(outcomes)) != len(outcomes):
            raise WellFormednessError(f"duplicate case branches for outcomes {outcomes}")
        if set(outcomes) != set(measurement.outcomes):
            raise WellFormednessError(
                f"case branches {sorted(outcomes)} do not cover the measurement outcomes "
                f"{sorted(measurement.outcomes)}"
            )
        programs = [program for _, program in items]
        _set(self, "measurement", measurement)
        _set(self, "qubits", qubits)
        _set(self, "branches", items)
        qvars = reduce(_join, (p._qvars for p in programs), _shared(frozenset(qubits)))
        _set(self, "_qvars", qvars)
        _set(self, "_parameters", reduce(_join, (p._parameters for p in programs), _EMPTY))
        _set(self, "_additive", any(p._additive for p in programs))
        _set(self, "_aborts", all(p._aborts for p in programs))

    def branch(self, outcome: int) -> Program:
        """Return the program executed for a given measurement outcome."""
        for m, program in self.branches:
            if m == outcome:
                return program
        raise WellFormednessError(f"no branch for outcome {outcome}")

    def children(self) -> tuple[Program, ...]:
        return tuple(program for _, program in self.branches)


@dataclass(frozen=True)
class While(Program):
    """``while(T) M[q] = 1 do P₁(θ) done`` — T-bounded loop.

    The measurement must be two-outcome (0 terminates, 1 runs the body); the
    loop iterates at most ``bound`` times, aborting if the guard is still 1
    after the last permitted iteration, exactly as the macro expansion of
    Eq. (3.1) prescribes.  Its 0-branch is ``skip``, so a loop never
    essentially aborts.
    """

    measurement: Measurement
    qubits: tuple[str, ...]
    body: Program
    bound: int

    def __init__(
        self,
        measurement: Measurement,
        qubits: Sequence[str],
        body: Program,
        bound: int,
    ):
        qubits = _normalize_qubits(qubits)
        bound = int(bound)
        if bound < 1:
            raise WellFormednessError(f"a bounded while needs bound ≥ 1, got {bound}")
        if set(measurement.outcomes) != {0, 1}:
            raise WellFormednessError(
                "the guard measurement of a while loop must have outcomes {0, 1}, "
                f"got {sorted(measurement.outcomes)}"
            )
        _set(self, "measurement", measurement)
        _set(self, "qubits", qubits)
        _set(self, "body", body)
        _set(self, "bound", bound)
        _set(self, "_qvars", _join(_shared(frozenset(qubits)), body._qvars))
        _set(self, "_parameters", body._parameters)
        _set(self, "_additive", body._additive)

    def children(self) -> tuple[Program, ...]:
        return (self.body,)


@dataclass(frozen=True)
class Sum(Program):
    """``P₁(θ) + … + Pₙ(θ)`` — the additive (either-or) choice of Section 4.

    Like :class:`Seq`, n-ary (``n ≥ 2``) with nested sums spliced in: ``+``
    is associative, and the compiled multiset is the union of the summands'.
    """

    summands: tuple[Program, ...]

    _additive = True

    def __init__(self, *summands: Program):
        summands = _spliced(Sum, summands)
        _set(self, "summands", summands)
        _set(self, "_qvars", reduce(_join, (s._qvars for s in summands)))
        _set(self, "_parameters", reduce(_join, (s._parameters for s in summands)))
        _set(self, "_aborts", all(s._aborts for s in summands))

    def children(self) -> tuple[Program, ...]:
        return self.summands

    def __reduce__(self):
        return (Sum, self.summands)


def _spliced(node_type: type, parts: tuple[Program, ...]) -> tuple[Program, ...]:
    """``parts`` with every ``node_type`` child replaced by its own children,
    which are flat already; at least two remain."""
    if any(type(part) is node_type for part in parts):
        parts = tuple(
            child
            for part in parts
            for child in (part.children() if type(part) is node_type else (part,))
        )
    if len(parts) < 2:
        raise WellFormednessError(f"{node_type.__name__} needs at least two children")
    return parts


def abort_over(variables: Iterable[str]) -> Abort:
    """The canonical ``abort[v]`` over the variable set ``v``, names sorted.

    The Trivial rules of Figure 4 and the Figure 3 compile emit one such
    statement per rule application, over the few variable sets a program
    has; each set's statement is built once, in a bounded intern keyed by
    the set's content, and shared by every caller.
    """
    return _interned_abort(frozenset(variables))


@lru_cache(maxsize=4096)
def _interned_abort(variables: frozenset) -> Abort:
    return Abort(sorted(variables))


def _name(qubit) -> str:
    """A variable name as the one interned string of its content, so equal
    programs pickle, and so digest, alike however their names were made."""
    return sys.intern(str(qubit))


def _normalize_qubits(qubits: Sequence[str]) -> tuple[str, ...]:
    if isinstance(qubits, str):
        qubits = (qubits,)
    names = tuple(map(_name, qubits))
    if not names:
        raise WellFormednessError("a statement must mention at least one quantum variable")
    if "" in names:
        raise WellFormednessError(f"quantum variables require a name, got {names}")
    if len(set(names)) != len(names):
        raise WellFormednessError(f"quantum variables must be distinct, got {names}")
    return names
