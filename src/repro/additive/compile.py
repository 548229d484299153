"""Compilation of additive programs into multisets of normal programs (Figure 3).

``compile_additive`` turns an additive program ``P(θ)`` into the multiset
``Compile(P(θ))`` of normal ``q-while(T)`` programs whose executions,
together, realize the multiset semantics of the additive program
(Proposition 4.2).  The rules follow Figure 3 of the paper:

* **Atomic** statements compile to themselves.
* **Sequence** ``S₁; …; Sₙ`` compiles to every composition of one member
  of each statement's compilation, in order (the first statement's member
  varies slowest), collapsing to ``{|abort|}`` when any statement compiles
  to ``{|abort|}``.  The figure's binary rule, applied along any nesting of
  the chain, gives this same list.
* **Case** uses the *fill-and-break* procedure: each branch's non-aborting
  programs are padded with ``abort`` up to the longest branch and the
  ``case`` is broken into that many normal ``case`` programs.
* **While** is compiled through its case/sequence macro expansion.
* **Sum** ``P₁ + … + Pₙ`` compiles to the multiset union of the summands'
  compilations, dropping summands that compile to ``{|abort|}``.

A program compiles to ``{|abort|}`` exactly when it essentially aborts, so
each rule's abort case is one test of the verdict its node stores, and
every rule is one loop over the node's children: nothing recurses once per
statement of a chain.

The implementation applies the optimization the paper describes around
Definition 3.2: a sub-program that is already a *normal* program compiles to
itself when it does not essentially abort and to the canonical ``abort``
when it does.  This is semantically identical to running the structural
rules all the way down (it also keeps bounded while-loops intact instead of
macro-expanding them), and it is what makes compilation cheap on the large
benchmark instances.
"""

from __future__ import annotations

from itertools import product

from repro.errors import CompilationError
from repro.lang.ast import (
    Abort,
    Case,
    Program,
    Seq,
    Sum,
    While,
    abort_over,
)
from repro.lang.traversal import unfold_while
from repro.additive.essential_abort import essentially_aborts


def canonical_abort(program: Program) -> Abort:
    """Return the canonical ``abort[v]`` over the program's accessible variables.

    It is the one shared node :func:`repro.lang.ast.abort_over` keeps for
    that variable set.
    """
    variables = program.qvars()
    if not variables:
        raise CompilationError("cannot build an abort statement over an empty variable set")
    return abort_over(variables)


def compile_additive(program: Program) -> list[Program]:
    """Return ``Compile(P(θ))`` as a list (multiset) of normal programs.

    The result is either the singleton ``[abort[v]]`` or a list of programs
    none of which essentially aborts — the invariant noted in Figure 3's
    caption.  Compilation is parameter-independent, so an additive program
    files its multiset in its own memo and compiles once.
    """
    if not program.is_additive():
        # Itself or its canonical abort, in O(1): a memo holding the program
        # itself would only add a reference cycle.
        return _compile(program)
    members = program.memo.get("compile")
    if members is None:
        result = _compile(program)
        _check_invariant(result)
        members = program.memo.setdefault("compile", tuple(result))
    return list(members)


def nonaborting_count(program: Program) -> int:
    """Return ``|#P(θ)|``, the number of compiled programs that do not essentially abort.

    Definition 4.3; for the additive programs produced by differentiation
    this is the number of distinct quantum programs (and hence of fresh
    copies of the input state) the execution phase needs.
    """
    return sum(1 for compiled in compile_additive(program) if not essentially_aborts(compiled))


# -- internal rules --------------------------------------------------------------


def _compile(program: Program) -> list[Program]:
    if essentially_aborts(program):
        return [canonical_abort(program)]
    if not program.is_additive():
        # Normal-program fast path (see module docstring).
        return [program]
    if isinstance(program, Sum):
        return [member for summand in program.summands for member in _nonaborting(summand)]
    if isinstance(program, Seq):
        options = [
            _compile(statement) if statement.is_additive() else (statement,)
            for statement in program.statements
        ]
        return [Seq(*choice) for choice in product(*options)]
    if isinstance(program, Case):
        return _compile_case(program)
    if isinstance(program, While):
        return _compile(unfold_while(program))
    raise CompilationError(f"unknown program node {type(program).__name__}")


def _nonaborting(program: Program) -> list[Program]:
    """The non-aborting members of ``Compile(program)``: all of them, or none."""
    return [] if essentially_aborts(program) else _compile(program)


def _compile_case(program: Case) -> list[Program]:
    """The fill-and-break procedure of Figure 3b."""
    non_aborting = {outcome: _nonaborting(branch) for outcome, branch in program.branches}
    width = max(len(programs) for programs in non_aborting.values())
    filler = canonical_abort(program)
    padded = {
        outcome: programs + [filler] * (width - len(programs))
        for outcome, programs in non_aborting.items()
    }
    broken: list[Program] = []
    for index in range(width):
        branches = {outcome: padded[outcome][index] for outcome, _ in program.branches}
        broken.append(Case(program.measurement, program.qubits, branches))
    return broken


def _check_invariant(compiled: list[Program]) -> None:
    if not compiled:
        raise CompilationError("compilation produced an empty multiset")
    if len(compiled) == 1 and isinstance(compiled[0], Abort):
        return
    for program in compiled:
        if program.is_additive():
            raise CompilationError("compilation left an additive '+' in the output")
        if essentially_aborts(program):
            raise CompilationError(
                "compilation produced an essentially aborting program outside the "
                "canonical {|abort|} case"
            )
