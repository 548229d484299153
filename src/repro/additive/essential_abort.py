"""The "essentially aborts" predicate (Definition 3.2).

A program essentially aborts when it is semantically the zero map even
though it is not syntactically ``abort``:

1. ``abort[q]`` essentially aborts;
2. ``P₁; …; Pₙ`` essentially aborts when any statement does;
3. ``case M[q] = m → P_m end`` essentially aborts when every branch does.

Everything else — ``skip``, initialization, unitaries, bounded while-loops —
does not essentially abort (a while-loop's 0-branch is ``skip``, so its
macro expansion never satisfies clause 3).  For additive programs we extend
the definition in the natural way: ``P₁ + … + Pₙ`` essentially aborts when
every summand does, which is exactly the condition under which Figure 3's
Sum rule collapses the compilation to ``{|abort|}``.
"""

from __future__ import annotations

from repro.lang.ast import Program


def essentially_aborts(program: Program) -> bool:
    """Return True when the program essentially aborts (Definition 3.2).

    Each node applies the rules above once, in its constructor, to its
    children's stored verdicts; this returns the stored verdict.
    """
    return program._aborts
