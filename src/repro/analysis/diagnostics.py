"""Structured diagnostics shared by every static analysis.

Analyses historically reported findings by raising ad-hoc errors or
returning bare strings.  This module gives them one vocabulary:

* :class:`Diagnostic` — an immutable finding with a :class:`Severity`, a
  stable machine-readable code (``RPR001`` …), a human message, and the
  *program path* of the offending node (a tuple of child labels from the
  root, e.g. ``("statement[0]", "branch[1]", "statement[2]")``), so tools can point at
  the exact subprogram without source spans;
* :class:`DiagnosticBag` — an ordered collector that analyses append to
  and callers query (``has_errors``, ``max_severity``) or render
  (:meth:`DiagnosticBag.format`).

The ``python -m repro.analysis`` CLI prints these for parsed files and
exits nonzero when any :attr:`Severity.ERROR` finding is present.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lang.ast import Program

__all__ = [
    "Diagnostic",
    "DiagnosticBag",
    "Severity",
]


class Severity(enum.IntEnum):
    """Diagnostic severity; ordered so ``max()`` picks the worst finding."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One immutable analysis finding.

    ``path`` addresses the offending node from the program root via child
    labels (``"statement[i]"`` for the statements of a ``;`` chain,
    ``"branch[m]"`` for ``case`` arms, ``"body"`` for ``while``,
    ``"summand[i]"`` for the summands of a ``+`` chain); an empty path means
    the root.  ``node`` carries the subprogram
    itself for programmatic consumers but does not participate in equality,
    so structurally identical findings on distinct parses compare equal.
    ``source`` names the file (or other origin) when the program came from
    the parser-based CLI.
    """

    severity: Severity
    code: str
    message: str
    path: tuple[str, ...] = ()
    node: Program | None = field(default=None, compare=False)
    source: str | None = None

    def format(self) -> str:
        """``source: severity CODE: message (at path)`` — one line."""
        origin = f"{self.source}: " if self.source else ""
        where = f" (at {'/'.join(self.path)})" if self.path else ""
        return f"{origin}{self.severity.label} {self.code}: {self.message}{where}"

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.format()


class DiagnosticBag:
    """An ordered, appendable collection of :class:`Diagnostic` findings."""

    __slots__ = ("_diagnostics",)

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self._diagnostics: list[Diagnostic] = list(diagnostics)

    def add(self, diagnostic: Diagnostic) -> None:
        self._diagnostics.append(diagnostic)

    def report(
        self,
        severity: Severity,
        code: str,
        message: str,
        *,
        path: tuple[str, ...] = (),
        node: Program | None = None,
        source: str | None = None,
    ) -> Diagnostic:
        """Construct, append, and return a new finding."""
        diagnostic = Diagnostic(
            severity=severity,
            code=code,
            message=message,
            path=path,
            node=node,
            source=source,
        )
        self._diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: "DiagnosticBag | Iterable[Diagnostic]") -> None:
        self._diagnostics.extend(other)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._diagnostics)

    def __len__(self) -> int:
        return len(self._diagnostics)

    def __bool__(self) -> bool:
        return bool(self._diagnostics)

    def __getitem__(self, index):
        return self._diagnostics[index]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self._diagnostics if d.severity >= Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self._diagnostics if d.severity == Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity >= Severity.ERROR for d in self._diagnostics)

    @property
    def max_severity(self) -> Severity | None:
        if not self._diagnostics:
            return None
        return max(d.severity for d in self._diagnostics)

    def by_code(self, code: str) -> list[Diagnostic]:
        """All findings carrying ``code`` (test and tooling convenience)."""
        return [d for d in self._diagnostics if d.code == code]

    def format(self) -> str:
        """All findings, one :meth:`Diagnostic.format` line each."""
        return "\n".join(d.format() for d in self._diagnostics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        worst = self.max_severity
        return (
            f"DiagnosticBag({len(self._diagnostics)} finding(s)"
            f"{', worst=' + worst.label if worst else ''})"
        )
