"""Parser for the concrete surface syntax.

A hand-written tokenizer and recursive-descent parser that accepts exactly
the language produced by :mod:`repro.lang.pretty`.  The parser is used by
tests (round-trip properties), by the examples (programs written as text),
and indirectly by the "#lines" metric which requires a well-defined concrete
syntax.

Grammar (EBNF)::

    program   ::= statement (';' statement)* [';']
    statement ::= 'abort' '[' qubits ']'
                | 'skip'  '[' qubits ']'
                | qubits ':=' rhs
                | 'case' NAME '[' qubits ']' '=' branch+ 'end'
                | 'while' '(' INT ')' NAME '[' qubits ']' '=' INT 'do' program 'done'
                | block ('+' block)+
    rhs       ::= '|0>'
                | NAME ['(' angle ')'] '[' qubits ']'
    branch    ::= INT '->' block
    block     ::= '{' program '}'
    qubits    ::= NAME (',' NAME)*
    angle     ::= NAME | NUMBER

Measurement names resolve to computational-basis measurements on the listed
qubits by default; other measurements can be supplied through the
``measurements`` argument of :func:`parse_program`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ParseError
from repro.lang.ast import Abort, Case, Init, Program, Skip, Sum, UnitaryApp, While
from repro.lang.builder import seq
from repro.lang.gates import (
    FIXED_GATE_REGISTRY,
    ControlledCoupling,
    ControlledRotation,
    Coupling,
    Gate,
    Rotation,
)
from repro.lang.parameters import Parameter
from repro.linalg.measurement import Measurement, computational_measurement

_TOKEN_SPEC = [
    ("KET0", r"\|0>"),
    ("ASSIGN", r":="),
    ("ARROW", r"->"),
    ("NUMBER", r"-?\d+\.\d+(e[+-]?\d+)?|-?\d+e[+-]?\d+|-?\d+"),
    ("NAME", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("LBRACKET", r"\["),
    ("RBRACKET", r"\]"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("COMMA", r","),
    ("SEMI", r";"),
    ("EQUALS", r"="),
    ("PLUS", r"\+"),
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"//[^\n]*"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))

_KEYWORDS = {"abort", "skip", "case", "end", "while", "do", "done"}


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    kind: str
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, skipping whitespace and ``//`` comments."""
    tokens: list[Token] = []
    line = 1
    line_start = 0
    position = 0
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:
            column = position - line_start + 1
            raise ParseError(f"unexpected character {source[position]!r} at {line}:{column}")
        kind = match.lastgroup or ""
        text = match.group()
        if kind not in ("WS", "COMMENT"):
            column = match.start() - line_start + 1
            if kind == "NAME" and text in _KEYWORDS:
                kind = text.upper()
            tokens.append(Token(kind, text, line, column))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + text.rfind("\n") + 1
        position = match.end()
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: Sequence[Token], measurements: Mapping[str, Measurement]):
        self._tokens = list(tokens)
        self._index = 0
        self._measurements = dict(measurements)

    # -- token helpers --------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "EOF":
            self._index += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} but found {token.kind}({token.text!r}) "
                f"at {token.line}:{token.column}"
            )
        return self._advance()

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(f"{message} at {token.line}:{token.column} (near {token.text!r})")

    # -- grammar --------------------------------------------------------------

    def parse_program(self) -> Program:
        program = self._parse_sequence(terminators=("EOF",))
        self._expect("EOF")
        return program

    def _parse_sequence(self, terminators: tuple[str, ...]) -> Program:
        statements = [self._parse_statement()]
        while True:
            if self._peek().kind == "SEMI":
                self._advance()
                if self._peek().kind in terminators:
                    break
                statements.append(self._parse_statement())
            elif self._peek().kind in terminators:
                break
            else:
                raise self._error("expected ';' or end of block")
        return seq(statements)

    def _parse_statement(self) -> Program:
        token = self._peek()
        if token.kind == "ABORT":
            self._advance()
            return Abort(self._parse_bracketed_qubits())
        if token.kind == "SKIP":
            self._advance()
            return Skip(self._parse_bracketed_qubits())
        if token.kind == "CASE":
            return self._parse_case()
        if token.kind == "WHILE":
            return self._parse_while()
        if token.kind == "LBRACE":
            return self._parse_sum()
        if token.kind == "NAME":
            return self._parse_assignment()
        raise self._error("expected a statement")

    def _parse_bracketed_qubits(self) -> tuple[str, ...]:
        self._expect("LBRACKET")
        qubits = [self._expect("NAME").text]
        while self._peek().kind == "COMMA":
            self._advance()
            qubits.append(self._expect("NAME").text)
        self._expect("RBRACKET")
        return tuple(qubits)

    def _parse_assignment(self) -> Program:
        qubits = [self._expect("NAME").text]
        while self._peek().kind == "COMMA":
            self._advance()
            qubits.append(self._expect("NAME").text)
        self._expect("ASSIGN")
        if self._peek().kind == "KET0":
            self._advance()
            if len(qubits) != 1:
                raise self._error("initialization assigns |0> to exactly one variable")
            return Init(qubits[0])
        gate = self._parse_gate()
        targets = self._parse_bracketed_qubits()
        if tuple(qubits) != targets:
            raise self._error(
                f"assignment targets {tuple(qubits)} differ from gate operands {targets}"
            )
        return UnitaryApp(gate, targets)

    def _parse_gate(self) -> Gate:
        name_token = self._expect("NAME")
        name = name_token.text
        angle = None
        if self._peek().kind == "LPAREN":
            self._advance()
            angle_token = self._peek()
            if angle_token.kind == "NUMBER":
                self._advance()
                angle = float(angle_token.text)
            elif angle_token.kind == "NAME":
                self._advance()
                angle = Parameter(angle_token.text)
            else:
                raise self._error("expected a parameter name or number as gate angle")
            self._expect("RPAREN")
        return _build_gate(name, angle, name_token)

    def _parse_case(self) -> Case:
        self._expect("CASE")
        measurement_name = self._expect("NAME").text
        qubits = self._parse_bracketed_qubits()
        self._expect("EQUALS")
        branches: dict[int, Program] = {}
        while self._peek().kind == "NUMBER":
            outcome = int(self._advance().text)
            self._expect("ARROW")
            branches[outcome] = self._parse_block()
        self._expect("END")
        if not branches:
            raise self._error("a case statement needs at least one branch")
        measurement = self._resolve_measurement(measurement_name, qubits)
        return Case(measurement, qubits, branches)

    def _parse_while(self) -> While:
        self._expect("WHILE")
        self._expect("LPAREN")
        bound = int(self._expect("NUMBER").text)
        self._expect("RPAREN")
        measurement_name = self._expect("NAME").text
        qubits = self._parse_bracketed_qubits()
        self._expect("EQUALS")
        guard_value = int(self._expect("NUMBER").text)
        if guard_value != 1:
            raise self._error("while loops iterate on guard outcome 1")
        self._expect("DO")
        body = self._parse_sequence(terminators=("DONE",))
        self._expect("DONE")
        measurement = self._resolve_measurement(measurement_name, qubits)
        return While(measurement, qubits, body, bound)

    def _parse_sum(self) -> Program:
        summands = [self._parse_block()]
        while self._peek().kind == "PLUS":
            self._advance()
            summands.append(self._parse_block())
        if len(summands) < 2:
            raise self._error("an additive statement needs at least two summands")
        return Sum(*summands)

    def _parse_block(self) -> Program:
        self._expect("LBRACE")
        program = self._parse_sequence(terminators=("RBRACE",))
        self._expect("RBRACE")
        return program

    def _resolve_measurement(self, name: str, qubits: tuple[str, ...]) -> Measurement:
        if name in self._measurements:
            return self._measurements[name]
        if name in ("M", "M_comp1") or name.startswith("M_comp"):
            return computational_measurement(len(qubits))
        raise ParseError(
            f"unknown measurement {name!r}; pass it via the 'measurements' argument"
        )


def _build_gate(name: str, angle, token: Token) -> Gate:
    upper = name.upper()
    if upper in FIXED_GATE_REGISTRY:
        if angle is not None:
            raise ParseError(f"gate {name} takes no angle (at {token.line}:{token.column})")
        return FIXED_GATE_REGISTRY[upper]()
    parameterized = {
        "RX": lambda a: Rotation("X", a),
        "RY": lambda a: Rotation("Y", a),
        "RZ": lambda a: Rotation("Z", a),
        "RXX": lambda a: Coupling("XX", a),
        "RYY": lambda a: Coupling("YY", a),
        "RZZ": lambda a: Coupling("ZZ", a),
        "CRX": lambda a: ControlledRotation("X", a),
        "CRY": lambda a: ControlledRotation("Y", a),
        "CRZ": lambda a: ControlledRotation("Z", a),
        "CRXX": lambda a: ControlledCoupling("XX", a),
        "CRYY": lambda a: ControlledCoupling("YY", a),
        "CRZZ": lambda a: ControlledCoupling("ZZ", a),
    }
    if upper in parameterized:
        if angle is None:
            raise ParseError(
                f"gate {name} requires an angle argument (at {token.line}:{token.column})"
            )
        return parameterized[upper](angle)
    raise ParseError(f"unknown gate {name!r} at {token.line}:{token.column}")


def parse_program(
    source: str,
    measurements: Mapping[str, Measurement] | None = None,
) -> Program:
    """Parse surface-syntax text into a program AST.

    ``measurements`` maps measurement names used in the text to
    :class:`Measurement` objects; the name ``M`` defaults to the
    computational-basis measurement on the guard's qubits.
    """
    tokens = tokenize(source)
    parser = _Parser(tokens, measurements or {})
    return parser.parse_program()
