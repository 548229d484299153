#!/usr/bin/env python3
"""Tour of the surface syntax: parse a textual program, differentiate it, print the result.

The library ships a concrete syntax for the quantum while-language (the
"#lines" column of the evaluation tables measures programs in this syntax).
This example

1. parses a textual program containing initialization, rotations, a
   two-qubit coupling, a ``case`` statement, and a 2-bounded ``while`` loop;
2. checks it is well-formed and reports its static metrics;
3. applies the differentiation transformation and prints both the additive
   intermediate program and every compiled derivative program, again as
   concrete syntax;
4. verifies the printed derivative programs re-parse to the same ASTs
   (the pretty-printer/parser round-trip).

Run with::

    python examples/surface_syntax_tour.py
"""

from __future__ import annotations

from repro.api import Estimator
from repro.lang import Parameter, parse_program, pretty_print
from repro.lang.wellformed import check_well_formed
from repro.analysis.resources import analyze_program

SOURCE = """
q1 := |0>;
q2 := |0>;
q1 := RX(theta)[q1];
q1, q2 := RXX(phi)[q1, q2];
case M[q1] =
  0 -> {
    q2 := RY(theta)[q2]
  }
  1 -> {
    q2 := RZ(theta)[q2];
    q2 := H[q2]
  }
end;
while(2) M[q2] = 1 do
  q1 := RX(theta)[q1]
done
"""


def main() -> None:
    theta = Parameter("theta")

    print("Input program (surface syntax):")
    print(SOURCE.strip())

    program = parse_program(SOURCE)
    check_well_formed(program, allow_additive=False)

    report = analyze_program(program, theta, name="tour")
    print("\nStatic metrics for θ = theta:")
    print(f"  occurrence count OC        : {report.occurrence_count}")
    print(f"  non-aborting derivative(s) : {report.derivative_program_count}")
    print(f"  #gates                     : {report.gate_count}")
    print(f"  #lines                     : {report.line_count}")
    print(f"  #qubits                    : {report.qubit_count}")

    # The estimator owns the compile-time pipeline; asking for the program
    # set runs transform (Figure 4) + compile (Figure 3) once and caches it.
    estimator = Estimator(program, parameters=[theta])
    program_set = estimator.program_set(theta)
    print(f"\nAdditive derivative program ∂P/∂theta (ancilla {program_set.ancilla}):")
    print(pretty_print(program_set.additive))

    for index, compiled in enumerate(program_set.nonaborting_programs()):
        text = pretty_print(compiled)
        reparsed = parse_program(text)
        assert reparsed == compiled
        print(f"\nCompiled derivative program #{index + 1} (re-parses identically):")
        print(text)


if __name__ == "__main__":
    main()
