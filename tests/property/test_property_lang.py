"""Property-based tests of the language front-end (printer/parser, traversals)."""

from hypothesis import HealthCheck, given, settings

from repro.lang.ast import Seq, Sum
from repro.lang.parser import parse_program
from repro.lang.pretty import line_count, pretty_print
from repro.lang.traversal import (
    contains_while,
    fully_unfold_whiles,
    map_program,
    program_size,
)
from repro.lang.wellformed import check_well_formed

from tests.conftest import program_strategy

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(program=program_strategy(allow_sum=True))
@settings(**_SETTINGS)
def test_pretty_parse_roundtrip(program):
    """parse(pretty(P)) recovers P exactly: ; and + chains are flat nodes."""
    assert parse_program(pretty_print(program)) == program


def _nested_to_the_right(node):
    if isinstance(node, (Seq, Sum)) and len(node.children()) > 2:
        first, *rest = node.children()
        return type(node)(first, type(node)(*rest))
    return node


@given(program=program_strategy(allow_sum=True))
@settings(**_SETTINGS)
def test_chains_are_flat_however_they_are_nested(program):
    assert map_program(program, _nested_to_the_right) == program


@given(program=program_strategy(allow_sum=True))
@settings(**_SETTINGS)
def test_line_count_matches_rendered_lines(program):
    rendered = [line for line in pretty_print(program).splitlines() if line.strip()]
    assert line_count(program) == len(rendered)


@given(program=program_strategy(allow_sum=True))
@settings(**_SETTINGS)
def test_generated_programs_are_well_formed(program):
    check_well_formed(program)


@given(program=program_strategy(allow_sum=False))
@settings(**_SETTINGS)
def test_unfolding_removes_whiles_and_does_not_shrink(program):
    unfolded = fully_unfold_whiles(program)
    assert not contains_while(unfolded)
    assert program_size(unfolded) >= program_size(program)
