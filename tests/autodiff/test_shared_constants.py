"""The compile path builds each of its constants once.

Every Trivial rule of Figure 4 yields ``abort[v ∪ {A}]`` and every
essentially aborting ``;``, ``+`` or ``case`` of Figure 3 compiles to the
canonical ``abort[v]``: one shared node per variable set
(:func:`repro.lang.ast.abort_over`).  The fixed-gate factories return one
instance, so the gadgets build no Hadamard.  Sharing must change no output:
compiled members compare equal to ones built without it, pickles round-trip,
and equal work keeps one wire digest, the name of its worker artifact.
"""

import pickle

import pytest

from repro.autodiff.execution import differentiate_and_compile
from repro.lang import ast
from repro.lang.ast import Abort, Program
from repro.lang.gates import FixedGate, hadamard
from repro.service import wire
from repro.vqc.generators import build_instance, table3_suite


def _abort_nodes(programs: tuple[Program, ...]) -> list[Abort]:
    """Every distinct ``Abort`` object reachable from ``programs``."""
    seen: set[int] = set()
    found = []
    stack = list(programs)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Abort):
            found.append(node)
        stack.extend(node.children())
    return found


# While variants: their derivatives hold Trivial aborts (the loop's 0-branch)
# and compiled ones (its last unfolding).  The product rule over a flat
# sequence builds no member for a statement without θ, so an if variant's
# derivative holds no abort at all.
@pytest.mark.parametrize("spec", [("VQE", "M", "w"), ("QNN", "L", "w")])
def test_one_abort_per_variable_set_and_no_fixed_gate(spec, monkeypatch):
    instance = build_instance(*spec)
    hadamard()  # the factory validates its one Hadamard on its first call
    built_aborts: list[frozenset] = []
    built_gates: list[str] = []
    abort_init, gate_init = Abort.__init__, FixedGate.__init__

    def counting_abort_init(self, qubits):
        abort_init(self, qubits)
        built_aborts.append(self.qvars())

    def counting_gate_init(self, name, matrix):
        built_gates.append(name)
        gate_init(self, name, matrix)

    monkeypatch.setattr(Abort, "__init__", counting_abort_init)
    monkeypatch.setattr(FixedGate, "__init__", counting_gate_init)
    program_set = differentiate_and_compile(instance.program, instance.shared_parameter)
    monkeypatch.undo()

    assert len(built_aborts) == len(set(built_aborts)), "an abort was built twice over one set"
    assert built_gates == []
    aborts = _abort_nodes((program_set.additive, *program_set.programs))
    assert aborts
    by_set: dict[frozenset, set[int]] = {}
    for node in aborts:
        by_set.setdefault(node.qvars(), set()).add(id(node))
    assert all(len(ids) == 1 for ids in by_set.values())
    assert hadamard() is hadamard()


@pytest.fixture(scope="module")
def table3():
    return table3_suite()


@pytest.mark.parametrize("index", range(24))
def test_sharing_changes_no_output_and_no_artifact_name(table3, index):
    instance = table3[index]
    program, parameter = instance.program, instance.shared_parameter
    shared = differentiate_and_compile(program, parameter)
    ast._interned_abort.cache_clear()
    unshared = differentiate_and_compile(program, parameter)
    assert len(shared.programs) == len(unshared.programs)
    for member, reference in zip(shared.programs, unshared.programs):
        assert member == reference
    clone = pickle.loads(wire.dumps(shared))
    assert len(clone.programs) == len(shared.programs)
    for member, reference in zip(clone.programs, shared.programs):
        assert member == reference
    first = differentiate_and_compile(program, parameter)
    second = differentiate_and_compile(program, parameter)
    assert wire.content_digest(first) == wire.content_digest(second)
