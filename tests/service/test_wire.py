"""The worker wire protocol (`repro.service.wire`).

Two properties carry the whole distributed design:

* **Round-trip identity** — what crosses the wire, the ``INSTALL``
  artifact ``(kind, program, program_sets, observable)`` and the
  ``EXECUTE`` rows ``[(state, binding)]``, survives ``wire.encode_install``
  → ``wire.decode_install`` and ``wire.dumps`` → ``wire.loads`` with its
  computation unchanged, for every request kind
  (value, derivative, gradient; qubit and qutrit states; compiled
  derivative multisets).  A worker runs the decoded artifact on the
  decoded rows; if the round trip lost anything, "bit-identical recovery"
  would be a lie.
* **Key agreement** — two groups share a :func:`~repro.service.wire.call_digest`
  (content-addressed, the name a worker installs an artifact under)
  **iff** they share a :func:`~repro.service.planner.group_key`
  (identity-addressed).  Disagreement would make a worker run one group's
  rows on another group's work, or install one artifact twice.  The
  equivalence holds over any request pool whose distinct work objects
  have distinct content — the situation every real submitter is in.

Framing malformations (short frame, truncation, unknown type, CRC
corruption, oversize claims) must each be a typed
:class:`~repro.errors.WireProtocolError` — never a wrong value.
"""

import gc
import hashlib
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    RemoteExecutionError,
    SemanticsError,
    TransientServiceError,
    WireProtocolError,
)
from repro.api import Estimator, ExactDensityBackend
from repro.lang.builder import rx, rxx, ry, seq
from repro.lang.parameters import Parameter, ParameterBinding
from repro.linalg.observables import pauli_observable
from repro.sim.density import DensityState
from repro.sim.hilbert import RegisterLayout
from repro.sim.statevector import StateVector
from repro.service import ExecutionRequest
from repro.service import wire
from repro.service.planner import (
    GroupCall,
    PlannedRequest,
    RequestGroup,
    coalesce_key,
    group_key,
)

from tests.conftest import (
    PARAMETERS,
    QUBITS,
    binding_strategy,
    input_state_strategy,
    observable_strategy,
    program_strategy,
)

THETA, PHI = PARAMETERS
LAYOUT = RegisterLayout(QUBITS)
BINDING = ParameterBinding({THETA: 0.37, PHI: -1.1})
ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class TestFraming:
    @pytest.mark.parametrize("message_type", sorted(wire._MESSAGE_TYPES))
    def test_round_trip_every_message_type(self, message_type):
        for payload in (b"", b"x", b"a" * 1000):
            frame = wire.encode_frame(message_type, payload)
            assert wire.decode_frame(frame) == (message_type, payload)

    def test_encode_rejects_unknown_type(self):
        with pytest.raises(SemanticsError):
            wire.encode_frame(99, b"")

    def test_short_frame_is_a_protocol_violation(self):
        with pytest.raises(WireProtocolError, match="short frame"):
            wire.decode_frame(b"\xde\xad\xbe\xef")

    def test_truncated_payload_is_a_protocol_violation(self):
        frame = wire.encode_frame(wire.RESULT, b"hello world")
        with pytest.raises(WireProtocolError, match="length mismatch"):
            wire.decode_frame(frame[:-3])

    def test_unknown_message_type_is_a_protocol_violation(self):
        frame = bytearray(wire.encode_frame(wire.PING, b""))
        frame[4] = 200  # the type byte, after the 4-byte length
        with pytest.raises(WireProtocolError, match="unknown wire message type"):
            wire.decode_frame(bytes(frame))

    def test_flipped_payload_byte_fails_the_crc(self):
        frame = bytearray(wire.encode_frame(wire.RESULT, b"hello world"))
        frame[-1] ^= 0xFF
        with pytest.raises(WireProtocolError, match="CRC"):
            wire.decode_frame(bytes(frame))

    def test_oversize_length_claim_is_rejected_before_reading(self):
        header = struct.pack("!IBI", wire.MAX_FRAME_BYTES + 1, wire.PING, 0)
        with pytest.raises(WireProtocolError, match="wire limit"):
            wire.decode_frame(header)

    def test_undecodable_payload_is_a_protocol_violation(self):
        with pytest.raises(WireProtocolError, match="undecodable"):
            wire.loads(b"\x00not a pickle")


# ---------------------------------------------------------------------------
# Error transport
# ---------------------------------------------------------------------------


class TestErrorTransport:
    def test_picklable_error_travels_verbatim(self):
        original = TransientServiceError("backend hiccup")
        decoded = wire.decode_error(wire.encode_error(original))
        assert type(decoded) is TransientServiceError
        assert str(decoded) == "backend hiccup"
        assert decoded.retryable is True

    def test_unpicklable_error_degrades_to_a_summary(self):
        class LocalFailure(Exception):  # class unreachable by pickle
            retryable = True

        try:
            raise LocalFailure("cannot cross the wire whole")
        except LocalFailure as error:
            decoded = wire.decode_error(wire.encode_error(error))
        assert isinstance(decoded, RemoteExecutionError)
        assert "LocalFailure" in str(decoded)
        assert decoded.retryable is True  # the original's flag is mirrored
        assert "cannot cross the wire whole" in decoded.remote_traceback


# ---------------------------------------------------------------------------
# What crosses the wire: INSTALL artifacts and EXECUTE rows
# ---------------------------------------------------------------------------


def _group_call(request) -> GroupCall:
    """The group call the planner makes of ``request`` alone."""
    group = RequestGroup(
        key=group_key(request), kind=request.kind, rows=[PlannedRequest(request)]
    )
    return group.call()


def _assert_round_trip_computes_the_same(request):
    """The artifact and the rows a worker decodes denote the same computation.

    Field-for-field equality plus *execution identity*: the original call
    and the one rebuilt from the decoded INSTALL artifact and EXECUTE rows
    run on fresh exact backends and must produce the same bits.
    """
    call = _group_call(request)
    digest = _install_digest(request)
    payload = wire.encode_install(
        digest, call.kind, call.program, call.program_sets, call.observable
    )
    name, kind, program, program_sets, observable = wire.decode_install(payload)
    inputs = wire.loads(wire.dumps(call.inputs))
    assert name == digest
    assert kind == call.kind
    assert observable == call.observable
    assert (program is None) == (call.program is None)
    assert (program_sets is None) == (call.program_sets is None)
    if program_sets is not None:
        assert len(program_sets) == len(call.program_sets)
    assert len(inputs) == len(call.inputs)
    for (state, binding), (sent_state, sent_binding) in zip(inputs, call.inputs):
        assert state.key == sent_state.key
        if sent_binding is None:
            assert binding is None
        else:
            assert binding.to_dict() == sent_binding.to_dict()
    decoded = GroupCall(kind, program, program_sets, observable, inputs)
    original = call.run(ExactDensityBackend())
    round_tripped = decoded.run(ExactDensityBackend())
    assert np.array_equal(np.asarray(original), np.asarray(round_tripped))
    return decoded


class TestRequestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        program=program_strategy(max_depth=2),
        observable=observable_strategy(),
        state=input_state_strategy(),
        binding=binding_strategy(),
    )
    def test_value_requests(self, program, observable, state, binding):
        request = ExecutionRequest.value(program, observable, state, binding)
        decoded = _assert_round_trip_computes_the_same(request)
        assert decoded.program_sets is None

    @settings(max_examples=15, deadline=None)
    @given(
        program=program_strategy(max_depth=2),
        observable=observable_strategy(),
        state=input_state_strategy(),
        binding=binding_strategy(),
    )
    def test_derivative_and_gradient_requests(
        self, program, observable, state, binding
    ):
        estimator = Estimator(program, observable)
        sets = tuple(estimator.program_set(p) for p in estimator.parameters)
        requests = [ExecutionRequest.gradient(sets, observable, state, binding)]
        if sets:  # an unparameterized draw still exercises the empty row
            requests.append(
                ExecutionRequest.derivative(sets[0], observable, state, binding)
            )
        for request in requests:
            decoded = _assert_round_trip_computes_the_same(request)
            assert decoded.program is None

    def test_qutrit_state_round_trips(self):
        layout = RegisterLayout(("q1", "t1"), {"q1": 2, "t1": 3})
        state = DensityState.basis_state(layout, {"q1": 0, "t1": 2})
        observable = np.diag([1.0, 0.5, -1.0, -0.5, 0.0, 1.0]).astype(complex)
        request = ExecutionRequest.value(
            seq([rx(THETA, "q1")]), observable, state, ParameterBinding({THETA: 0.3})
        )
        decoded = _assert_round_trip_computes_the_same(request)
        assert decoded.inputs[0][0].layout.dims == (2, 3)

    def test_statevector_state_round_trips(self):
        state = StateVector.basis_state(LAYOUT, {"q1": 1, "q2": 0})
        request = ExecutionRequest.value(
            seq([rx(THETA, "q1"), rxx(PHI, "q1", "q2")]), ZZ, state, BINDING
        )
        decoded = _assert_round_trip_computes_the_same(request)
        assert isinstance(decoded.inputs[0][0], StateVector)

    def test_table2_work_round_trips(self):
        # Value, derivative and gradient work of the six S-size Table 2
        # instances: their gates build axis strings afresh, while a decoded
        # tree shares every equal one-character string.
        for request in _table2_requests():
            _assert_round_trip_computes_the_same(request)


# ---------------------------------------------------------------------------
# Call digest <=> group key agreement
# ---------------------------------------------------------------------------

# A fixed pool whose distinct work objects have distinct *content* (three
# structurally different programs, two observables), shared across draws so
# that repeats reuse the same object — the regime where identity keys and
# content keys must induce the same partition.
_POOL_PROGRAMS = (
    seq([rx(THETA, "q1")]),
    seq([rx(THETA, "q1"), rxx(PHI, "q1", "q2")]),
    seq([ry(0.25, "q2"), rx(THETA, "q1")]),
)
_POOL_OBSERVABLES = (pauli_observable("ZZ"), pauli_observable("XX"))
_POOL_STATES = tuple(
    DensityState.basis_state(LAYOUT, {"q1": i % 2, "q2": (i // 2) % 2})
    for i in range(3)
)
_POOL_BINDINGS = (
    ParameterBinding({THETA: 0.1, PHI: 0.2}),
    ParameterBinding({THETA: 0.1, PHI: 0.3}),
)
_POOL_ESTIMATORS = tuple(
    Estimator(program, observable)
    for program in _POOL_PROGRAMS[:2]
    for observable in _POOL_OBSERVABLES
)


def _pool_request(kind, work_index, observable_index, state_index, binding_index):
    state = _POOL_STATES[state_index]
    binding = _POOL_BINDINGS[binding_index]
    if kind == "value":
        return ExecutionRequest.value(
            _POOL_PROGRAMS[work_index % len(_POOL_PROGRAMS)],
            _POOL_OBSERVABLES[observable_index],
            state,
            binding,
        )
    estimator = _POOL_ESTIMATORS[work_index % len(_POOL_ESTIMATORS)]
    sets = tuple(estimator.program_set(p) for p in estimator.parameters)
    if kind == "derivative":
        return ExecutionRequest.derivative(
            sets[0], estimator._spec(), state, binding
        )
    return ExecutionRequest.gradient(sets, estimator._spec(), state, binding)


_REQUEST_DRAW = st.tuples(
    st.sampled_from(("value", "derivative", "gradient")),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
)


def _install_digest(request) -> str:
    """The digest the worker pool installs ``request``'s group under."""
    call = _group_call(request)
    return wire.call_digest(call.kind, call.program, call.program_sets, call.observable)


def _table2_requests() -> list:
    """Value, derivative and gradient requests on the S-size Table 2 instances."""
    from repro.api.estimator import ordered_parameters
    from repro.vqc.generators import build_instance

    requests = []
    for family in ("QNN", "VQE", "QAOA"):
        for variant in ("i", "w"):
            instance = build_instance(family, "S", variant)
            layout = RegisterLayout([f"q{i + 1}" for i in range(instance.num_qubits)])
            parameters = ordered_parameters(instance.program)
            binding = ParameterBinding.from_values(
                parameters, np.linspace(-1.0, 1.0, len(parameters))
            )
            estimator = Estimator(
                instance.program,
                np.diag([1.0, -1.0]),
                layout,
                targets=("q1",),
                parameters=parameters,
            )
            state = StateVector.basis_state(layout, {})
            requests += [
                estimator.request_value(state, binding),
                estimator.request_derivative(instance.shared_parameter, state, binding),
                estimator.request_gradient(state, binding, parameters[:2]),
            ]
    return requests


class TestKeyAgreement:
    @settings(max_examples=60, deadline=None)
    @given(left=_REQUEST_DRAW, right=_REQUEST_DRAW)
    def test_call_digest_iff_group_key(self, left, right):
        a, b = _pool_request(*left), _pool_request(*right)
        assert (_install_digest(a) == _install_digest(b)) == (
            group_key(a) == group_key(b)
        )

    def test_same_request_twice_shares_every_key(self):
        a = _pool_request("value", 0, 0, 0, 0)
        b = _pool_request("value", 0, 0, 0, 0)
        assert _install_digest(a) == _install_digest(b)
        assert group_key(a) == group_key(b)
        assert coalesce_key(a) == coalesce_key(b)

    def test_binding_values_split_the_row_not_the_group(self):
        a = _pool_request("value", 0, 0, 0, 0)
        b = _pool_request("value", 0, 0, 0, 1)
        assert coalesce_key(a) != coalesce_key(b)
        assert group_key(a) == group_key(b)
        assert _install_digest(a) == _install_digest(b)

    def test_derivative_and_single_set_gradient_share_a_row(self):
        # A DERIVATIVE over one multiset and a GRADIENT whose axis is that
        # same one-set tuple denote the same batch row of one group.
        estimator = Estimator(seq([rx(THETA, "q1")]), pauli_observable("ZZ"))
        (program_set,) = (estimator.program_set(THETA),)
        state, binding = _POOL_STATES[0], _POOL_BINDINGS[0]
        derivative = ExecutionRequest.derivative(
            program_set, estimator._spec(), state, binding
        )
        gradient = ExecutionRequest.gradient(
            (program_set,), estimator._spec(), state, binding
        )
        assert group_key(derivative) == group_key(gradient)
        assert coalesce_key(derivative) == coalesce_key(gradient)
        assert _install_digest(derivative) == _install_digest(gradient)

    def test_equal_work_built_twice_shares_a_call_digest(self):
        # Content addressing: two separately built copies of the same work
        # install under one digest, on the Table 2 instances too.
        for first, second in zip(_table2_requests(), _table2_requests()):
            assert group_key(first) != group_key(second)
            assert _install_digest(first) == _install_digest(second)


class TestContentDigest:
    def test_digest_is_the_sha256_of_one_pickle(self):
        from repro.autodiff.execution import differentiate_and_compile

        program = seq([rx(THETA, "q1"), rxx(PHI, "q1", "q2")])
        program_set = differentiate_and_compile(program, THETA)
        for work in (program, program_set):
            expected = hashlib.sha256(wire.dumps(work)).hexdigest()
            assert wire.content_digest(work) == expected

    def test_digest_memo_does_not_keep_programs_alive(self):
        # A memo that held what it digested would grow by every program a
        # long-lived service ever shipped.
        refs = []
        for index in range(200):
            program = seq([rx(float(index), "q1"), ry(THETA, "q2")])
            digest = wire.content_digest(program)
            assert wire.content_digest(program) == digest
            refs.append(weakref.ref(program))
        del program
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []

    def test_program_set_digest_lives_on_the_set_not_in_its_pickle(self):
        from repro.autodiff.execution import differentiate_and_compile

        def build():
            return differentiate_and_compile(seq([rx(THETA, "q1"), ry(THETA, "q2")]), THETA)

        program_set = build()
        payload = wire.dumps(program_set)
        digest = wire.content_digest(program_set)
        assert program_set.memo["digest"] == digest
        assert program_set.nonaborting_count == 2
        assert wire.dumps(program_set) == payload
        assert "memo" not in vars(wire.loads(payload))
        assert wire.content_digest(build()) == digest

    def test_equal_work_from_separately_made_names_digests_alike(self):
        # Names made at run time are distinct string objects in each build;
        # pickle writes distinct equal strings separately, so the digest of
        # equal work would depend on which build's strings it reached.  The
        # AST interns every variable name.
        from repro.autodiff.execution import differentiate_and_compile
        from repro.lang.builder import bounded_while_on_qubit

        def build():
            q1, q2, q3 = ("".join(("q", str(index))) for index in (1, 2, 3))
            body = seq([rx(THETA, q2), rxx(0.4, q2, q3), ry(THETA, q3)])
            return seq([rx(THETA, q1), bounded_while_on_qubit(q1, body, 2)])

        first, second = build(), build()
        assert first == second
        assert wire.content_digest(first) == wire.content_digest(second)
        first_set = differentiate_and_compile(first, THETA)
        second_set = differentiate_and_compile(second, THETA)
        assert wire.content_digest(first_set) == wire.content_digest(second_set)
