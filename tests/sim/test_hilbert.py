"""Unit tests for repro.sim.hilbert (register layouts and operator embedding)."""

import numpy as np
import pytest

from repro.errors import DimensionMismatchError, LinalgError
from repro.linalg.gates import CNOT, HADAMARD, PAULI_X, PAULI_Z
from repro.sim.hilbert import RegisterLayout


class TestConstruction:
    def test_default_dims_are_qubits(self):
        layout = RegisterLayout(["a", "b", "c"])
        assert layout.dims == (2, 2, 2)
        assert layout.total_dim == 8

    def test_explicit_dims(self):
        layout = RegisterLayout(["q", "n"], [2, 5])
        assert layout.dim_of("n") == 5
        assert layout.total_dim == 10

    def test_dims_from_mapping(self):
        layout = RegisterLayout(["q", "n"], {"n": 3})
        assert layout.dims == (2, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(LinalgError):
            RegisterLayout(["q", "q"])

    def test_rejects_empty(self):
        with pytest.raises(LinalgError):
            RegisterLayout([])

    def test_rejects_tiny_dims(self):
        with pytest.raises(LinalgError):
            RegisterLayout(["q"], [1])

    def test_rejects_dims_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            RegisterLayout(["q", "r"], [2])

    def test_index_and_contains(self):
        layout = RegisterLayout(["a", "b"])
        assert layout.index("b") == 1
        assert layout.contains(["a"])
        assert not layout.contains(["z"])
        with pytest.raises(LinalgError):
            layout.index("z")


class TestExtensionRestriction:
    def test_extended_front(self):
        layout = RegisterLayout(["q1"]).extended("anc", front=True)
        assert layout.names == ("anc", "q1")

    def test_extended_back(self):
        layout = RegisterLayout(["q1"]).extended("anc", front=False)
        assert layout.names == ("q1", "anc")

    def test_extended_rejects_existing_name(self):
        with pytest.raises(LinalgError):
            RegisterLayout(["q1"]).extended("q1")

    def test_restricted_keeps_order(self):
        layout = RegisterLayout(["a", "b", "c"])
        assert layout.restricted(["c", "a"]).names == ("a", "c")

    def test_restricted_missing_variable(self):
        with pytest.raises(LinalgError):
            RegisterLayout(["a"]).restricted(["z"])


class TestEmbedding:
    def test_embed_on_full_register_is_identity_mapping(self):
        layout = RegisterLayout(["a", "b"])
        matrix = np.kron(PAULI_X, PAULI_Z)
        assert np.allclose(layout.embed_operator(matrix, ["a", "b"]), matrix)

    def test_embed_single_qubit_in_two(self):
        layout = RegisterLayout(["a", "b"])
        assert np.allclose(layout.embed_operator(PAULI_X, ["a"]), np.kron(PAULI_X, np.eye(2)))
        assert np.allclose(layout.embed_operator(PAULI_X, ["b"]), np.kron(np.eye(2), PAULI_X))

    def test_embed_reversed_targets_permutes(self):
        layout = RegisterLayout(["a", "b"])
        embedded = layout.embed_operator(CNOT, ["b", "a"])
        # control is 'b' (second factor), target is 'a' (first factor)
        state = np.zeros(4)
        state[0b01] = 1.0  # a=0, b=1
        out = embedded @ state
        assert np.isclose(abs(out[0b11]), 1.0)

    def test_embed_middle_qubit(self):
        layout = RegisterLayout(["a", "b", "c"])
        embedded = layout.embed_operator(HADAMARD, ["b"])
        expected = np.kron(np.eye(2), np.kron(HADAMARD, np.eye(2)))
        assert np.allclose(embedded, expected)

    def test_embed_nonadjacent_pair(self):
        layout = RegisterLayout(["a", "b", "c"])
        embedded = layout.embed_operator(CNOT, ["a", "c"])
        # |a b c⟩ = |1 0 0⟩ should map to |1 0 1⟩.
        state = np.zeros(8)
        state[0b100] = 1.0
        out = embedded @ state
        assert np.isclose(abs(out[0b101]), 1.0)

    def test_embed_rejects_duplicate_targets(self):
        with pytest.raises(LinalgError):
            RegisterLayout(["a", "b"]).embed_operator(CNOT, ["a", "a"])

    def test_embed_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            RegisterLayout(["a", "b"]).embed_operator(PAULI_X, ["a", "b"])

    def test_no_embed_sees_a_later_write_to_an_input_or_output(self):
        x = np.asarray(PAULI_X, dtype=complex)
        whole = RegisterLayout(["a"])
        given = x.copy()
        embedded = whole.embed_operator(given, ["a"])
        given[0, 0] = 7
        assert np.array_equal(embedded, x)
        assert np.array_equal(whole.embed_operator(x, ["a"]), x)

        layout = RegisterLayout(["a", "b"])
        expected = np.kron(np.eye(2), x)
        first = layout.embed_operator(x.copy(), ["b"])
        first[0, 0] = 5
        assert np.array_equal(layout.embed_operator(x, ["b"]), expected)


class TestStates:
    def test_basis_product_state(self):
        layout = RegisterLayout(["a", "b"])
        vector = layout.basis_product_state({"a": 1, "b": 0})
        assert np.isclose(abs(vector[0b10]), 1.0)

    def test_basis_product_state_defaults_to_zero(self):
        layout = RegisterLayout(["a", "b"])
        vector = layout.basis_product_state({})
        assert np.isclose(abs(vector[0]), 1.0)

    def test_basis_product_state_range_check(self):
        with pytest.raises(LinalgError):
            RegisterLayout(["a"]).basis_product_state({"a": 2})

    @pytest.mark.parametrize(
        "dims", [(2, 2, 2, 2), (3, 3), (2, 3, 2), (3, 2, 4)], ids=["qubits", "qutrits", "2-3-2", "3-2-4"]
    )
    def test_basis_product_state_is_the_kronecker_product(self, dims):
        layout = RegisterLayout([f"v{i}" for i in range(len(dims))], dims)
        rng = np.random.default_rng(len(dims))
        for _ in range(12):
            full = {name: int(rng.integers(dim)) for name, dim in zip(layout.names, dims)}
            # Every other variable left out: it defaults to |0⟩.
            for assignment in (full, dict(list(full.items())[::2]), {}):
                expected = np.ones(1, dtype=complex)
                for name, dim in zip(layout.names, dims):
                    local = np.zeros(dim, dtype=complex)
                    local[assignment.get(name, 0)] = 1.0
                    expected = np.kron(expected, local)
                vector = layout.basis_product_state(assignment)
                assert vector.dtype == complex
                assert np.array_equal(vector, expected)

    def test_basis_product_state_range_error_names_the_variable(self):
        layout = RegisterLayout(["a", "t"], [2, 3])
        for assignment, message in (({"t": 3}, "value 3 out of range for variable 't'"),
                                    ({"a": -1}, "value -1 out of range for variable 'a'")):
            with pytest.raises(LinalgError, match=message):
                layout.basis_product_state(assignment)

    def test_embed_state_places_rest_in_zero(self):
        layout = RegisterLayout(["a", "b"])
        rho_b = np.array([[0, 0], [0, 1]], dtype=complex)
        full = layout.embed_state(rho_b, ["b"])
        expected = np.kron(np.array([[1, 0], [0, 0]]), rho_b)
        assert np.allclose(full, expected)


class TestAxes:
    def test_axes_of_positions_and_validation(self):
        layout = RegisterLayout(["a", "b", "c"])
        assert layout.axes_of(["c", "a"]) == (2, 0)
        with pytest.raises(LinalgError):
            layout.axes_of(["a", "a"])
        with pytest.raises(LinalgError):
            layout.axes_of(["nope"])
