"""Register layout: named quantum variables as tensor factors.

The language of Section 3 manipulates named quantum variables (``q1``,
``q2``, ...).  The simulator fixes an ordering of those variables once — a
:class:`RegisterLayout`.  An operator acting on a subset of the variables
can be embedded into the full space by tensoring with identities and
permuting tensor factors (:meth:`RegisterLayout.embed_operator`); since the
contraction kernels of :mod:`repro.sim.kernels` landed, that embedding is
the *reference* path used for cross-checking and for callers that genuinely
need the full-space matrix, while the simulators apply local operators
directly to the target axes (:meth:`RegisterLayout.axes_of`).

All variables are qubits (``type(q) = Bool``) by default, matching the VQC
programs of the evaluation; bounded-integer variables of a given dimension
are also supported because the initialization channel of the language is
defined for them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import DimensionMismatchError, LinalgError

@dataclass(frozen=True)
class RegisterLayout:
    """An ordered collection of named quantum variables with their dimensions."""

    names: tuple[str, ...]
    dims: tuple[int, ...]

    def __init__(
        self,
        names: Sequence[str],
        dims: Sequence[int] | Mapping[str, int] | None = None,
    ):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise LinalgError(f"duplicate variable names in layout: {names}")
        if not names:
            raise LinalgError("a register layout needs at least one variable")
        if dims is None:
            resolved = tuple(2 for _ in names)
        elif isinstance(dims, Mapping):
            resolved = tuple(int(dims.get(name, 2)) for name in names)
        else:
            resolved = tuple(int(d) for d in dims)
            if len(resolved) != len(names):
                raise DimensionMismatchError("dims must match names in length")
        for dim in resolved:
            if dim < 2:
                raise LinalgError(f"variable dimension must be at least 2, got {dim}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "dims", resolved)
        # Cached eagerly: the simulators read this on every state construction.
        object.__setattr__(self, "_total_dim", math.prod(resolved))

    # -- basic queries ------------------------------------------------------

    @property
    def num_variables(self) -> int:
        """Number of variables (tensor factors)."""
        return len(self.names)

    @property
    def total_dim(self) -> int:
        """Dimension of the full Hilbert space."""
        return self._total_dim

    def index(self, name: str) -> int:
        """Position of a variable in the tensor order."""
        try:
            return self.names.index(name)
        except ValueError:
            raise LinalgError(f"variable {name!r} is not part of this layout") from None

    def dim_of(self, name: str) -> int:
        """Dimension of one variable."""
        return self.dims[self.index(name)]

    def contains(self, names: Iterable[str]) -> bool:
        """Return True when every name is a variable of this layout."""
        return all(name in self.names for name in names)

    def extended(self, name: str, dim: int = 2, *, front: bool = True) -> "RegisterLayout":
        """Return a new layout with an extra variable (ancilla) added.

        The differentiation pipeline adds the ancilla as the *first* tensor
        factor so that the combined observable is ``Z_A ⊗ O`` exactly as in
        Definition 5.2; ``front=False`` appends instead.
        """
        if name in self.names:
            raise LinalgError(f"variable {name!r} already exists in the layout")
        if front:
            return RegisterLayout((name,) + self.names, (dim,) + self.dims)
        return RegisterLayout(self.names + (name,), self.dims + (dim,))

    def restricted(self, names: Sequence[str]) -> "RegisterLayout":
        """Return the layout containing only ``names``, in this layout's order."""
        kept = [name for name in self.names if name in set(names)]
        missing = set(names) - set(kept)
        if missing:
            raise LinalgError(f"variables {sorted(missing)} are not part of this layout")
        return RegisterLayout(tuple(kept), tuple(self.dim_of(name) for name in kept))

    def axes_of(self, targets: Sequence[str]) -> tuple[int, ...]:
        """Return the tensor-axis positions of the target variables.

        Validates that the targets are distinct members of the layout; the
        result is what the contraction kernels of :mod:`repro.sim.kernels`
        consume.  Memoized — the hot loop resolves the same handful of
        target tuples millions of times.
        """
        return _axes_of(self, tuple(targets))

    # -- operator embedding ---------------------------------------------------

    def embed_operator(self, operator: np.ndarray, targets: Sequence[str]) -> np.ndarray:
        """Embed an operator acting on ``targets`` into the full space.

        ``operator`` must act on the tensor product of the target variables in
        the order given by ``targets``; the result acts on the full register.

        This is the *reference* path: the simulators apply local operators
        via :mod:`repro.sim.kernels` without ever materializing the embedded
        matrix, and the kernel tests cross-check against this method.  The
        result is a new array every call, never the caller's.
        """
        operator = np.array(operator, dtype=complex)
        targets = list(targets)
        if len(set(targets)) != len(targets):
            raise LinalgError(f"target variables must be distinct, got {targets}")
        target_dims = [self.dim_of(name) for name in targets]
        expected = int(np.prod(target_dims))
        if operator.shape != (expected, expected):
            raise DimensionMismatchError(
                f"operator shape {operator.shape} does not match target dims {target_dims}"
            )
        if len(targets) == self.num_variables and targets == list(self.names):
            return operator

        # Build the operator on the full space with targets first, identities
        # after, then permute tensor factors into layout order.
        remaining = [name for name in self.names if name not in targets]
        remaining_dim = int(np.prod([self.dim_of(name) for name in remaining])) if remaining else 1
        big = np.kron(operator, np.eye(remaining_dim, dtype=complex))

        permuted_names = targets + remaining
        return self._permute_operator(big, permuted_names)

    def _permute_operator(self, operator: np.ndarray, current_order: Sequence[str]) -> np.ndarray:
        """Reorder the tensor factors of ``operator`` from ``current_order`` to layout order."""
        current_order = list(current_order)
        if current_order == list(self.names):
            return operator
        dims_current = [self.dim_of(name) for name in current_order]
        n = len(current_order)
        tensor = operator.reshape(dims_current + dims_current)
        # Axis i of the target order should come from the position of
        # self.names[i] inside current_order.
        perm = [current_order.index(name) for name in self.names]
        tensor = np.transpose(tensor, perm + [p + n for p in perm])
        total = self.total_dim
        return tensor.reshape(total, total)

    def embed_state(self, state: np.ndarray, targets: Sequence[str]) -> np.ndarray:
        """Embed a density operator on ``targets`` into the full space.

        The remaining variables are placed in ``|0⟩``.  Used to prepare the
        global input state when only part of the register is specified.
        """
        state = np.asarray(state, dtype=complex)
        remaining = [name for name in self.names if name not in set(targets)]
        pieces = [state]
        for name in remaining:
            dim = self.dim_of(name)
            zero = np.zeros((dim, dim), dtype=complex)
            zero[0, 0] = 1.0
            pieces.append(zero)
        big = pieces[0]
        for piece in pieces[1:]:
            big = np.kron(big, piece)
        return self._permute_operator(big, list(targets) + remaining)

    def _resolve_axes(self, targets: tuple[str, ...]) -> tuple[int, ...]:
        if len(set(targets)) != len(targets):
            raise LinalgError(f"target variables must be distinct, got {list(targets)}")
        return tuple(self.index(name) for name in targets)

    def basis_product_state(self, assignment: Mapping[str, int]) -> np.ndarray:
        """Return the basis pure-state *vector* assigning each variable a basis index.

        Variables not mentioned default to ``|0⟩``.  The one nonzero amplitude
        sits at the assignment's mixed-radix index, the first variable most
        significant, as in the Kronecker product of the local basis vectors.
        """
        index = 0
        for name, dim in zip(self.names, self.dims):
            value = int(assignment.get(name, 0))
            if not 0 <= value < dim:
                raise LinalgError(f"value {value} out of range for variable {name!r}")
            index = index * dim + value
        vector = np.zeros(self.total_dim, dtype=complex)
        vector[index] = 1.0
        return vector


@lru_cache(maxsize=4096)
def _axes_of(layout: RegisterLayout, targets: tuple[str, ...]) -> tuple[int, ...]:
    return layout._resolve_axes(targets)


# -- frozen arrays and value keys -------------------------------------------------


def frozen(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only in place, with every array it views.

    States and observables freeze their arrays at construction, so a key or
    verdict memoized on them cannot go stale.  Nothing is copied (a gate's
    output views its kernel buffer; a 14-qubit state is 4 GiB), so the
    caller's array and the array it views become read-only too.  Only a view
    of a foreign writeable buffer (``bytearray``, ``mmap``) is copied: no
    flag stops a write through it.  Immutable ``bytes``, which a protocol-5
    pickle of a frozen array unpickles onto, are kept.
    """
    chain = [array]
    while isinstance(chain[-1].base, np.ndarray):
        chain.append(chain[-1].base)
    root = chain[-1].base
    if root is not None and not isinstance(root, bytes):
        chain = [array.copy()]
    for link in chain:
        link.flags.writeable = False
    return chain[0]


def digest(array: np.ndarray) -> bytes:
    """The sha256 of an array's C-order bytes, read in place (an array in
    another memory order is copied only while it is hashed)."""
    return hashlib.sha256(np.ascontiguousarray(array).data).digest()
