"""Exact single-qubit operator algebra in the Pauli basis.

Operators are plain 2x2 complex ndarrays.  A Hermitian operator ``X`` has a
real expansion ``X = x0*I + x1*sx + x2*sy + x3*sz`` with ``xk = Tr(Bk X)/2``,
where ``Bk`` runs over ``(I, sx, sy, sz)``.  Linear maps on operators are
represented by real 4x4 transfer matrices acting on those coefficients, so
composition of channels is a matrix product, trace preservation is the first
row being ``(1, 0, 0, 0)``, and unitality is the first column being
``(1, 0, 0, 0)^T``.

Complete positivity is checked through the Choi matrix
``J(S) = sum_ab E_ab (x) S(E_ab)`` over the matrix units ``E_ab``; a map is CP
iff ``J`` is positive semidefinite.  ``J`` is linear in the transfer matrix, so
it is one constant contraction: the transfer matrix between two constant 4x4
matrices built once from the basis.  Kraus operators are recovered from the
eigendecomposition of ``J`` when needed.

Tolerances: exact-path equality checks use the absolute tolerance ``ATOL``
(1e-12); Choi eigenvalue positivity uses the looser ``CHOI_ATOL`` (1e-10)
because the eigensolver itself is only accurate to about that level for maps
built from long products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

ATOL = 1e-12
CHOI_ATOL = 1e-10

IDENTITY = np.array([[1, 0], [0, 1]], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)

_BASIS = (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)


def _as_operator(op, name: str = "operator") -> np.ndarray:
    arr = np.asarray(op, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"{name} must be a 2x2 matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def pauli_coefficients(op) -> np.ndarray:
    """Expansion coefficients ``xk = Tr(Bk op)/2`` as a length-4 complex array."""
    arr = _as_operator(op)
    return np.array([np.trace(b @ arr) / 2.0 for b in _BASIS])


def operator_from_coefficients(coeffs) -> np.ndarray:
    """Rebuild the 2x2 operator ``sum_k coeffs[k] * Bk``."""
    c = np.asarray(coeffs)
    if c.shape != (4,):
        raise ValueError(f"need 4 Pauli coefficients, got shape {c.shape}")
    out = np.zeros((2, 2), dtype=complex)
    for k in range(4):
        out += c[k] * _BASIS[k]
    return out


def operators_close(a, b, atol: float = ATOL) -> bool:
    """Entrywise equality of two operators within an absolute tolerance.

    This is the package's only notion of operator equality; the default
    tolerance is ``ATOL`` = 1e-12.
    """
    return bool(np.max(np.abs(_as_operator(a) - _as_operator(b))) <= atol)


def anticommutator(a, b) -> np.ndarray:
    """``{a, b} = a @ b + b @ a``."""
    a = _as_operator(a, "a")
    b = _as_operator(b, "b")
    return a @ b + b @ a


def is_hermitian(op, atol: float = ATOL) -> bool:
    arr = _as_operator(op)
    return bool(np.max(np.abs(arr - arr.conj().T)) <= atol)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A validated qubit state.

    Construction rejects matrices that are not Hermitian, not unit trace, or
    not positive semidefinite (eigenvalues below ``-ATOL``).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_operator(self.matrix, "density operator").copy()
        if not is_hermitian(m):
            raise ValueError("density operator must be Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"density operator must have unit trace, got {tr:.6g}")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -ATOL:
            raise ValueError(
                f"density operator must be positive semidefinite, min eigenvalue {eigs.min():.3g}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def maximally_mixed(cls) -> "DensityOperator":
        return cls(IDENTITY / 2.0)

    @classmethod
    def from_bloch(cls, r) -> "DensityOperator":
        """State ``(I + r . sigma)/2`` for a Bloch vector with ``|r| <= 1``."""
        r = np.asarray(r, dtype=float)
        if r.shape != (3,):
            raise ValueError("Bloch vector must have 3 components")
        return cls((IDENTITY + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2.0)

    @property
    def coefficients(self) -> np.ndarray:
        """Real Pauli coefficients ``(1/2, rx/2, ry/2, rz/2)``."""
        return np.real(pauli_coefficients(self.matrix))

    @property
    def bloch_vector(self) -> np.ndarray:
        return 2.0 * self.coefficients[1:]

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True, eq=False)
class Observable:
    """A two-outcome observable: Hermitian with ``Q @ Q = I`` (outcomes +1/-1).

    The involution constraint means the Pauli coefficients ``(q0, qv)``
    satisfy ``q0 * qv = 0`` and ``q0^2 + |qv|^2 = 1``: either ``Q = +/- I``
    (trivial) or ``Q = qv . sigma`` with ``|qv| = 1``.
    """

    matrix: np.ndarray
    label: str = "Q"

    def __post_init__(self):
        m = _as_operator(self.matrix, "observable").copy()
        if not is_hermitian(m):
            raise ValueError("observable must be Hermitian")
        if not operators_close(m @ m, IDENTITY):
            raise ValueError("observable must square to the identity")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        coeffs = np.real(pauli_coefficients(m))
        coeffs.setflags(write=False)
        object.__setattr__(self, "_coeffs", coeffs)

    _coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def coefficients(self) -> np.ndarray:
        """Real Pauli coefficients ``(q0, q1, q2, q3)``."""
        return self._coeffs

    @property
    def bloch_axis(self) -> np.ndarray:
        """Unit measurement axis for a traceless observable.

        Raises ``ValueError`` for ``+/- I``, which has no axis.
        """
        if abs(self._coeffs[0]) > ATOL:
            raise ValueError(f"observable {self.label!r} has an identity component")
        return self._coeffs[1:]

    def projector(self, outcome: int) -> np.ndarray:
        """Eigenprojector ``(I + outcome * Q)/2`` for ``outcome`` in {+1, -1}."""
        if outcome not in (1, -1):
            raise ValueError(f"outcome must be +1 or -1, got {outcome}")
        return (IDENTITY + outcome * self.matrix) / 2.0


@lru_cache(maxsize=None)
def pauli(axis: str) -> Observable:
    """The Pauli observable along ``'x'``, ``'y'`` or ``'z'``."""
    try:
        m = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None
    return Observable(m, label=f"sigma_{axis}")


def sigma_theta(theta: float) -> Observable:
    """``cos(theta) sz + sin(theta) sx``: the z axis tilted by theta toward x."""
    theta = float(theta)
    m = math.cos(theta) * SIGMA_Z + math.sin(theta) * SIGMA_X
    return Observable(m, label=f"sigma_theta({theta:.12g})")


# J[2a+i, 2b+k] = sum_lm c_ab[m] S[l, m] B_l[i, k] with c_ab the Pauli
# coefficients of the matrix unit E_ab: the (ab, ik) entries of
# _CHOI_IN @ S.T @ _CHOI_OUT.  Each entry of either product sums exactly two
# nonzero terms, the same two sums as mapping each E_ab and expanding the
# image in the basis, so J is bit-identical to that construction.  A flat
# 16x16 product would add four terms in a row and round differently.
_CHOI_IN = np.array([pauli_coefficients(e) for e in np.eye(4).reshape(4, 2, 2)])
_CHOI_OUT = np.array(_BASIS).reshape(4, 4)
for _m in (_CHOI_IN, _CHOI_OUT):
    _m.setflags(write=False)


def _choi_matrix(ptm: np.ndarray) -> np.ndarray:
    """Choi matrix ``sum_ab E_ab (x) S(E_ab)`` of the map with transfer matrix ``S``."""
    j = _CHOI_IN @ ptm.T @ _CHOI_OUT
    return j.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


@dataclass(frozen=True, eq=False)
class Channel:
    """A CPTP map stored as its real 4x4 Pauli transfer matrix.

    Construction validates trace preservation (first row ``(1,0,0,0)`` within
    ``ATOL``) and complete positivity (Choi eigenvalues ``>= -CHOI_ATOL``).
    """

    ptm: np.ndarray

    def __post_init__(self):
        p = np.array(self.ptm, dtype=float)
        if p.shape != (4, 4):
            raise ValueError(f"transfer matrix must be 4x4, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("transfer matrix contains non-finite entries")
        if np.max(np.abs(p[0] - np.array([1.0, 0.0, 0.0, 0.0]))) > ATOL:
            raise ValueError("channel is not trace preserving (first row must be (1,0,0,0))")
        eigs = np.linalg.eigvalsh(_choi_matrix(p))
        if eigs.min() < -CHOI_ATOL:
            raise ValueError(
                f"channel is not completely positive, min Choi eigenvalue {eigs.min():.3g}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "ptm", p)

    @classmethod
    def identity(cls) -> "Channel":
        return cls(np.eye(4))

    @classmethod
    def from_kraus(cls, operators) -> "Channel":
        """Channel ``X -> sum_k K X K^dagger`` from a Kraus family."""
        ops = [_as_operator(k, "Kraus operator") for k in operators]
        if not ops:
            raise ValueError("need at least one Kraus operator")
        ptm = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            mapped = np.zeros((2, 2), dtype=complex)
            for k in ops:
                mapped += k @ _BASIS[j] @ k.conj().T
            ptm[:, j] = pauli_coefficients(mapped)
        if np.max(np.abs(ptm.imag)) > ATOL:
            raise ValueError("Kraus family does not define a real transfer matrix")
        return cls(ptm.real)

    def __call__(self, op) -> np.ndarray:
        """Apply to a 2x2 operator (by linearity, need not be a state)."""
        return operator_from_coefficients(self.ptm @ pauli_coefficients(op))

    def apply_to_state(self, rho: DensityOperator) -> DensityOperator:
        return DensityOperator(self(rho.matrix))

    def __matmul__(self, other: "Channel") -> "Channel":
        """Composition ``self after other`` (matches matrix-product order)."""
        if not isinstance(other, Channel):
            return NotImplemented
        return Channel(self.ptm @ other.ptm)

    @property
    def is_unital(self) -> bool:
        return bool(np.max(np.abs(self.ptm[:, 0] - np.array([1.0, 0.0, 0.0, 0.0]))) <= ATOL)

    def choi_matrix(self) -> np.ndarray:
        return _choi_matrix(self.ptm)

    def kraus_operators(self, atol: float = CHOI_ATOL) -> list[np.ndarray]:
        """A Kraus family from the Choi eigendecomposition.

        Eigenvalues within ``atol`` of zero are dropped; the family satisfies
        ``sum K^dagger K = I`` and reproduces the channel's action.
        """
        eigs, vecs = np.linalg.eigh(self.choi_matrix())
        ops = []
        for lam, v in zip(eigs, vecs.T):
            if lam > atol:
                # Choi convention J = sum_ab E_ab (x) S(E_ab): column vector
                # blocks index the input, so the operator is the transposed
                # 2x2 reshape of the eigenvector.
                ops.append(math.sqrt(lam) * v.reshape(2, 2).T)
        return ops


def identity_channel() -> Channel:
    return Channel.identity()


def compose(first: Channel, then: Channel) -> Channel:
    """Apply ``first``, then ``then``; equals ``then @ first``."""
    return then @ first


def measure_channel(q: Observable) -> Channel:
    """Unconditioned measurement of ``q``: ``X -> P+ X P+ + P- X P-``.

    Built from the Lueders projectors; equal to complete dephasing along the
    measurement axis.
    """
    return Channel.from_kraus([q.projector(+1), q.projector(-1)])


def dephase_z() -> Channel:
    """Complete dephasing in the sz eigenbasis (kills sx and sy parts)."""
    return measure_channel(pauli("z"))


def dephase_theta(theta: float) -> Channel:
    """Complete dephasing in the ``sigma_theta(theta)`` eigenbasis."""
    return measure_channel(sigma_theta(theta))


def expectation(q: Observable, rho: DensityOperator) -> float:
    """``Tr(Q rho)`` as a real number.

    Raises ``ValueError`` if the trace has an imaginary part above 1e-10,
    which would indicate non-Hermitian inputs slipped past validation.
    """
    val = np.trace(q.matrix @ rho.matrix)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation value has imaginary part {val.imag:.3g}")
    return float(val.real)
