"""Exact-tolerance linear algebra for symplectic matrices and Lagrangian subspaces.

Conventions: phase space T*R^d is R^{2d} with coordinates (x, xi), the
canonical form is sigma(z, w) = <z, J w> with J the standard block matrix
(0 I; -I 0).  Block accessors A, B, C, D refer to the d x d blocks of a
2d x 2d matrix read row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Tolerance of the symplectic, rank and symmetry tests, scaled by operator norms.
TOL_FLOAT = 1e-10


class DimensionError(ValueError):
    pass


class NotSymplecticError(ValueError):
    pass


class SingularBlockError(ValueError):
    """Raised when a block that must be invertible is numerically singular."""


def standard_j_matrix(d: int) -> np.ndarray:
    if d < 1:
        raise DimensionError(f"d must be >= 1, got {d}")
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = np.eye(d)
    J[d:, :d] = -np.eye(d)
    return J


def is_symplectic(M: np.ndarray, tol: float = TOL_FLOAT) -> bool:
    """True iff ||M^t J M - J||_max <= tol."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 != 0:
        raise DimensionError(f"expected square even-dimension matrix, got shape {M.shape}")
    d = M.shape[0] // 2
    J = standard_j_matrix(d)
    return float(np.max(np.abs(M.T @ J @ M - J))) <= tol


@dataclass(frozen=True)
class SymplecticMatrix:
    """A 2d x 2d real matrix with verified symplectic identity."""

    d: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.shape != (2 * self.d, 2 * self.d):
            raise DimensionError(
                f"expected shape {(2 * self.d, 2 * self.d)}, got {entries.shape}"
            )
        scale = max(1.0, np.linalg.norm(entries, 2) ** 2)
        if not is_symplectic(entries, TOL_FLOAT * scale):
            raise NotSymplecticError("matrix fails the symplectic identity")

    @property
    def A(self) -> np.ndarray:
        return self.entries[: self.d, : self.d]

    @property
    def B(self) -> np.ndarray:
        return self.entries[: self.d, self.d :]

    @property
    def C(self) -> np.ndarray:
        return self.entries[self.d :, : self.d]

    @property
    def D(self) -> np.ndarray:
        return self.entries[self.d :, self.d :]

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if self.d != other.d:
            raise DimensionError("dimension mismatch in symplectic product")
        return SymplecticMatrix(self.d, self.entries @ other.entries)

    def apply(self, z: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(z, dtype=float)


def standard_j(d: int) -> SymplecticMatrix:
    return SymplecticMatrix(d, standard_j_matrix(d))


def symplectic_inverse(chi: SymplecticMatrix) -> SymplecticMatrix:
    """Block-formula inverse (D^t, -B^t; -C^t, A^t)."""
    inv = np.block([[chi.D.T, -chi.B.T], [-chi.C.T, chi.A.T]])
    return SymplecticMatrix(chi.d, inv)


def is_free(chi: SymplecticMatrix) -> bool:
    """A symplectic matrix is free when its upper-right block is invertible."""
    s = scipy.linalg.svdvals(chi.B)
    scale = max(1.0, np.linalg.norm(chi.entries, 2))
    return bool(s[-1] > TOL_FLOAT * scale)


def free_phase_matrix(chi: SymplecticMatrix) -> np.ndarray:
    """Symmetric 2d x 2d matrix F with graph {(X, FX)} equal to the twisted
    graph Lagrangian of a free symplectic matrix."""
    B = chi.B
    s = scipy.linalg.svdvals(B)
    if s[-1] <= TOL_FLOAT * max(1.0, s[0]):
        raise SingularBlockError("matrix is not free: B block is singular")
    Binv = np.linalg.inv(B)
    F = np.block([[chi.D @ Binv, -Binv.T], [-Binv, Binv @ chi.A]])
    asym = np.max(np.abs(F - F.T))
    if asym > TOL_FLOAT * max(1.0, np.linalg.norm(F, 2)):
        raise NotSymplecticError(f"free phase matrix not symmetric (defect {asym:.2e})")
    return 0.5 * (F + F.T)


def orthonormal_basis(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the column span, via SVD."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    U, s, _ = np.linalg.svd(vectors, full_matrices=False)
    if s.size == 0:
        return np.zeros((vectors.shape[0], 0))
    rank = int(np.sum(s > 1e-10 * s[0]))
    return U[:, :rank]


def orthogonal_complement(Y: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of span(Y)-perp for orthonormal columns Y."""
    d, k = Y.shape
    return orthonormal_basis(np.eye(d) - Y @ Y.T) if k < d else np.zeros((d, 0))


@dataclass(frozen=True)
class LagrangianSubspace:
    """A linear Lagrangian in a 2n-dimensional symplectic space.

    Stored as an orthonormal basis (columns of a 2n x n matrix).  An optional
    (Y, F) parametrization realizes the subspace as
    {(X, FX + Z): X in Y, Z in Y-perp}.
    """

    n: int
    basis: np.ndarray
    param: tuple | None = None  # (Y_basis: n x k orthonormal, F: n x n symmetric)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        object.__setattr__(self, "basis", basis)
        if basis.shape != (2 * self.n, self.n):
            raise DimensionError(f"expected basis shape {(2 * self.n, self.n)}, got {basis.shape}")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(self.n))) > 1e-8:
            raise ValueError("basis columns are not orthonormal")
        iso = np.max(np.abs(basis.T @ standard_j_matrix(self.n) @ basis))
        if iso > 1e-8:
            raise ValueError(f"basis is not isotropic (defect {iso:.2e})")
        if self.param is not None:
            Y, F = self.param
            Y = np.asarray(Y, dtype=float).reshape(self.n, -1)
            F = np.asarray(F, dtype=float)
            object.__setattr__(self, "param", (Y, F))
            if np.max(np.abs(F - F.T)) > 1e-10 * max(1.0, np.abs(F).max()):
                raise ValueError("parametrization matrix F is not symmetric")
            # F must leave Y invariant; silently projecting would change the subspace
            piY = Y @ Y.T
            defect = np.max(np.abs((np.eye(self.n) - piY) @ F @ piY))
            if defect > 1e-8 * max(1.0, np.abs(F).max()):
                raise ValueError(f"F does not leave Y invariant (defect {defect:.2e})")
            span = lagrangian_from_yf(Y, F, self.n).basis
            if not _span_equal(span, basis):
                raise ValueError("(Y, F) parametrization does not span the stored basis")

    @classmethod
    def from_span(cls, vectors: np.ndarray, param=None) -> "LagrangianSubspace":
        vectors = np.asarray(vectors, dtype=float)
        if vectors.shape[0] % 2:
            raise DimensionError("ambient dimension must be even")
        n = vectors.shape[0] // 2
        basis = orthonormal_basis(vectors)
        if basis.shape[1] != n:
            raise ValueError(f"span has dimension {basis.shape[1]}, expected {n}")
        return cls(n, basis, param=param)


def _span_equal(B1: np.ndarray, B2: np.ndarray) -> bool:
    if B1.shape != B2.shape:
        return False
    return principal_angles(B1, B2).max(initial=0.0) <= 1e-8


def lagrangian_from_yf(Y: np.ndarray, F: np.ndarray, n: int) -> LagrangianSubspace:
    """Lagrangian {(X, FX + Z): X in span(Y), Z in span(Y)-perp} in T*R^n."""
    Y = np.asarray(Y, dtype=float).reshape(n, -1)
    F = np.asarray(F, dtype=float)
    Yperp = orthogonal_complement(Y)
    cols = []
    for x in Y.T:
        cols.append(np.concatenate([x, F @ x]))
    for z in Yperp.T:
        cols.append(np.concatenate([np.zeros(n), z]))
    span = np.array(cols).T if cols else np.zeros((2 * n, 0))
    basis = orthonormal_basis(span)
    return LagrangianSubspace(n, basis)


def lagrangian_with_param(Y: np.ndarray, F: np.ndarray, n: int) -> LagrangianSubspace:
    lag = lagrangian_from_yf(Y, F, n)
    return LagrangianSubspace(n, lag.basis, param=(np.asarray(Y, float).reshape(n, -1),
                                                   np.asarray(F, float)))


def principal_angles(B1: np.ndarray, B2: np.ndarray) -> np.ndarray:
    """Principal angles (radians) between the column spans of two orthonormal bases."""
    if B1.shape[0] != B2.shape[0]:
        raise DimensionError("ambient dimensions differ")
    if B1.shape[1] == 0 or B2.shape[1] == 0:
        return np.zeros(0)
    s = scipy.linalg.svdvals(B1.T @ B2)
    angles = np.arccos(np.clip(s, -1.0, 1.0))
    # arccos loses half the digits near zero; recompute small angles from the
    # orthogonal complement where arcsin is well conditioned
    small = angles < 1e-4
    if np.any(small):
        sines = np.sort(scipy.linalg.svdvals(B2 - B1 @ (B1.T @ B2)))
        k = int(small.sum())
        angles[small] = np.arcsin(np.clip(sines[:k], -1.0, 1.0))
    return angles


def twisted_graph_lagrangian(chi: SymplecticMatrix) -> LagrangianSubspace:
    """Twisted graph {(x, y, xi, -eta): (x, xi) = chi(y, eta)} in T*R^{2d}."""
    d = chi.d
    cols = []
    for k in range(2 * d):
        w = np.zeros(2 * d)
        w[k] = 1.0
        img = chi.apply(w)
        y, eta = w[:d], w[d:]
        x, xi = img[:d], img[d:]
        cols.append(np.concatenate([x, y, xi, -eta]))
    return LagrangianSubspace.from_span(np.array(cols).T)


# -- special matrices ----------------------------------------------------


def chirp_matrix(F: np.ndarray) -> SymplecticMatrix:
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise DimensionError("chirp matrix needs a square F")
    if np.max(np.abs(F - F.T)) > TOL_FLOAT * max(1.0, np.abs(F).max()):
        raise ValueError("chirp matrix F must be symmetric")
    d = F.shape[0]
    M = np.block([[np.eye(d), np.zeros((d, d))], [F, np.eye(d)]])
    return SymplecticMatrix(d, M)


def rotation_embedding(U: np.ndarray) -> SymplecticMatrix:
    U = np.asarray(U, dtype=float)
    d = U.shape[0]
    if U.shape != (d, d) or np.max(np.abs(U.T @ U - np.eye(d))) > 1e-10:
        raise ValueError("U must be orthogonal")
    M = np.block([[U, np.zeros((d, d))], [np.zeros((d, d)), U]])
    return SymplecticMatrix(d, M)


def scaling_matrix(A: np.ndarray) -> SymplecticMatrix:
    """diag(A, A^{-t}) for invertible A."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    Ait = np.linalg.inv(A).T
    M = np.block([[A, np.zeros((d, d))], [np.zeros((d, d)), Ait]])
    return SymplecticMatrix(d, M)


def j2_inverse(d: int, n: int) -> SymplecticMatrix:
    """Partial inverse-Fourier matrix: identity on the first n coordinates,
    rotation by -J on the remaining d - n."""
    if not 0 <= n <= d:
        raise DimensionError(f"need 0 <= n <= d, got n={n}, d={d}")
    k = d - n
    M = np.zeros((2 * d, 2 * d))
    M[:n, :n] = np.eye(n)
    M[n:d, 2 * d - k :] = -np.eye(k)
    M[d : d + n, d : d + n] = np.eye(n)
    M[d + n :, n:d] = np.eye(k)
    return SymplecticMatrix(d, M)


def chi_delta(d: int) -> SymplecticMatrix:
    """Element of Sp(2d, R) mapping R^{2d} x {0} onto the conormal bundle of
    the diagonal."""
    I = np.eye(d)
    Z = np.zeros((d, d))
    M = np.block([
        [I, Z, Z, Z],
        [I, Z, Z, I],
        [Z, I, I, Z],
        [Z, -I, Z, Z],
    ])
    return SymplecticMatrix(2 * d, M)


def tensor_symplectic(chi: SymplecticMatrix) -> SymplecticMatrix:
    """The element of Sp(2d, R) acting as chi on the first factor and the
    identity on the second: (x, xi) -> (chi(x1, xi1)_1, x2, chi(x1, xi1)_2, xi2)."""
    d = chi.d
    A, B, C, D = chi.A, chi.B, chi.C, chi.D
    Z = np.zeros((d, d))
    I = np.eye(d)
    M = np.block([
        [A, Z, B, Z],
        [Z, I, Z, Z],
        [C, Z, D, Z],
        [Z, Z, Z, I],
    ])
    return SymplecticMatrix(2 * d, M)


def random_symplectic(d: int, rng: np.random.Generator, n_factors: int = 5,
                      max_chirp: float = 1.0) -> SymplecticMatrix:
    """Well-conditioned random element: product of chirps, rotation
    embeddings, J and diagonal scalings (spans the group)."""
    out = SymplecticMatrix(d, np.eye(2 * d))
    for _ in range(n_factors):
        kind = rng.integers(0, 4)
        if kind == 0:
            F = rng.uniform(-max_chirp, max_chirp, (d, d))
            out = out @ chirp_matrix(0.5 * (F + F.T))
        elif kind == 1:
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            out = out @ rotation_embedding(Q)
        elif kind == 2:
            out = out @ standard_j(d)
        else:
            diag = np.diag(rng.uniform(0.5, 2.0, d))
            out = out @ scaling_matrix(diag)
    return out
