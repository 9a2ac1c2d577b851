"""Quadratic phase functions on R^{2d} x R^N and their reduction calculus.

A phase is phi(X, theta) = <X, F X>/2 + <L theta, X> + <theta, Q theta>/2
with X = (x, y) in R^{2d}.  Non-degeneracy means the stacked matrix (L; Q)
is injective.  The critical set is ker of (X, theta) -> L^t X + Q theta and
the parametrized Lagrangian is {(X, FX + L theta)} over the critical set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .symplectic import (
    DimensionError,
    LagrangianSubspace,
    SymplecticMatrix,
    free_phase_matrix,
)

SYM_TOL = 1e-12


def _check_symmetric(M: np.ndarray, name: str, tol: float = SYM_TOL):
    if M.size and np.max(np.abs(M - M.T)) > tol * max(1.0, np.abs(M).max()):
        raise ValueError(f"{name} must be symmetric")


@dataclass(frozen=True)
class QuadraticPhase:
    """Quadratic form (F, L, Q) in dimensions (d, N); N = 0 means no fiber
    variable and the phase is X -> <X, FX>/2."""

    d: int
    N: int
    F: np.ndarray
    L: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float)
        L = np.asarray(self.L, dtype=float).reshape(2 * self.d, self.N)
        Q = np.asarray(self.Q, dtype=float).reshape(self.N, self.N)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "Q", Q)
        if self.d < 1 or self.N < 0:
            raise DimensionError(f"need d >= 1 and N >= 0, got d={self.d}, N={self.N}")
        if F.shape != (2 * self.d, 2 * self.d):
            raise DimensionError(f"F has shape {F.shape}, expected {(2 * self.d, 2 * self.d)}")
        _check_symmetric(F, "F")
        _check_symmetric(Q, "Q")

    @classmethod
    def from_matrices(cls, d: int, F, L=None, Q=None) -> "QuadraticPhase":
        F = np.asarray(F, dtype=float)
        if L is None:
            return cls(d, 0, F, np.zeros((2 * d, 0)), np.zeros((0, 0)))
        L = np.asarray(L, dtype=float).reshape(2 * d, -1)
        N = L.shape[1]
        Q = np.zeros((N, N)) if Q is None else np.asarray(Q, dtype=float).reshape(N, N)
        return cls(d, N, F, L, Q)

    def gradient_x(self, X, theta) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        theta = np.asarray(theta, dtype=float).reshape(self.N)
        return self.F @ X + self.L @ theta


def pseudodifferential_phase(d: int = 1) -> QuadraticPhase:
    """phi(x, y, theta) = <x - y, theta>, the Kohn-Nirenberg kernel phase."""
    L = np.vstack([np.eye(d), -np.eye(d)])
    return QuadraticPhase.from_matrices(d, np.zeros((2 * d, 2 * d)), L)


def check_nondegeneracy(phi: QuadraticPhase) -> bool:
    """True iff the stacked matrix (L; Q) has full column rank N."""
    if phi.N == 0:
        return True
    stacked = np.vstack([phi.L, phi.Q])
    s = scipy.linalg.svdvals(stacked)
    return bool(s[-1] > 1e-10 * s[0])


def critical_set(phi: QuadraticPhase) -> np.ndarray:
    """Orthonormal basis (columns) of C_phi = ker((X, theta) -> L^t X + Q theta),
    a subspace of R^{2d + N} of dimension 2d for nondegenerate phases."""
    if not check_nondegeneracy(phi):
        raise ValueError("degenerate phase: (L; Q) is rank-deficient")
    if phi.N == 0:
        return np.eye(2 * phi.d)
    M = np.hstack([phi.L.T, phi.Q])
    basis = scipy.linalg.null_space(M)
    if basis.shape[1] != 2 * phi.d:
        raise ValueError(
            f"critical set has dimension {basis.shape[1]}, expected {2 * phi.d}"
        )
    return basis


def lagrangian_of_phase(phi: QuadraticPhase) -> LagrangianSubspace:
    """Lambda_phi = {(X, FX + L theta) : (X, theta) in C_phi} in T*R^{2d}."""
    C = critical_set(phi)
    twod = 2 * phi.d
    cols = []
    for v in C.T:
        X, theta = v[:twod], v[twod:]
        cols.append(np.concatenate([X, phi.gradient_x(X, theta)]))
    return LagrangianSubspace.from_span(np.array(cols).T)


@dataclass(frozen=True)
class ReductionRecord:
    reduced: QuadraticPhase
    eliminated: tuple  # tuples (eigenvalue q, vector ell)
    theta_rotation: np.ndarray  # orthogonal N x N change of fiber variables
    n: int  # final fiber dimension

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "eliminated": [
                {"eigenvalue": float(q), "vector": list(map(float, ell))}
                for q, ell in self.eliminated
            ],
            "theta_rotation": self.theta_rotation.tolist(),
            "reduced": phase_to_dict(self.reduced),
        }


def reduce_phase(phi: QuadraticPhase) -> ReductionRecord:
    """Eliminate the quadratic fiber part by completion of squares.

    Q is orthogonally diagonalized; each nonzero eigenvalue q with rotated
    L-column ell contributes F <- F - q^{-1} ell ell^t and drops that fiber
    coordinate.  The parametrized Lagrangian is unchanged.
    """
    if not check_nondegeneracy(phi):
        raise ValueError("degenerate phase: (L; Q) is rank-deficient")
    if phi.N == 0:
        return ReductionRecord(phi, (), np.zeros((0, 0)), 0)
    _check_symmetric(phi.Q, "Q", 1e-10)
    eigvals, V = np.linalg.eigh(phi.Q)
    Lrot = phi.L @ V
    qnorm = np.abs(eigvals).max(initial=0.0)
    thresh = 1e-10 * max(1.0, qnorm)
    # eliminate in descending |q| for conditioning of the rank-one updates
    order = np.argsort(-np.abs(eigvals))
    F = phi.F.copy()
    eliminated = []
    keep = []
    for idx in order:
        q = eigvals[idx]
        ell = Lrot[:, idx]
        if abs(q) > thresh:
            F = F - np.outer(ell, ell) / q
            eliminated.append((float(q), ell.copy()))
        else:
            keep.append(idx)
    keep.sort()
    Lnew = Lrot[:, keep]
    n = len(keep)
    reduced = QuadraticPhase(phi.d, n, 0.5 * (F + F.T), Lnew, np.zeros((n, n)))
    if n and scipy.linalg.svdvals(Lnew)[-1] <= 1e-10:
        raise ValueError("reduction produced a non-injective L")
    return ReductionRecord(reduced, tuple(eliminated), V, n)


class NotAGraphError(ValueError):
    pass


def chi_from_phase(phi: QuadraticPhase) -> SymplecticMatrix:
    """Recover chi from a phase whose Lagrangian is a twisted graph.

    Points of the Lagrangian are (x, y, xi, eta') with eta' = -eta and
    (x, xi) = chi(y, eta); solve the linear map (y, eta) -> (x, xi) from a
    basis by least squares.
    """
    d = phi.d
    basis = lagrangian_of_phase(phi).basis
    x = basis[:d]
    y = basis[d : 2 * d]
    xi = basis[2 * d : 3 * d]
    eta = -basis[3 * d :]
    M_in = np.vstack([y, eta])
    M_out = np.vstack([x, xi])
    sol, _, rank, _ = np.linalg.lstsq(M_in.T, M_out.T, rcond=None)
    if rank < 2 * d:
        raise NotAGraphError("Lagrangian is not a graph over the (y, eta) block")
    chi_entries = sol.T
    residual = np.max(np.abs(chi_entries @ M_in - M_out))
    if residual > 1e-8:
        raise NotAGraphError(f"graph fit residual {residual:.2e} exceeds 1e-8")
    return SymplecticMatrix(d, chi_entries)


def phase_from_free_matrix(chi: SymplecticMatrix) -> QuadraticPhase:
    """Canonical fiberless phase of a free matrix: phi(X) = <X, FX>/2."""
    return QuadraticPhase.from_matrices(chi.d, free_phase_matrix(chi))


@dataclass(frozen=True)
class HelfferReport:
    left_sigma_min: float
    right_sigma_min: float
    estimates_hold: bool


def helffer_conditions(phi: QuadraticPhase) -> HelfferReport:
    """Invertibility of the two block matrices encoding the estimates
    |(x,y,theta)| <~ |(phi'_y, y, phi'_theta)| and |(x,y,theta)| <~ |(x, phi'_x, phi'_theta)|.
    """
    if not check_nondegeneracy(phi):
        raise ValueError("degenerate phase")
    try:
        chi_from_phase(phi)
    except NotAGraphError as exc:
        raise ValueError("phase does not parametrize a twisted graph Lagrangian") from exc
    d, N = phi.d, phi.N
    E = phi.F[:d, :d]
    G = phi.F[:d, d:]
    H = phi.F[d:, d:]
    P = phi.L[:d]
    R = phi.L[d:]
    Q = phi.Q
    I = np.eye(d)
    Zdd = np.zeros((d, d))
    ZdN = np.zeros((d, N))
    left = np.block([[G.T, H, R], [Zdd, I, ZdN], [P.T, R.T, Q]])
    right = np.block([[I, Zdd, ZdN], [E, G, P], [P.T, R.T, Q]])
    s_left = scipy.linalg.svdvals(left)
    s_right = scipy.linalg.svdvals(right)
    return HelfferReport(
        left_sigma_min=float(s_left[-1]),
        right_sigma_min=float(s_right[-1]),
        estimates_hold=bool(s_left[-1] > 1e-8 and s_right[-1] > 1e-8),
    )


def phase_to_dict(phi: QuadraticPhase) -> dict:
    return {
        "d": phi.d,
        "N": phi.N,
        "F": phi.F.tolist(),
        "L": phi.L.tolist(),
        "Q": phi.Q.tolist(),
    }


def phase_from_dict(data: dict) -> QuadraticPhase:
    """The phase of a JSON object with keys d, F and optionally N, L, Q; any
    other input is a ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a phase is a JSON object, got {type(data).__name__}")
    try:
        d = int(data["d"])
        N = int(data.get("N", 0))
        F = np.asarray(data["F"], dtype=float)
        L = np.asarray(data.get("L", np.zeros((2 * d, N))), dtype=float).reshape(2 * d, N)
        Q = np.asarray(data.get("Q", np.zeros((N, N))), dtype=float).reshape(N, N)
    except TypeError as exc:
        raise ValueError(f"malformed phase: {exc}") from exc
    return QuadraticPhase(d, N, F, L, Q)


def random_nondegenerate_phase(d: int, N: int, rng: np.random.Generator) -> QuadraticPhase:
    F = rng.standard_normal((2 * d, 2 * d))
    F = 0.5 * (F + F.T)
    for _ in range(50):
        L = rng.standard_normal((2 * d, N)) if N else np.zeros((2 * d, 0))
        Q = rng.standard_normal((N, N)) if N else np.zeros((0, 0))
        Q = 0.5 * (Q + Q.T)
        phi = QuadraticPhase(d, N, F, L, Q)
        if check_nondegeneracy(phi):
            return phi
    raise RuntimeError("failed to draw a nondegenerate phase")
