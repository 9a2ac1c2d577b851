"""Metaplectic operators on the grid, built from elementary factors.

Each symplectic matrix chi gets a unitary mu(chi), unique up to a unit
scalar.  The scalar is fixed so that the inner product of mu(chi) psi_0 with
the analytically known Gaussian image of psi_0 under chi is real positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .grids import GridFunction, GridSpec, OperatorMatrix, gaussian_window
from .symplectic import (
    SymplecticMatrix,
    chirp_matrix,
    free_phase_matrix,
    is_free,
    scaling_matrix,
    standard_j,
    symplectic_inverse,
)
from .weyl import weyl_kernel


def _grid_points(spec: GridSpec) -> np.ndarray:
    axes = [spec.points()] * spec.d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, spec.d)


def _dual_points(spec: GridSpec) -> np.ndarray:
    axes = [spec.dual_points()] * spec.d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, spec.d)


def _chunked_phase_apply(out_pts, in_pts, phase_func, values, weight, chunk=512):
    """sum_l e^{i phase(out, in)} values[l] * weight, chunked over output rows."""
    out = np.empty(len(out_pts), dtype=complex)
    for start in range(0, len(out_pts), chunk):
        block = phase_func(out_pts[start : start + chunk], in_pts)
        out[start : start + chunk] = np.exp(1j * block) @ values * weight
    return out


class FourierFactor:
    """Centered Fourier transform; sign -1 is mu(J), sign +1 its inverse."""

    def __init__(self, d: int, sign: int = -1):
        self.d = d
        self.sign = sign

    def symplectic(self) -> SymplecticMatrix:
        J = standard_j(self.d)
        return J if self.sign == -1 else symplectic_inverse(J)

    def apply(self, f: GridFunction) -> GridFunction:
        spec = f.spec
        pts = spec.points()
        M = (2 * np.pi) ** (-0.5) * spec.h * np.exp(self.sign * 1j * np.outer(pts, pts))
        vals = f.reshaped()
        for axis in range(spec.d):
            vals = np.tensordot(M, vals, axes=([1], [axis]))
            vals = np.moveaxis(vals, 0, axis)
        return GridFunction(spec, vals.reshape(-1))

    def kernel_matrix(self, spec: GridSpec) -> np.ndarray:
        pts = spec.points()
        return (2 * np.pi) ** (-0.5) * np.exp(self.sign * 1j * np.outer(pts, pts))

    def describe(self) -> dict:
        return {"kind": "fourier" if self.sign == -1 else "inverse_fourier"}


class ChirpFactor:
    """Multiplication by e^{i <F x, x> / 2}."""

    def __init__(self, F: np.ndarray):
        self.F = np.asarray(F, dtype=float)

    def symplectic(self) -> SymplecticMatrix:
        return chirp_matrix(self.F)

    def apply(self, f: GridFunction) -> GridFunction:
        pts = _grid_points(f.spec)
        phase = 0.5 * np.einsum("pi,ij,pj->p", pts, self.F, pts)
        return GridFunction(f.spec, np.exp(1j * phase) * f.values)

    def kernel_matrix(self, spec: GridSpec) -> np.ndarray:
        pts = _grid_points(spec)
        phase = 0.5 * np.einsum("pi,ij,pj->p", pts, self.F, pts)
        return np.diag(np.exp(1j * phase) / spec.h**spec.d)

    def describe(self) -> dict:
        return {"kind": "chirp", "F": self.F.tolist()}


class LinearFactor:
    """Pullback |det A|^{-1/2} f(A^{-1} x) with band-limited resampling."""

    def __init__(self, A: np.ndarray):
        A = np.asarray(A, dtype=float)
        if abs(np.linalg.det(A)) < 1e-12:
            raise ValueError("linear factor needs invertible A")
        self.A = A

    def symplectic(self) -> SymplecticMatrix:
        return scaling_matrix(self.A)

    def apply(self, f: GridFunction) -> GridFunction:
        spec = f.spec
        x = _grid_points(spec)
        y = x @ np.linalg.inv(self.A).T
        xi = _dual_points(spec)
        # Fourier coefficients on the dual grid, then evaluation off-grid
        coeffs = _chunked_phase_apply(xi, x, lambda o, i: -o @ i.T, f.values,
                                      1.0 / spec.size())
        vals = _chunked_phase_apply(y, xi, lambda o, i: o @ i.T, coeffs, 1.0)
        # trigonometric resampling is periodic: evaluation points outside the
        # box would wrap around and read values from the far side, so clamp
        # them to zero (grid-representable states decay there anyway)
        vals = np.where(np.any(np.abs(y) > spec.R, axis=1), 0.0, vals)
        scale = abs(np.linalg.det(self.A)) ** -0.5
        return GridFunction(spec, scale * vals)

    def kernel_matrix(self, spec: GridSpec) -> np.ndarray:
        x = _grid_points(spec)
        y = x @ np.linalg.inv(self.A).T
        xi = _dual_points(spec)
        E1 = np.exp(-1j * xi @ x.T) / spec.size()
        E2 = np.exp(1j * y @ xi.T)
        E2[np.any(np.abs(y) > spec.R, axis=1)] = 0.0
        scale = abs(np.linalg.det(self.A)) ** -0.5
        return scale * (E2 @ E1) / spec.h**spec.d

    def describe(self) -> dict:
        return {"kind": "linear", "A": self.A.tolist()}


class FreeKernelFactor:
    """Integral operator with the quadratic-exponential kernel of a free
    matrix: c e^{i phi(x, y)} with phi from the free phase matrix and
    c = (2 pi)^{-d/2} |det B|^{-1/2}."""

    def __init__(self, chi: SymplecticMatrix):
        if not is_free(chi):
            raise ValueError("free kernel factor needs a free matrix")
        self.chi = chi
        F = free_phase_matrix(chi)
        d = chi.d
        self.Fxx = F[:d, :d]
        self.Fxy = F[:d, d:]
        self.Fyy = F[d:, d:]
        self.c = (2 * np.pi) ** (-d / 2) * abs(np.linalg.det(chi.B)) ** -0.5

    def symplectic(self) -> SymplecticMatrix:
        return self.chi

    def kernel_values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """K on the product of point sets; x (p, d), y (q, d) -> (p, q)."""
        qx = 0.5 * np.einsum("pi,ij,pj->p", x, self.Fxx, x)
        qy = 0.5 * np.einsum("qi,ij,qj->q", y, self.Fyy, y)
        cross = np.einsum("pi,ij,qj->pq", x, self.Fxy, y)
        return self.c * np.exp(1j * (qx[:, None] + cross + qy[None, :]))

    def apply(self, f: GridFunction) -> GridFunction:
        spec = f.spec
        pts = _grid_points(spec)
        weight = spec.h**spec.d
        qy = 0.5 * np.einsum("qi,ij,qj->q", pts, self.Fyy, pts)
        inner = np.exp(1j * qy) * f.values

        def phase(o, i):
            return np.einsum("pi,ij,qj->pq", o, self.Fxy, i)

        vals = _chunked_phase_apply(pts, pts, phase, inner, weight)
        qx = 0.5 * np.einsum("pi,ij,pj->p", pts, self.Fxx, pts)
        return GridFunction(spec, self.c * np.exp(1j * qx) * vals)

    def kernel_matrix(self, spec: GridSpec) -> np.ndarray:
        pts = _grid_points(spec)
        return self.kernel_values(pts, pts)

    def describe(self) -> dict:
        return {"kind": "free_kernel", "chi": self.chi.entries.tolist()}


@dataclass(frozen=True)
class MetaplecticFactorization:
    chi: SymplecticMatrix
    factors: tuple
    phase: complex

    def matrix_defect(self) -> float:
        prod = np.eye(2 * self.chi.d)
        for f in self.factors:
            prod = prod @ f.symplectic().entries
        return float(np.max(np.abs(prod - self.chi.entries)))

    def to_dict(self) -> dict:
        return {
            "chi": self.chi.entries.tolist(),
            "factors": [f.describe() for f in self.factors],
            "phase": [self.phase.real, self.phase.imag],
        }


class MetaplecticOperator:
    """mu(chi) realized as an ordered product of elementary factors times a
    unit scalar."""

    def __init__(self, spec: GridSpec, factorization: MetaplecticFactorization):
        self.spec = spec
        self.factorization = factorization
        self._matrix = None

    @property
    def chi(self) -> SymplecticMatrix:
        return self.factorization.chi

    def apply(self, f: GridFunction) -> GridFunction:
        out = f
        for factor in reversed(self.factorization.factors):
            out = factor.apply(out)
        return self.factorization.phase * out

    def matrix(self) -> OperatorMatrix:
        """Dense kernel matrix (desk scale; d = 1 or small d = 2 grids)."""
        if self._matrix is None:
            op = None
            for factor in reversed(self.factorization.factors):
                fmat = OperatorMatrix(self.spec, factor.kernel_matrix(self.spec))
                op = fmat if op is None else fmat.compose(op)
            entries = op.entries * self.factorization.phase
            self._matrix = OperatorMatrix(self.spec, entries)
        return self._matrix

    def inverse_apply(self, f: GridFunction) -> GridFunction:
        """Adjoint application (the operator is unitary on the grid)."""
        M = self.matrix()
        return GridFunction(self.spec, M.weight * (M.entries.conj().T @ f.values))


def gaussian_image(chi: SymplecticMatrix, spec: GridSpec) -> GridFunction:
    """Analytic image of psi_0 under mu(chi): a normalized Gaussian
    pi^{-d/4} |det(A + iB)|^{-1/2} e^{i <W x, x>/2}, W = (C + iD)(A + iB)^{-1},
    with positive value at the origin."""
    A, B, C, D = chi.A, chi.B, chi.C, chi.D
    M = A + 1j * B
    W = (C + 1j * D) @ np.linalg.inv(M)
    amp = np.pi ** (-chi.d / 4) * abs(np.linalg.det(M)) ** -0.5
    pts = _grid_points(spec)
    phase = 0.5 * np.einsum("pi,ij,pj->p", pts, W, pts)
    return GridFunction(spec, amp * np.exp(1j * phase))


FREE_SHIFTS = (1.0, -1.0, 2.0, -2.0, 4.0, -4.0)


def mu_factors(chi: SymplecticMatrix) -> tuple:
    """Ordered factor list whose symplectic product is chi."""
    d = chi.d
    if np.max(np.abs(chi.B)) < 1e-12:
        # lower block-triangular: an exact pointwise chirp times a linear
        # substitution, no oscillatory quadrature needed
        F = chi.C @ np.linalg.inv(chi.A)
        F = 0.5 * (F + F.T)
        factors = [ChirpFactor(F)]
        if np.max(np.abs(chi.A - np.eye(d))) > 1e-12:
            factors.append(LinearFactor(chi.A))
        return tuple(factors)
    # the explicit kernel has frequencies ~ 1/sigma_min(B); only use it when
    # B is well conditioned, otherwise the sampled kernel aliases
    if is_free(chi) and scipy.linalg.svdvals(chi.B)[-1] > 0.25:
        return (FreeKernelFactor(chi),)
    # prefer the smallest shift that is well conditioned: large shifts mean
    # large intermediate chirps, which push states against the grid box
    best, best_sigma = None, 0.0
    for t in FREE_SHIFTS:
        G = t * np.eye(d)
        sigma = scipy.linalg.svdvals(chi.A @ G + chi.B)[-1]
        if sigma > 0.25:
            best, best_sigma = G, sigma
            break
        if sigma > best_sigma:
            best, best_sigma = G, sigma
    if best is not None and best_sigma > 1e-8:
        G = best
        UG = SymplecticMatrix(d, np.block([
            [np.eye(d), G], [np.zeros((d, d)), np.eye(d)]
        ]))
        # chi = (chi UG) UG^{-1} and UG^{-1} = J^{-1} chirp(G) J
        return (FreeKernelFactor(chi @ UG), FourierFactor(d, +1),
                ChirpFactor(G), FourierFactor(d, -1))
    raise RuntimeError("free-factor search exhausted; input not symplectic?")


def mu_general(chi: SymplecticMatrix, spec: GridSpec,
               phase_fix: str = "gaussian") -> MetaplecticOperator:
    factors = mu_factors(chi)
    fact = MetaplecticFactorization(chi, factors, 1.0 + 0j)
    op = MetaplecticOperator(spec, fact)
    if phase_fix == "gaussian":
        psi0 = gaussian_window(spec)
        target = gaussian_image(chi, spec)
        z = op.apply(psi0).inner(target)
        if abs(z) < 1e-6:
            raise RuntimeError("phase normalization failed: Gaussian overlap ~ 0")
        fact = MetaplecticFactorization(chi, factors, complex(abs(z) / z))
        op = MetaplecticOperator(spec, fact)
    return op


def mu_fourier(spec: GridSpec) -> MetaplecticOperator:
    d = spec.d
    return MetaplecticOperator(
        spec, MetaplecticFactorization(standard_j(d), (FourierFactor(d, -1),), 1.0 + 0j)
    )


def mu_chirp(F: np.ndarray, spec: GridSpec) -> MetaplecticOperator:
    F = np.asarray(F, dtype=float)
    return MetaplecticOperator(
        spec, MetaplecticFactorization(chirp_matrix(F), (ChirpFactor(F),), 1.0 + 0j)
    )


def mu_linear(A: np.ndarray, spec: GridSpec) -> MetaplecticOperator:
    A = np.asarray(A, dtype=float)
    return MetaplecticOperator(
        spec, MetaplecticFactorization(scaling_matrix(A), (LinearFactor(A),), 1.0 + 0j)
    )


def homomorphism_residual(chi1: SymplecticMatrix, chi2: SymplecticMatrix,
                          spec: GridSpec, f: GridFunction) -> float:
    """min over unit scalars c of ||mu(chi1) mu(chi2) f - c mu(chi1 chi2) f|| / ||f||."""
    m1 = mu_general(chi1, spec)
    m2 = mu_general(chi2, spec)
    m12 = mu_general(chi1 @ chi2, spec)
    lhs = m1.apply(m2.apply(f))
    rhs = m12.apply(f)
    z = lhs.inner(rhs)
    c = z / abs(z) if abs(z) > 0 else 1.0
    return (lhs - c * rhs).norm() / f.norm()


def unitarity_defect(op: MetaplecticOperator, f: GridFunction) -> float:
    return abs(op.apply(f).norm() - f.norm()) / f.norm()


def egorov_residual(chi: SymplecticMatrix, a, spec: GridSpec,
                    margin: float = 0.6) -> float:
    """Relative operator-norm difference between mu(chi)^{-1} a^w mu(chi) and
    (a o chi)^w, compressed to grid-representable states.

    The comparison span is the leading Hermite functions whose phase-space
    support stays inside the grid box under chi and chi^{-1}: grid vectors
    whose image leaves the domain see truncation, not the operators, so the
    raw matrix norm would measure discretization junk instead of the
    covariance identity.
    """
    from .grids import hermite_values

    box = min(spec.R, np.pi * spec.n / (2 * spec.R))
    stretch = np.linalg.norm(chi.entries, 2)
    n_modes = max(8, int(((margin * box / stretch) ** 2 - 1) / 2))
    op = mu_general(chi, spec)
    M = op.matrix().weighted()
    A = weyl_kernel(a, spec).weighted()
    lhs = M.conj().T @ A @ M

    def a_chi(z):
        shape = z.shape[:-1]
        flat = z.reshape(-1, 2) @ chi.entries.T
        return np.asarray(a(flat.reshape(shape + (2,))), dtype=complex)

    rhs = weyl_kernel(a_chi, spec).weighted()
    x = spec.points()
    V = np.stack([hermite_values(k, x) for k in range(n_modes)], axis=1)
    V, _ = np.linalg.qr(V * spec.h**0.5)
    dl = V.conj().T @ lhs @ V
    dr = V.conj().T @ rhs @ V
    scale = max(np.linalg.norm(dr, 2), 1e-300)
    return float(np.linalg.norm(dl - dr, 2) / scale)


def fbi_covariance_residual(chi: SymplecticMatrix, u: GridFunction,
                            g_callable, spec: GridSpec,
                            interior: float = 0.5) -> float:
    """max over interior phase-space grid points of
    | |T_{mu g}(mu u)(z)| - |T_g u(chi^{-1} z)| |.

    The window must be given as a callable so the right-hand side can be
    evaluated at off-grid points by exact quadrature.
    """
    from .gabor import gabor_transform, gabor_transform_points

    op = mu_general(chi, spec)
    g_grid = GridFunction.sample(spec, lambda x: g_callable(x))
    mu_u = op.apply(u)
    mu_g = op.apply(g_grid)
    field = gabor_transform(mu_u, mu_g)
    X, XI = np.meshgrid(field.x, field.xi, indexing="ij")
    mask = (X**2 + XI**2) <= (interior * spec.R) ** 2
    pts = np.stack([X[mask], XI[mask]], axis=-1)
    back = pts @ symplectic_inverse(chi).entries.T
    ref = gabor_transform_points(u, g_callable, back)
    return float(np.max(np.abs(np.abs(field.values[mask]) - np.abs(ref))))
