"""Metaplectic operators on the grid, built from elementary factors.

Each symplectic matrix chi gets a unitary mu(chi), unique up to a unit
scalar.  The scalar is fixed so that the inner product of mu(chi) psi_0 with
the analytically known Gaussian image of psi_0 under chi is real positive.
Each factor's `act` maps samples with one row per grid point (and optional
trailing columns); the dense matrix is the factor chain applied to the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .gabor import gabor_transform, gabor_transform_points
from .grids import (GridFunction, GridSpec, OperatorMatrix, SizeGuardError,
                    gaussian_window, hermite_values)
from .symplectic import (
    DimensionError,
    SymplecticMatrix,
    free_phase_matrix,
    is_free,
    symplectic_inverse,
)
from .weyl import _pullback, weyl_kernel

PHASE_CHUNK = 512  # phase contraction intermediates hold at most this many times N entries
EGOROV_MARGIN = 0.6  # Egorov span: Hermite modes within this fraction of the box
FBI_INTERIOR = 0.5  # FBI covariance is compared within this fraction of R


def _mesh_points(axis: np.ndarray, d: int) -> np.ndarray:
    """The d-fold product of a 1D axis as (len(axis)^d, d) points."""
    return np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)


def _per_row(w: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """w (one entry per grid point) shaped to scale the rows of vals."""
    return w.reshape(w.shape + (1,) * (vals.ndim - 1))


def _phase_contract(w: np.ndarray, axis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum over the product grid axis^d of e^{i w(out) . in} values[in], one
    output row per row of w (rows, d).  The phase splits into
    prod_j e^{i w_j(out) in_j}: the last input axis is contracted by one matrix
    product with a rows x n exponential block, each other axis is folded in by
    a batched product.  Rows are chunked so that no intermediate passes
    PHASE_CHUNK n^d entries; SizeGuardError past MEMORY_CAP_ENTRIES."""
    n, (rows, d) = len(axis), w.shape
    tail = values.shape[1:]
    cols = math.prod(tail)
    chunk = max(1, min(rows, PHASE_CHUNK * n ** (d - 1), PHASE_CHUNK * n // cols))
    SizeGuardError.check(chunk * n)
    SizeGuardError.check(chunk * n ** (d - 1) * cols)
    # rows: the last input axis; columns: the other input axes, then the tail
    values = np.moveaxis(values.reshape((-1, n) + tail), 1, 0).reshape(n, -1)
    out = np.empty((rows,) + tail, dtype=complex)
    for start in range(0, rows, chunk):
        wc = w[start : start + chunk]
        acc = np.exp(1j * (wc[:, -1:] * axis)) @ values
        for j in reversed(range(d - 1)):
            acc = acc.reshape(len(wc), n ** j, n, cols)
            acc = (np.exp(1j * (wc[:, j, None] * axis))[:, None, None, :] @ acc)[:, :, 0]
        out[start : start + chunk] = acc.reshape((len(wc),) + tail)
    return out


class FourierFactor:
    """Centered Fourier transform; sign -1 is mu(J), sign +1 its inverse."""

    def __init__(self, sign: int = -1):
        self.sign = sign

    def act(self, spec: GridSpec, vals: np.ndarray) -> np.ndarray:
        SizeGuardError.check(spec.n**2)
        pts = spec.points()
        M = (2 * np.pi) ** (-0.5) * spec.h * np.exp(self.sign * 1j * np.outer(pts, pts))
        out = vals.reshape((spec.n,) * spec.d + vals.shape[1:])
        for axis in range(spec.d):
            out = np.tensordot(M, out, axes=([1], [axis]))
            out = np.moveaxis(out, 0, axis)
        return out.reshape(vals.shape)

    def apply(self, f: GridFunction) -> GridFunction:
        return GridFunction(f.spec, self.act(f.spec, f.values))

    def describe(self) -> dict:
        return {"kind": "fourier" if self.sign == -1 else "inverse_fourier"}


class ChirpFactor:
    """Multiplication by e^{i <F x, x> / 2}."""

    def __init__(self, F: np.ndarray):
        self.F = np.asarray(F, dtype=float)

    def act(self, spec: GridSpec, vals: np.ndarray) -> np.ndarray:
        pts = _mesh_points(spec.points(), spec.d)
        phase = 0.5 * np.einsum("pi,ij,pj->p", pts, self.F, pts)
        return _per_row(np.exp(1j * phase), vals) * vals

    def apply(self, f: GridFunction) -> GridFunction:
        return GridFunction(f.spec, self.act(f.spec, f.values))

    def describe(self) -> dict:
        return {"kind": "chirp", "F": self.F.tolist()}


class LinearFactor:
    """Pullback |det A|^{-1/2} f(A^{-1} x) with band-limited resampling."""

    def __init__(self, A: np.ndarray):
        A = np.asarray(A, dtype=float)
        if abs(np.linalg.det(A)) < 1e-12:
            raise ValueError("linear factor needs invertible A")
        self.A = A

    def act(self, spec: GridSpec, vals: np.ndarray) -> np.ndarray:
        x, xi = spec.points(), spec.dual_points()
        y = _mesh_points(x, spec.d) @ np.linalg.inv(self.A).T
        # Fourier coefficients on the dual grid, then evaluation off-grid
        coeffs = _phase_contract(-_mesh_points(xi, spec.d), x, vals) * (1.0 / spec.size())
        out = _phase_contract(y, xi, coeffs)
        # trigonometric resampling is periodic: evaluation points outside the
        # box would wrap around and read values from the far side, so clamp
        # them to zero (grid-representable states decay there anyway)
        out = np.where(_per_row(np.any(np.abs(y) > spec.R, axis=1), out), 0.0, out)
        scale = abs(np.linalg.det(self.A)) ** -0.5
        return scale * out

    def apply(self, f: GridFunction) -> GridFunction:
        return GridFunction(f.spec, self.act(f.spec, f.values))

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

    def act(self, spec: GridSpec, vals: np.ndarray) -> np.ndarray:
        pts = _mesh_points(spec.points(), spec.d)
        qy = 0.5 * np.einsum("qi,ij,qj->q", pts, self.Fyy, pts)
        inner = _per_row(np.exp(1j * qy), vals) * vals
        out = _phase_contract(pts @ self.Fxy, spec.points(), inner) * spec.h**spec.d
        qx = 0.5 * np.einsum("pi,ij,pj->p", pts, self.Fxx, pts)
        return self.c * _per_row(np.exp(1j * qx), out) * out

    def apply(self, f: GridFunction) -> GridFunction:
        return GridFunction(f.spec, self.act(f.spec, f.values))

    def describe(self) -> dict:
        return {"kind": "free_kernel", "chi": self.chi.entries.tolist()}


@dataclass(frozen=True)
class MetaplecticFactorization:
    chi: SymplecticMatrix
    factors: tuple
    phase: complex

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
        if factorization.chi.d != spec.d:
            raise DimensionError(f"chi acts on d = {factorization.chi.d}, grid has d = {spec.d}")
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
        """Dense kernel matrix: the factor chain applied to the identity,
        divided by the quadrature weight h^d (desk scale; d = 1 or small
        d = 2 grids).  Refuses with SizeGuardError past MEMORY_CAP_ENTRIES."""
        if self._matrix is None:
            N = self.spec.size()
            SizeGuardError.check(N * N)
            vals = np.eye(N, dtype=complex)
            for factor in reversed(self.factorization.factors):
                vals = factor.act(self.spec, vals)
            entries = self.factorization.phase * vals / self.spec.h**self.spec.d
            self._matrix = OperatorMatrix(self.spec, entries)
        return self._matrix


def gaussian_image(chi: SymplecticMatrix, spec: GridSpec) -> GridFunction:
    """Analytic image of psi_0 under mu(chi): a normalized Gaussian
    pi^{-d/4} |det(A + iB)|^{-1/2} e^{i <W x, x>/2}, W = (C + iD)(A + iB)^{-1},
    with positive value at the origin."""
    A, B, C, D = chi.A, chi.B, chi.C, chi.D
    M = A + 1j * B
    W = (C + 1j * D) @ np.linalg.inv(M)
    amp = np.pi ** (-chi.d / 4) * abs(np.linalg.det(M)) ** -0.5
    pts = _mesh_points(spec.points(), spec.d)
    phase = 0.5 * np.einsum("pi,ij,pj->p", pts, W, pts)
    return GridFunction(spec, amp * np.exp(1j * phase))


FREE_SHIFTS = (1.0, -1.0, 2.0, -2.0, 4.0, -4.0)


def _resolves(chi: SymplecticMatrix, spec: GridSpec) -> bool:
    """Whether spec samples the free kernel of chi without aliasing: its
    integrand in y has the linear frequency Fyy y + Fxy^T x, whose largest
    component over the box |x|, |y| <= R must be at most pi / h."""
    F = free_phase_matrix(chi)
    d = chi.d
    reach = np.abs(F[d:, d:]).sum(axis=1) + np.abs(F[:d, d:]).sum(axis=0)
    return spec.R * float(reach.max()) <= np.pi / spec.h


def _shift(chi: SymplecticMatrix, G: np.ndarray) -> SymplecticMatrix:
    """chi UG with UG = [[I, G], [0, I]]."""
    d = chi.d
    return chi @ SymplecticMatrix(d, np.block([[np.eye(d), G], [np.zeros((d, d)), np.eye(d)]]))


def _free_path(free: SymplecticMatrix, G: np.ndarray | None) -> tuple:
    """The factors of chi given free = chi UG, a free matrix: its free
    kernel, then UG^{-1} = J^{-1} chirp(G) J unless G is None (free = chi)."""
    if G is None:
        return (FreeKernelFactor(free),)
    return (FreeKernelFactor(free), FourierFactor(+1), ChirpFactor(G), FourierFactor(-1))


def mu_factors(chi: SymplecticMatrix, spec: GridSpec) -> tuple:
    """Ordered factor list whose symplectic product is chi, for samples on
    spec.  The candidates are chi, then chi UG for each G in FREE_SHIFTS,
    each shift built when a rule first reaches it.  The path is the free
    kernel of the first candidate that spec resolves (_resolves, d = 1
    only), else of the first whose B is well conditioned, else of the shift
    whose B is best conditioned."""
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
    shifts = {}

    def candidates():  # (G, chi UG): chi itself with G None, then each shift
        yield None, chi
        for t in FREE_SHIFTS:
            if t not in shifts:
                shifts[t] = _shift(chi, t * np.eye(d))
            yield t * np.eye(d), shifts[t]

    if d == 1:
        for G, c in candidates():
            if is_free(c) and _resolves(c, spec):
                return _free_path(c, G)
    # the explicit kernel has frequencies ~ 1/sigma_min(B); only use it when
    # B is well conditioned, otherwise the sampled kernel aliases.  Smaller
    # shifts come first: large shifts mean large intermediate chirps, which
    # push states against the grid box
    best, best_sigma = None, 1e-8
    for G, c in candidates():
        sigma = scipy.linalg.svdvals(c.B)[-1]
        if sigma > 0.25:
            return _free_path(c, G)
        if G is not None and sigma > best_sigma:
            best, best_sigma = (c, G), sigma
    if best is None:
        raise RuntimeError("free-factor search exhausted; input not symplectic?")
    return _free_path(*best)


def mu_general(chi: SymplecticMatrix, spec: GridSpec) -> MetaplecticOperator:
    """mu(chi) on the grid, its unit constant chosen so that the image of the
    standard Gaussian has a positive overlap with gaussian_image(chi)."""
    factors = mu_factors(chi, spec)
    op = MetaplecticOperator(spec, MetaplecticFactorization(chi, factors, 1.0 + 0j))
    z = op.apply(gaussian_window(spec)).inner(gaussian_image(chi, spec))
    if abs(z) < 1e-6:
        raise RuntimeError("phase normalization failed: Gaussian overlap ~ 0")
    return MetaplecticOperator(spec, MetaplecticFactorization(chi, factors, complex(abs(z) / z)))


def homomorphism_residual(chi1: SymplecticMatrix, chi2: SymplecticMatrix,
                          f: GridFunction) -> float:
    """min over unit scalars c of ||mu(chi1) mu(chi2) f - c mu(chi1 chi2) f|| / ||f||."""
    m1 = mu_general(chi1, f.spec)
    m2 = mu_general(chi2, f.spec)
    m12 = mu_general(chi1 @ chi2, f.spec)
    lhs = m1.apply(m2.apply(f))
    rhs = m12.apply(f)
    z = lhs.inner(rhs)
    c = z / abs(z) if abs(z) > 0 else 1.0
    return (lhs - c * rhs).norm() / f.norm()


def unitarity_defect(op: MetaplecticOperator, f: GridFunction) -> float:
    return abs(op.apply(f).norm() - f.norm()) / f.norm()


def egorov_residual(chi: SymplecticMatrix, a, spec: GridSpec) -> float:
    """Relative operator-norm difference between mu(chi)^{-1} a^w mu(chi) and
    (a o chi)^w, compressed to grid-representable states.

    The comparison span is the leading Hermite functions whose phase-space
    support stays inside the grid box under chi and chi^{-1}: grid vectors
    whose image leaves the domain see truncation, not the operators, so the
    raw matrix norm would measure discretization junk instead of the
    covariance identity.
    """
    box = min(spec.R, np.pi * spec.n / (2 * spec.R))
    stretch = np.linalg.norm(chi.entries, 2)
    n_modes = max(8, int(((EGOROV_MARGIN * box / stretch) ** 2 - 1) / 2))
    op = mu_general(chi, spec)
    M = op.matrix().weighted()
    A = weyl_kernel(a, spec).weighted()
    lhs = M.conj().T @ A @ M

    rhs = weyl_kernel(_pullback(a, chi.entries), spec).weighted()
    x = spec.points()
    V = np.stack([hermite_values(k, x) for k in range(n_modes)], axis=1)
    V, _ = np.linalg.qr(V * spec.h**0.5)
    dl = V.conj().T @ lhs @ V
    dr = V.conj().T @ rhs @ V
    scale = max(np.linalg.norm(dr, 2), 1e-300)
    return float(np.linalg.norm(dl - dr, 2) / scale)


def fbi_covariance_residual(chi: SymplecticMatrix, u: GridFunction) -> float:
    """max over interior phase-space grid points of
    | |T_{mu g}(mu u)(z)| - |T_g u(chi^{-1} z)| | for the window g = psi_0.

    The right-hand side is evaluated at off-grid points by exact quadrature.
    """
    spec = u.spec
    op = mu_general(chi, spec)
    mu_u = op.apply(u)
    mu_g = op.apply(gaussian_window(spec))
    field = gabor_transform(mu_u, mu_g)
    X, XI = np.meshgrid(*field.axes, indexing="ij")
    mask = (X**2 + XI**2) <= (FBI_INTERIOR * spec.R) ** 2
    pts = np.stack([X[mask], XI[mask]], axis=-1)
    back = pts @ symplectic_inverse(chi).entries.T
    ref = gabor_transform_points(u, back)
    return float(np.max(np.abs(np.abs(field.values[mask]) - np.abs(ref))))
