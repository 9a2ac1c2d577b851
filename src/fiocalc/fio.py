"""Oscillatory-integral kernels with quadratic phases, their factorization
through metaplectic operators, composition, adjoints, and phase-space kernel
checks.

A kernel is either given as an oscillatory integral over fiber variables
theta, or in factored form b^w(x, D) mu(chi) with a Weyl symbol b and a
symplectic matrix chi.  The two forms describe the same operator class and
the module converts between them numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, factorial

import numpy as np

from .gabor import (
    N_SECTORS,
    Field4D,
    ProfileReport,
    _interior_box,
    _span_distance,
    chi_twist_field,
    decay_profile,
    profile_report,
    wavefront_estimate,
)
from .grids import (GridFunction, GridSpec, OperatorMatrix, SizeGuardError,
                    hermite_grid_function)
from .metaplectic import mu_general
from .phases import QuadraticPhase, chi_from_phase
from .symbols import ShubinSymbol, _eval_terms, custom_symbol, shubin_decay_test
from .symplectic import (
    SymplecticMatrix,
    symplectic_inverse,
    twisted_graph_lagrangian,
)
from .weyl import (
    _pullback,
    interior_mask,
    symbol_callable,
    symbol_from_kernel,
    weyl_kernel,
    weyl_product,
)


@dataclass(frozen=True)
class FioSpec:
    """Operator description: oscillatory (phase + amplitude) or factored
    (Weyl symbol + symplectic matrix)."""

    form: str  # "oscillatory" or "factored"
    order: float
    rho: float
    phase: QuadraticPhase = None
    amplitude: ShubinSymbol = None  # on R^{2d+N} for oscillatory
    b: object = None  # ShubinSymbol, sampled Field4D or callable on R^{2d}
    chi: SymplecticMatrix = None

    def __post_init__(self):
        if self.form not in ("oscillatory", "factored"):
            raise ValueError(f"unknown spec form {self.form!r}")
        if self.form == "oscillatory":
            if self.phase is None or self.amplitude is None:
                raise ValueError("oscillatory form needs phase and amplitude")
            if self.chi is None:
                object.__setattr__(self, "chi", chi_from_phase(self.phase))
        else:
            if self.b is None or self.chi is None:
                raise ValueError("factored form needs b and chi")

    @property
    def d(self) -> int:
        return self.chi.d


@dataclass(frozen=True)
class OscQuadrature:
    """Record of the theta-quadrature used for an oscillatory kernel."""

    T: float
    nodes_per_axis: int
    convergence: float
    doublings: int

    def to_dict(self) -> dict:
        return {"method": "quadrature", "half_width": self.T,
                "nodes_per_axis": self.nodes_per_axis,
                "convergence": self.convergence, "doublings": self.doublings}


@dataclass(frozen=True)
class GaussianClosedForm:
    """Record of a theta integral evaluated exactly as a Gaussian integral."""

    def to_dict(self) -> dict:
        return {"method": "gaussian_closed_form"}


class QuadratureError(RuntimeError):
    pass


QUAD_T0 = 8.0  # first half-width of the theta interval, doubled until converged
QUAD_TOL = 1e-6  # relative change between doublings that counts as converged
QUAD_MAX_DOUBLINGS = 3  # doublings before the quadrature gives up


def _theta_quadrature(phase: QuadraticPhase, amplitude, X: np.ndarray) -> tuple:
    """int e^{i phi(X, theta)} a(X, theta) d theta over X rows, with a smooth
    cutoff e^{-(eps theta)^4} and T doubled until the result stabilizes.

    The cutoff scale eps = 1/(2T) keeps the damping negligible on the bulk
    of [-T, T] so that the doubling test converges at rate (1/T)^4 for
    integrable amplitudes; non-integrable amplitudes show up as a stalled
    convergence estimate and are refused."""
    N = phase.N
    d2 = 2 * phase.d
    FX = 0.5 * np.einsum("pi,ij,pj->p", X, phase.F, X)
    LX = X @ phase.L  # (P, N)
    prev = None
    T = QUAD_T0
    quad = None
    node_cap = 1600 if N == 1 else 400
    for doubling in range(QUAD_MAX_DOUBLINGS + 1):
        rate = np.linalg.norm(phase.Q, 2) * T + np.abs(LX).max() + 1.0
        n_nodes = min(int(0.7 * rate * T) + 32, node_cap)
        nodes, wts = np.polynomial.legendre.leggauss(n_nodes)
        nodes = nodes * T
        wts = wts * T
        eps = 0.5 / T
        if N == 1:
            theta = nodes[:, None]
            w = wts
        else:
            t1, t2 = np.meshgrid(nodes, nodes, indexing="ij")
            theta = np.stack([t1.reshape(-1), t2.reshape(-1)], axis=-1)
            w = np.outer(wts, wts).reshape(-1)
        cutoff = np.exp(-np.sum((eps * theta) ** 4, axis=-1))
        qtheta = 0.5 * np.einsum("ti,ij,tj->t", theta, phase.Q, theta)
        out = np.zeros(len(X), dtype=complex)
        chunk = max(1, 2**22 // max(len(theta), 1))
        for s in range(0, len(X), chunk):
            pts = np.concatenate(
                [np.broadcast_to(X[s : s + chunk, None, :],
                                 (min(chunk, len(X) - s), len(theta), d2)),
                 np.broadcast_to(theta[None, :, :],
                                 (min(chunk, len(X) - s), len(theta), N))],
                axis=-1,
            )
            avals = np.asarray(amplitude(pts), dtype=complex)
            ph = LX[s : s + chunk, :] @ theta.T + qtheta[None, :]
            out[s : s + chunk] = (np.exp(1j * ph) * avals) @ (w * cutoff)
        out = out * np.exp(1j * FX)
        if prev is not None:
            scale = max(np.linalg.norm(prev), 1e-300)
            diff = np.linalg.norm(out - prev) / scale
            quad = OscQuadrature(T, n_nodes, float(diff), doubling)
            if diff < QUAD_TOL:
                return out, quad
        prev = out
        T *= 2.0
    raise QuadratureError(
        f"theta quadrature did not converge after {QUAD_MAX_DOUBLINGS} doublings "
        f"(last relative change {quad.convergence if quad else float('nan'):.2e})"
    )


def _gaussian_mean_terms(terms, M: np.ndarray, offset: int):
    """Terms of e^{sum_ij M_ij d_i d_j} p, the derivatives d_i taken along
    axis offset + i; a finite sum for a polynomial p, since each power of
    the operator lowers the degree by two."""
    out = {}
    power = list(terms)
    k = 0
    while power:
        for c, e in power:
            out[e] = out.get(e, 0.0) + c
        k += 1
        nxt = {}
        for i in range(len(M)):
            for j in range(len(M)):
                twice = _diff_terms(_diff_terms(power, offset + i), offset + j)
                for c, e in twice:
                    nxt[e] = nxt.get(e, 0.0) + M[i, j] * c / k
        power = [(c, e) for e, c in nxt.items() if c != 0.0]
    return [(c, e) for e, c in out.items() if c != 0.0]


def _gaussian_theta_integral(phase: QuadraticPhase, amplitude: ShubinSymbol,
                             X: np.ndarray) -> np.ndarray:
    """int e^{i phi(X, theta)} a(X, theta) d theta over X rows, exactly, for
    a gaussian_modulated amplitude a(z) = p(z) e^{-|z - c|^2 / w^2}.

    In theta the integrand is p e^{-theta^T A theta + beta^T theta} times
    factors free of theta, with A = I/w^2 - iQ/2 and beta = i L^T X +
    2 c_theta / w^2.  Since Re A = I/w^2 > 0, the integral is
    pi^{N/2} prod_k lambda_k(A)^{-1/2} e^{beta^T A^{-1} beta / 4} times the
    Gaussian mean of p (mean A^{-1} beta / 2, covariance A^{-1} / 2), and
    that mean is e^{d^T A^{-1} d / 4} p evaluated at the mean point
    (Hormander, ALPDO I, Sec. 7.6 and Lemma 7.7.3).  A commutes with Q, so
    lambda_k(A) = 1/w^2 - i mu_k(Q)/2 with Re > 0; the principal root of
    each is the continuation from Q = 0, where the integral is positive."""
    N, d2, dim = phase.N, 2 * phase.d, amplitude.dim
    if dim != d2 + N:
        raise ValueError(f"amplitude has dimension {dim}, phase needs {d2 + N}")
    params = amplitude.params
    w2 = float(params.get("width", 1.0)) ** 2
    c = np.asarray(params.get("center", np.zeros(dim)), dtype=float)
    A_inv = np.linalg.inv(np.eye(N) / w2 - 0.5j * phase.Q)
    lam = 1.0 / w2 - 0.5j * np.linalg.eigvalsh(phase.Q)
    beta = 1j * (X @ phase.L) + 2.0 * c[d2:] / w2
    mean = 0.5 * beta @ A_inv
    exponent = (0.5j * np.einsum("pi,ij,pj->p", X, phase.F, X)
                - np.sum((X - c[:d2]) ** 2, axis=-1) / w2 - c[d2:] @ c[d2:] / w2
                + 0.25 * np.einsum("pi,ij,pj->p", beta, A_inv, beta))
    p_mean = _eval_terms(_gaussian_mean_terms(amplitude.terms(), 0.25 * A_inv, d2),
                         np.concatenate([X, mean], axis=-1))
    return np.pi ** (N / 2) * np.prod(lam ** -0.5) * np.exp(exponent) * p_mean


def fio_kernel(spec: FioSpec, grid: GridSpec):
    """Kernel of the operator as a grid function on R^{2d} (d = 1 only).
    Refuses with SizeGuardError past MEMORY_CAP_ENTRIES kernel samples.

    The theta integral of a gaussian_modulated amplitude is evaluated in
    closed form; other amplitudes go through the theta quadrature.

    Returns (GridFunction, theta integral record): GaussianClosedForm,
    OscQuadrature, or None when there is no theta integral (N = 0 or the
    factored form).
    """
    if grid.d != 1:
        raise ValueError("kernels are built over a d = 1 grid")
    SizeGuardError.check(grid.n**2)
    spec2 = GridSpec(2, grid.n, grid.R)
    if spec.form == "factored":
        op = fio_operator(spec, grid)
        return GridFunction(spec2, op.entries.reshape(-1)), None
    phase = spec.phase
    if phase.N > 2:
        raise ValueError("oscillatory kernels support N <= 2 fiber variables")
    axes = [grid.points()] * 2
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    if phase.N == 0:
        FX = 0.5 * np.einsum("pi,ij,pj->p", X, phase.F, X)
        vals = np.exp(1j * FX) * np.asarray(spec.amplitude(X), dtype=complex)
        return GridFunction(spec2, vals), None
    if spec.amplitude.kind == "gaussian_modulated":
        vals = _gaussian_theta_integral(phase, spec.amplitude, X)
        return GridFunction(spec2, vals), GaussianClosedForm()
    vals, quad = _theta_quadrature(phase, spec.amplitude, X)
    return GridFunction(spec2, vals), quad


def fio_operator(spec: FioSpec, grid: GridSpec) -> OperatorMatrix:
    """Dense operator matrix of the spec on a d = 1 grid."""
    if spec.form == "factored":
        mu = mu_general(spec.chi, grid).matrix()
        if isinstance(spec.b, ShubinSymbol) and spec.b.kind == "constant":
            c = complex(spec.b.params.get("c", 1.0))
            return OperatorMatrix(grid, c * mu.entries)
        bw = weyl_kernel(symbol_callable(spec.b), grid)
        return bw.compose(mu)
    K, _ = fio_kernel(spec, grid)
    return OperatorMatrix(grid, K.values.reshape(grid.n, grid.n))


RESIDUAL_CAP = 0.1  # largest test-vector residual of a factorization or composition
HERMITE_TESTS = 6  # Hermite functions in the test family of those residuals
TAPER_FRAC = 0.7  # the factorization taper is flat on this fraction of R


def _vector_residual(A: OperatorMatrix, B: OperatorMatrix,
                     scalar_free: bool = False) -> float:
    """Relative difference of two operators on a family of localized test
    vectors, aggregated over the family (so vectors the operators annihilate
    do not divide by noise); optionally mod one unit scalar fitted across
    the family."""
    tests = [hermite_grid_function(A.spec, k) for k in range(HERMITE_TESTS)]
    pairs = [(A.apply(f), B.apply(f)) for f in tests]
    if scalar_free:
        num = sum(af.inner(bf) for af, bf in pairs)
        c = num / abs(num) if abs(num) > 0 else 1.0
    else:
        c = 1.0
    err = np.sqrt(sum((af - bf * complex(c)).norm() ** 2 for af, bf in pairs))
    scale = max(np.sqrt(sum(bf.norm() ** 2 for _, bf in pairs)), 1e-300)
    return float(err / scale)


@dataclass(frozen=True)
class FactorizationReport:
    symbol: Field4D  # samples on (x, xi)
    chi: SymplecticMatrix
    decay: object
    residual: float
    status: str  # "pass" or "not-in-class"

    def to_dict(self) -> dict:
        return {
            "chi": self.chi.entries.tolist(),
            "decay": self.decay.to_dict(),
            "residual": self.residual,
            "status": self.status,
        }


def _domain_taper(grid: GridSpec) -> np.ndarray:
    """Smooth window, 1 on |x| <= TAPER_FRAC R and decaying to ~0 at the edge."""
    x = grid.points()
    w = np.ones_like(x)
    t = (np.abs(x) - TAPER_FRAC * grid.R) / ((0.98 - TAPER_FRAC) * grid.R)
    sel = t > 0
    w[sel] = np.exp(-9.0 * t[sel] ** 4)
    return w


def fio_factorize(K: GridFunction, chi: SymplecticMatrix, m: float,
                  rho: float = 1.0) -> FactorizationReport:
    """Extract the Weyl symbol b with K = kernel of b^w mu(chi).

    Composes the operator of K with mu(chi)^{-1} on the right and reads off
    the symbol.  A smooth taper of the intermediate position domain sits
    between the two factors: the grid realization of mu(chi) only covers the
    part of the band reachable from [-R, R], and without the taper the sharp
    edge of that region rings through the recovered symbol.  The
    reconstruction residual compares the original operator with the one
    rebuilt from the extracted symbol samples, on localized test vectors
    (the extraction is only valid where the phase-space box supports it, so
    a full-matrix comparison would measure box truncation).
    """
    if K.spec.d != 2:
        raise ValueError("kernel must be a d = 2 grid function")
    grid = GridSpec(1, K.spec.n, K.spec.R)
    Kop = OperatorMatrix(grid, K.values.reshape(grid.n, grid.n))
    mu = mu_general(chi, grid)
    w = _domain_taper(grid)
    Bop = Kop.compose(OperatorMatrix(grid, w[:, None] * mu.matrix().entries.conj().T))
    b = symbol_from_kernel(Bop)
    rebuilt = weyl_kernel(symbol_callable(b), grid).compose(mu.matrix())
    residual = _vector_residual(Kop, rebuilt)
    scale = float(np.abs(b.values[interior_mask(b)]).max())
    decay = shubin_decay_test(b.values, b.axes, m, rho, noise=residual * scale)
    status = "pass" if residual <= RESIDUAL_CAP and decay.status == "pass" \
        else "not-in-class"
    return FactorizationReport(b, chi, decay, float(residual), status)


@dataclass(frozen=True)
class CompositionReport:
    spec: FioSpec
    residual: float
    status: str


def _as_factored(spec: FioSpec, grid: GridSpec) -> FioSpec:
    if spec.form == "factored":
        return spec
    K, _ = fio_kernel(spec, grid)
    rep = fio_factorize(K, spec.chi, spec.order, spec.rho)
    return FioSpec("factored", spec.order, spec.rho,
                   b=symbol_callable(rep.symbol), chi=spec.chi)


def _poly_terms(sym):
    """Term list (coeff, (p, q)) of a polynomial phase-space symbol, or None
    when the symbol is not polynomial."""
    if not isinstance(sym, ShubinSymbol) or sym.dim != 2 \
            or sym.kind == "gaussian_modulated":
        return None
    return sym.terms()


def _transform_terms(terms, M: np.ndarray):
    """Terms of z -> p(M z) for a polynomial p given by terms."""
    out = {}
    for c, (p, q) in terms:
        for i in range(p + 1):
            for j in range(q + 1):
                coeff = (c * comb(p, i) * comb(q, j)
                         * M[0, 0] ** i * M[0, 1] ** (p - i)
                         * M[1, 0] ** j * M[1, 1] ** (q - j))
                key = (i + j, (p - i) + (q - j))
                out[key] = out.get(key, 0.0) + coeff
    return [(c, e) for e, c in out.items() if c != 0.0]


def _diff_terms(terms, axis: int):
    out = []
    for c, e in terms:
        if e[axis] > 0:
            e2 = list(e)
            e2[axis] -= 1
            out.append((c * e[axis], tuple(e2)))
    return out


# 4th-order central difference stencils for the 1st and 2nd derivative
_FD = {
    1: ([-2, -1, 1, 2], [1.0 / 12, -8.0 / 12, 8.0 / 12, -1.0 / 12]),
    2: ([-2, -1, 0, 1, 2], [-1.0 / 12, 16.0 / 12, -30.0 / 12, 16.0 / 12, -1.0 / 12]),
}
FD_STEP = 0.05  # step of those differences for a non-polynomial symbol


def _fd_partial(func, i: int, j: int, z: np.ndarray) -> np.ndarray:
    """Numerical partial d_x^i d_xi^j func(z) for i, j <= 2 (4th order)."""
    out = np.zeros(z.shape[:-1], dtype=complex)
    offs_i, wts_i = _FD.get(i, ([0], [1.0]))
    offs_j, wts_j = _FD.get(j, ([0], [1.0]))
    for oi, wi in zip(offs_i, wts_i):
        for oj, wj in zip(offs_j, wts_j):
            pt = z + np.array([oi * FD_STEP, oj * FD_STEP])
            out = out + wi * wj * np.asarray(func(pt), dtype=complex)
    return out / FD_STEP ** (i + j) if (i or j) else out


def _moyal_partial(sym, terms):
    """Derivative oracle (i, j, z) -> d_x^i d_xi^j sym(z): analytic when the
    symbol has polynomial terms, 4th-order central differences otherwise."""
    if terms is None:
        func = symbol_callable(sym)
        return lambda i, j, z: _fd_partial(func, i, j, z)

    def partial(i, j, z):
        t = terms
        for _ in range(i):
            t = _diff_terms(t, 0)
        for _ in range(j):
            t = _diff_terms(t, 1)
        return _eval_terms(t, z)

    return partial


def _weyl_product_callable(b1, terms1, b2, terms2):
    """Callable for b1 # b2 when at least one factor is polynomial, so the
    Moyal series (i/2)^k/k! (d_x d_eta - d_xi d_y)^k terminates at the
    smallest polynomial degree.  The central differences of a non-polynomial
    factor reach second derivatives only, so a lone polynomial factor may
    have degree at most 2.  Returns None when neither factor qualifies."""
    degs = [max((sum(e) for _, e in t), default=0)
            for t in (terms1, terms2) if t is not None]
    if not degs or (len(degs) == 1 and degs[0] > 2):
        return None
    deg = min(degs)
    p1 = _moyal_partial(b1, terms1)
    p2 = _moyal_partial(b2, terms2)

    def product(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape[:-1], dtype=complex)
        for k in range(deg + 1):
            ck = (0.5j) ** k / factorial(k)
            for j in range(k + 1):
                a = p1(k - j, j, z)
                b = p2(j, k - j, z)
                out = out + ck * comb(k, j) * (-1) ** j * a * b
        return out

    return product


def fio_compose(s1: FioSpec, s2: FioSpec, grid: GridSpec) -> CompositionReport:
    """Composition at the spec level: (b1 # (b2 o chi1^{-1}), chi1 chi2).

    The Weyl product is evaluated through the finite Moyal sum whenever one
    factor is polynomial (then the series terminates exactly); otherwise it
    falls back to the symbol of the composed kernel matrices.  The residual
    compares the operator of the returned spec against the matrix product
    of the input operators, up to one unit scalar (the metaplectic phase
    ambiguity)."""
    f1 = _as_factored(s1, grid)
    f2 = _as_factored(s2, grid)
    chi1_inv = symplectic_inverse(f1.chi)
    b2_pulled = _pullback(symbol_callable(f2.b), chi1_inv.entries)
    t1 = _poly_terms(f1.b)
    t2 = _poly_terms(f2.b)
    if t2 is not None:
        t2 = _transform_terms(t2, chi1_inv.entries)
    b_new = _weyl_product_callable(f1.b, t1, b2_pulled, t2)
    if b_new is None:
        b_new = symbol_callable(weyl_product(symbol_callable(f1.b), b2_pulled, grid))
    chi_new = f1.chi @ f2.chi
    new = FioSpec("factored", f1.order + f2.order, min(f1.rho, f2.rho),
                  b=b_new, chi=chi_new)
    product = fio_operator(s1, grid).compose(fio_operator(s2, grid))
    residual = _vector_residual(fio_operator(new, grid), product, scalar_free=True)
    status = "pass" if residual <= RESIDUAL_CAP else "grid-too-coarse"
    return CompositionReport(new, float(residual), status)


def _swapped_amplitude(amp: ShubinSymbol, d: int) -> ShubinSymbol:
    """conj(a(y, x, theta)), of the same kind as a: the x and y parts of the
    centre and of each exponent swap and the coefficients conjugate.  Only
    a custom amplitude is wrapped in a new custom symbol."""
    dim = amp.dim
    perm = [*range(d, 2 * d), *range(d), *range(2 * d, dim)]
    if amp.kind == "custom":
        def swapped(z):
            return np.conj(amp(np.asarray(z, dtype=float)[..., perm]))

        return custom_symbol(dim, amp.order, amp.rho, swapped)
    params = dict(amp.params)
    if "c" in params:
        params["c"] = params["c"].conjugate()
    if "center" in params:
        params["center"] = np.asarray(params["center"], dtype=float)[perm]
    if "terms" in params:
        params["terms"] = [(c.conjugate(), tuple(e[k] for k in perm))
                           for c, e in amp.terms()]
    return replace(amp, params=params)


def fio_adjoint(spec: FioSpec) -> FioSpec:
    """Formal adjoint: phase psi(x, y, theta) = -phi(y, x, theta), amplitude
    conj(a(y, x, theta)) of the same kind as a, associated matrix chi^{-1}."""
    if spec.form != "oscillatory":
        raise ValueError("adjoint operates on the oscillatory form")
    phase = spec.phase
    d, N = phase.d, phase.N
    S = np.zeros((2 * d, 2 * d))
    S[:d, d:] = np.eye(d)
    S[d:, :d] = np.eye(d)
    psi = QuadraticPhase(d, N, -S @ phase.F @ S, -S @ phase.L, -phase.Q)
    b = _swapped_amplitude(spec.amplitude, d)
    return FioSpec("oscillatory", spec.order, spec.rho, phase=psi,
                   amplitude=b, chi=symplectic_inverse(spec.chi))


# -- phase space characterization ------------------------------------------


def kernel_characterization_check(field: Field4D, chi: SymplecticMatrix,
                                  m: float, rho: float) -> ProfileReport:
    """Twisted phase-space test of kernel membership on the kernel's field
    (gabor.kernel_fbi_field): rapid decay off the twisted graph subspace of
    chi and controlled growth along it, including directional derivatives up
    to order gabor.K_MAX."""
    lam = twisted_graph_lagrangian(chi)
    vlam = twisted_graph_lagrangian(SymplecticMatrix(chi.d, -chi.entries))
    return profile_report(decay_profile(field, chi_twist_field(chi), lam, vlam), m, rho)


CONE_R_MIN = 4.0  # the kernel cone is tested beyond this phase-space radius
CONE_REL_THRESHOLD = 1e-3  # on points above this fraction of the field peak
CONE_ANGLE = 0.35  # cone aperture around the twisted graph subspace
CONE_COLLAR = 4.0  # transverse collar for the window's own width


def wf_kernel_check(field: Field4D, chi: SymplecticMatrix) -> dict:
    """All phase-space points where the kernel's field (gabor.kernel_fbi_field)
    is non-negligible at radius > CONE_R_MIN lie in a cone around the twisted
    graph subspace.  Only the interior box is read; the peak is the whole
    field's.

    The cone has aperture CONE_ANGLE plus a fixed transverse collar: the
    window gives the field a transverse profile of width about one, so even
    a field supported exactly on the subspace spills over a few units at any
    finite radius before the conic picture takes over.
    """
    lam = twisted_graph_lagrangian(chi)
    peak = np.abs(field.values).max() or 1.0
    view, interior = _interior_box(field)
    r = _span_distance(view.axes, np.zeros((len(view.axes), 0)))
    sel = (r > CONE_R_MIN) & (np.abs(view.values) > CONE_REL_THRESHOLD * peak) & interior
    if not np.any(sel):
        return {"status": "pass", "worst_excess": 0.0, "points": 0}
    dist = _span_distance(view.axes, lam.basis, sel)
    allowed = CONE_COLLAR + np.sin(CONE_ANGLE) * r[sel]
    worst = float((dist - allowed).max())
    return {
        "status": "pass" if worst <= 0.0 else "fail",
        "worst_excess": worst,
        "points": int(sel.sum()),
    }


WF_TOL_BINS = 3  # angular bins allowed between output and mapped input sectors
# non-decaying sectors here have decay exponents above -6.0; the `wf` command
# and the wave front acceptance check use 4.0
WF_PROPAGATION_N_MAX = 6.0


def wf_propagation_check(spec: FioSpec, u: GridFunction) -> dict:
    """Wave front sectors of the operator output lie within WF_TOL_BINS of
    the chi-image of the input wave front sectors."""
    out = fio_operator(spec, u.spec).apply(u)
    rep_in = wavefront_estimate(u, WF_PROPAGATION_N_MAX)
    rep_out = wavefront_estimate(out, WF_PROPAGATION_N_MAX)
    if not rep_in.nondecaying:
        ok = not rep_out.nondecaying
        return {"status": "pass" if ok else "fail",
                "in_sectors": [], "out_sectors": rep_out.nondecaying}
    angles = rep_in.angles[rep_in.nondecaying]
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1) @ spec.chi.entries.T
    mapped = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2 * np.pi)
    mapped_bins = np.floor(mapped / (2 * np.pi) * N_SECTORS).astype(int)
    ok = all(np.min(np.abs((sct - mapped_bins + N_SECTORS // 2)
                           % N_SECTORS - N_SECTORS // 2)) <= WF_TOL_BINS
             for sct in rep_out.nondecaying)
    return {
        "status": "pass" if ok else "fail",
        "in_sectors": rep_in.nondecaying,
        "out_sectors": rep_out.nondecaying,
        "mapped_bins": sorted(set(int(b) for b in mapped_bins)),
    }
