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
from functools import partial, reduce
from math import comb, factorial, inf

import numpy as np

from .gabor import (
    N_SECTORS,
    Field4D,
    _complement_forms,
    _distance,
    _mask_points,
    chi_twist_field,
    decay_profile,
    wavefront_estimate,
)
from .grids import (GridFunction, GridSpec, OperatorMatrix, SizeGuardError,
                    hermite_grid_function)
from .metaplectic import mu_general
from .phases import QuadraticPhase, chi_from_phase
from .symbols import (ShubinSymbol, _diff_terms, _eval_terms, _gaussian_diff_terms,
                      _gaussian_mean_terms, _transform_terms, custom_symbol, shubin_decay_test)
from .symplectic import (
    SymplecticMatrix,
    symplectic_inverse,
    twisted_graph_lagrangian,
)
from .weyl import (_pullback, _spline_partial, _splines, interior_mask, symbol_callable,
                   symbol_from_kernel, weyl_kernel, weyl_product)


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
        bw = weyl_kernel(spec.b, grid)
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
    rebuilt = weyl_kernel(b, grid).compose(mu.matrix())
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
    return FioSpec("factored", spec.order, spec.rho, b=rep.symbol, chi=spec.chi)


def _term_partial(terms, diff):
    """(i, j, z) -> the terms differentiated by diff i times along axis 0 and
    j times along axis 1, evaluated at z."""
    return lambda i, j, z: _eval_terms(reduce(diff, [0] * i + [1] * j, terms), z)


def _chain(du, M):
    """The oracle of z -> f(M z) from the oracle du of f (M None: the
    identity): by the chain rule d_x^i d_xi^j is z_0^i z_1^j at M^T z with
    z_k read as the derivative along u_k."""
    if M is None:
        return du
    return lambda i, j, z: sum(c * du(a, b, z @ M.T)
                               for c, (a, b) in _transform_terms([(1.0, (i, j))], M.T))


def _moyal_partial(sym, M):
    """Exact derivative oracle (i, j, z) -> d_x^i d_xi^j of z -> sym(M z),
    M None for the identity, with the polynomial degree of sym (inf if it is
    not polynomial) and the highest total order the oracle takes; None for a
    callable or a custom symbol.  Polynomial kinds differentiate their terms,
    transformed by M first; a gaussian_modulated symbol stays in its family
    (symbols._gaussian_diff_terms); a sampled symbol has the partials of its
    quintic splines, below their degree."""
    if isinstance(sym, Field4D):
        splines = _splines(sym)
        return _chain(partial(_spline_partial, splines), M), inf, min(splines[0].degrees) - 1
    if not isinstance(sym, ShubinSymbol) or sym.kind == "custom":
        return None
    if sym.kind != "gaussian_modulated":
        terms = sym.terms() if M is None else _transform_terms(sym.terms(), M)
        return _term_partial(terms, _diff_terms), max((sum(e) for _, e in terms), default=0), inf
    center = np.asarray(sym.params.get("center", np.zeros(2)), dtype=float)
    w2 = float(sym.params.get("width", 1.0)) ** 2
    p = _term_partial(sym.terms(), partial(_gaussian_diff_terms, center=center, w2=w2))
    return _chain(lambda a, b, u: p(a, b, u) * np.exp(-np.sum((u - center) ** 2, axis=-1) / w2),
                  M), inf, inf


def _weyl_product_callable(b1, b2, M):
    """Callable for b1 # (z -> b2(M z)) by the Moyal series
    (i/2)^k/k! (d_x d_eta - d_xi d_y)^k over exact partials, which ends at
    the smaller polynomial degree of the factors.  None, for the
    kernel-matrix path, when a factor has no oracle, when neither is
    polynomial, or when the degree passes the other factor's highest order
    (4 for a sampled symbol)."""
    oracles = [_moyal_partial(b1, None), _moyal_partial(b2, M)]
    if None in oracles:
        return None
    (p1, deg1, order1), (p2, deg2, order2) = oracles
    deg = min(deg1, deg2)
    if deg == inf or deg > min(order1, order2):
        return None

    def product(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape[:-1], dtype=complex)
        for k in range(deg + 1):
            ck = (0.5j) ** k / factorial(k)
            for j in range(k + 1):
                out = out + ck * comb(k, j) * (-1) ** j * p1(k - j, j, z) * p2(j, k - j, z)
        return out

    return product


def fio_compose(s1: FioSpec, s2: FioSpec, grid: GridSpec) -> CompositionReport:
    """Composition at the spec level: (b1 # (b2 o chi1^{-1}), chi1 chi2).

    When one factor is polynomial the Weyl product is the finite Moyal sum
    over exact partials of both factors (_weyl_product_callable).  The
    symbol of the composed kernel matrices is taken instead for a callable
    or custom factor, for two non-polynomial factors, and for a sampled
    factor against a polynomial of degree above 4.  The residual compares
    the operator of the returned spec against the matrix product of the
    input operators, up to one unit scalar (the metaplectic phase
    ambiguity)."""
    f1 = _as_factored(s1, grid)
    f2 = _as_factored(s2, grid)
    chi1_inv = symplectic_inverse(f1.chi).entries
    b_new = _weyl_product_callable(f1.b, f2.b, chi1_inv)
    if b_new is None:
        b2_pulled = _pullback(symbol_callable(f2.b), chi1_inv)
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


def kernel_characterization_check(chi: SymplecticMatrix, m: float, rho: float):
    """Twisted phase-space test of kernel membership, as a reader of the
    kernel's field (gabor.sweep_kernel_field) whose result is the
    ProfileReport: rapid decay off the twisted graph subspace of chi and
    controlled growth along it, including directional derivatives up to
    order gabor.K_MAX."""
    lam = twisted_graph_lagrangian(chi)
    vlam = twisted_graph_lagrangian(SymplecticMatrix(chi.d, -chi.entries))
    return decay_profile(chi_twist_field(chi), lam, vlam, m, rho)


CONE_R_MIN = 4.0  # the kernel cone is tested beyond this phase-space radius
CONE_REL_THRESHOLD = 1e-3  # on points above this fraction of the field peak
CONE_ANGLE = 0.35  # cone aperture around the twisted graph subspace
CONE_COLLAR = 4.0  # transverse collar for the window's own width


def wf_kernel_check(chi: SymplecticMatrix):
    """All phase-space points where the kernel's field is non-negligible at
    radius > CONE_R_MIN lie in a cone around the twisted graph subspace: a
    reader of the field (gabor.sweep_kernel_field) whose result is the
    report dict.  Only interior points are read, and non-negligible means
    above CONE_REL_THRESHOLD of the whole field's peak.

    The cone has aperture CONE_ANGLE plus a fixed transverse collar: the
    window gives the field a transverse profile of width about one, so even
    a field supported exactly on the subspace spills over a few units at any
    finite radius before the conic picture takes over.
    """
    return _ConeReader(_complement_forms(twisted_graph_lagrangian(chi).basis))


def _cone_points(sweep, lo: int, hi: int, peak: float) -> tuple:
    """The interior points of the layers lo:hi beyond CONE_R_MIN and above
    CONE_REL_THRESHOLD of peak, which every cone check reads: their
    coordinates, one array per axis, their |value| and the allowed distance
    CONE_COLLAR + sin(CONE_ANGLE) r at their radius r."""
    axes = [sweep.box.axes[0][lo:hi], *sweep.box.axes[1:]]
    mag = np.abs(sweep.layers(lo, hi))
    r = sweep.distance(_complement_forms(np.zeros((len(axes), 0)))).reshape(mag.shape)
    sel = (r > CONE_R_MIN) & (mag > CONE_REL_THRESHOLD * peak) & sweep.interior
    points = [a[j] for a, j in zip(axes, _mask_points(sel))]
    return points, mag[sel], CONE_COLLAR + np.sin(CONE_ANGLE) * r[sel]


class _ConeReader:
    """The reader of wf_kernel_check.  The peak is known only once the sweep
    ends, so reads keep each point above the threshold of the running peak,
    which is never above the final one: its |value|, for the count, and its
    excess over the cone unless another kept point has at least its |value|
    and at least its excess, for the worst excess.  finish counts the points
    above the final threshold and takes the worst excess among them."""

    def __init__(self, forms: list):
        self.forms = forms

    def start(self, box) -> None:
        self.mags = []  # shared with the other cone checks of the sweep
        self.front = (np.zeros(0), np.zeros(0))  # (|value|, excess), |value| descending

    def read(self, lo: int, hi: int, sweep, peak: float) -> None:
        points, mag, allowed = sweep.shared(_cone_points,
                                            lambda: _cone_points(sweep, lo, hi, peak))
        if len(mag):
            self.mags.append(mag)
            m = np.concatenate([self.front[0], mag])
            e = np.concatenate([self.front[1], _distance(points, self.forms) - allowed])
            order = np.argsort(-m)
            e = e[order]
            keep = np.concatenate([[True], e[1:] > np.maximum.accumulate(e)[:-1]])
            self.front = (m[order][keep], e[keep])

    def finish(self, peak: float) -> dict:
        threshold = CONE_REL_THRESHOLD * (peak or 1.0)
        points = sum(int(np.count_nonzero(m > threshold)) for m in self.mags)
        if not points:
            return {"status": "pass", "worst_excess": 0.0, "points": 0}
        worst = float(self.front[1][self.front[0] > threshold].max())
        return {
            "status": "pass" if worst <= 0.0 else "fail",
            "worst_excess": worst,
            "points": points,
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
