import tracemalloc

import numpy as np
import pytest

from fiocalc import fio
from fiocalc.fio import (
    FioSpec,
    QuadratureError,
    _theta_quadrature,
    fio_adjoint,
    fio_compose,
    fio_factorize,
    fio_kernel,
    fio_operator,
    kernel_characterization_check,
    wf_kernel_check,
    wf_propagation_check,
)
from fiocalc.gabor import Field4D, sweep_kernel_field
from fiocalc.grids import GridFunction, GridSpec, gaussian_window
from fiocalc.phases import QuadraticPhase, phase_from_free_matrix, pseudodifferential_phase
from fiocalc.serialize import fio_spec_from_dict, fio_spec_to_dict
from fiocalc.symbols import (
    constant_symbol,
    custom_symbol,
    gaussian_symbol,
    harmonic_oscillator_symbol,
    polynomial_symbol,
)
from fiocalc.symplectic import SymplecticMatrix, chirp_matrix, standard_j
from fiocalc.weyl import (interior_mask, symbol_callable, symbol_from_kernel, weyl_kernel,
                          weyl_product)
from whole_box import kernel_fbi_field, whole_box_wf_kernel_check


def test_factored_fourier_kernel_is_oscillatory_plane_wave():
    g = GridSpec(1, 128, 10.0)
    spec = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=standard_j(1))
    K, _ = fio_kernel(spec, g)
    x = g.points()
    ref = (2 * np.pi) ** -0.5 * np.exp(-1j * np.outer(x, x)).reshape(-1)
    z = np.vdot(ref, K.values)
    c = z / abs(z)
    assert np.abs(K.values - c * ref).max() < 1e-10


def test_oscillatory_and_factored_forms_agree_up_to_normalization():
    g = GridSpec(1, 128, 10.0)
    J = standard_j(1)
    osc = FioSpec("oscillatory", 0.0, 1.0, phase=phase_from_free_matrix(J),
                  amplitude=custom_symbol(2, 0.0, 1.0,
                                          lambda z: np.ones(np.asarray(z).shape[:-1])))
    fac = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=J)
    Ko, _ = fio_kernel(osc, g)
    Kf, _ = fio_kernel(fac, g)
    z = np.vdot(Ko.values, Kf.values)
    c = z / abs(z) * (2 * np.pi) ** -0.5
    assert np.abs(Kf.values - c * Ko.values).max() < 1e-12


def test_fiber_quadrature_converges_for_decaying_amplitude():
    g = GridSpec(1, 64, 8.0)
    phi = pseudodifferential_phase(1)
    amp = custom_symbol(3, 0.0, 1.0,
                        lambda z: np.exp(-0.5 * np.sum(np.asarray(z) ** 2, axis=-1)))
    spec = FioSpec("oscillatory", 0.0, 1.0, phase=phi, amplitude=amp)
    K, quad = fio_kernel(spec, g)
    assert quad is not None and quad.convergence < 1e-6
    assert quad.to_dict()["method"] == "quadrature"
    # the kernel of a quantization concentrates near the diagonal
    mat = np.abs(K.values.reshape(g.n, g.n))
    assert mat.diagonal().max() > 10 * mat[0, -1]


def test_fiber_quadrature_refuses_slow_convergence():
    g = GridSpec(1, 64, 8.0)
    phi = pseudodifferential_phase(1)
    amp = custom_symbol(3, 0.0, 1.0,
                        lambda z: np.exp(-0.05 * np.sum(np.asarray(z) ** 2, axis=-1)))
    spec = FioSpec("oscillatory", 0.0, 1.0, phase=phi, amplitude=amp)
    with pytest.raises(QuadratureError):
        fio_kernel(spec, g)


# (phase, amplitude, grid n): a shifted centre with x-theta and theta^2 terms on
# the Kohn-Nirenberg phase; F != 0 with Q != 0; N = 2 with an off-diagonal Q
# of mixed sign (n = 8: the two-dimensional quadrature is slow)
CLOSED_FORM_CASES = [
    (pseudodifferential_phase(1),
     gaussian_symbol(3, center=[0.5, -0.3, 0.8], width=1.2,
                     terms=[(1.0, (0, 0, 2)), (0.5 - 0.2j, (1, 0, 1)), (2.0, (0, 0, 0))]),
     32),
    (QuadraticPhase(1, 1, np.array([[0.3, 0.1], [0.1, -0.2]]), np.array([[1.0], [-0.5]]),
                    np.array([[0.7]])),
     gaussian_symbol(3, width=1.2, terms=[(1.0, (0, 1, 1))]),
     32),
    (QuadraticPhase(1, 2, np.array([[0.3, 0.1], [0.1, -0.2]]),
                    np.array([[1.0, 0.2], [-0.5, 0.7]]), np.array([[0.4, 0.9], [0.9, -1.3]])),
     gaussian_symbol(4, center=[0.2, -0.1, 0.3, -0.4], width=1.3,
                     terms=[(1.0, (0, 0, 1, 1)), (0.5j, (1, 0, 2, 0)), (0.3, (0, 1, 0, 2)),
                            (1.0, (0, 0, 0, 0))]),
     8),
]


@pytest.mark.parametrize("phase, amp, n", CLOSED_FORM_CASES, ids=["kn", "f-q", "n2"])
def test_closed_form_theta_integral_matches_the_quadrature(phase, amp, n):
    g = GridSpec(1, n, 6.0)
    K, rec = fio_kernel(FioSpec("oscillatory", 0.0, 1.0, phase=phase, amplitude=amp), g)
    assert rec.to_dict() == {"method": "gaussian_closed_form"}
    x = g.points()
    X = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    ref, quad = _theta_quadrature(phase, custom_symbol(amp.dim, 0.0, 1.0, amp), X)
    assert np.abs(K.values - ref).max() / np.abs(ref).max() <= quad.convergence


@pytest.mark.parametrize("phase, amp", [
    (phase_from_free_matrix(standard_j(1)), constant_symbol(2, 1.5)),
    (phase_from_free_matrix(standard_j(1)),
     polynomial_symbol(2, [(1.0 - 0.5j, (1, 0)), (0.3j, (1, 1)), (2.0, (0,))])),
    (phase_from_free_matrix(standard_j(1)), harmonic_oscillator_symbol(2)),
    (pseudodifferential_phase(1),
     gaussian_symbol(3, center=[0.5, -0.3, 0.8], width=1.5,
                     terms=[(1.0, (0, 0, 2)), (0.5 - 0.2j, (1, 0, 1))])),
], ids=["constant", "polynomial", "harmonic_oscillator", "gaussian_modulated"])
def test_adjoint_keeps_the_amplitude_kind(phase, amp):
    g = GridSpec(1, 64, 8.0)
    spec = FioSpec("oscillatory", 0.0, 1.0, phase=phase, amplitude=amp)
    adj = fio_adjoint(spec)
    assert adj.amplitude.kind == amp.kind
    data = fio_spec_to_dict(adj)
    assert fio_spec_to_dict(fio_spec_from_dict(data)) == data
    A = fio_kernel(spec, g)[0].values.reshape(g.n, g.n)
    B = fio_kernel(adj, g)[0].values.reshape(g.n, g.n)
    assert np.max(np.abs(B - A.conj().T)) / np.max(np.abs(A)) <= 1e-12


def test_symbol_recovery_from_kernel():
    g = GridSpec(1, 256, 12.0)
    chi = chirp_matrix(np.array([[0.8]]))
    sym = gaussian_symbol(2)
    spec = FioSpec("factored", 0.0, 1.0, b=sym, chi=chi)
    K, _ = fio_kernel(spec, g)
    rep = fio_factorize(K, chi, 0.0)
    assert rep.status == "pass"
    call = symbol_callable(sym)
    mask = interior_mask(rep.symbol)
    X, XI = np.meshgrid(*rep.symbol.axes, indexing="ij")
    true = np.asarray(call(np.stack([X, XI], axis=-1)), dtype=complex)
    assert np.abs(rep.symbol.values - true)[mask].max() < 1e-3


def test_factorize_against_wrong_matrix_reports_failure():
    g = GridSpec(1, 256, 12.0)
    spec = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=standard_j(1))
    K, _ = fio_kernel(spec, g)
    rep = fio_factorize(K, chirp_matrix(np.array([[0.8]])), 0.0)
    assert rep.status == "not-in-class"


def test_composition_multiplies_matrices_and_orders():
    g = GridSpec(1, 128, 10.0)
    J = standard_j(1)
    ch = chirp_matrix(np.array([[0.8]]))
    s1 = FioSpec("factored", 2.0, 1.0, b=harmonic_oscillator_symbol(2), chi=J)
    s2 = FioSpec("factored", 2.0, 1.0, b=harmonic_oscillator_symbol(2), chi=ch)
    rep = fio_compose(s1, s2, g)
    assert rep.status == "pass" and rep.residual < 1e-3
    assert rep.spec.order == 4.0
    assert np.allclose(rep.spec.chi.entries, (J @ ch).entries)


def test_product_rule_for_coordinate_symbols():
    g = GridSpec(1, 128, 10.0)
    eye = SymplecticMatrix(1, np.eye(2))
    sx = FioSpec("factored", 1.0, 1.0, b=polynomial_symbol(2, [(1.0, (1, 0))]), chi=eye)
    sxi = FioSpec("factored", 1.0, 1.0, b=polynomial_symbol(2, [(1.0, (0, 1))]), chi=eye)
    rep = fio_compose(sx, sxi, g)
    xs = np.linspace(-4.0, 4.0, 17)
    Z = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    ref = Z[..., 0] * Z[..., 1] + 0.5j
    assert np.abs(rep.spec.b(Z) - ref).max() < 1e-10


def test_composition_with_sampled_left_symbol():
    # a sampled symbol (Field4D) is a valid factored-form symbol on either side of the
    # Moyal sum, not only on the right
    g = GridSpec(1, 64, 8.0)
    J = standard_j(1)
    sampled = symbol_from_kernel(weyl_kernel(gaussian_symbol(2), g))
    s1 = FioSpec("factored", 0.0, 1.0, b=sampled, chi=J)
    s2 = FioSpec("factored", 1.0, 1.0, b=polynomial_symbol(2, [(1.0, (1, 0))]), chi=J)
    rep = fio_compose(s1, s2, g)
    assert rep.status == "pass" and rep.residual < 1e-4


CUBIC = polynomial_symbol(2, [(1.0, (3, 0)), (0.5, (1, 2))])  # x^3 + x xi^2 / 2


def test_composition_of_a_cubic_with_a_shifted_gaussian():
    # one polynomial factor of degree 3 against a non-polynomial one: the Moyal
    # sum reaches third partials of the pulled-back Gaussian
    g = GridSpec(1, 128, 10.0)
    s1 = FioSpec("factored", 3.0, 1.0, b=CUBIC, chi=standard_j(1))
    s2 = FioSpec("factored", 0.0, 1.0, b=gaussian_symbol(2, center=(0.5, -0.3), width=1.3),
                 chi=chirp_matrix(np.array([[0.8]])))
    rep = fio_compose(s1, s2, g)
    assert rep.status == "pass" and rep.residual < 1e-5


def test_composition_of_a_sampled_gaussian_with_a_cubic():
    g = GridSpec(1, 128, 10.0)
    J = standard_j(1)
    sampled = symbol_from_kernel(weyl_kernel(gaussian_symbol(2), g))
    rep = fio_compose(FioSpec("factored", 0.0, 1.0, b=sampled, chi=J),
                      FioSpec("factored", 3.0, 1.0, b=CUBIC, chi=J), g)
    assert rep.status == "pass"


def test_sampled_factor_against_a_quintic_takes_the_kernel_matrix_path(monkeypatch):
    # a quintic spline has partials up to order 4 only, so x^5 needs the
    # symbol of the composed kernel matrices
    g = GridSpec(1, 64, 8.0)
    J = standard_j(1)
    calls = []
    monkeypatch.setattr(fio, "weyl_product",
                        lambda *args: calls.append(args) or weyl_product(*args))
    sampled = symbol_from_kernel(weyl_kernel(gaussian_symbol(2), g))
    fio_compose(FioSpec("factored", 0.0, 1.0, b=sampled, chi=J),
                FioSpec("factored", 5.0, 1.0, b=polynomial_symbol(2, [(1.0, (5, 0))]), chi=J),
                g)
    assert len(calls) == 1


def test_gaussian_oracle_is_exact():
    sympy = pytest.importorskip("sympy")
    center, width = (0.5, -0.3), 1.3
    terms = [(1.0, (1, 0)), (0.5 - 0.25j, (0, 2)), (0.3, (0, 0))]
    M = np.array([[1.2, 0.5], [0.3, 1.15 / 1.2]])  # det 1, so symplectic in d = 1
    oracle, degree, order = fio._moyal_partial(gaussian_symbol(2, center, width, terms), M)
    assert degree == order == np.inf
    x, xi = sympy.symbols("x xi", real=True)
    u = [M[0, 0] * x + M[0, 1] * xi, M[1, 0] * x + M[1, 1] * xi]
    p = sum(complex(c) * u[0] ** e[0] * u[1] ** e[1] for c, e in terms)
    f = p * sympy.exp(-((u[0] - center[0]) ** 2 + (u[1] - center[1]) ** 2) / width ** 2)
    pts = np.linspace(-3.0, 3.0, 13)
    Z = np.stack(np.meshgrid(pts, pts, indexing="ij"), axis=-1)
    for i in range(4):
        for j in range(4 - i):
            partial = sympy.lambdify((x, xi), sympy.diff(f, x, i, xi, j), "numpy")
            ref = np.broadcast_to(partial(Z[..., 0], Z[..., 1]), Z.shape[:-1]).astype(complex)
            assert np.abs(oracle(i, j, Z) - ref).max() <= 1e-12 * np.abs(ref).max(), (i, j)


def test_spline_oracle_is_exact_on_a_quartic():
    # a quintic spline through samples of a quartic is the quartic, so its
    # partials up to the order the oracle takes are the quartic's
    P = np.polynomial.polynomial
    g = GridSpec(1, 128, 10.0)
    C = np.zeros((5, 5), dtype=complex)  # C[p, q] multiplies x^p xi^q
    C[4, 0], C[3, 1], C[2, 2], C[1, 3], C[0, 4] = 1.0, -0.5j, 0.3, 0.2, -0.25
    C[1, 1], C[0, 0] = 3.0, 1.0
    X, XI = np.meshgrid(g.points(), g.dual_points(), indexing="ij")
    sampled = Field4D((g.points(), g.dual_points()), P.polyval2d(X, XI, C))
    oracle, degree, order = fio._moyal_partial(sampled, None)
    assert degree == np.inf and order == 4
    mask = interior_mask(sampled)
    Z = np.stack([X[mask], XI[mask]], axis=-1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            ref = P.polyval2d(X[mask], XI[mask], P.polyder(P.polyder(C, i, axis=0), j, axis=1))
            assert np.abs(oracle(i, j, Z) - ref).max() <= 1e-7 * np.abs(ref).max(), (i, j)


def test_adjoint_kernel_is_conjugate_transpose():
    g = GridSpec(1, 64, 8.0)
    J = standard_j(1)
    amp = custom_symbol(2, 0.0, 1.0,
                        lambda z: np.exp(-0.25 * np.sum(np.asarray(z) ** 2, axis=-1)))
    spec = FioSpec("oscillatory", 0.0, 1.0, phase=phase_from_free_matrix(J),
                   amplitude=amp)
    K1, _ = fio_kernel(spec, g)
    K2, _ = fio_kernel(fio_adjoint(spec), g)
    A = K1.values.reshape(g.n, g.n)
    B = K2.values.reshape(g.n, g.n)
    assert np.max(np.abs(B - A.conj().T)) / np.max(np.abs(A)) < 1e-8


def test_adjoint_inverts_the_matrix():
    spec = FioSpec("oscillatory", 0.0, 1.0,
                   phase=phase_from_free_matrix(standard_j(1)),
                   amplitude=custom_symbol(2, 0.0, 1.0,
                                           lambda z: np.ones(np.asarray(z).shape[:-1])))
    adj = fio_adjoint(spec)
    assert np.allclose(adj.chi.entries, np.linalg.inv(spec.chi.entries))


def mu_fourier_kernel():
    spec = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=standard_j(1))
    return fio_kernel(spec, GridSpec(1, 128, 10.0))[0]


def test_kernel_characterization_pass_and_fail():
    J = standard_j(1)
    eye = SymplecticMatrix(1, np.eye(2))
    good, bad = sweep_kernel_field(mu_fourier_kernel(), [
        kernel_characterization_check(J, 0.0, 1.0), kernel_characterization_check(eye, 0.0, 1.0)])
    assert good.status == "pass"
    assert bad.status == "fail"


def test_kernel_cone_containment():
    J = standard_j(1)
    eye = SymplecticMatrix(1, np.eye(2))
    good, bad = sweep_kernel_field(mu_fourier_kernel(), [wf_kernel_check(J),
                                                         wf_kernel_check(eye)])
    assert good["status"] == "pass"
    assert bad["status"] == "fail"


def traced_peak(func, *args):
    """The tracemalloc peak, in bytes, of one call of func."""
    tracemalloc.start()
    try:
        func(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# The mu(J) kernel's field at n = 128, stride 2 has a 49^4 interior box,
# 92.2 MB.  One whole-box float array is half of it: the sweep holds no box,
# and a reader adds to the sweep's own peak (its slab, a few layers, M and
# M K) less than a tenth of one.  Reading a box held whole, the profile and
# the cone check peaked at 2.33 and 1.13 boxes with whole-box distance
# fields, twist and masks.
BOX_BYTES = 49 ** 4 * 16


def test_kernel_profile_holds_no_whole_box_temporaries():
    K = mu_fourier_kernel()
    bare = traced_peak(sweep_kernel_field, K, [])
    peak = traced_peak(sweep_kernel_field, K,
                       [kernel_characterization_check(standard_j(1), 0.0, 1.0)])
    assert peak < 0.5 * BOX_BYTES and peak - bare < 0.1 * BOX_BYTES


def test_cone_check_holds_no_whole_box_temporaries():
    K = mu_fourier_kernel()
    bare = traced_peak(sweep_kernel_field, K, [])
    peak = traced_peak(sweep_kernel_field, K, [wf_kernel_check(standard_j(1))])
    assert peak < 0.5 * BOX_BYTES and peak - bare < 0.1 * BOX_BYTES


@pytest.mark.parametrize("case", ["fourier", "identity", "no-points"])
def test_layered_cone_check_is_the_whole_box_one(case):
    """The streamed cone check against the whole-box one on the box held
    whole, to the bit; a zero kernel has no point above the threshold."""
    chi = SymplecticMatrix(1, np.eye(2)) if case == "identity" else standard_j(1)
    K = mu_fourier_kernel()
    if case == "no-points":
        K = GridFunction(K.spec, np.zeros_like(K.values))
    got, = sweep_kernel_field(K, [wf_kernel_check(chi)])
    ref = whole_box_wf_kernel_check(kernel_fbi_field(K), chi)
    assert got == ref and type(got["points"]) is int
    assert np.float64(got["worst_excess"]).tobytes() == np.float64(ref["worst_excess"]).tobytes()
    status, points = {"fourier": ("pass", True), "identity": ("fail", True),
                      "no-points": ("pass", False)}[case]
    assert got["status"] == status and (got["points"] > 0) == points


def test_propagation_maps_point_mass_sectors():
    g = GridSpec(1, 128, 10.0)
    spec = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=standard_j(1))
    vals = np.zeros(g.n, dtype=complex)
    vals[g.n // 2] = 1.0 / g.h
    delta = GridFunction(g, vals)
    rep = wf_propagation_check(spec, delta)
    assert rep["status"] == "pass"


def test_operator_of_constant_symbol_is_scaled_metaplectic():
    g = GridSpec(1, 128, 10.0)
    spec = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2, 2.0), chi=standard_j(1))
    op = fio_operator(spec, g)
    u = gaussian_window(g)
    out = op.apply(u)
    assert np.isclose(out.norm(), 2.0 * u.norm(), rtol=1e-10)
