import json

import numpy as np
import pytest

from fiocalc.grids import (
    GridFunction,
    GridSpec,
    SizeGuardError,
    gaussian_window,
    hermite_grid_function,
)
from fiocalc import metaplectic
from fiocalc.acceptance import _hermite_sum
from fiocalc.metaplectic import (
    ChirpFactor,
    FourierFactor,
    LinearFactor,
    MetaplecticFactorization,
    MetaplecticOperator,
    _mesh_points,
    _phase_contract,
    egorov_residual,
    fbi_covariance_residual,
    gaussian_image,
    homomorphism_residual,
    mu_factors,
    mu_general,
    unitarity_defect,
)
from fiocalc.symplectic import (
    SymplecticMatrix,
    chirp_matrix,
    j2_inverse,
    random_symplectic,
    scaling_matrix,
    standard_j,
    symplectic_inverse,
)
from fiocalc.serialize import json_dumps
from fiocalc.weyl import symbol_callable
from fiocalc.symbols import harmonic_oscillator_symbol


def bounded_random(rng, cap=2.0):
    while True:
        chi = random_symplectic(1, rng, n_factors=3, max_chirp=0.6)
        if np.linalg.norm(chi.entries, 2) <= cap:
            return chi


def test_fourier_fixes_the_gaussian():
    g = GridSpec(1, 256, 12.0)
    psi0 = hermite_grid_function(g, [0])
    assert (FourierFactor().apply(psi0) - psi0).norm() < 1e-8


def test_chirp_is_exact_pointwise():
    g = GridSpec(1, 128, 10.0)
    u = hermite_grid_function(g, [1])
    out = ChirpFactor(np.array([[0.9]])).apply(u)
    x = g.points()
    ref = np.exp(0.45j * x ** 2) * u.values
    assert np.abs(out.values - ref).max() < 1e-12


def test_linear_factor_matches_dilation_on_interior():
    g = GridSpec(1, 256, 12.0)
    u = hermite_grid_function(g, [0])
    out = LinearFactor(np.array([[2.0]])).apply(u)
    x = g.points()
    interior = np.abs(x) < 6.0
    ref = 2.0 ** -0.5 * np.pi ** -0.25 * np.exp(-0.5 * (x / 2.0) ** 2)
    assert np.abs(out.values - ref)[interior].max() < 1e-8


def test_contraction_does_not_wrap_around_the_box():
    # evaluating f(A^{-1} x) beyond the box must read ~0, not the far side
    g = GridSpec(1, 128, 10.0)
    x = g.points()
    u = GridFunction(g, np.exp(-2.0 * (x - 5.0) ** 2).astype(complex))
    out = LinearFactor(np.array([[0.5]])).apply(u)
    # the image is a bump near x = 2.5; the region near the opposite edge
    # corresponds to source points outside the box
    far = x < -8.0
    assert np.abs(out.values[far]).max() < 1e-8


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("tail", [(), (1,), (4,)])
@pytest.mark.parametrize("chunk", [None, 2], ids=["one-chunk", "many-chunks"])
def test_phase_contraction_matches_the_dense_sum(monkeypatch, d, tail, chunk):
    # reference: e^{i w . in} summed over the whole product grid at once
    if chunk is not None:
        monkeypatch.setattr(metaplectic, "PHASE_CHUNK", chunk)
    rng = np.random.default_rng(d)
    axis = np.sort(rng.uniform(-3.0, 3.0, 5))
    w = rng.normal(size=(37, d))
    values = rng.normal(size=(5**d,) + tail) + 1j * rng.normal(size=(5**d,) + tail)
    dense = np.exp(1j * w @ _mesh_points(axis, d).T) @ values.reshape(5**d, -1)
    out = _phase_contract(w, axis, values)
    assert out.shape == (37,) + tail
    assert np.abs(out.reshape(37, -1) - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("tail", [(), (128,)])
def test_phase_contraction_in_one_dimension_is_the_dense_block_product(tail):
    # d = 1 keeps the bits of one exponentiated block per PHASE_CHUNK rows
    g = GridSpec(1, 1024, 10.0)
    rng = np.random.default_rng(5)
    w = 0.7 * g.points()[:, None]
    values = rng.normal(size=(g.n,) + tail) + 1j * rng.normal(size=(g.n,) + tail)
    weight = g.h
    ref = np.empty((g.n,) + tail, dtype=complex)
    for start in range(0, g.n, metaplectic.PHASE_CHUNK):
        block = w[start : start + metaplectic.PHASE_CHUNK] @ g.points()[None, :]
        ref[start : start + metaplectic.PHASE_CHUNK] = np.exp(1j * block) @ values * weight
    out = _phase_contract(w, g.points(), values) * weight
    assert out.tobytes() == ref.tobytes()


def test_unitarity_for_bounded_random_matrices():
    g = GridSpec(1, 256, 12.0)
    f = hermite_grid_function(g, [2])
    rng = np.random.default_rng(21)
    for _ in range(5):
        chi = bounded_random(rng)
        assert unitarity_defect(mu_general(chi, g), f) < 1e-6


def test_homomorphism_up_to_phase():
    g = GridSpec(1, 256, 12.0)
    f = hermite_grid_function(g, [0])
    rng = np.random.default_rng(22)
    for _ in range(5):
        c1, c2 = bounded_random(rng), bounded_random(rng)
        assert homomorphism_residual(c1, c2, f) < 1e-4


def test_homomorphism_of_the_seed_4242_pair():
    # the 2nd pair _bounded_symplectic draws from default_rng(4242 + 7), as
    # check_metaplectic_identities(seed=4242) does.  c1 c2 has B = -0.287:
    # its free kernel's y-frequency passes pi/h = 33.5 on this grid, so
    # mu_factors takes a shifted path the grid resolves
    c1 = SymplecticMatrix(1, np.array([[0.0, 1.720498829240978],
                                       [-0.5812267831888988, 0.4095784889098528]]))
    c2 = SymplecticMatrix(1, np.array([[0.0, 0.7868312974411231],
                                       [-1.2709204670075136, -0.16668812920230452]]))
    g = GridSpec(1, 256, 12.0)
    assert homomorphism_residual(c1, c2, _hermite_sum(g)) < 1e-4


def test_near_singular_upper_block_avoids_aliased_kernel():
    # B ~ 0.1: the explicit quadratic kernel would alias; the factorization
    # must route through a shifted free factor instead
    entries = np.array([[-0.5126, 0.097], [0.0, 0.0]])
    # complete to det = 1 (symplectic in one degree of freedom)
    entries[1, 1] = (1.0 + entries[0, 1] * entries[1, 0]) / entries[0, 0]
    chi = SymplecticMatrix(1, entries)
    g = GridSpec(1, 256, 12.0)
    factors = mu_factors(chi, g)
    assert len(factors) > 1
    f = hermite_grid_function(g, [0])
    assert unitarity_defect(mu_general(chi, g), f) < 1e-6


def test_lower_triangular_matrices_factor_without_quadrature():
    sc = scaling_matrix(np.array([[1.3]]))
    ch = chirp_matrix(np.array([[0.8]]))
    names = [type(f).__name__ for f in mu_factors(sc @ ch, GridSpec(1, 128, 10.0))]
    assert "FreeKernelFactor" not in names and "FourierFactor" not in names


def _record_matrix(record: dict) -> SymplecticMatrix:
    """The d = 1 symplectic matrix of one factor record of factorization.json."""
    kind = record["kind"]
    if kind in ("fourier", "inverse_fourier"):
        J = standard_j(1)
        return J if kind == "fourier" else symplectic_inverse(J)
    if kind == "chirp":
        return chirp_matrix(np.array(record["F"]))
    if kind == "linear":
        return scaling_matrix(np.array(record["A"]))
    assert kind == "free_kernel"
    return SymplecticMatrix(1, np.array(record["chi"]))


def test_factorization_descriptor_and_defect():
    # the factor records of the artifact multiply back to chi on every path:
    # free kernel, chirp times linear, and the shifted free kernel
    kinds = set()
    for chi in (standard_j(1),
                chirp_matrix(np.array([[0.7]])) @ scaling_matrix(np.array([[1.3]])),
                _near_singular_chi()):
        fact = mu_general(chi, GridSpec(1, 64, 8.0)).factorization
        data = json.loads(json_dumps(fact.to_dict()))
        assert "factors" in data and "phase" in data
        prod = np.eye(2)
        for record in data["factors"]:
            kinds.add(record["kind"])
            prod = prod @ _record_matrix(record).entries
        assert np.max(np.abs(prod - chi.entries)) < 1e-12
    assert kinds == {"free_kernel", "chirp", "linear", "fourier", "inverse_fourier"}


def test_gaussian_image_matches_operator():
    g = GridSpec(1, 128, 10.0)
    chi = chirp_matrix(np.array([[0.7]]))
    psi0 = gaussian_window(g)
    out = mu_general(chi, g).apply(psi0)
    ref = gaussian_image(chi, g)
    z = out.inner(ref)
    c = z / abs(z)
    assert (out - c * ref).norm() < 1e-8


def _near_singular_chi():
    # B ~ 0.1, completed to det = 1: routed through the shifted free factor
    entries = np.array([[-0.5126, 0.097], [0.0, 0.0]])
    entries[1, 1] = (1.0 + entries[0, 1] * entries[1, 0]) / entries[0, 0]
    return SymplecticMatrix(1, entries)


_F2 = np.array([[0.4, 0.1], [0.1, -0.3]])
_A2 = np.array([[1.2, 0.3], [0.1, 0.9]])


@pytest.mark.parametrize("d, chi, path", [
    (1, standard_j(1), ["FreeKernelFactor"]),
    (1, chirp_matrix(np.array([[0.7]])), ["ChirpFactor"]),
    (1, chirp_matrix(np.array([[0.7]])) @ scaling_matrix(np.array([[1.3]])),
     ["ChirpFactor", "LinearFactor"]),
    (1, _near_singular_chi(),
     ["FreeKernelFactor", "FourierFactor", "ChirpFactor", "FourierFactor"]),
    (2, chirp_matrix(_F2) @ j2_inverse(2, 1) @ scaling_matrix(_A2),
     ["FreeKernelFactor", "FourierFactor", "ChirpFactor", "FourierFactor"]),
    (2, chirp_matrix(_F2) @ scaling_matrix(_A2), ["ChirpFactor", "LinearFactor"]),
], ids=["free-kernel", "chirp", "chirp-linear", "shifted", "shifted-d2",
        "chirp-linear-d2"])
def test_dense_matrix_agrees_with_apply(d, chi, path):
    g = GridSpec(1, 128, 10.0) if d == 1 else GridSpec(2, 16, 6.0)
    op = mu_general(chi, g)
    assert [type(f).__name__ for f in op.factorization.factors] == path
    rng = np.random.default_rng(3)
    for u in (hermite_grid_function(g, 1),
              GridFunction(g, rng.normal(size=g.size()) + 1j * rng.normal(size=g.size()))):
        ref = op.apply(u).values
        dense = op.matrix().apply(u).values
        assert np.abs(dense - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dense_matrix_past_the_memory_cap_is_refused():
    # N = 128^2 grid points: the matrix would need 2^28 entries (4 GiB)
    chi = chirp_matrix(_F2)
    g = GridSpec(2, 128, 10.0)
    op = MetaplecticOperator(g, MetaplecticFactorization(chi, mu_factors(chi, g), 1.0 + 0j))
    with pytest.raises(SizeGuardError):
        op.matrix()


def test_quantization_covariance():
    g = GridSpec(1, 128, 10.0)
    a = symbol_callable(harmonic_oscillator_symbol(2))
    for chi in (standard_j(1), chirp_matrix(np.array([[0.7]])),
                scaling_matrix(np.array([[1.3]]))):
        assert egorov_residual(chi, a, g) < 1e-3


def test_phase_space_shift_covariance_of_transform():
    g = GridSpec(1, 128, 10.0)
    u = hermite_grid_function(g, [0])
    assert fbi_covariance_residual(standard_j(1), u) < 1e-4
