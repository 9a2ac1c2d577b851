import numpy as np
import pytest

from fiocalc.grids import (
    GridFunction,
    GridSpec,
    OperatorMatrix,
    gaussian_window,
    hermite_grid_function,
    hermite_values,
    identity_operator,
)
from fiocalc.fio import FioSpec, fio_factorize, fio_kernel
from fiocalc.symbols import harmonic_oscillator_symbol
from fiocalc.symplectic import standard_j
from fiocalc.weyl import (
    _HALF_NODES,
    _HALF_WEIGHTS,
    SizeGuardError,
    interior_mask,
    symbol_callable,
    symbol_from_kernel,
    weyl_kernel,
)


def test_grid_duality_relation():
    g = GridSpec(1, 64, 7.0)
    assert np.isclose(g.h * g.dual_h * g.n, 2 * np.pi)
    assert len(g.points()) == 64
    assert np.isclose(g.points()[0], -7.0)


def test_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        GridSpec(1, 100, 8.0)


def test_hermite_functions_are_orthonormal_on_grid():
    g = GridSpec(1, 128, 10.0)
    x = g.points()
    h0 = GridFunction(g, hermite_values(0, x).astype(complex))
    h1 = GridFunction(g, hermite_values(1, x).astype(complex))
    assert np.isclose(h0.norm(), 1.0, atol=1e-12)
    assert abs(h0.inner(h1)) < 1e-12


def test_identity_operator_acts_as_identity():
    g = GridSpec(1, 64, 8.0)
    u = gaussian_window(g)
    assert (identity_operator(g).apply(u) - u).norm() < 1e-12


def test_weyl_identity_and_multiplication_are_exact():
    g = GridSpec(1, 256, 12.0)
    ident = weyl_kernel(lambda z: np.ones(z.shape[:-1]), g)
    assert np.abs(ident.entries - identity_operator(g).entries).max() < 1e-10
    mult = weyl_kernel(lambda z: z[..., 0], g)
    assert np.abs(mult.entries - np.diag(g.points()) / g.h).max() < 1e-10


def test_harmonic_oscillator_spectrum():
    g = GridSpec(1, 256, 12.0)
    H = weyl_kernel(lambda z: z[..., 0] ** 2 + z[..., 1] ** 2, g).weighted()
    ev = np.linalg.eigvalsh(H)[:10]
    assert np.abs(ev - np.arange(1, 20, 2)).max() < 1e-6


def test_harmonic_oscillator_eigenvectors_are_hermite():
    g = GridSpec(1, 256, 12.0)
    H = weyl_kernel(lambda z: z[..., 0] ** 2 + z[..., 1] ** 2, g)
    for k in (0, 3):
        u = hermite_grid_function(g, [k])
        r = (H.apply(u) - (2 * k + 1) * u).norm()
        assert r < 1e-6


def test_symbol_recovery_round_trip():
    g = GridSpec(1, 128, 10.0)
    a = lambda z: np.exp(-0.3 * np.sum(z ** 2, axis=-1))
    s = symbol_from_kernel(weyl_kernel(a, g))
    X, XI = np.meshgrid(*s.axes, indexing="ij")
    ref = np.exp(-0.3 * (X ** 2 + XI ** 2))
    mask = interior_mask(s)
    assert np.abs(s.values - ref)[mask].max() < 1e-6


def column_loop_symbol(K):
    """symbol_from_kernel one difference column t at a time: the diagonal
    entries for even t, the 8-node midpoint sum, zero off the grid, for
    odd t."""
    n, h = K.spec.n, K.spec.h
    xi = K.spec.dual_points()
    k = np.arange(n)
    tvals = np.arange(-n // 2, n // 2 + 1)
    wts = np.ones(len(tvals))
    wts[0] = wts[-1] = 0.5

    def diagonal(p, t):
        valid = (p >= 0) & (p < n) & (p - t >= 0) & (p - t < n)
        vals = np.zeros(n, dtype=complex)
        vals[valid] = K.entries[p[valid], p[valid] - t]
        return vals

    S = np.zeros((n, len(tvals)), dtype=complex)
    for col, t in enumerate(tvals):
        if t % 2 == 0:
            S[:, col] = diagonal(k + t // 2, t)
        else:
            for node, w in zip(_HALF_NODES.astype(int), _HALF_WEIGHTS):
                S[:, col] += w * diagonal(k + (t - 1) // 2 + node, t)
    return h * ((S * wts) @ np.exp(-1j * h * np.outer(tvals, xi)))


@pytest.mark.parametrize("n", [8, 16, 128, 256, "weyl"])
def test_symbol_from_kernel_matches_the_column_loop_to_the_bit(n):
    if n == "weyl":
        g = GridSpec(1, 128, 10.0)
        K = weyl_kernel(lambda z: (1 + z[..., 0]) * np.exp(-0.2 * np.sum(z ** 2, axis=-1)
                                                          + 0.7j * z[..., 1]), g)
    else:
        rng = np.random.default_rng(n)
        g = GridSpec(1, n, 6.0)
        K = OperatorMatrix(g, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    got = symbol_from_kernel(K)
    assert got.values.tobytes() == column_loop_symbol(K).tobytes()


def test_sampled_symbol_is_quantized_as_its_pointwise_spline():
    # the symbol fio_factorize recovers from the kernel of HO^w mu(J): its
    # spline evaluated on the tensor grid at once gives the kernel that the
    # point-by-point spline gives, to the bit
    g = GridSpec(1, 128, 10.0)
    spec = FioSpec("factored", 2.0, 1.0, b=harmonic_oscillator_symbol(2), chi=standard_j(1))
    b = fio_factorize(fio_kernel(spec, g)[0], standard_j(1), 2.0).symbol
    assert np.abs(b.values.imag).max() > 0
    got = weyl_kernel(b, g).entries
    assert got.tobytes() == weyl_kernel(symbol_callable(b), g).entries.tobytes()


def test_size_guard_refuses_oversized_kernels():
    g = GridSpec(1, 2 ** 14, 10.0)
    with pytest.raises(SizeGuardError):
        weyl_kernel(lambda z: np.ones(z.shape[:-1]), g)

