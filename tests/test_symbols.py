import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiocalc.symbols import (
    ShubinSymbol,
    constant_symbol,
    custom_symbol,
    gaussian_symbol,
    _derivative,
    _shell_maxima,
    harmonic_oscillator_symbol,
    polynomial_symbol,
    shubin_decay_test,
)


def test_symbol_kinds_evaluate():
    z = np.array([[1.0, 2.0], [0.0, 0.0]])
    assert np.allclose(constant_symbol(2, 3.0)(z), [3.0, 3.0])
    assert np.allclose(harmonic_oscillator_symbol(2)(z), [5.0, 0.0])
    p = polynomial_symbol(2, [(2.0, (1, 1))])
    assert np.allclose(p(z), [4.0, 0.0])
    ga = gaussian_symbol(2)
    assert np.isclose(ga(np.array([0.0, 0.0])), 1.0)


def test_polynomial_order_is_total_degree():
    p = polynomial_symbol(2, [(1.0, (2, 1)), (1.0, (0, 1))])
    assert p.order == 3.0


def test_term_exponents_are_padded_but_never_cut():
    z = np.array([[3.0, 2.0]])
    assert np.allclose(polynomial_symbol(2, [(1.0, (2,))])(z), [9.0])
    for kind in ("polynomial", "gaussian_modulated"):
        with pytest.raises(ValueError, match="more than 2 entries"):
            ShubinSymbol(2, 0.0, 1.0, kind, {"terms": [(1.0, (5, 5, 5))]})


@pytest.mark.parametrize("kind, params", [
    ("polynomial", {"terms": [(1.0, (1.5, 0))]}),
    ("polynomial", {"terms": [(1.0, (-1,))]}),
    ("polynomial", {"terms": [(1.0, ("1", 0))]}),
    ("gaussian_modulated", {"terms": [(1.0, (0, 2.5))]}),
    ("gaussian_modulated", {"width": 0.0}),
    ("gaussian_modulated", {"width": np.inf}),
    ("gaussian_modulated", {"width": np.nan}),
    ("gaussian_modulated", {"width": 1e200}),
], ids=["fraction", "negative", "string", "gaussian-fraction", "width-zero",
        "width-inf", "width-nan", "width-square-overflows"])
def test_malformed_exponents_and_widths_are_refused(kind, params):
    match = "width" if "width" in params else "not a non-negative integer"
    with pytest.raises(ValueError, match=match):
        ShubinSymbol(2, 0.0, 1.0, kind, params)


def test_integral_float_exponents_are_integers():
    sym = polynomial_symbol(2, [(1.0, (2.0, 1.0))])
    assert sym.terms() == [(1.0 + 0j, (2, 1))]
    assert sym.params["terms"] == [(1.0, (2.0, 1.0))]


@st.composite
def symbol_and_points(draw):
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["constant", "harmonic_oscillator", "polynomial",
                                 "gaussian_modulated"]))
    term = st.tuples(
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        st.lists(st.integers(0, 3) | st.integers(0, 3).map(float), max_size=dim).map(tuple))
    terms = draw(st.lists(term, min_size=1, max_size=4))
    coord = st.floats(-5.0, 5.0)
    if kind == "constant":
        sym = constant_symbol(dim, draw(st.floats(-10.0, 10.0)))
    elif kind == "harmonic_oscillator":
        sym = harmonic_oscillator_symbol(dim)
    elif kind == "polynomial":
        sym = polynomial_symbol(dim, terms)
    else:
        sym = gaussian_symbol(dim, center=draw(st.lists(coord, min_size=dim, max_size=dim)),
                              width=draw(st.floats(0.5, 4.0)),
                              terms=draw(st.none() | st.just(terms)))
    z = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=5))
    return sym, np.array(z)


@settings(deadline=None)
@given(symbol_and_points())
def test_terms_are_padded_and_serialization_is_exact(case):
    sym, z = case
    assert all(len(e) == sym.dim for _, e in sym.terms())
    back = ShubinSymbol.from_dict(json.loads(json.dumps(sym.to_dict())))
    assert back(z).tobytes() == sym(z).tobytes()
    if sym.kind == "constant":
        assert np.array_equal(sym(z), np.full(len(z), sym.params["c"], dtype=complex))
    if sym.kind == "harmonic_oscillator":
        assert np.array_equal(sym(z), np.sum(z ** 2, axis=-1))


def test_serialization_round_trip():
    for sym in (constant_symbol(2, 2.5), harmonic_oscillator_symbol(2),
                polynomial_symbol(2, [(1.0, (1, 0))]),
                gaussian_symbol(2, center=[1.0, -1.0], width=2.0)):
        back = ShubinSymbol.from_dict(sym.to_dict())
        z = np.array([[0.3, -0.7]])
        assert np.allclose(back(z), sym(z))


def test_custom_symbol_does_not_serialize():
    sym = custom_symbol(2, 0.0, 1.0, lambda z: np.ones(z.shape[:-1]))
    with pytest.raises(ValueError):
        sym.to_dict()


def test_gaussian_satisfies_any_nonnegative_order():
    ax = np.linspace(-8, 8, 129)
    X, XI = np.meshgrid(ax, ax, indexing="ij")
    vals = np.exp(-0.5 * (X ** 2 + XI ** 2))
    rep = shubin_decay_test(vals, [ax, ax], 0.0, 1.0)
    assert rep.status == "pass"


def test_quadratic_growth_certified_at_order_two():
    ax = np.linspace(-8, 8, 129)
    X, XI = np.meshgrid(ax, ax, indexing="ij")
    vals = X ** 2 + XI ** 2
    assert shubin_decay_test(vals, [ax, ax], 2.0, 1.0).status == "pass"
    assert shubin_decay_test(vals, [ax, ax], 0.0, 1.0).status == "fail"


def test_constant_fails_negative_order():
    ax = np.linspace(-8, 8, 65)
    vals = np.ones((65, 65))
    assert shubin_decay_test(vals, [ax, ax], 0.0, 1.0).status == "pass"
    assert shubin_decay_test(vals, [ax, ax], -1.0, 1.0).status == "fail"


def test_decay_report_serializes():
    ax = np.linspace(-8, 8, 65)
    vals = np.exp(-(np.add.outer(ax ** 2, ax ** 2)))
    data = shubin_decay_test(vals, [ax, ax], 0.0, 1.0).to_dict()
    assert data["status"] == "pass"


def test_shell_maxima_match_a_loop():
    rng = np.random.default_rng(2)
    r = rng.uniform(0.0, 10.0, 500)
    r = r[(r < 4.0) | (r >= 5.0)]  # leaves the shell [4, 5) empty
    vals = rng.uniform(0.0, 1.0, r.size)
    edges = np.array([1.0, 2.0, 4.0, 5.0, 8.0])
    ref = np.array([vals[(r >= lo) & (r < hi)].max(initial=0.0)
                    for lo, hi in zip(edges[:-1], edges[1:])])
    got = _shell_maxima(r, vals, edges)
    assert ref[2] == 0.0 and np.all(ref[[0, 1, 3]] > 0.0)
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()


def rolled_derivative(f, axis, h):
    """The stencil written with periodic shifts, borders set to nan."""
    out = (-np.roll(f, -2, axis) + 8 * np.roll(f, -1, axis)
           - 8 * np.roll(f, 1, axis) + np.roll(f, 2, axis)) / (12 * h)
    sl = [slice(None)] * f.ndim
    for edge in (slice(0, 2), slice(-2, None)):
        sl[axis] = edge
        out[tuple(sl)] = np.nan
    return out


@pytest.mark.parametrize("shape", [(9,), (7, 6), (5, 6, 7), (6, 5, 8, 9)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_derivative_is_bitwise_the_rolled_stencil(shape, dtype):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(shape).astype(dtype)
    if dtype is complex:
        vals += 1j * rng.standard_normal(shape)
    for axis in range(len(shape)):
        got = _derivative(vals, axis, 0.37)
        ref = rolled_derivative(vals, axis, 0.37)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
