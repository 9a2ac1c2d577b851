"""Shubin symbol classes on phase space and isotropic decay diagnostics.

A symbol of order m and regularity rho satisfies
|d^alpha a(z)| <~ <z>^{m - rho |alpha|} in all phase-space variables jointly.
The built-in kinds satisfy their claimed orders analytically; the decay test
checks sampled data empirically by shell-maximum regression.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from math import comb

import numpy as np


@dataclass(frozen=True)
class ShubinSymbol:
    """Symbol with an everywhere-defined evaluator on R^dim.

    kind is one of constant, polynomial, gaussian_modulated,
    harmonic_oscillator, custom; params hold the kind data.
    """

    dim: int
    order: float
    rho: float
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if self.kind not in ("constant", "polynomial", "gaussian_modulated",
                             "harmonic_oscillator", "custom"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.kind == "gaussian_modulated":
            width = float(self.params.get("width", 1.0))
            if not 0.0 < width * width < np.inf:
                raise ValueError(f"gaussian width must be nonzero and finite when "
                                 f"squared, got {width!r}")
            center = np.shape(self.params.get("center", np.zeros(self.dim)))
            if center != (self.dim,):
                raise ValueError(f"gaussian center must have {self.dim} entries, "
                                 f"got shape {center}")
        if self.kind == "polynomial" and "terms" not in self.params:
            raise ValueError("polynomial symbol needs params 'terms'")
        self.terms()  # refuses a malformed exponent

    def terms(self):
        """Term list (coefficient, exponent of dim entries) of the polynomial
        part: the whole symbol for constant, harmonic_oscillator and
        polynomial, the factor of the Gaussian for gaussian_modulated; None for
        custom.  A given exponent is at most dim non-negative integers (2.0
        counts) and is padded with zeros; anything else is a ValueError."""
        zero = (0,) * self.dim
        if self.kind == "custom":
            return None
        if self.kind == "constant":
            return [(complex(self.params.get("c", 1.0)), zero)]
        if self.kind == "harmonic_oscillator":
            return [(1.0 + 0j, zero[:i] + (2,) + zero[i + 1:]) for i in range(self.dim)]
        given = self.params["terms"] if self.kind == "polynomial" \
            else self.params.get("terms", [(1.0, zero)])
        return [(complex(c), _padded_exponent(e, self.dim)) for c, e in given]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Evaluate at points; z has shape (..., dim)."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {z.shape[-1]}, symbol has {self.dim}")
        if self.kind == "custom":
            return np.asarray(self.params["func"](z), dtype=complex)
        out = _eval_terms(self.terms(), z)
        if self.kind == "gaussian_modulated":
            center = np.asarray(self.params.get("center", np.zeros(self.dim)), dtype=float)
            width = float(self.params.get("width", 1.0))
            out = out * np.exp(-np.sum((z - center) ** 2, axis=-1) / width**2)
        return out

    def to_dict(self) -> dict:
        if self.kind == "custom":
            raise ValueError("custom symbols are not serializable")
        params = {}
        for key, val in self.params.items():
            if isinstance(val, np.ndarray):
                params[key] = val.tolist()
            elif key == "terms":
                params[key] = [[complex(c).real, complex(c).imag, list(e)] for c, e in val]
            else:
                params[key] = val
        return {"dim": self.dim, "order": self.order, "rho": self.rho,
                "kind": self.kind, "params": params}

    @classmethod
    def from_dict(cls, data: dict) -> "ShubinSymbol":
        """The symbol of a JSON object written by to_dict; any other input is
        a ValueError, kind custom included: its evaluator has no JSON form."""
        if not isinstance(data, dict):
            raise ValueError(f"a symbol is a JSON object, got {type(data).__name__}")
        if data.get("kind") == "custom":
            raise ValueError("symbol kind 'custom' has no JSON form: its evaluator "
                             "is a Python function")
        try:
            params = dict(data.get("params", {}))
            if "terms" in params:
                params["terms"] = [(complex(t[0], t[1]), tuple(t[2]))
                                   for t in params["terms"]]
            return cls(int(data["dim"]), float(data["order"]), float(data["rho"]),
                       data["kind"], params)
        except (TypeError, IndexError) as exc:
            raise ValueError(f"malformed symbol: {exc}") from exc


def _padded_exponent(e, dim: int) -> tuple:
    e = tuple(e)
    if len(e) > dim:
        raise ValueError(f"term exponent {e} has more than {dim} entries")
    if not all(isinstance(k, numbers.Real) and k >= 0 and float(k).is_integer()
               for k in e):
        raise ValueError(f"term exponent {e} has an entry that is not a "
                         f"non-negative integer")
    return tuple(int(k) for k in e) + (0,) * (dim - len(e))


def _eval_terms(terms, z: np.ndarray) -> np.ndarray:
    """Sum of c z_0^e_0 z_1^e_1 ... over the (c, e) of terms, at points z of
    shape (..., dim); each term is multiplied up left to right from c."""
    out = np.zeros(z.shape[:-1], dtype=complex)
    for c, e in terms:
        term = c
        for axis, k in enumerate(e):
            term = term * z[..., axis] ** k
        out = out + term
    return out


def _collect(pairs):
    """The pairs (c, e) summed per exponent e, each sum from 0.0 in the order
    given, in the order the exponents first appear; zero sums are dropped."""
    out = {}
    for c, e in pairs:
        out[e] = out.get(e, 0.0) + c
    return [(c, e) for e, c in out.items() if c != 0.0]


def _diff_terms(terms, axis: int):
    out = []
    for c, e in terms:
        if e[axis] > 0:
            e2 = list(e)
            e2[axis] -= 1
            out.append((c * e[axis], tuple(e2)))
    return out


def _gaussian_diff_terms(terms, axis: int, center, w2: float):
    """Terms q with d_axis (p e^{-|u - c|^2 / w2}) = q e^{-|u - c|^2 / w2} for
    the p of terms: q = d_axis p - 2 (u_axis - c_axis) p / w2."""
    return _collect([*_diff_terms(terms, axis),
                     *((-2.0 * c / w2, e[:axis] + (e[axis] + 1,) + e[axis + 1:])
                       for c, e in terms),
                     *((2.0 * center[axis] * c / w2, e) for c, e in terms)])


def _transform_terms(terms, M: np.ndarray):
    """Terms of z -> p(M z) for a polynomial p given by terms."""
    return _collect((c * comb(p, i) * comb(q, j)
                     * M[0, 0] ** i * M[0, 1] ** (p - i)
                     * M[1, 0] ** j * M[1, 1] ** (q - j), (i + j, (p - i) + (q - j)))
                    for c, (p, q) in terms for i in range(p + 1) for j in range(q + 1))


def _gaussian_mean_terms(terms, M: np.ndarray, offset: int):
    """Terms of e^{sum_ij M_ij d_i d_j} p, the derivatives d_i taken along
    axis offset + i; a finite sum for a polynomial p, since each power of
    the operator lowers the degree by two."""
    seen = []
    power = list(terms)
    k = 0
    while power:
        seen += power
        k += 1
        power = _collect((M[i, j] * c / k, e) for i in range(len(M)) for j in range(len(M))
                         for c, e in _diff_terms(_diff_terms(power, offset + i), offset + j))
    return _collect(seen)


def constant_symbol(dim: int, c=1.0) -> ShubinSymbol:
    return ShubinSymbol(dim, 0.0, 1.0, "constant", {"c": c})


def polynomial_symbol(dim: int, terms) -> ShubinSymbol:
    """terms: list of (coefficient, exponent tuple); order = max total degree."""
    order = max(sum(e) for _, e in terms) if terms else 0
    return ShubinSymbol(dim, float(order), 1.0, "polynomial", {"terms": list(terms)})


def harmonic_oscillator_symbol(dim: int = 2) -> ShubinSymbol:
    return ShubinSymbol(dim, 2.0, 1.0, "harmonic_oscillator")


def gaussian_symbol(dim: int, center=None, width: float = 1.0, terms=None) -> ShubinSymbol:
    params = {"center": np.zeros(dim) if center is None else np.asarray(center, float),
              "width": width}
    if terms is not None:
        params["terms"] = list(terms)
    return ShubinSymbol(dim, 0.0, 1.0, "gaussian_modulated", params)


def custom_symbol(dim: int, order: float, rho: float, func) -> ShubinSymbol:
    return ShubinSymbol(dim, order, rho, "custom", {"func": func})


# -- decay diagnostics ---------------------------------------------------


def _derivative(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order central first difference; two border layers become invalid
    and are set to nan."""
    f = np.moveaxis(values, axis, 0)
    inner = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)
    out = np.full(values.shape, np.nan, dtype=inner.dtype)
    np.moveaxis(out, axis, 0)[2:-2] = inner
    return out


def multi_derivative(values: np.ndarray, alpha, steps) -> np.ndarray:
    out = np.asarray(values, dtype=complex).copy()
    for axis, k in enumerate(alpha):
        for _ in range(k):
            out = _derivative(out, axis, steps[axis])
    return out


@dataclass(frozen=True)
class DecayReport:
    status: str  # pass, fail, inconclusive
    slopes: dict  # multi-index -> fitted log-log slope
    bounds: dict  # multi-index -> allowed slope m - rho |alpha| + margin
    shells: list  # (radius, shell maximum) per nonempty shell

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "slopes": {"".join(map(str, a)): s for a, s in self.slopes.items()},
            "bounds": {"".join(map(str, a)): b for a, b in self.bounds.items()},
            "shells": self.shells,
        }


def _shell_maxima(r: np.ndarray, values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Largest value over each shell edges[j] <= r < edges[j + 1] (zero for
    an empty shell); points outside the edges are ignored."""
    idx = np.digitize(r, edges) - 1
    ok = (idx >= 0) & (idx < len(edges) - 1)
    maxima = np.zeros(len(edges) - 1)
    np.maximum.at(maxima, idx[ok], values[ok])
    return maxima


def shell_slope(radii: np.ndarray, maxima: np.ndarray):
    """Log-log regression slope of shell maxima against <r> = (1 + r^2)^{1/2}."""
    mask = maxima > 0
    if mask.sum() < 4:
        return None
    logr = np.log(np.hypot(1.0, radii[mask]))
    logm = np.log(maxima[mask])
    slope = np.polyfit(logr, logm, 1)[0]
    return float(slope)


DECAY_MAX_ORDER = 2  # derivatives up to this total order are fitted
DECAY_MARGIN = 0.3  # allowed excess of a slope over m - rho |alpha|
DECAY_R_MIN = 2.0  # inner radius of the fitted shells
DECAY_N_SHELLS = 8  # geometric shells per fit


def shubin_decay_test(values: np.ndarray, axes, m: float, rho: float,
                      noise: float = 0.0) -> DecayReport:
    """Empirical Shubin-decay check of sampled data.

    values: complex array over the product grid of the 1D coordinate arrays
    in axes.  For each derivative multi-order |alpha| <= DECAY_MAX_ORDER
    (central differences) the shell maxima over |z| from DECAY_R_MIN to half
    the smallest axis extent (at least 2 DECAY_R_MIN) are regressed log-log;
    pass iff every slope <= m - rho |alpha| + DECAY_MARGIN.

    noise is the absolute uncertainty of the samples (zero for exactly
    evaluated symbols).  A finite difference of order alpha amplifies it by
    (2/h)^|alpha|; derivative data below that resolution limit is treated as
    vanishing rather than fitted, since its flat noise profile carries no
    information about the symbol.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    values = np.asarray(values, dtype=complex).reshape([len(a) for a in axes])
    steps = [a[1] - a[0] for a in axes]
    radius = np.sqrt(sum(c**2 for c in np.ix_(*axes)))
    r_max = max(0.5 * min(a.max() for a in axes), 2.0 * DECAY_R_MIN)
    edges = np.geomspace(DECAY_R_MIN, r_max, DECAY_N_SHELLS + 1)
    radii = np.sqrt(edges[:-1] * edges[1:])

    slopes = {}
    bounds = {}
    shells_out = []
    status = "pass"
    scale = float(np.abs(values).max()) or 1.0
    for total in range(DECAY_MAX_ORDER + 1):
        for alpha in itertools.product(range(total + 1), repeat=len(axes)):
            if sum(alpha) != total:
                continue
            mag = np.abs(multi_derivative(values, alpha, steps))
            ok = np.isfinite(mag)
            maxima = _shell_maxima(radius[ok], mag[ok], edges)
            thresh = max(1e-12 * scale,
                         noise * np.prod([(2.0 / s) ** a for s, a in zip(steps, alpha)]))
            if maxima.max(initial=0.0) <= thresh:
                # derivative vanishes to within resolution: decays faster
                # than any power as far as the data can tell
                slope = -np.inf
            else:
                slope = shell_slope(radii, maxima)
            if total == 0:
                nonempty = _shell_maxima(radius[ok], np.ones(ok.sum()), edges) > 0
                shells_out = [(float(r), float(v)) for r, v in
                              zip(radii[nonempty], maxima[nonempty])]
            if slope is None:
                return DecayReport("inconclusive", slopes, bounds, shells_out)
            bound = m - rho * total + DECAY_MARGIN
            slopes[alpha] = slope
            bounds[alpha] = bound
            if slope > bound:
                status = "fail"
    return DecayReport(status, slopes, bounds, shells_out)
