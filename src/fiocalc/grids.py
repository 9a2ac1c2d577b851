"""Uniform centered grids on R^d, sampled functions, and dense operator
matrices with the quadrature weight folded into application.

Grid points are x_k = -R + k h with h = 2R/n, k = 0..n-1.  The dual grid has
spacing pi/R and covers [-pi n/(2R), pi n/(2R)), so h_x * h_xi * n = 2 pi and
the weighted discrete Fourier map is an isometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import DimensionError

MEMORY_CAP_ENTRIES = 2**26  # largest complex array (1 GiB) a guarded allocation makes


class SizeGuardError(MemoryError):
    @classmethod
    def check(cls, entries: int) -> None:
        """Refuse an array of more than MEMORY_CAP_ENTRIES entries."""
        if entries > MEMORY_CAP_ENTRIES:
            raise cls(f"array would need {entries} complex entries "
                      f"({16 * entries / 2**30:.2f} GiB), cap is {MEMORY_CAP_ENTRIES}")


@dataclass(frozen=True)
class GridSpec:
    d: int
    n: int
    R: float

    def __post_init__(self):
        if self.d < 1:
            raise DimensionError(f"d must be >= 1, got {self.d}")
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if self.R <= 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if not np.isfinite(self.h * self.dual_h):  # nan <= 0 is False; 2R or pi/R can overflow
            raise ValueError(f"R must be finite, with finite steps 2R/n and pi/R, got {self.R}")

    @property
    def h(self) -> float:
        return 2.0 * self.R / self.n

    @property
    def dual_h(self) -> float:
        return np.pi / self.R

    def points(self) -> np.ndarray:
        """1D axis points; the full grid is the d-fold product."""
        return -self.R + self.h * np.arange(self.n)

    def dual_points(self, stride: int = 1) -> np.ndarray:
        if stride < 1 or self.n % stride:
            raise ValueError(f"stride {stride} must divide n={self.n}")
        full = (np.arange(self.n) - self.n // 2) * self.dual_h
        return full[::stride]

    def size(self) -> int:
        return self.n**self.d

    def to_dict(self) -> dict:
        return {"d": self.d, "n": self.n, "R": self.R}


@dataclass(frozen=True)
class GridFunction:
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.size != self.spec.size():
            raise DimensionError(
                f"expected {self.spec.size()} values, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function has non-finite values")

    @classmethod
    def sample(cls, spec: GridSpec, func) -> "GridFunction":
        """Sample a callable on the grid.  The callable takes d arrays (a
        meshgrid) and returns complex values."""
        axes = [spec.points()] * spec.d
        mesh = np.meshgrid(*axes, indexing="ij")
        return cls(spec, np.asarray(func(*mesh), dtype=complex).reshape(-1))

    def reshaped(self) -> np.ndarray:
        return self.values.reshape((self.spec.n,) * self.spec.d)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values) * self.spec.h ** (self.spec.d / 2))

    def inner(self, other: "GridFunction") -> complex:
        if self.spec != other.spec:
            raise DimensionError("grid specs differ")
        return complex(np.vdot(other.values, self.values) * self.spec.h**self.spec.d)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if self.spec != other.spec:
            raise DimensionError("grid specs differ")
        return GridFunction(self.spec, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if self.spec != other.spec:
            raise DimensionError("grid specs differ")
        return GridFunction(self.spec, self.values - other.values)

    def __mul__(self, scalar) -> "GridFunction":
        return GridFunction(self.spec, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense kernel matrix K(x_k, x_l); application includes the quadrature
    weight h^d so that apply approximates (Af)(x) = int K(x, y) f(y) dy."""

    spec: GridSpec
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        m = self.spec.size()
        if entries.shape != (m, m):
            raise DimensionError(f"expected shape {(m, m)}, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("operator matrix has non-finite entries")

    @property
    def weight(self) -> float:
        return self.spec.h**self.spec.d

    def apply(self, f: GridFunction) -> GridFunction:
        if f.spec != self.spec:
            raise DimensionError("grid specs differ")
        return GridFunction(self.spec, self.weight * (self.entries @ f.values))

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.spec != other.spec:
            raise DimensionError("grid specs differ")
        return OperatorMatrix(self.spec, self.weight * (self.entries @ other.entries))

    def weighted(self) -> np.ndarray:
        """Matrix of the operator on the weighted l2 space (unitary iff the
        operator is an l2 isometry on the grid)."""
        return self.weight * self.entries


def identity_operator(spec: GridSpec) -> OperatorMatrix:
    return OperatorMatrix(spec, np.eye(spec.size()) / spec.h**spec.d)


def hermite_values(k: int, x: np.ndarray) -> np.ndarray:
    """L2-normalized Hermite function h_k; h_0 = pi^{-1/4} e^{-x^2/2}."""
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h = np.pi ** (-0.25) * np.exp(-0.5 * x**2)
    for j in range(1, k + 1):
        h, h_prev = np.sqrt(2.0 / j) * x * h - np.sqrt((j - 1.0) / j) * h_prev, h
    return h


def hermite_grid_function(spec: GridSpec, ks) -> GridFunction:
    """Tensor-product Hermite function with per-axis indices ks."""
    if isinstance(ks, int):
        ks = (ks,) * spec.d
    if len(ks) != spec.d:
        raise DimensionError(f"need {spec.d} indices, got {len(ks)}")

    def func(*mesh):
        out = np.ones_like(mesh[0], dtype=complex)
        for axis, k in enumerate(ks):
            out = out * hermite_values(k, mesh[axis])
        return out

    return GridFunction.sample(spec, func)


def gaussian_window(spec: GridSpec) -> GridFunction:
    """psi_0 = pi^{-d/4} e^{-|x|^2 / 2}."""
    return hermite_grid_function(spec, 0)


def gaussian_window_at(t) -> np.ndarray:
    """psi_0 = pi^{-1/4} e^{-t^2 / 2} at arbitrary points: the analysis
    window of the phase-space transforms, evaluated off the grid."""
    return np.pi ** -0.25 * np.exp(-0.5 * np.asarray(t) ** 2)
