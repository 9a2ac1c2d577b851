"""Distributions adapted to linear Lagrangian subspaces: synthesis from a
symbol through a metaplectic map, phase-space membership testing, and the
check that ties the operator-kernel picture to the Lagrangian picture.

A subspace parametrized by (Y, F) is {(X, FX + Z): X in Y, Z in Y-perp}.
The synthesis matrix chirp(F) * rotation(U) * partial-inverse-Fourier maps
R^d x {0} isomorphically onto it, so applying the corresponding metaplectic
operator to a sampled symbol produces a distribution concentrated there.
Membership is tested on the twisted phase-space transform: rapid decay off
the subspace and controlled polynomial growth along it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gabor import (
    Field4D,
    ProfileReport,
    decay_profile,
    gabor_transform,
    sweep_field,
    sweep_kernel_field,
)
from .grids import GridFunction, GridSpec, gaussian_window
from .metaplectic import mu_general
from .symbols import ShubinSymbol
from .symplectic import (
    LagrangianSubspace,
    SymplecticMatrix,
    chirp_matrix,
    j2_inverse,
    orthogonal_complement,
    orthonormal_basis,
    principal_angles,
    rotation_embedding,
    twisted_graph_lagrangian,
)


class SynthesisError(ValueError):
    pass


def lagrangian_param(lam: LagrangianSubspace):
    """(Y, F) parametrization recovered from an orthonormal basis.

    Y is the span of the position components; F is the unique symmetric map
    on Y sending X to the Y-part of the frequency component, extended by
    zero on Y-perp.
    """
    if lam.param is not None:
        Y, F = lam.param
        return np.asarray(Y, float).reshape(lam.n, -1), np.asarray(F, float)
    n = lam.n
    X = lam.basis[:n]
    Xi = lam.basis[n:]
    rank = np.linalg.matrix_rank(X, tol=1e-10)
    if rank == 0:
        return np.zeros((n, 0)), np.zeros((n, n))
    Y = orthonormal_basis(X)
    piY = Y @ Y.T
    F0 = Xi @ np.linalg.pinv(X, rcond=1e-10)
    F = piY @ F0 @ piY
    F = 0.5 * (F + F.T)
    return Y, F


def _check_covers(chi: SymplecticMatrix, lam: LagrangianSubspace, what: str):
    """Refuse a matrix whose image of R^d x {0} misses the subspace."""
    image = orthonormal_basis(chi.entries[:, :lam.n])
    defect = principal_angles(image, lam.basis).max(initial=0.0)
    if defect > 1e-8:
        raise SynthesisError(f"{what} misses the subspace (principal angle {defect:.2e})")


def synthesis_matrix(lam: LagrangianSubspace) -> SymplecticMatrix:
    """Symplectic matrix mapping R^d x {0} isomorphically onto the subspace:
    a chirp times a block rotation times a partial inverse Fourier rotation
    on the complement coordinates."""
    d = lam.n
    Y, F = lagrangian_param(lam)
    ny = Y.shape[1]
    U = np.hstack([Y, orthogonal_complement(Y)])
    chi = chirp_matrix(F) @ rotation_embedding(U) @ j2_inverse(d, ny)
    _check_covers(chi, lam, "synthesis matrix")
    return chi


@dataclass(frozen=True)
class LagrangianDistSpec:
    """A target subspace, a symbol of some order, and the synthesis matrix
    carrying R^d x {0} onto the subspace."""

    lam: LagrangianSubspace
    symbol: ShubinSymbol
    chi_syn: SymplecticMatrix | None = None

    def __post_init__(self):
        if self.symbol.dim != self.lam.n:
            raise ValueError(
                f"symbol dimension {self.symbol.dim} differs from subspace "
                f"dimension {self.lam.n}"
            )
        if self.chi_syn is None:
            object.__setattr__(self, "chi_syn", synthesis_matrix(self.lam))
        else:
            _check_covers(self.chi_syn, self.lam, "provided synthesis matrix")


def lagrangian_synthesize(spec: LagrangianDistSpec, grid: GridSpec) -> GridFunction:
    """Metaplectic image of the sampled symbol under the synthesis matrix."""
    if grid.d != spec.lam.n:
        raise ValueError(f"grid dimension {grid.d} differs from subspace "
                         f"dimension {spec.lam.n}")
    a = GridFunction.sample(grid, lambda *mesh: spec.symbol(np.stack(mesh, axis=-1)))
    return mu_general(spec.chi_syn, grid).apply(a)


def _lambda_twist(Y: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The form Q of the twist e^{-i (<proj-complement(Y) x, xi> + <x, Fx>/2)}
    on the axes (x, xi), the phase that flattens the transform of a
    distribution adapted to the subspace."""
    d = len(F)
    P = np.eye(d) - Y @ Y.T if Y.size else np.eye(d)
    P, F = (np.where(np.abs(M) > 1e-14, M, 0.0) for M in (P, F))
    # the x-x block carries <x, Fx>/2, the x-xi block <Px, xi>
    return np.block([[0.5 * F, P.T], [np.zeros((d, 2 * d))]])


def _product_subspace(P: np.ndarray, Q: np.ndarray) -> LagrangianSubspace:
    """span(P) x span(Q): positions in span(P), frequencies in span(Q).  It
    is Lagrangian when Q spans the orthogonal complement of span(P)."""
    d = P.shape[0]
    span = np.block([[P, np.zeros((d, Q.shape[1]))],
                     [np.zeros((d, P.shape[1])), Q]])
    return LagrangianSubspace.from_span(span)


def _membership_reader(lam: LagrangianSubspace, m: float, rho: float):
    """Twisted phase-space test of membership, as a reader of the
    phase-space field of a distribution (see lagrangian_membership_test)
    whose result is the ProfileReport: rapid decay off the subspace and
    growth at most like order m (minus rho per derivative) along it.

    The parametrizing matrix F is projected onto Y on both sides first, so
    the twist never sees the irrelevant action of F on Y-perp.
    """
    d = lam.n
    Y, F = lagrangian_param(lam)
    piY = Y @ Y.T if Y.size else np.zeros((d, d))
    F_proj = piY @ F @ piY
    projected = bool(np.max(np.abs(F_proj - F), initial=0.0) > 1e-12)
    # Y-perp x Y is transversal to {(X, FX + Z)} once F kills Y-perp
    vlam = _product_subspace(orthogonal_complement(Y), Y)
    return decay_profile(_lambda_twist(Y, F_proj), lam, vlam, m, rho, projected)


def lagrangian_membership_test(u: GridFunction, lam: LagrangianSubspace,
                               m: float, rho: float = 1.0) -> ProfileReport:
    """The membership test of _membership_reader on the phase-space field of
    u: at stride 1 for d = 1 (the finer steps keep the directional-difference
    floor below the vanishing threshold), held whole, and at KERNEL_STRIDE
    for d = 2, where the field is four-dimensional and swept slab by slab."""
    spec = u.spec
    if spec.d != lam.n:
        raise ValueError(f"grid dimension {spec.d} differs from subspace "
                         f"dimension {lam.n}")
    if spec.d == 1:
        field = gabor_transform(u, gaussian_window(spec), stride=1)
        x, xi = field.axes
        # profile only over frequencies up to the position box half-width:
        # synthesized inputs carry no genuine content beyond it, so the outer
        # dual band would contribute a spurious edge to the along-axis fit
        keep = np.abs(xi) <= spec.R + 1e-9
        field = Field4D((x, xi[keep]), field.values[:, keep])
        return sweep_field(field, [_membership_reader(lam, m, rho)])[0]
    if spec.d == 2:
        return sweep_kernel_field(u, [_membership_reader(lam, m, rho)])[0]
    raise ValueError("membership fields are implemented for d <= 2")


def kernel_membership_check(chi: SymplecticMatrix, m: float):
    """The subspace-membership test of a kernel against the twisted graph
    subspace of chi at rho = 1, as a reader of the kernel's field
    (gabor.sweep_kernel_field)."""
    return _membership_reader(twisted_graph_lagrangian(chi), m, 1.0)


def kernel_equals_lagrangian_check(kernel_rep: ProfileReport,
                                   member_rep: ProfileReport) -> dict:
    """The operator-kernel test and the subspace-membership test of one
    kernel's field must return the same verdict: the kernel belongs to the
    class over chi exactly when it is adapted to the twisted graph subspace.
    kernel_rep is the report of fio.kernel_characterization_check(chi, m,
    1.0) and member_rep that of kernel_membership_check(chi, m), read in
    one sweep of the field."""
    agree = kernel_rep.status == member_rep.status
    status = kernel_rep.status if agree else "inconclusive"
    return {
        "status": status,
        "agree": agree,
        "kernel_check": kernel_rep.to_dict(),
        "membership_check": member_rep.to_dict(),
    }
