"""Release-gating property checks.

Each check exercises one slice of the library on fixed desk-scale grids and
returns a CheckResult with a pass/fail status and the measured quantities.
The `suite` CLI subcommand runs all of them and writes one JSON artifact per
check; the test suite calls them directly.  Checks are deterministic for a
fixed seed.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import inspect
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fio import (
    FioSpec,
    fio_adjoint,
    fio_compose,
    fio_factorize,
    fio_kernel,
    kernel_characterization_check,
    wf_kernel_check,
    wf_propagation_check,
)
from .gabor import sweep_kernel_field, wavefront_estimate
from .grids import (
    GridFunction,
    GridSpec,
    hermite_values,
    identity_operator,
)
from .lagdist import (LagrangianDistSpec, kernel_equals_lagrangian_check,
                      kernel_membership_check, lagrangian_synthesize)
from .metaplectic import (
    egorov_residual,
    fbi_covariance_residual,
    homomorphism_residual,
    mu_general,
    unitarity_defect,
)
from .phases import (
    helffer_conditions,
    lagrangian_of_phase,
    phase_from_free_matrix,
    random_nondegenerate_phase,
    reduce_phase,
)
from .symbols import (
    constant_symbol,
    custom_symbol,
    gaussian_symbol,
    harmonic_oscillator_symbol,
    polynomial_symbol,
)
from .symplectic import (
    SymplecticMatrix,
    chirp_matrix,
    chi_delta,
    is_free,
    principal_angles,
    random_symplectic,
    scaling_matrix,
    standard_j,
    standard_j_matrix,
    symplectic_inverse,
    tensor_symplectic,
    twisted_graph_lagrangian,
)
from .weyl import interior_mask, symbol_callable, weyl_kernel


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" or "fail"
    details: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "details": self.details}


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _delta(grid: GridSpec) -> GridFunction:
    vals = np.zeros(grid.n, dtype=complex)
    vals[grid.n // 2] = 1.0 / grid.h
    return GridFunction(grid, vals)


def _hermite_sum(grid: GridSpec) -> GridFunction:
    x = grid.points()
    return GridFunction(grid, hermite_values(0, x) + hermite_values(2, x))


def _bounded_symplectic(rng) -> SymplecticMatrix:
    """Random d = 1 symplectic draw rejected until its spectral norm is at
    most 2, so it fits the grid box; unbounded stretches would push every
    test state into truncation."""
    while True:
        chi = random_symplectic(1, rng, n_factors=3, max_chirp=0.6)
        if np.linalg.norm(chi.entries, 2) <= 2.0:
            return chi


# -- 1: symplectic algebra --------------------------------------------------


def check_symplectic_algebra(seed: int = 0, quick: bool = False) -> CheckResult:
    draws = 25 if quick else 100
    tol = 1e-12
    worst_form = 0.0
    worst_inv = 0.0
    for d in (1, 2, 3):
        rng = np.random.default_rng(seed + 100 + d)
        Jm = standard_j_matrix(d)
        for _ in range(draws):
            chi = random_symplectic(d, rng)
            worst_form = max(worst_form, float(
                np.abs(chi.entries.T @ Jm @ chi.entries - Jm).max()))
            worst_inv = max(worst_inv, float(
                np.abs(symplectic_inverse(chi).entries
                       - np.linalg.inv(chi.entries)).max()))
    ok = worst_form <= tol and worst_inv <= tol
    return CheckResult("symplectic_algebra", _status(ok), {
        "draws_per_dim": draws, "tolerance": tol,
        "worst_form_defect": worst_form, "worst_inverse_error": worst_inv,
    })


# -- 2: phase reduction ------------------------------------------------------


def check_phase_reduction(seed: int = 0, quick: bool = False) -> CheckResult:
    draws = 25 if quick else 100
    tol = 1e-9
    rng = np.random.default_rng(seed + 11)
    worst_q = 0.0
    worst_angle = 0.0
    injective = True
    for _ in range(draws):
        d = int(rng.integers(1, 3))
        N = int(rng.integers(0, 4))
        phi = random_nondegenerate_phase(d, N, rng)
        rec = reduce_phase(phi)
        if rec.reduced.Q.size:
            worst_q = max(worst_q, float(np.abs(rec.reduced.Q).max()))
        if rec.n and scipy.linalg.svdvals(rec.reduced.L)[-1] <= 1e-10:
            injective = False
        ang = principal_angles(lagrangian_of_phase(phi).basis,
                               lagrangian_of_phase(rec.reduced).basis)
        worst_angle = max(worst_angle, float(ang.max()))
    ok = worst_q == 0.0 and injective and worst_angle < tol
    return CheckResult("phase_reduction", _status(ok), {
        "draws": draws, "tolerance": tol, "worst_residual_Q": worst_q,
        "L_always_injective": injective, "worst_principal_angle": worst_angle,
    })


# -- 3: graph-phase estimate matrices ----------------------------------------


def check_graph_phase_estimates(seed: int = 0, quick: bool = False) -> CheckResult:
    draws = 25 if quick else 100
    rng = np.random.default_rng(seed + 13)
    worst_sigma = np.inf
    all_ok = True
    for _ in range(draws):
        d = int(rng.integers(1, 3))
        while True:
            chi = random_symplectic(d, rng)
            if is_free(chi) and scipy.linalg.svdvals(chi.B)[-1] > 0.05:
                break
        rep = helffer_conditions(phase_from_free_matrix(chi))
        worst_sigma = min(worst_sigma, rep.left_sigma_min, rep.right_sigma_min)
        all_ok = all_ok and rep.estimates_hold
    ok = all_ok and worst_sigma > 1e-8
    return CheckResult("graph_phase_estimates", _status(ok), {
        "draws": draws, "sigma_min_floor": 1e-8, "worst_sigma_min": worst_sigma,
    })


# -- 4: metaplectic identities ------------------------------------------------


def check_metaplectic_identities(seed: int = 0, quick: bool = False) -> CheckResult:
    grid = GridSpec(1, 256, 12.0)
    x = grid.points()
    psi0 = GridFunction(grid, hermite_values(0, x).astype(complex))
    fixed_err = float((mu_general(standard_j(1), grid).apply(psi0) - psi0).norm())
    pairs = 5 if quick else 20
    rng = np.random.default_rng(seed + 7)
    f = _hermite_sum(grid)
    worst_h = 0.0
    worst_u = 0.0
    for _ in range(pairs):
        c1 = _bounded_symplectic(rng)
        c2 = _bounded_symplectic(rng)
        worst_h = max(worst_h, homomorphism_residual(c1, c2, f))
        worst_u = max(worst_u, unitarity_defect(mu_general(c1, grid), f))
    ok = fixed_err <= 1e-8 and worst_h < 1e-4 and worst_u <= 1e-6
    return CheckResult("metaplectic_identities", _status(ok), {
        "grid": grid.to_dict(), "pairs": pairs,
        "fourier_gaussian_error": fixed_err, "fourier_gaussian_tol": 1e-8,
        "worst_homomorphism_residual": worst_h, "homomorphism_tol": 1e-4,
        "worst_unitarity_defect": worst_u, "unitarity_tol": 1e-6,
    })


# -- 5: symplectic covariance --------------------------------------------------


def check_symplectic_covariance(seed: int = 0, quick: bool = False) -> CheckResult:
    grid = GridSpec(1, 128, 10.0)
    mats = {
        "fourier": standard_j(1),
        "chirp": chirp_matrix(np.array([[0.7]])),
        "scaling": scaling_matrix(np.array([[1.3]])),
        "composite": scaling_matrix(np.array([[1.3]])) @ chirp_matrix(np.array([[0.7]])),
    }
    symbols = {"harmonic_oscillator": symbol_callable(harmonic_oscillator_symbol(2)),
               "gaussian": symbol_callable(gaussian_symbol(2))}
    if quick:
        symbols = {"harmonic_oscillator": symbols["harmonic_oscillator"]}
    tol = 1e-3
    residuals = {}
    for cn, chi in mats.items():
        for sn, a in symbols.items():
            residuals[f"{sn}|{cn}"] = float(egorov_residual(chi, a, grid))
    worst = max(residuals.values())
    return CheckResult("symplectic_covariance", _status(worst < tol), {
        "grid": grid.to_dict(), "tolerance": tol, "residuals": residuals,
        "worst": worst,
    })


# -- 6: Weyl calculus ------------------------------------------------------------


def check_weyl_calculus(seed: int = 0, quick: bool = False) -> CheckResult:
    grid = GridSpec(1, 256, 12.0)
    ident = weyl_kernel(lambda z: np.ones(z.shape[:-1]), grid)
    ident_err = float(np.abs(ident.entries - identity_operator(grid).entries).max())
    mult = weyl_kernel(lambda z: z[..., 0], grid)
    mult_err = float(np.abs(mult.entries - np.diag(grid.points()) / grid.h).max())
    H = weyl_kernel(lambda z: z[..., 0] ** 2 + z[..., 1] ** 2, grid).weighted()
    ev = np.linalg.eigvalsh(H)[:10]
    ev_err = float(np.abs(ev - np.arange(1, 20, 2)).max())
    # product identity through the finite Moyal sum (polynomial factors)
    g2 = GridSpec(1, 128, 10.0)
    eye = SymplecticMatrix(1, np.eye(2))
    sx = FioSpec("factored", 1.0, 1.0, b=polynomial_symbol(2, [(1.0, (1, 0))]), chi=eye)
    sxi = FioSpec("factored", 1.0, 1.0, b=polynomial_symbol(2, [(1.0, (0, 1))]), chi=eye)
    rep = fio_compose(sx, sxi, g2)
    xs = np.linspace(-5.0, 5.0, 21)
    Z = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    moyal_err = float(np.abs(rep.spec.b(Z) - (Z[..., 0] * Z[..., 1] + 0.5j)).max())
    ok = ident_err <= 1e-10 and mult_err <= 1e-10 and ev_err <= 1e-6 \
        and moyal_err <= 1e-6
    return CheckResult("weyl_calculus", _status(ok), {
        "grid": grid.to_dict(), "identity_error": ident_err,
        "multiplication_error": mult_err, "eigenvalue_error": ev_err,
        "product_identity_error": moyal_err,
        "tolerances": {"exact": 1e-10, "eigenvalues": 1e-6, "product": 1e-6},
    })


# -- 7: FBI covariance -------------------------------------------------------------


def check_fbi_covariance(seed: int = 0, quick: bool = False) -> CheckResult:
    grid = GridSpec(1, 128, 10.0)
    x = grid.points()
    signals = {
        "gaussian": GridFunction(grid, hermite_values(0, x).astype(complex)),
        "hermite3": GridFunction(grid, hermite_values(3, x).astype(complex)),
        "shifted_packet": GridFunction(
            grid, np.exp(-0.5 * (x - 1.0) ** 2 + 2.0j * x)),
    }
    mats = {
        "fourier": standard_j(1),
        "chirp": chirp_matrix(np.array([[0.6]])),
        "scaling": scaling_matrix(np.array([[0.8]])),
        "composite": standard_j(1) @ chirp_matrix(np.array([[0.5]])),
    }
    if quick:
        signals = {"gaussian": signals["gaussian"]}
    tol = 1e-4
    residuals = {}
    for sn, u in signals.items():
        for cn, chi in mats.items():
            residuals[f"{sn}|{cn}"] = float(fbi_covariance_residual(chi, u))
    worst = max(residuals.values())
    return CheckResult("fbi_covariance", _status(worst < tol), {
        "grid": grid.to_dict(), "tolerance": tol, "residuals": residuals,
        "worst": worst,
    })


# -- 8: factorization ---------------------------------------------------------------


def _factorization_pairs():
    J = standard_j(1)
    ch = chirp_matrix(np.array([[0.8]]))
    sc = scaling_matrix(np.array([[1.2]]))
    comp = standard_j(1) @ chirp_matrix(np.array([[0.5]]))
    return [
        ("constant|fourier", constant_symbol(2), J, 0.0),
        ("harmonic_oscillator|fourier", harmonic_oscillator_symbol(2), J, 2.0),
        ("gaussian|chirp", gaussian_symbol(2), ch, 0.0),
        ("harmonic_oscillator|chirp", harmonic_oscillator_symbol(2), ch, 2.0),
        ("shifted_gaussian|scaling", gaussian_symbol(2, center=[1.0, 0.5]), sc, 0.0),
        ("affine|composite", polynomial_symbol(
            2, [(1.0, (1, 0)), (0.5, (0, 1)), (2.0, (0, 0))]), comp, 1.0),
    ]


def check_factorization(seed: int = 0, quick: bool = False) -> CheckResult:
    grid = GridSpec(1, 256, 12.0)
    tol = 1e-3
    pairs = _factorization_pairs()
    if quick:
        pairs = pairs[:2]
    errors = {}
    statuses = {}
    for name, sym, chi, m in pairs:
        spec = FioSpec("factored", m, 1.0, b=sym, chi=chi)
        K, _ = fio_kernel(spec, grid)
        rep = fio_factorize(K, chi, m)
        call = symbol_callable(sym)
        mask = interior_mask(rep.symbol)
        X, XI = np.meshgrid(*rep.symbol.axes, indexing="ij")
        true = np.asarray(call(np.stack([X, XI], axis=-1)), dtype=complex)
        scale = float(np.abs(true[mask]).max())
        errors[name] = float(np.abs(rep.symbol.values - true)[mask].max() / scale)
        statuses[name] = rep.status
    spec = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=standard_j(1))
    K, _ = fio_kernel(spec, grid)
    neg = fio_factorize(K, chirp_matrix(np.array([[0.8]])), 0.0)
    ok = max(errors.values()) < tol \
        and all(s == "pass" for s in statuses.values()) \
        and neg.status == "not-in-class"
    return CheckResult("factorization", _status(ok), {
        "grid": grid.to_dict(), "tolerance": tol, "recovery_errors": errors,
        "statuses": statuses, "negative_control_status": neg.status,
    })


# -- 9: composition and adjoint ---------------------------------------------------------


def check_composition_adjoint(seed: int = 0, quick: bool = False) -> CheckResult:
    grid = GridSpec(1, 128, 10.0)
    J = standard_j(1)
    ch = chirp_matrix(np.array([[0.8]]))
    s_ho_j = FioSpec("factored", 2.0, 1.0, b=harmonic_oscillator_symbol(2), chi=J)
    s_ho_ch = FioSpec("factored", 2.0, 1.0, b=harmonic_oscillator_symbol(2), chi=ch)
    s_ga_ch = FioSpec("factored", 0.0, 1.0, b=gaussian_symbol(2), chi=ch)
    s_co_j = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=J)
    cases = [("ho_fourier*ho_chirp", s_ho_j, s_ho_ch),
             ("ho_fourier*gauss_chirp", s_ho_j, s_ga_ch),
             ("fourier*fourier", s_co_j, s_co_j)]
    if quick:
        cases = cases[:2]
    tol = 1e-3
    residuals = {}
    for name, a, b in cases:
        rep = fio_compose(a, b, grid)
        residuals[name] = float(rep.residual)
    # adjoint of an oscillatory spec: kernel equals the conjugate transpose
    kgrid = GridSpec(1, 64, 8.0)
    phi = phase_from_free_matrix(J)
    amp = custom_symbol(2, 0.0, 1.0,
                        lambda z: np.exp(-0.25 * np.sum(np.asarray(z) ** 2, axis=-1)))
    spec = FioSpec("oscillatory", 0.0, 1.0, phase=phi, amplitude=amp)
    K1, _ = fio_kernel(spec, kgrid)
    K2, _ = fio_kernel(fio_adjoint(spec), kgrid)
    A = K1.values.reshape(kgrid.n, kgrid.n)
    B = K2.values.reshape(kgrid.n, kgrid.n)
    adj_err = float(np.max(np.abs(B - A.conj().T)) / np.max(np.abs(A)))
    ok = max(residuals.values()) < tol and adj_err <= 1e-8
    return CheckResult("composition_adjoint", _status(ok), {
        "grid": grid.to_dict(), "composition_tol": tol,
        "composition_residuals": residuals,
        "adjoint_error": adj_err, "adjoint_tol": 1e-8,
    })


# -- kernel table: the kernel reads of checks 10-12 --------------------------------------------


def _kernel(source: FioSpec | LagrangianDistSpec, grid: GridSpec) -> GridFunction:
    """The kernel of an operator spec, or a distribution synthesized on a
    d = 2 grid."""
    if isinstance(source, LagrangianDistSpec):
        return lagrangian_synthesize(source, grid)
    K, _ = fio_kernel(source, grid)
    return K


@dataclass(frozen=True)
class KernelRead:
    """One read that a check makes of a kernel's field: the kernel test
    (fio.kernel_characterization_check at rho = 1), the membership test
    (lagdist.kernel_membership_check) or the cone check
    (fio.wf_kernel_check), against chi at order m; case names it in the
    check's report, and expected is the status the check expects."""

    check: str
    case: str
    kind: str  # "kernel", "membership" or "cone"
    chi: SymplecticMatrix
    m: float = 0.0
    expected: str = "pass"

    @property
    def key(self) -> tuple:
        """What the result depends on besides the kernel."""
        return (self.kind, tuple(self.chi.entries.flat), self.m)

    def reader(self):
        if self.kind == "kernel":
            return kernel_characterization_check(self.chi, self.m, 1.0)
        if self.kind == "membership":
            return kernel_membership_check(self.chi, self.m)
        return wf_kernel_check(self.chi)


def _graph_distribution() -> LagrangianDistSpec:
    """The constant symbol synthesized on the twisted graph of J, a d = 2
    distribution equal to the kernel of mu(J) up to a unit scalar."""
    lam = twisted_graph_lagrangian(standard_j(1))
    chi_syn = tensor_symplectic(standard_j(1)) @ chi_delta(1)
    return LagrangianDistSpec(lam, constant_symbol(2), chi_syn=chi_syn)


def kernel_reads(quick: bool) -> list:
    """The kernels that checks 10-12 read, each as (source, grid, reads)
    with the KernelRead of every case of every check on it.  The quick
    checks read the mu(J) kernel alone."""
    grid = GridSpec(1, 128, 10.0)
    J = standard_j(1)
    eye = SymplecticMatrix(1, np.eye(2))
    ch = chirp_matrix(np.array([[0.8]]))

    def spec_of(sym, m, chi):
        return FioSpec("factored", m, 1.0, b=sym, chi=chi)

    def equivalence(case, chi, m, expected="pass"):  # both tests of one case
        return [KernelRead("lagrangian_equivalence", case, kind, chi, m, expected)
                for kind in ("kernel", "membership")]

    mu = [KernelRead("kernel_characterization", "mu_fourier", "kernel", J),
          KernelRead("wavefront_sets", "kernel_cone", "cone", J),
          KernelRead("wavefront_sets", "kernel_cone_negative", "cone", eye, expected="fail"),
          *equivalence("mu_fourier|fourier", J, 0.0),
          *equivalence("mu_fourier|identity", eye, 0.0, "fail")]
    kernels = [(spec_of(constant_symbol(2), 0.0, J), grid, mu)]
    if not quick:
        mu += equivalence("mu_fourier|chirp", ch, 0.0, "fail")
        kernels += [
            (spec_of(harmonic_oscillator_symbol(2), 2.0, J), grid,
             [KernelRead("kernel_characterization", "ho_mu_fourier", "kernel", J, 2.0),
              *equivalence("ho_mu_fourier|fourier", J, 2.0)]),
            (spec_of(constant_symbol(2), 0.0, ch), grid, equivalence("mu_chirp|chirp", ch, 0.0)),
            (_graph_distribution(), GridSpec(2, 128, 10.0),
             equivalence("synthesized|fourier", J, 0.0)),
        ]
    return kernels


class KernelTable:
    """The results of the kernel reads (kernel_reads) of one battery run,
    for every check or for one.

    Each kernel, known by its position in kernel_reads, is swept once
    (gabor.sweep_kernel_field), at the first read of it, with a reader for
    each distinct read the table serves of it, and the table keeps the
    results, never a field.  run_suite makes one table per run; a check
    called without one makes its own, for its reads alone."""

    def __init__(self, quick: bool, check: str | None = None):
        self._reads = [(kernel, source, grid, read)
                       for kernel, (source, grid, reads) in enumerate(kernel_reads(quick))
                       for read in reads if check in (None, read.check)]
        self._results = {}

    def results(self, check: str) -> list:
        """(read, result) for each read that check makes, in order."""
        return [(read, self._result(kernel, source, grid, read))
                for kernel, source, grid, read in self._reads if read.check == check]

    def _result(self, kernel: str, source, grid: GridSpec, read: KernelRead):
        if (kernel, read.key) not in self._results:
            todo = {r.key: r for k, _, _, r in self._reads
                    if k == kernel and (k, r.key) not in self._results}
            results = sweep_kernel_field(_kernel(source, grid),
                                         [r.reader() for r in todo.values()])
            self._results.update(((kernel, key), res) for key, res in zip(todo, results))
        return self._results[(kernel, read.key)]


# -- 10: kernel characterization ----------------------------------------------------------


def check_kernel_characterization(seed: int = 0, quick: bool = False,
                                  table: KernelTable | None = None) -> CheckResult:
    table = table or KernelTable(quick, "kernel_characterization")
    reports = {}
    ok = True
    for read, rep in table.results("kernel_characterization"):
        reports[read.case] = rep.to_dict()
        ok = ok and rep.status == read.expected
    return CheckResult("kernel_characterization", _status(ok), {
        "grid": GridSpec(1, 128, 10.0).to_dict(), "reports": reports,
    })


# -- 11: wave front sets ------------------------------------------------------------------


def check_wavefront_sets(seed: int = 0, quick: bool = False,
                         table: KernelTable | None = None) -> CheckResult:
    table = table or KernelTable(quick, "wavefront_sets")
    grid = GridSpec(1, 128, 10.0)
    delta = _delta(grid)
    rep = wavefront_estimate(delta, N_max=4.0)
    expected = [14, 15, 16, 17, 46, 47, 48, 49]
    ok = rep.nondecaying == expected
    cones = {}
    for read, cone in table.results("wavefront_sets"):
        cones[read.case] = cone
        ok = ok and cone["status"] == read.expected
    spec = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=standard_j(1))
    prop = wf_propagation_check(spec, delta)
    ok = ok and prop["status"] == "pass"
    return CheckResult("wavefront_sets", _status(ok), {
        "grid": grid.to_dict(),
        "delta_sectors": rep.nondecaying, "expected_sectors": expected,
        "kernel_cone": cones["kernel_cone"],
        "kernel_cone_negative_status": cones["kernel_cone_negative"]["status"],
        "propagation": prop,
    })


# -- 12: kernel versus Lagrangian equivalence -----------------------------------------------


def check_lagrangian_equivalence(seed: int = 0, quick: bool = False,
                                 table: KernelTable | None = None) -> CheckResult:
    table = table or KernelTable(quick, "lagrangian_equivalence")
    reports, expected = {}, {}  # case -> {kind: report}, case -> expected status
    for read, rep in table.results("lagrangian_equivalence"):
        reports.setdefault(read.case, {})[read.kind] = rep
        expected[read.case] = read.expected
    results = {}
    ok = True
    # the report lists the positive cases first
    for case in sorted(reports, key=lambda case: expected[case] != "pass"):
        rep = kernel_equals_lagrangian_check(reports[case]["kernel"],
                                             reports[case]["membership"])
        results[case] = {"agree": rep["agree"], "status": rep["status"]}
        ok = ok and rep["agree"] and rep["status"] == expected[case]
    return CheckResult("lagrangian_equivalence", _status(ok), {
        "grid": GridSpec(1, 128, 10.0).to_dict(), "results": results,
    })


ALL_CHECKS = (
    check_symplectic_algebra,
    check_phase_reduction,
    check_graph_phase_estimates,
    check_metaplectic_identities,
    check_symplectic_covariance,
    check_weyl_calculus,
    check_fbi_covariance,
    check_factorization,
    check_composition_adjoint,
    check_kernel_characterization,
    check_wavefront_sets,
    check_lagrangian_equivalence,
)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or os.cpu_count()
    where the platform has none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _blas_thread_setters() -> tuple:
    """The thread-count setters of the OpenBLAS that numpy's and scipy's
    wheels bundle, as ctypes functions, for each library found: resolved
    once per process."""
    setters = []
    for package, symbol in ((np, "scipy_openblas_set_num_threads64_"),
                            (scipy, "scipy_openblas_set_num_threads")):
        libs = os.path.dirname(package.__file__) + ".libs"
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                setter = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setters.append(setter)
    return tuple(setters)


def _one_blas_thread() -> bool:
    """Run numpy's and scipy's BLAS on one thread from now on in this
    process; False where neither bundled OpenBLAS was found.  Artifacts are
    byte-identical only at a fixed BLAS thread count: a second thread
    changes the order of some floating-point sums."""
    setters = _blas_thread_setters()
    for setter in setters:
        setter(1)
    return bool(setters)


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in run_suite's side worker."""


class _SideWorker:
    """The side checks of run_suite (calls, (index, call) pairs), run in
    their order in one forked process that runs BLAS on one thread, so that
    they do not share the chain's interpreter lock.  Each check's
    (index, result, seconds), or (index, exception, traceback text) once one
    raises, comes back through a pipe.  The stop event, set by either
    process, stops the worker before its next check; a check that raises
    sets it.  fork, not spawn: the calls are closures over the caller's
    checks, which spawn would have to pickle."""

    def __init__(self, calls: list):
        ctx = multiprocessing.get_context("fork")
        self.stop = ctx.Event()
        self._recv, send = ctx.Pipe(duplex=False)
        self._process = ctx.Process(target=self._run, args=(calls, send),
                                    name="fiocalc-suite", daemon=True)
        self._process.start()
        send.close()  # the worker holds the only write end: its exit ends the pipe
        self._open = True
        self._indices = [i for i, _ in calls]

    def _run(self, calls: list, send) -> None:
        _one_blas_thread()
        with send:
            for i, call in calls:
                if self.stop.is_set():
                    return
                t0 = time.time()
                try:
                    res = call()
                except BaseException as exc:  # re-raised by run_suite
                    self.stop.set()
                    send.send((i, exc, traceback.format_exc()))
                    return
                send.send((i, res, time.time() - t0))

    def take(self, done: list, errors: dict, wait: bool = False) -> None:
        """Store what the worker has sent: done[i] = (result, seconds), or
        errors[i] = the exception, with the worker's traceback as its cause.
        With wait, until the worker has ended and the pipe is drained."""
        while self._open and (wait or self._recv.poll()):
            try:
                i, res, extra = self._recv.recv()
            except EOFError:  # the worker has ended: stop the chain if it crashed
                self._open = False
                if self._missing(done, errors):
                    self.stop.set()
                break
            if isinstance(extra, str):
                res.__cause__ = _WorkerTraceback(extra)
                errors[i] = res
            else:
                done[i] = (res, extra)

    def close(self, done: list, errors: dict) -> None:
        """Wait for the worker to end, storing what it sent.  A worker that
        ended otherwise than by returning (os._exit, a signal) leaves an
        error at the first of its checks with neither result nor exception."""
        self.take(done, errors, wait=True)
        self._recv.close()
        self._process.join()
        code, missing = self._process.exitcode, self._missing(done, errors)
        if code and missing:
            errors[missing[0]] = RuntimeError(
                f"the side-check worker exited with code {code} before check "
                f"{missing[0]} ended")

    def _missing(self, done: list, errors: dict) -> list:
        """The worker's checks with neither a result nor an exception."""
        return [i for i in self._indices if done[i] is None and i not in errors]


def run_suite(seed: int, quick: bool, progress) -> list:
    """Run every check of ALL_CHECKS, read at the call, and return their
    results in its order.  progress(result, seconds) is called on the calling
    thread for each check in that order, once the check and every check
    before it have ended.  The checks that take a kernel table (the chain)
    share one, which ends with the run.

    With at least 2 usable CPUs and the fork start method, the chain runs in
    its order on the calling thread while the other checks run in theirs in
    one worker process (_SideWorker).  The two sides share no state, each
    check seeds its own generator and the worker runs BLAS on one thread, so
    the results are those of the serial run at one BLAS thread.  An
    exception on either side stops both before their next check and is
    re-raised (the earliest check's) once the worker has ended; so is an
    error for a worker that exits before its checks end."""
    checks = ALL_CHECKS
    table = KernelTable(quick)
    in_chain = ["table" in inspect.signature(check).parameters for check in checks]
    done = [None] * len(checks)  # (result, seconds) of each finished check
    errors = {}  # check index -> exception
    reported = 0

    def call(i):
        return lambda: checks[i](seed=seed, quick=quick,
                                 **({"table": table} if in_chain[i] else {}))

    def report():
        nonlocal reported
        while reported < len(checks) and done[reported] is not None:
            progress(*done[reported])
            reported += 1

    side = [i for i, c in enumerate(in_chain) if not c]
    worker = None
    if _usable_cpus() >= 2 and 0 < len(side) < len(checks) \
            and "fork" in multiprocessing.get_all_start_methods():
        worker = _SideWorker([(i, call(i)) for i in side])
    ended = False  # the loop ended, not progress raising or an interrupt
    try:
        for i in range(len(checks)):
            if worker is not None:
                if not in_chain[i]:
                    continue
                worker.take(done, errors)
                if worker.stop.is_set():
                    break
            t0 = time.time()
            try:
                done[i] = (call(i)(), time.time() - t0)
            except BaseException as exc:  # re-raised below
                errors[i] = exc
                break
            report()
        ended = True
    finally:
        if worker is not None:
            if errors or not ended:
                worker.stop.set()
            worker.close(done, errors)
    report()
    if errors:
        raise errors[min(errors)]
    return [res for res, _ in done]
