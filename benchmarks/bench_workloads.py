"""The benchmark's workloads: inputs drawn from a seed, the operations, and
the correctness gate applied to each operation's result.

Each workload is a closed loop with one caller: an operation starts when the
previous one has finished.  A pass runs every operation of the workload once;
the seed changes the inputs but never the set of operations or their sizes.

Two workloads: suite-quick, where the 4-D phase-space code dominates, and
synth-cli, which runs the d = 2 metaplectic operations of synth-d2 and then
the d = 1 CLI pipeline of cli-d1 and never touches that code.

Operations call fiocalc through module attributes (`cli.main`,
`lagdist.lagrangian_synthesize`, ...), so that a traced run sees them.  The
gates use the functions imported below, bound before any tracing wrapper is
installed, and run with the tracer paused.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from fiocalc import cli, lagdist, metaplectic
from fiocalc.fio import FioSpec
from fiocalc.grids import GridSpec, gaussian_window, hermite_grid_function, hermite_values
from fiocalc.lagdist import LagrangianDistSpec
from fiocalc.metaplectic import gaussian_image
from fiocalc.phases import pseudodifferential_phase
from fiocalc.serialize import (
    fio_spec_to_dict,
    grid_function_from_csv,
    grid_function_to_csv,
    read_json,
    symplectic_to_list,
    write_json,
)
from fiocalc.symbols import (
    constant_symbol,
    gaussian_symbol,
    harmonic_oscillator_symbol,
    polynomial_symbol,
)
from fiocalc.symplectic import (
    SymplecticMatrix,
    chi_delta,
    chirp_matrix,
    j2_inverse,
    scaling_matrix,
    standard_j,
    tensor_symplectic,
    twisted_graph_lagrangian,
)

# acceptance tolerances: Gaussian image (fourier_gaussian_tol) and unitarity
GAUSSIAN_IMAGE_TOL = 1e-8
UNITARITY_TOL = 1e-6
# the n = 64 synthesis resolves e^{-i x.y} to about 1.5e-2 on |x|, |y| <= R/2;
# a wrong kernel is off by O(1)
SYNTH_TOL = 5e-2

# fixed workload grids (points per axis, box length): synth-d2 is d = 2,
# cli-d1 is d = 1 at the CLI's defaults
SYNTH_N, SYNTH_R = 64, 10.0
CLI_N, CLI_R = 128, 10.0

SUITE_CHECKS = 12


@dataclass
class OpResult:
    name: str
    wall: float
    cpu: float
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    digest: str = ""
    artifact_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(op.wall for op in self.ops)

    @property
    def cpu(self) -> float:
        return sum(op.cpu for op in self.ops)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


class Runner:
    """Times operations and applies their gates.  With a tracer, the spans of
    each operation carry its id and the gates run with tracing paused."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.next_op = 0

    def run(self, name, op, gate):
        """Run op() and then gate(result) -> (ok, detail).  An exception in
        either counts as a failed operation."""
        if self.tracer is not None:
            self.tracer.op = self.next_op
        self.next_op += 1
        w0, c0 = perf_counter(), process_time()
        try:
            result, error = op(), None
        except Exception:  # the benchmark keeps going and reports the failure
            result, error = None, traceback.format_exc()
        wall, cpu = perf_counter() - w0, process_time() - c0
        if error is None:
            with self.paused():
                try:
                    ok, detail = gate(result)
                except Exception:
                    ok, detail = False, traceback.format_exc()
        else:
            ok, detail = False, error
        return OpResult(name, wall, cpu, bool(ok), detail), result

    @contextlib.contextmanager
    def paused(self):
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True


def _quiet_cli(argv) -> int:
    """cli.main with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _tree_bytes(root: str) -> int:
    total = 0
    for base, _dirs, names in os.walk(root):
        total += sum(os.path.getsize(os.path.join(base, n)) for n in names)
    return total


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _relative_error(out, ref) -> float:
    return float(np.linalg.norm(out - ref) / np.linalg.norm(ref))


def _unitarity_defect(out, psi) -> float:
    return abs(float(np.linalg.norm(out)) - float(np.linalg.norm(psi))) \
        / float(np.linalg.norm(psi))


# -- suite-quick ------------------------------------------------------------------


def gate_suite(code: int, summary) -> tuple:
    """Every one of the 12 checks passes and the exit code is 0.  Returns the
    number of failed verdicts and a description."""
    checks = (summary or {}).get("checks", {})
    bad = [name for name, status in checks.items() if status != "pass"]
    failed = len(bad) + max(0, SUITE_CHECKS - len(checks))
    if code != 0 and failed == 0:
        failed = SUITE_CHECKS
    return min(failed, SUITE_CHECKS), f"exit {code}; not passing: {bad}"


class SuiteQuick:
    """`fiocalc suite --quick`: the 12-check battery users run."""

    name = "suite-quick"

    def setup(self, seed: int, workdir: str) -> dict:
        return {"seed": seed, "out": os.path.join(workdir, "out")}

    def run_pass(self, state: dict, runner: Runner) -> PassResult:
        out = _fresh_dir(state["out"])
        argv = ["suite", "--quick", "--seed", str(state["seed"]), "--out", out]
        op, code = runner.run("suite", lambda: _quiet_cli(argv),
                              lambda code: (True, ""))
        summary_path = os.path.join(out, "summary.json")
        summary = read_json(summary_path) if os.path.exists(summary_path) else None
        failed, detail = gate_suite(code if op.ok else None, summary)
        # one timed call yields 12 verdicts: split it into 12 operations
        per = PassResult()
        for i in range(SUITE_CHECKS):
            per.ops.append(OpResult(f"suite[{i}]", op.wall / SUITE_CHECKS,
                                    op.cpu / SUITE_CHECKS, i >= failed,
                                    detail if failed else ""))
        manifest = os.path.join(out, "manifest.json")
        per.digest = _file_sha(manifest) if os.path.exists(manifest) else ""
        per.artifact_bytes = _tree_bytes(out)
        return per


# -- synth-d2 ---------------------------------------------------------------------


def _sym2(rng, scale: float) -> np.ndarray:
    F = rng.uniform(-scale, scale, (2, 2))
    return 0.5 * (F + F.T)


def synth_inputs(seed: int) -> dict:
    """The acceptance battery's twisted-graph kernel of the Fourier transform
    and two seed-drawn d = 2 matrices: chirp * linear (B = 0) and a
    non-free one (a partial Fourier transform in between) that takes the
    shifted path."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(2, SYNTH_N, SYNTH_R)
    dist = LagrangianDistSpec(twisted_graph_lagrangian(standard_j(1)),
                              constant_symbol(2),
                              chi_syn=tensor_symplectic(standard_j(1)) @ chi_delta(1))
    A1 = np.eye(2) + rng.uniform(-0.25, 0.25, (2, 2))
    chi_cl = chirp_matrix(_sym2(rng, 0.5)) @ scaling_matrix(A1)
    A2 = np.eye(2) + rng.uniform(-0.2, 0.2, (2, 2))
    chi_sh = chirp_matrix(_sym2(rng, 0.5)) @ j2_inverse(2, 1) @ scaling_matrix(A2)
    return {"grid": grid, "dist": dist, "psi0": gaussian_window(grid),
            "chis": {"chirp-linear": (chi_cl, ("ChirpFactor", "LinearFactor")),
                     "shifted": (chi_sh, ("FreeKernelFactor", "FourierFactor",
                                          "ChirpFactor", "FourierFactor"))}}


def gate_synthesis(values: np.ndarray, grid: GridSpec) -> tuple:
    """The synthesized kernel equals e^{-i x.y} up to a unit scalar on
    |x|, |y| <= R/2."""
    x = grid.points()
    X, Y = np.meshgrid(x, x, indexing="ij")
    inner = ((np.abs(X) <= grid.R / 2) & (np.abs(Y) <= grid.R / 2)).reshape(-1)
    ref = np.exp(-1j * X * Y).reshape(-1)[inner]
    got = values.reshape(-1)[inner]
    c = np.vdot(ref, got) / np.vdot(ref, ref)
    err = float(np.abs(got - c / abs(c) * ref).max())
    ok = abs(abs(c) - 1.0) <= SYNTH_TOL and err <= SYNTH_TOL
    return ok, f"|c| {abs(c):.6f}, max error {err:.3e}"


def gate_mu(op, out, chi, psi0, kinds) -> tuple:
    """Factor path as expected, mu(chi) psi_0 equal to the analytic Gaussian
    image, and the norm kept."""
    got = tuple(type(f).__name__ for f in op.factorization.factors)
    err = _relative_error(out.values, gaussian_image(chi, psi0.spec).values)
    defect = _unitarity_defect(out.values, psi0.values)
    ok = got == kinds and err <= GAUSSIAN_IMAGE_TOL and defect <= UNITARITY_TOL
    return ok, f"factors {got}, image error {err:.3e}, unitarity {defect:.3e}"


class SynthD2:
    """Three d = 2 metaplectic operations at n = 64: the free-kernel
    synthesis of a Lagrangian distribution and mu(chi) applied to the
    Gaussian on the chirp * linear and on the shifted factor path."""

    name = "synth-d2"

    def setup(self, seed: int, workdir: str) -> dict:
        return synth_inputs(seed)

    def run_pass(self, state: dict, runner: Runner) -> PassResult:
        grid, psi0 = state["grid"], state["psi0"]
        per = PassResult()
        digest = hashlib.sha256()
        op, K = runner.run(
            "lagrangian_synthesize",
            lambda: lagdist.lagrangian_synthesize(state["dist"], grid),
            lambda K: gate_synthesis(K.values, grid))
        per.ops.append(op)
        if K is not None:
            digest.update(K.values.tobytes())
        for label, (chi, kinds) in state["chis"].items():
            def apply(chi=chi):
                mu = metaplectic.mu_general(chi, grid)
                return mu, mu.apply(psi0)

            op, res = runner.run(f"mu_general[{label}]", apply,
                                 lambda r, chi=chi, kinds=kinds:
                                 gate_mu(r[0], r[1], chi, psi0, kinds))
            per.ops.append(op)
            if res is not None:
                digest.update(res[1].values.tobytes())
        per.digest = digest.hexdigest()
        return per


# -- cli-d1 -----------------------------------------------------------------------


def _spec_json(path, spec) -> None:
    write_json(fio_spec_to_dict(spec), path)


def cli_inputs(seed: int, inputs: str) -> dict:
    """Input files for the d = 1 pipeline, at the CLI's default grid.

    The oscillatory spec is fixed: its quadrature depth depends on the
    amplitude, and the seed must not change the amount of work."""
    rng = np.random.default_rng(seed)
    _fresh_dir(inputs)
    p = lambda name: os.path.join(inputs, name)  # noqa: E731
    c_kernel = float(rng.uniform(0.2, 0.8))
    chi_kernel = standard_j(1) @ chirp_matrix(np.array([[c_kernel]]))
    _spec_json(p("factored.json"), FioSpec("factored", 0.0, 1.0, b=constant_symbol(2),
                                           chi=chi_kernel))
    write_json({"chi": symplectic_to_list(chi_kernel)}, p("chi_kernel.json"))
    _spec_json(p("oscillatory.json"), FioSpec(
        "oscillatory", 0.0, 1.0, phase=pseudodifferential_phase(1),
        amplitude=gaussian_symbol(3, width=1.5)))
    _spec_json(p("left.json"), FioSpec("factored", 2.0, 1.0,
                                       b=harmonic_oscillator_symbol(2), chi=standard_j(1)))
    c_right = float(rng.uniform(0.4, 1.0))
    _spec_json(p("right.json"), FioSpec("factored", 2.0, 1.0,
                                        b=harmonic_oscillator_symbol(2),
                                        chi=chirp_matrix(np.array([[c_right]]))))
    f_mu = float(rng.uniform(-0.6, 0.6))
    chi_mu = chirp_matrix(np.array([[f_mu]])) @ scaling_matrix(
        np.array([[float(rng.uniform(0.8, 1.25))]]))
    write_json({"chi": symplectic_to_list(chi_mu)}, p("chi_mu.json"))
    grid = GridSpec(1, CLI_N, CLI_R)
    grid_function_to_csv(hermite_grid_function(grid, [0]), p("psi0.csv"))
    coeffs = rng.uniform(0.5, 1.5, 3)
    write_json(polynomial_symbol(2, [(coeffs[0], (2, 0)), (coeffs[1], (0, 2)),
                                     (coeffs[2], (1, 1))]).to_dict(), p("symbol.json"))
    write_json({"n": 1, "Y": [[1.0]], "F": [[f_mu]]}, p("lagrangian.json"))
    return {"grid": grid, "chi_mu": chi_mu, "inputs": inputs}


class CliD1:
    """The d = 1 pipeline through `cli.main`: each step writes artifacts and a
    manifest, and later steps read earlier CSV files back."""

    name = "cli-d1"

    def setup(self, seed: int, workdir: str) -> dict:
        state = cli_inputs(seed, os.path.join(workdir, "inputs"))
        state["out"] = os.path.join(workdir, "out")
        return state

    def steps(self, state: dict) -> list:
        """(name, argv, out dir, expected exit code, CSV files written with
        their grid, extra check)."""
        grid, inp, out = state["grid"], state["inputs"], state["out"]
        g = ["--grid-n", str(grid.n), "--grid-R", repr(grid.R)]
        i = lambda name: os.path.join(inp, name)  # noqa: E731
        o = lambda *parts: os.path.join(out, *parts)  # noqa: E731
        grid2 = GridSpec(2, grid.n, grid.R)

        def mu_check():
            u = grid_function_from_csv(o("mu", "mu_output.csv"))
            psi0 = grid_function_from_csv(i("psi0.csv"))
            err = _relative_error(u.values, gaussian_image(state["chi_mu"], grid).values)
            defect = _unitarity_defect(u.values, psi0.values)
            return err <= GAUSSIAN_IMAGE_TOL and defect <= UNITARITY_TOL, \
                f"image error {err:.3e}, unitarity {defect:.3e}"

        return [
            ("fio-kernel", ["fio-kernel", i("factored.json"), *g], "kernel", 0,
             [("kernel.csv", grid2)], None),
            ("factorize", ["factorize", o("kernel", "kernel.csv"), i("chi_kernel.json")],
             "factorize", 0, [], None),
            ("fio-kernel", ["fio-kernel", i("oscillatory.json"), *g], "oscillatory", 0,
             [("kernel.csv", grid2)], None),
            ("adjoint", ["adjoint", i("oscillatory.json"), *g], "adjoint", 0,
             [("adjoint_kernel.csv", grid2)], None),
            ("compose", ["compose", i("left.json"), i("right.json"), *g], "compose", 0,
             [], None),
            ("mu-apply", ["mu-apply", i("chi_mu.json"), i("psi0.csv")], "mu", 0,
             [("mu_output.csv", grid)], mu_check),
            ("weyl-quantize", ["weyl-quantize", i("symbol.json"), *g], "weyl", 0,
             [("kernel.csv", grid2)], None),
            ("fbi-map", ["fbi-map", o("mu", "mu_output.csv"), "--stride", "1"], "fbi", 0,
             [], None),
            ("wf", ["wf", o("mu", "mu_output.csv")], "wf", 0, [], None),
            ("lag-test", ["lag-test", o("mu", "mu_output.csv"), i("lagrangian.json")],
             "lag", 0, [], None),
        ]

    def run_pass(self, state: dict, runner: Runner) -> PassResult:
        _fresh_dir(state["out"])
        per = PassResult()
        digest = hashlib.sha256()
        for name, argv, sub, expected, csvs, check in self.steps(state):
            outdir = os.path.join(state["out"], sub)

            def gate(code, outdir=outdir, expected=expected, csvs=csvs, check=check):
                return gate_cli_step(code, expected, outdir, csvs, check)

            op, _ = runner.run(name, lambda argv=argv, outdir=outdir:
                               _quiet_cli([*argv, "--out", outdir]), gate)
            per.ops.append(op)
            manifest = os.path.join(outdir, "manifest.json")
            digest.update(_file_sha(manifest).encode() if os.path.exists(manifest)
                          else b"missing")
        per.digest = digest.hexdigest()
        per.artifact_bytes = _tree_bytes(state["out"])
        return per


def gate_cli_step(code, expected, outdir, csvs, check) -> tuple:
    """Exit code as expected, every CSV written parses back to its grid with
    finite values, and the step's numeric check (if any) holds."""
    if code != expected:
        return False, f"exit {code}, expected {expected}"
    for name, spec in csvs:
        f = grid_function_from_csv(os.path.join(outdir, name))
        if f.spec != spec or not np.all(np.isfinite(f.values)):
            return False, f"{name} reads back as {f.spec}"
    if check is not None:
        return check()
    return True, ""


class SynthCli:
    """synth-d2 and then cli-d1 in each pass, as one workload.  The two are
    one workload so that a run is long enough to average over the load of a
    shared host; apart, each would get half the run time.  Neither touches
    the 4-D phase-space code."""

    name = "synth-cli"
    parts = (SynthD2(), CliD1())

    def setup(self, seed: int, workdir: str) -> list:
        return [part.setup(seed, os.path.join(workdir, part.name)) for part in self.parts]

    def run_pass(self, state: list, runner: Runner) -> PassResult:
        per = PassResult()
        digest = hashlib.sha256()
        for part, part_state in zip(self.parts, state):
            result = part.run_pass(part_state, runner)
            per.ops += result.ops
            per.artifact_bytes += result.artifact_bytes
            digest.update(result.digest.encode())
        per.digest = digest.hexdigest()
        return per


WORKLOADS = {w.name: w for w in (SuiteQuick(), SynthCli())}


def warm_up() -> None:
    """One-time BLAS, FFT and ufunc initialisation before the first
    operation."""
    a = np.exp(1j * np.outer(np.arange(64.0), np.arange(64.0)))
    np.linalg.norm(a @ a)
    np.fft.fft(a)
    hermite_values(3, np.linspace(-1.0, 1.0, 8))
    SymplecticMatrix(1, np.eye(2))
