"""Command-line front end.

Loads JSON specs and CSV grid data, dispatches to the library modules, and
writes CSV/PGM/JSON artifacts plus a short human-readable summary.  Each
command accepts only the options its handler reads besides --out; any
other flag, or a numeric flag out of its range, is a usage error.  Every
artifact embeds the run configuration (the command, its inputs and the
values of exactly those options), and the output directory gets a
manifest.json listing every file with its SHA-256.

Exit codes: 0 pass, 1 fail, 2 inconclusive (including a theta quadrature
that did not converge, for an amplitude without a closed-form theta
integral), 3 input error (unreadable or malformed input, a
size-guard refusal, or a usage error).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import acceptance
from .fio import (
    QuadratureError,
    fio_adjoint,
    fio_compose,
    fio_factorize,
    fio_kernel,
    kernel_characterization_check,
)
from .gabor import (KERNEL_STRIDE, _kernel_field_slabs, gabor_transform, sweep_kernel_field,
                    wavefront_estimate)
from .grids import GridFunction, GridSpec, SizeGuardError, gaussian_window
from .lagdist import lagrangian_membership_test, lagrangian_param
from .metaplectic import mu_general
from .phases import (
    check_nondegeneracy,
    helffer_conditions,
    lagrangian_of_phase,
    phase_from_dict,
    phase_to_dict,
    reduce_phase,
)
from .serialize import (
    append_config_comment,
    field_to_csv,
    field_to_pgm,
    fio_spec_from_dict,
    fio_spec_to_dict,
    grid_function_from_csv,
    grid_function_to_csv,
    read_json,
    symplectic_from_list,
    write_json,
    write_manifest,
)
from .symbols import ShubinSymbol
from .symplectic import lagrangian_with_param
from .weyl import symbol_callable, weyl_kernel

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3

_STATUS_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "not-in-class": EXIT_FAIL,
                "inconclusive": EXIT_INCONCLUSIVE, "grid-too-coarse": EXIT_INCONCLUSIVE}


def _load_chi(path: str):
    data = read_json(path)
    if isinstance(data, dict):
        if "chi" not in data:
            raise ValueError(f"{path}: a chi object needs the key 'chi'")
        data = data["chi"]
    return symplectic_from_list(data)


def _load_lagrangian(path: str):
    """The subspace of a JSON object with keys n, Y and F, parametrized by
    (Y, F); any other input is a ValueError."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"a subspace is a JSON object, got {type(data).__name__}")
    try:
        Y = np.asarray(data["Y"], dtype=float)
        F = np.asarray(data["F"], dtype=float)
        n = int(data["n"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: a subspace needs numeric n, Y and F: {exc}") from exc
    return lagrangian_with_param(Y, F, n)


def _config(args) -> dict:
    """The command, its inputs and the value of every option it reads."""
    _func, (_nargs, *options) = _COMMANDS[args.command]
    return {"command": args.command, "inputs": list(args.inputs),
            **{key: getattr(args, key) for key in options}}


def _path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _emit_json(args, name: str, payload: dict) -> None:
    write_json({**payload, "config": _config(args)}, _path(args, name))


def _emit_csv(args, name: str, write, obj) -> None:
    """write(obj, path) into the output directory, then the config comment."""
    path = _path(args, name)
    write(obj, path)
    append_config_comment(path, _config(args))


def _emit_pgm(args, name: str, values: np.ndarray) -> None:
    field_to_pgm(values, _path(args, name),
                 comment="config " + json.dumps(_config(args), sort_keys=True))


# -- subcommand handlers -----------------------------------------------------


def cmd_reduce_phase(args) -> int:
    phi = phase_from_dict(read_json(args.inputs[0]))
    rec = reduce_phase(phi)
    _emit_json(args, "reduction.json", {
        "original": phase_to_dict(phi), "record": rec.to_dict(),
    })
    print(f"reduced fiber dimension {phi.N} -> {rec.n}")
    return EXIT_PASS


def cmd_check_phase(args) -> int:
    phi = phase_from_dict(read_json(args.inputs[0]))
    nondeg = check_nondegeneracy(phi)
    report = {"nondegenerate": nondeg}
    status = "pass" if nondeg else "fail"
    if nondeg:
        try:
            hel = helffer_conditions(phi)
            report["estimates"] = {
                "left_sigma_min": hel.left_sigma_min,
                "right_sigma_min": hel.right_sigma_min,
                "estimates_hold": hel.estimates_hold,
            }
            if not hel.estimates_hold:
                status = "fail"
        except ValueError as exc:
            report["estimates"] = {"skipped": str(exc)}
    report["status"] = status
    _emit_json(args, "check_phase.json", report)
    print(f"phase check: {status}")
    return _STATUS_EXIT[status]


def cmd_lagrangian_of(args) -> int:
    phi = phase_from_dict(read_json(args.inputs[0]))
    lam = lagrangian_of_phase(phi)
    Y, F = lagrangian_param(lam)
    _emit_json(args, "lagrangian.json", {
        "n": lam.n, "basis": lam.basis.tolist(),
        "Y": Y.tolist(), "F": F.tolist(),
    })
    print(f"Lagrangian subspace in dimension {lam.n}")
    return EXIT_PASS


def cmd_mu_apply(args) -> int:
    chi = _load_chi(args.inputs[0])
    u = grid_function_from_csv(args.inputs[1])
    op = mu_general(chi, u.spec)
    _emit_csv(args, "mu_output.csv", grid_function_to_csv, op.apply(u))
    _emit_json(args, "factorization.json", op.factorization.to_dict())
    print(f"applied metaplectic operator ({len(op.factorization.factors)} factors)")
    return EXIT_PASS


def cmd_weyl_quantize(args) -> int:
    sym = ShubinSymbol.from_dict(read_json(args.inputs[0]))
    grid = GridSpec(1, args.grid_n, args.grid_R)
    K = weyl_kernel(symbol_callable(sym), grid)
    kernel = GridFunction(GridSpec(2, grid.n, grid.R), K.entries.reshape(-1))
    _emit_csv(args, "kernel.csv", grid_function_to_csv, kernel)
    _emit_pgm(args, "kernel.pgm", K.entries)
    _emit_json(args, "weyl_quantize.json", {
        "symbol": sym.to_dict(), "grid": grid.to_dict(),
        "kernel_peak": float(np.abs(K.entries).max()),
    })
    print("wrote Weyl kernel")
    return EXIT_PASS


def cmd_fio_kernel(args) -> int:
    spec = fio_spec_from_dict(read_json(args.inputs[0]))
    grid = GridSpec(1, args.grid_n, args.grid_R)
    K, theta = fio_kernel(spec, grid)
    _emit_csv(args, "kernel.csv", grid_function_to_csv, K)
    _emit_pgm(args, "kernel.pgm", K.values.reshape(grid.n, grid.n))
    info = {"grid": grid.to_dict(), "form": spec.form}
    if theta is not None:
        info["theta_integral"] = theta.to_dict()
    _emit_json(args, "fio_kernel.json", info)
    print("wrote operator kernel")
    return EXIT_PASS


def cmd_factorize(args) -> int:
    K = grid_function_from_csv(args.inputs[0])
    chi = _load_chi(args.inputs[1])
    rep = fio_factorize(K, chi, args.order, args.rho)
    _emit_json(args, "factorize.json", rep.to_dict())
    _emit_csv(args, "symbol.csv", field_to_csv, rep.symbol)
    print(f"factorization: {rep.status} (residual {rep.residual:.3e})")
    return _STATUS_EXIT[rep.status]


def cmd_compose(args) -> int:
    s1 = fio_spec_from_dict(read_json(args.inputs[0]))
    s2 = fio_spec_from_dict(read_json(args.inputs[1]))
    rep = fio_compose(s1, s2, GridSpec(1, args.grid_n, args.grid_R))
    _emit_json(args, "compose.json", {
        "chi": rep.spec.chi.entries.tolist(), "order": rep.spec.order,
        "rho": rep.spec.rho, "residual": rep.residual, "status": rep.status,
    })
    print(f"composition: {rep.status} (residual {rep.residual:.3e})")
    return _STATUS_EXIT[rep.status]


def cmd_adjoint(args) -> int:
    spec = fio_spec_from_dict(read_json(args.inputs[0]))
    adj = fio_adjoint(spec)
    K, _ = fio_kernel(adj, GridSpec(1, args.grid_n, args.grid_R))
    _emit_csv(args, "adjoint_kernel.csv", grid_function_to_csv, K)
    # the adjoint spec itself, so fio-kernel on this file rebuilds the kernel
    _emit_json(args, "adjoint.json", {**fio_spec_to_dict(adj),
                                      "chi": adj.chi.entries.tolist()})
    print("wrote adjoint kernel")
    return EXIT_PASS


def _kernel_heatmap(K: GridFunction, stride: int) -> tuple:
    """2D map for the 4D field of a kernel, reduced slab by slab
    (gabor._kernel_field_slabs): slice the second position axis at the
    sample nearest zero, then maximize over the second frequency axis.
    Returns the position and frequency axes and the map, indexed (first
    frequency, first position) with the frequency axis increasing upward."""
    z, zeta, slab, _ = _kernel_field_slabs(K, stride)
    j = int(np.argmin(np.abs(z)))
    sub = np.array([np.abs(slab(i)[:, j, :]).max(axis=1)
                    for i in range(len(z))])  # (z1, zeta1)
    return z, zeta, sub.T[::-1]


def cmd_fbi_map(args) -> int:
    u = grid_function_from_csv(args.inputs[0])
    if u.spec.d == 1:
        field = gabor_transform(u, gaussian_window(u.spec), stride=args.stride)
        _emit_csv(args, "fbi_map.csv", field_to_csv, field)
        _emit_pgm(args, "fbi_map.pgm", np.abs(field.values).T[::-1])
        _emit_json(args, "fbi_map.json", {
            "kind": "function", "grid": u.spec.to_dict(), "stride": args.stride,
        })
    elif u.spec.d == 2:
        z, zeta, heat = _kernel_heatmap(u, args.stride)
        _emit_pgm(args, "fbi_map.pgm", heat)
        _emit_json(args, "fbi_map.json", {
            "kind": "kernel", "grid": u.spec.to_dict(), "stride": args.stride,
            "heatmap": "rows: first frequency axis (descending), "
                       "columns: first position axis; second position fixed "
                       "at 0, maximized over second frequency",
            "axis_position": [float(a) for a in z],
            "axis_frequency": [float(a) for a in zeta],
        })
    else:
        raise ValueError("fbi-map expects a function (d=1) or kernel (d=2)")
    print("wrote phase-space map")
    return EXIT_PASS


def cmd_char_check(args) -> int:
    K = grid_function_from_csv(args.inputs[0])
    chi = _load_chi(args.inputs[1])
    rep, = sweep_kernel_field(K, [kernel_characterization_check(chi, args.order, args.rho)],
                              stride=args.stride)
    _emit_json(args, "char_check.json", rep.to_dict())
    print(f"kernel characterization: {rep.status}")
    return _STATUS_EXIT[rep.status]


def cmd_wf(args) -> int:
    u = grid_function_from_csv(args.inputs[0])
    rep = wavefront_estimate(u, N_max=4.0)
    _emit_json(args, "wf.json", {
        "status": rep.status,
        "nondecaying_sectors": rep.nondecaying,
        "sector_angles": rep.angles.tolist(),
        "slopes": [None if not np.isfinite(s) else float(s) for s in rep.slopes],
    })
    print(f"nondecaying sectors: {rep.nondecaying}")
    return _STATUS_EXIT[rep.status]


def cmd_lag_test(args) -> int:
    u = grid_function_from_csv(args.inputs[0])
    lam = _load_lagrangian(args.inputs[1])
    rep = lagrangian_membership_test(u, lam, args.order, rho=args.rho)
    _emit_json(args, "lag_test.json", rep.to_dict())
    print(f"membership: {rep.status}")
    return _STATUS_EXIT[rep.status]


def cmd_suite(args) -> int:
    def progress(res, dt):
        print(f"  {res.name}: {res.status} ({dt:.1f}s)", flush=True)

    results = acceptance.run_suite(args.seed, args.quick, progress)
    for res in results:
        _emit_json(args, f"check_{res.name}.json", res.to_dict())
    status = "pass" if all(r.status == "pass" for r in results) else "fail"
    _emit_json(args, "summary.json",
               {"status": status, "checks": {r.name: r.status for r in results}})
    print(f"suite: {status}")
    return _STATUS_EXIT[status]


def _number(kind, lo=-math.inf, hi=math.inf):
    """argparse type: kind(text), refused unless finite and in [lo, hi];
    argparse names the flag in either refusal."""
    def parse(text):
        value = kind(text)
        if not (lo <= value <= hi and abs(value) < math.inf):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite value in [{lo}, {hi}]")
        return value
    parse.__name__ = kind.__name__  # worded "invalid int value" when kind refuses
    return parse


# each command's handler, then its number of inputs and the options the
# handler reads, which are all the command accepts and records in its config
_COMMANDS = {
    "reduce-phase": (cmd_reduce_phase, (1,)),
    "check-phase": (cmd_check_phase, (1,)),
    "lagrangian-of": (cmd_lagrangian_of, (1,)),
    "mu-apply": (cmd_mu_apply, (2,)),
    "weyl-quantize": (cmd_weyl_quantize, (1, "grid_n", "grid_R")),
    "fio-kernel": (cmd_fio_kernel, (1, "grid_n", "grid_R")),
    "factorize": (cmd_factorize, (2, "order", "rho")),
    "compose": (cmd_compose, (2, "grid_n", "grid_R")),
    "adjoint": (cmd_adjoint, (1, "grid_n", "grid_R")),
    "fbi-map": (cmd_fbi_map, (1, "stride")),
    "char-check": (cmd_char_check, (2, "stride", "order", "rho")),
    "wf": (cmd_wf, (1,)),
    "lag-test": (cmd_lag_test, (2, "order", "rho")),
    "suite": (cmd_suite, (0, "seed", "quick")),
}

# every option a handler reads: argparse keywords, keyed by its dest
_FLAGS = {
    "grid_n": {"type": int, "default": 128},
    "grid_R": {"type": float, "default": 10.0},
    "stride": {"type": _number(int, 1), "default": KERNEL_STRIDE},
    "seed": {"type": _number(int, 0), "default": 0},
    "order": {"type": _number(float), "default": 0.0},
    "rho": {"type": _number(float, 0.0, 1.0), "default": 1.0},
    "quick": {"action": "store_true"},
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the input-error code: argparse's own code 2
    would read as an inconclusive verdict.  Subcommand parsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fiocalc",
        description="Fourier integral operator toolkit: phase reduction, "
                    "metaplectic operators, Weyl quantization, phase-space "
                    "kernel checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_func, (nargs, *options)) in _COMMANDS.items():
        p = sub.add_parser(name)
        if nargs:
            p.add_argument("inputs", nargs=nargs, metavar="INPUT")
        else:
            p.set_defaults(inputs=[])
        for key in options:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAGS[key])
        p.add_argument("--out", default="fiocalc-out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, _ = _COMMANDS[args.command]
    if not acceptance._one_blas_thread():
        print("note: no bundled OpenBLAS found, so BLAS keeps its own thread count "
              "and artifacts may differ between thread counts", file=sys.stderr)
    try:
        code = func(args)
    except (OSError, KeyError, ValueError, SizeGuardError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except QuadratureError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    write_manifest(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
