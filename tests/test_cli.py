import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fiocalc import cli, grids
from fiocalc.gabor import gabor_transform, profile_report
from fiocalc.grids import GridFunction, GridSpec, gaussian_window, hermite_grid_function
from fiocalc.lagdist import _membership_reader, lagrangian_param
from fiocalc.phases import (lagrangian_of_phase, phase_from_free_matrix, phase_to_dict,
                            pseudodifferential_phase)
from fiocalc.serialize import (
    fio_spec_to_dict,
    grid_function_from_csv,
    grid_function_to_csv,
    json_dumps,
    read_json,
    symplectic_to_list,
    write_json,
)
from fiocalc.fio import FioSpec, kernel_characterization_check
from fiocalc.symbols import (constant_symbol, gaussian_symbol, harmonic_oscillator_symbol,
                              polynomial_symbol)
from fiocalc.symplectic import (SymplecticMatrix, chirp_matrix, lagrangian_with_param,
                                standard_j, twisted_graph_lagrangian)
from pgm_reader import read_pgm
from whole_box import full_field_decay_profile, reference_kernel_field


def write_psi0(path, n=128, R=10.0):
    grid = GridSpec(1, n, R)
    grid_function_to_csv(hermite_grid_function(grid, [0]), str(path))
    return grid


def write_chi(path, chi):
    write_json({"chi": symplectic_to_list(chi)}, str(path))


def fourier_kernel_csv(path, n=128, R=10.0):
    grid = GridSpec(1, n, R)
    x = grid.points()
    vals = (2 * np.pi) ** -0.5 * np.exp(-1j * np.outer(x, x)).reshape(-1)
    grid_function_to_csv(GridFunction(GridSpec(2, n, R), vals), str(path))
    return grid


def test_reduce_phase_writes_report(tmp_path):
    phase = tmp_path / "phase.json"
    write_json(phase_to_dict(pseudodifferential_phase(1)), str(phase))
    out = tmp_path / "out"
    assert cli.main(["reduce-phase", str(phase), "--out", str(out)]) == 0
    rec = read_json(str(out / "reduction.json"))
    # the quadratic fiber block of this phase is zero, nothing to eliminate
    assert rec["record"]["n"] == 1
    manifest = read_json(str(out / "manifest.json"))
    assert "reduction.json" in manifest["files"]


def test_missing_input_is_an_input_error(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["reduce-phase", str(tmp_path / "nope.json"),
                     "--out", str(out)]) == 3


def test_malformed_json_is_an_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["reduce-phase", str(bad),
                     "--out", str(tmp_path / "out")]) == 3


def oscillatory_spec_text(**amplitude_params):
    """JSON of an oscillatory spec whose Gaussian amplitude has these params."""
    data = fio_spec_to_dict(FioSpec("oscillatory", 0.0, 1.0, phase=pseudodifferential_phase(1),
                                    amplitude=gaussian_symbol(3)))
    data["amplitude"]["params"].update(amplitude_params)
    return json.dumps(data)


def csv_text(rows):
    """A grid-function CSV on the d = 1, n = 8 grid with one row of value 1
    at each of the row indices rows."""
    return "1,8,4.0\n" + "".join(f"{i},1.0,0.0\n" for i in rows)


SHORT_CENTER = ('{"dim": 2, "order": 0, "rho": 1, "kind": "gaussian_modulated",'
                ' "params": {"center": [3.0]}}')


@pytest.mark.parametrize("argv, name, text", [
    (["reduce-phase", "{bad}"], "phase.json", "[1, 2]"),
    (["fio-kernel", "{bad}"], "spec.json", "[1, 2]"),
    (["lag-test", "{psi}", "{bad}"], "subspace.json", "[1, 2]"),
    (["weyl-quantize", "{bad}"], "symbol.json", "[1, 2]"),
    (["mu-apply", "{bad}", "{psi}"], "chi.json", "5"),
    (["mu-apply", "{bad}", "{psi}"], "chi.json", '{"chi": 5}'),
    (["reduce-phase", "{bad}"], "phase.json", '{"d": [1], "F": [[0, 0], [0, 0]]}'),
    (["fbi-map", "{bad}"], "u.csv", "1,128\n0,1.0,0.0\n"),
    (["weyl-quantize", "{bad}"], "symbol.json",
     '{"dim": 2, "order": 0, "rho": 1, "kind": ["constant"]}'),
    (["fio-kernel", "{bad}"], "spec.json",
     '{"form": ["factored"], "order": 0, "rho": 1, "chi": [[0, 1], [-1, 0]],'
     ' "b": {"dim": 2, "order": 0, "rho": 1, "kind": "constant"}}'),
    (["weyl-quantize", "{bad}", "--grid-n", "16"], "symbol.json",
     '{"dim": 2, "order": 0, "rho": 1, "kind": "polynomial",'
     ' "params": {"terms": [[1, 0, [5, 5, 5]]]}}'),
    (["weyl-quantize", "{bad}", "--grid-n", "16"], "symbol.json",
     '{"dim": 2, "order": 1, "rho": 1, "kind": "polynomial",'
     ' "params": {"terms": [[1, 0, [1.5, 0]]]}}'),
    (["weyl-quantize", "{bad}", "--grid-n", "16"], "symbol.json",
     '{"dim": 2, "order": 1, "rho": 1, "kind": "polynomial",'
     ' "params": {"terms": [[1, 0, [-1, 0]]]}}'),
    (["fio-kernel", "{bad}", "--grid-n", "16"], "spec.json",
     oscillatory_spec_text(terms=[[1, 0, [1.5, 0, 0]]])),
    (["weyl-quantize", "{bad}", "--grid-n", "16"], "symbol.json",
     '{"dim": 2, "order": 0, "rho": 1, "kind": "gaussian_modulated",'
     ' "params": {"width": 0.0}}'),
    (["fio-kernel", "{bad}", "--grid-n", "16"], "spec.json", oscillatory_spec_text(width=0.0)),
    (["weyl-quantize", "{bad}", "--grid-n", "16"], "symbol.json", SHORT_CENTER),
    (["fio-kernel", "{bad}", "--grid-n", "16"], "spec.json",
     oscillatory_spec_text(center=[3.0])),
    (["fbi-map", "{bad}"], "u.csv", csv_text([*range(8), 3])),
    (["fbi-map", "{bad}"], "u.csv", csv_text([*range(7), 8])),
    (["fbi-map", "{bad}"], "u.csv", csv_text(range(7))),
    (["fbi-map", "{bad}"], "u.csv", csv_text(range(8)) + "8,1.0\n"),
    (["fbi-map", "{bad}"], "u.csv", csv_text(range(7)) + "7,one,0.0\n"),
], ids=["phase-list", "spec-list", "subspace-list", "symbol-list", "chi-number",
        "chi-entry-number", "phase-list-d", "csv-short-header", "symbol-kind-list",
        "spec-form-list", "symbol-exponent-too-long", "symbol-exponent-fraction",
        "symbol-exponent-negative", "amplitude-exponent-fraction", "symbol-width-zero",
        "amplitude-width-zero", "symbol-center-short", "amplitude-center-short",
        "csv-duplicate-row", "csv-row-out-of-range", "csv-missing-rows", "csv-two-fields",
        "csv-non-numeric"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # refused before any numerics
def test_malformed_inputs_are_input_errors(tmp_path, capsys, argv, name, text):
    bad = tmp_path / name
    bad.write_text(text)
    write_psi0(tmp_path / "psi0.csv")
    out = tmp_path / "out"
    args = [a.format(bad=bad, psi=tmp_path / "psi0.csv") for a in argv]
    assert cli.main([*args, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and len(err.strip().splitlines()) == 1
    assert not (out / "manifest.json").exists()


CUSTOM = '{"dim": 2, "order": 0, "rho": 1, "kind": "custom", "params": {}}'


def custom_spec_text(form):
    """JSON of a spec whose symbol b (factored) or amplitude (oscillatory)
    is of kind custom."""
    if form == "factored":
        spec = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=standard_j(1))
    else:
        spec = FioSpec("oscillatory", 0.0, 1.0, phase=phase_from_free_matrix(standard_j(1)),
                       amplitude=constant_symbol(2))
    data = fio_spec_to_dict(spec)
    data["b" if form == "factored" else "amplitude"] = json.loads(CUSTOM)
    return json.dumps(data)


@pytest.mark.parametrize("command, text, names", [
    ("weyl-quantize", SHORT_CENTER, ("gaussian center", "2 entries")),
    ("weyl-quantize", '{"dim": 2, "order": 0, "rho": 1, "kind": "polynomial", "params": {}}',
     ("polynomial", "'terms'")),
    ("weyl-quantize", CUSTOM, ("'custom'", "no JSON form")),
    ("fio-kernel", custom_spec_text("factored"), ("'custom'", "no JSON form")),
    ("fio-kernel", custom_spec_text("oscillatory"), ("'custom'", "no JSON form")),
], ids=["center-short", "polynomial-without-terms", "symbol-custom", "factored-b-custom",
        "amplitude-custom"])
def test_symbol_input_errors_name_the_field(tmp_path, capsys, command, text, names):
    bad = tmp_path / "symbol.json"
    bad.write_text(text)
    out = tmp_path / "out"
    assert cli.main([command, str(bad), "--grid-n", "16", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert all(name in err for name in names), err


def run_check_phase(tmp_path, name, phase):
    path = tmp_path / f"{name}.json"
    write_json(phase, str(path))
    out = tmp_path / name
    code = cli.main(["check-phase", str(path), "--out", str(out)])
    return code, read_json(str(out / "check_phase.json"))


def test_check_phase_verdicts(tmp_path):
    graph = phase_to_dict(phase_from_free_matrix(standard_j(1)))
    code, rep = run_check_phase(tmp_path, "graph", graph)
    assert code == 0 and rep["estimates"]["estimates_hold"] is True
    # N = 1 with L = 0 and Q = 0: (L; Q) is not injective
    degenerate = {"d": 1, "N": 1, "F": [[0.0, 0.0], [0.0, 0.0]], "L": [[0.0], [0.0]],
                  "Q": [[0.0]]}
    code, rep = run_check_phase(tmp_path, "degenerate", degenerate)
    assert code == 1 and rep["nondegenerate"] is False and rep["status"] == "fail"
    # the zero phase parametrizes the zero section, which is no twisted graph
    code, rep = run_check_phase(tmp_path, "zero", {"d": 1, "N": 0, "F": [[0.0, 0.0], [0.0, 0.0]]})
    assert code == 0 and "skipped" in rep["estimates"]


def test_lagrangian_of_writes_the_parametrization(tmp_path):
    phi = pseudodifferential_phase(1)
    path = tmp_path / "phase.json"
    write_json(phase_to_dict(phi), str(path))
    out = tmp_path / "out"
    assert cli.main(["lagrangian-of", str(path), "--out", str(out)]) == 0
    rec = read_json(str(out / "lagrangian.json"))
    Y, F = lagrangian_param(lagrangian_of_phase(phi))
    assert np.array_equal(np.array(rec["Y"]), Y) and np.array_equal(np.array(rec["F"]), F)


def test_mu_apply_fixes_the_ground_state(tmp_path):
    psi = tmp_path / "psi0.csv"
    write_psi0(psi)
    chi = tmp_path / "chi.json"
    write_chi(chi, standard_j(1))
    out = tmp_path / "out"
    assert cli.main(["mu-apply", str(chi), str(psi), "--out", str(out)]) == 0
    result = grid_function_from_csv(str(out / "mu_output.csv"))
    original = grid_function_from_csv(str(psi))
    assert np.abs(result.values - original.values).max() < 1e-8


def test_char_check_exit_codes(tmp_path):
    kernel = tmp_path / "kernel.csv"
    fourier_kernel_csv(kernel)
    good = tmp_path / "good.json"
    write_chi(good, standard_j(1))
    bad = tmp_path / "bad.json"
    write_chi(bad, chirp_matrix(np.array([[0.8]])))
    assert cli.main(["char-check", str(kernel), str(good),
                     "--out", str(tmp_path / "o1")]) == 0
    assert cli.main(["char-check", str(kernel), str(bad),
                     "--out", str(tmp_path / "o2")]) == 1


@pytest.mark.parametrize("command", ["char-check", "lag-test"])
def test_kernel_commands_read_the_whole_box_reports(tmp_path, command):
    """char-check and the d = 2 lag-test sweep their kernel's field with one
    reader; at n = 64 their JSON is the report of the whole-field profile."""
    kernel = tmp_path / "kernel.csv"
    fourier_kernel_csv(kernel, n=64)
    J = standard_j(1)
    second = tmp_path / "second.json"
    if command == "char-check":
        write_chi(second, J)
        reader = kernel_characterization_check(J, 0.0, 1.0)
    else:
        Y, F = lagrangian_param(twisted_graph_lagrangian(J))
        write_json({"n": 2, "Y": Y.tolist(), "F": F.tolist()}, str(second))
        reader = _membership_reader(lagrangian_with_param(Y, F, 2), 0.0, 1.0)
    out = tmp_path / "out"
    assert cli.main([command, str(kernel), str(second), "--out", str(out)]) == 0
    name = {"char-check": "char_check.json", "lag-test": "lag_test.json"}[command]
    got = read_json(str(out / name))
    del got["config"]
    whole = reference_kernel_field(grid_function_from_csv(str(kernel)), 2)
    prof = full_field_decay_profile(whole, reader.Q, reader.lam, reader.vlam)
    ref = profile_report(prof.off_slope, prof.along_slopes, reader.m, reader.rho,
                         reader.projected_F)
    assert got == json.loads(json_dumps(ref.to_dict()))
    assert ref.status == "pass"


def test_lag_test_point_mass_on_cotangent_fiber(tmp_path):
    grid = GridSpec(1, 128, 10.0)
    vals = np.zeros(grid.n, dtype=complex)
    vals[grid.n // 2] = 1.0 / grid.h
    delta = tmp_path / "delta.csv"
    grid_function_to_csv(GridFunction(grid, vals), str(delta))
    lam = tmp_path / "lam.json"
    write_json({"n": 1, "Y": [[]], "F": [[0.0]]}, str(lam))
    assert cli.main(["lag-test", str(delta), str(lam),
                     "--out", str(tmp_path / "out")]) == 0


def test_factorize_exit_codes(tmp_path):
    # a non-smoothing symbol is needed here: a smoothing operator would
    # factorize through every matrix, so it cannot serve as a negative case
    chi = standard_j(1)
    spec = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=chi)
    spec_path = tmp_path / "spec.json"
    write_json(fio_spec_to_dict(spec), str(spec_path))
    kout = tmp_path / "kernel-out"
    assert cli.main(["fio-kernel", str(spec_path), "--grid-n", "256",
                     "--grid-R", "12", "--out", str(kout)]) == 0
    kernel = kout / "kernel.csv"
    good = tmp_path / "good.json"
    write_chi(good, chi)
    wrong = tmp_path / "wrong.json"
    write_chi(wrong, chirp_matrix(np.array([[0.8]])))
    assert cli.main(["factorize", str(kernel), str(good),
                     "--out", str(tmp_path / "f1")]) == 0
    assert cli.main(["factorize", str(kernel), str(wrong),
                     "--out", str(tmp_path / "f2")]) == 1


def test_compose_reports_product(tmp_path):
    s1 = tmp_path / "s1.json"
    write_json(fio_spec_to_dict(FioSpec(
        "factored", 2.0, 1.0, b=harmonic_oscillator_symbol(2),
        chi=standard_j(1))), str(s1))
    s2 = tmp_path / "s2.json"
    write_json(fio_spec_to_dict(FioSpec(
        "factored", 2.0, 1.0, b=harmonic_oscillator_symbol(2),
        chi=chirp_matrix(np.array([[0.8]])))), str(s2))
    out = tmp_path / "out"
    assert cli.main(["compose", str(s1), str(s2), "--out", str(out)]) == 0
    rep = read_json(str(out / "compose.json"))
    assert rep["order"] == 4.0 and rep["status"] == "pass"


@pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
def test_compose_pads_a_short_exponent(tmp_path, side):
    # b(x, xi) = x, written with a one-entry and with a full exponent
    residuals = []
    for exponent in [(1,), (1, 0)]:
        specs = [FioSpec("factored", 2.0, 1.0, b=harmonic_oscillator_symbol(2),
                         chi=chirp_matrix(np.array([[0.8]])))] * 2
        specs[side] = FioSpec("factored", 1.0, 1.0, chi=standard_j(1),
                              b=polynomial_symbol(2, [(1.0, exponent)]))
        paths = [str(tmp_path / f"s{i}.json") for i in range(2)]
        for spec, path in zip(specs, paths):
            write_json(fio_spec_to_dict(spec), path)
        out = tmp_path / f"out{len(exponent)}"
        assert cli.main(["compose", *paths, "--out", str(out)]) == 0
        residuals.append(read_json(str(out / "compose.json"))["residual"])
    assert residuals[0] == residuals[1]


def test_wf_reports_frequency_axis_for_point_mass(tmp_path):
    grid = GridSpec(1, 128, 10.0)
    vals = np.zeros(grid.n, dtype=complex)
    vals[grid.n // 2] = 1.0 / grid.h
    delta = tmp_path / "delta.csv"
    grid_function_to_csv(GridFunction(grid, vals), str(delta))
    out = tmp_path / "out"
    cli.main(["wf", str(delta), "--out", str(out)])
    rep = read_json(str(out / "wf.json"))
    assert rep["nondecaying_sectors"] == [14, 15, 16, 17, 46, 47, 48, 49]


def test_fbi_map_of_a_function_writes_the_transform(tmp_path):
    psi = tmp_path / "psi0.csv"
    grid = write_psi0(psi)
    out = tmp_path / "out"
    assert cli.main(["fbi-map", str(psi), "--stride", "2", "--out", str(out)]) == 0
    path = out / "fbi_map.csv"
    assert path.read_text().splitlines()[0] == "x0,xi0,re,im"
    rows = np.loadtxt(path, delimiter=",", skiprows=1, comments="#")
    X, XI = np.meshgrid(grid.points()[::2], grid.dual_points(2), indexing="ij")
    assert np.array_equal(rows[:, 0], X.reshape(-1))
    assert np.array_equal(rows[:, 1], XI.reshape(-1))
    u = grid_function_from_csv(str(psi))
    ref = gabor_transform(u, gaussian_window(grid), 2).values.reshape(-1)
    assert np.array_equal(rows[:, 2], ref.real)
    assert np.array_equal(rows[:, 3], ref.imag)


def test_fbi_map_of_kernel_draws_the_canonical_relation(tmp_path):
    kernel = tmp_path / "kernel.csv"
    grid = fourier_kernel_csv(kernel)
    out = tmp_path / "out"
    assert cli.main(["fbi-map", str(kernel), "--stride", "4",
                     "--out", str(out)]) == 0
    levels = read_pgm(out / "fbi_map.pgm")
    meta = read_json(str(out / "fbi_map.json"))
    freq = np.asarray(meta["axis_frequency"])
    pos = np.asarray(meta["axis_position"])
    # the relation of the Fourier transform puts the bright line on zeta1 = 0
    target_row = len(freq) - 1 - int(np.argmin(np.abs(freq)))
    interior = np.abs(pos) <= 0.7 * grid.R
    rows = levels.argmax(axis=0)[interior]
    assert np.abs(rows - target_row).max() <= 2


def test_every_artifact_embeds_the_configuration(tmp_path):
    spec = tmp_path / "spec.json"
    write_json(fio_spec_to_dict(FACTORED), str(spec))
    out = tmp_path / "out"
    cli.main(["fio-kernel", str(spec), "--grid-n", "64", "--out", str(out)])
    text = (out / "kernel.csv").read_text()
    assert "# config" in text and '"grid_n": 64' in text
    rec = read_json(str(out / "fio_kernel.json"))
    assert rec["config"]["grid_n"] == 64


def test_the_config_records_exactly_the_options_a_command_takes():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, (_func, (nargs, *_options)) in cli._COMMANDS.items():
        inputs = [f"in{i}.json" for i in range(nargs)]
        args = parser.parse_args([name, *inputs])
        takes = [a.dest for a in sub.choices[name]._actions
                 if a.dest not in ("help", "inputs", "out")]
        expected = {"command": name, "inputs": inputs,
                    **{key: getattr(args, key) for key in takes}}
        assert cli._config(args) == expected and list(cli._config(args)) == list(expected)


@pytest.mark.parametrize("argv, flag", [
    (["factorize", "k.csv", "chi.json", "--order", "nan"], "--order"),
    (["factorize", "k.csv", "chi.json", "--rho", "nan"], "--rho"),
    (["factorize", "k.csv", "chi.json", "--rho", "7"], "--rho"),
    (["char-check", "k.csv", "chi.json", "--order", "nan"], "--order"),
    (["char-check", "k.csv", "chi.json", "--order", "inf"], "--order"),
    (["char-check", "k.csv", "chi.json", "--rho", "-3"], "--rho"),
    (["char-check", "k.csv", "chi.json", "--stride", "0"], "--stride"),
    (["fbi-map", "u.csv", "--stride", "1.5"], "--stride"),
    (["lag-test", "u.csv", "lag.json", "--rho", "-0.5"], "--rho"),
    (["suite", "--seed", "-8"], "--seed"),
], ids=["factorize-order-nan", "factorize-rho-nan", "factorize-rho-7", "char-check-order-nan",
        "char-check-order-inf", "char-check-rho-negative", "char-check-stride-0",
        "fbi-map-stride-fraction", "lag-test-rho-negative", "suite-seed-negative"])
def test_numeric_flags_out_of_range_are_usage_errors(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(out)])
    assert exc.value.code == 3
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["reduce-phase", "{tmp}/phase.json", "--grid-n", "64"],
    ["suite", "--quick", "--stride", "2"],
    ["mu-apply", "{tmp}/chi.json", "{tmp}/psi0.csv", "--phase-fix", "none"],
    ["wf", "{tmp}/psi0.csv", "--order", "1"],
    ["fbi-map", "{tmp}/psi0.csv", "--rho", "0.5"],
    ["check-phase", "{tmp}/phase.json", "--seed", "1"],
], ids=["reduce-phase", "suite", "mu-apply", "wf", "fbi-map", "check-phase"])
def test_unread_flags_are_usage_errors(tmp_path, capsys, argv):
    # valid inputs, so only the flag the command does not read can fail
    write_json(phase_to_dict(pseudodifferential_phase(1)), str(tmp_path / "phase.json"))
    write_chi(tmp_path / "chi.json", standard_j(1))
    write_psi0(tmp_path / "psi0.csv")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)])
    assert exc.value.code == 3
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("indices", [
    [*range(128), 128],  # one index past the last sample
    [0, *range(128)],  # sample 0 twice
    [0, 1, 2],  # samples 3..127 missing
], ids=["out-of-range", "duplicate", "missing"])
def test_bad_csv_rows_are_an_input_error(tmp_path, indices):
    bad = tmp_path / "bad.csv"
    rows = [f"{i},1.0,0.0" for i in indices]
    bad.write_text("\n".join(["1,128,10.0", *rows]) + "\n")
    assert cli.main(["wf", str(bad), "--out", str(tmp_path / "out")]) == 3


def test_size_guard_refusal_is_an_input_error(tmp_path, capsys):
    symbol = tmp_path / "ho.json"
    write_json(harmonic_oscillator_symbol(2).to_dict(), str(symbol))
    out = tmp_path / "out"
    assert cli.main(["weyl-quantize", str(symbol), "--grid-n", "16384",
                     "--out", str(out)]) == 3
    assert "GiB" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_grid_past_the_memory_cap_is_refused_before_reading_rows(tmp_path, capsys):
    # the header alone asks for 2^32 samples (64 GiB)
    big = tmp_path / "big.csv"
    big.write_text("1,4294967296,10.0\n0,1.0,0.0\n")
    out = tmp_path / "out"
    assert cli.main(["wf", str(big), "--out", str(out)]) == 3
    assert "GiB" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["wf", "fbi-map", "lag-test"])
def test_transform_past_the_memory_cap_is_an_input_error(tmp_path, capsys, monkeypatch,
                                                         command):
    # the d = 1 transform builds n x n arrays: 64^2 = 4096 entries, past a cap of 2^10
    write_psi0(tmp_path / "psi0.csv", n=64)
    write_json({"n": 1, "Y": [[1.0]], "F": [[0.0]]}, str(tmp_path / "lam.json"))
    inputs = [str(tmp_path / "psi0.csv")] + ([str(tmp_path / "lam.json")]
                                             if command == "lag-test" else [])
    monkeypatch.setattr(grids, "MEMORY_CAP_ENTRIES", 2 ** 10)
    out = tmp_path / "out"
    assert cli.main([command, *inputs, "--out", str(out)]) == 3
    assert "cap is 1024" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["fbi-map", "char-check", "lag-test"])
def test_kernel_field_past_the_memory_cap_is_an_input_error(tmp_path, capsys, command):
    # an n = 256 kernel at stride 2 gives a 128^4 = 2^28 entry field (4 GiB)
    kernel = tmp_path / "kernel.csv"
    rows = "".join(f"{i},0.0,0.0\n" for i in range(256**2))
    kernel.write_text("2,256,12.0\n" + rows)
    second = tmp_path / "second.json"
    if command == "char-check":
        write_chi(second, standard_j(1))
    else:
        write_json({"n": 2, "Y": np.eye(2).tolist(), "F": np.zeros((2, 2)).tolist()},
                   str(second))
    inputs = [str(kernel)] if command == "fbi-map" else [str(kernel), str(second)]
    out = tmp_path / "out"
    assert cli.main([command, *inputs, "--out", str(out)]) == 3
    assert "GiB" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_unconverged_quadrature_is_inconclusive(tmp_path, capsys):
    # a constant amplitude on the Kohn-Nirenberg phase: the kernel is
    # delta(x - y), so the theta quadrature never settles
    spec = FioSpec("oscillatory", 0.0, 1.0, phase=pseudodifferential_phase(1),
                   amplitude=constant_symbol(3))
    path = tmp_path / "slow.json"
    write_json(fio_spec_to_dict(spec), str(path))
    out = tmp_path / "out"
    assert cli.main(["fio-kernel", str(path), "--grid-n", "64", "--grid-R", "8",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "did not converge" in err and len(err.strip().splitlines()) == 1
    assert not (out / "manifest.json").exists()


def test_wide_gaussian_amplitude_gets_an_exact_kernel(tmp_path):
    # the theta quadrature still changed by ~1e-5 after its last doubling
    # here; the Gaussian integral is done in closed form
    spec = FioSpec("oscillatory", 0.0, 1.0, phase=pseudodifferential_phase(1),
                   amplitude=gaussian_symbol(3, width=np.sqrt(20.0)))
    path = tmp_path / "wide.json"
    write_json(fio_spec_to_dict(spec), str(path))
    out = tmp_path / "out"
    assert cli.main(["fio-kernel", str(path), "--grid-n", "64", "--grid-R", "8",
                     "--out", str(out)]) == 0
    assert np.all(np.isfinite(grid_function_from_csv(str(out / "kernel.csv")).values))
    rec = read_json(str(out / "fio_kernel.json"))
    assert rec["theta_integral"] == {"method": "gaussian_closed_form"}


def test_adjoint_json_rebuilds_the_adjoint_kernel(tmp_path):
    spec = FioSpec("oscillatory", 0.0, 1.0, phase=pseudodifferential_phase(1),
                   amplitude=gaussian_symbol(3, center=[0.5, -0.3, 0.8], width=1.5,
                                             terms=[(0.5 - 0.2j, (1, 0, 1))]))
    path = tmp_path / "spec.json"
    write_json(fio_spec_to_dict(spec), str(path))
    g = ["--grid-n", "32", "--grid-R", "6"]
    assert cli.main(["adjoint", str(path), *g, "--out", str(tmp_path / "adj")]) == 0
    rec = read_json(str(tmp_path / "adj" / "adjoint.json"))
    assert rec["amplitude"]["kind"] == "gaussian_modulated"
    assert rec["amplitude"]["params"]["center"] == [-0.3, 0.5, 0.8]
    assert cli.main(["fio-kernel", str(tmp_path / "adj" / "adjoint.json"), *g,
                     "--out", str(tmp_path / "k")]) == 0
    K = grid_function_from_csv(str(tmp_path / "k" / "kernel.csv"))
    adj = grid_function_from_csv(str(tmp_path / "adj" / "adjoint_kernel.csv"))
    assert np.array_equal(K.values, adj.values)


@pytest.mark.parametrize("argv, code", [
    (["wf", "x.csv", "--bogus"], 3),
    (["wf", "x.csv", "--tol", "1e-3"], 3),
    (["no-such-command"], 3),
    (["wf", "--help"], 0),
])
def test_usage_errors_are_input_errors(argv, code):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code


def test_the_package_runs_as_a_module_from_a_source_checkout():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-m", "fiocalc", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: fiocalc")


@pytest.mark.parametrize("command, chi_d, grid_d", [
    ("mu-apply", 2, 1),
    ("mu-apply", 1, 2),
    ("factorize", 2, 1),
])
def test_chi_of_another_dimension_than_the_grid_is_an_input_error(
        tmp_path, capsys, command, chi_d, grid_d):
    chi = tmp_path / "chi.json"
    write_chi(chi, standard_j(chi_d))
    data = tmp_path / "data.csv"
    if command == "factorize":
        fourier_kernel_csv(data, n=32)
    elif grid_d == 1:
        write_psi0(data)
    else:
        grid = GridSpec(2, 16, 8.0)
        psi = GridFunction.sample(grid, lambda a, b: np.exp(-0.5 * (a ** 2 + b ** 2)))
        grid_function_to_csv(psi, str(data))
    inputs = [str(chi), str(data)] if command == "mu-apply" else [str(data), str(chi)]
    out = tmp_path / "out"
    assert cli.main([command, *inputs, "--out", str(out)]) == 3
    assert f"chi acts on d = {chi_d}, grid has d = {grid_d}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


OSCILLATORY_N0 = FioSpec("oscillatory", 0.0, 1.0, phase=phase_from_free_matrix(standard_j(1)),
                         amplitude=constant_symbol(2))
OSCILLATORY_N1 = FioSpec("oscillatory", 0.0, 1.0, phase=pseudodifferential_phase(1),
                         amplitude=constant_symbol(3))
FACTORED = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2), chi=standard_j(1))
# B = 0.1 is too ill-conditioned for the free kernel: mu(chi) goes through a
# shifted path whose first factor is a Fourier transform
SHIFTED = FioSpec("factored", 0.0, 1.0, b=constant_symbol(2),
                  chi=SymplecticMatrix(1, np.array([[1.0, 0.1], [0.0, 1.0]])))


@pytest.mark.parametrize("command, specs", [
    ("fio-kernel", [OSCILLATORY_N0]),
    ("fio-kernel", [OSCILLATORY_N1]),
    ("fio-kernel", [FACTORED]),
    ("adjoint", [OSCILLATORY_N0]),
    ("adjoint", [OSCILLATORY_N1]),
    ("compose", [FACTORED, FACTORED]),
    ("compose", [SHIFTED, SHIFTED]),
], ids=["kernel-N0", "kernel-N1", "kernel-factored", "adjoint-N0", "adjoint-N1",
        "compose", "compose-shifted"])
def test_grid_past_the_memory_cap_is_refused_before_allocating(
        tmp_path, capsys, command, specs):
    # n = 2^20: the kernel has 2^40 samples, one phase block 2^29 entries and
    # the matrix of a Fourier factor 2^40
    paths = []
    for i, spec in enumerate(specs):
        paths.append(str(tmp_path / f"spec{i}.json"))
        write_json(fio_spec_to_dict(spec), paths[-1])
    out = tmp_path / "out"
    assert cli.main([command, *paths, "--grid-n", "1048576", "--out", str(out)]) == 3
    assert "GiB" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# 1e308: the step 2R/n overflows; 1e-320: the dual step pi/R does
@pytest.mark.parametrize("R", ["nan", "inf", "1e308", "1e-320"])
@pytest.mark.parametrize("command", ["fio-kernel", "compose", "adjoint", "weyl-quantize",
                                     "mu-apply", "wf"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # refused before any numerics
def test_a_non_finite_grid_is_an_input_error_that_names_R(tmp_path, capsys, command, R):
    spec = tmp_path / "spec.json"
    write_json(fio_spec_to_dict(OSCILLATORY_N0 if command == "adjoint" else FACTORED),
               str(spec))
    symbol = tmp_path / "symbol.json"
    write_json(constant_symbol(2).to_dict(), str(symbol))
    chi = tmp_path / "chi.json"
    write_chi(chi, standard_j(1))
    data = tmp_path / "data.csv"
    data.write_text(f"1,8,{R}\n" + "".join(f"{i},1.0,0.0\n" for i in range(8)))
    inputs = {"fio-kernel": [spec], "compose": [spec, spec], "adjoint": [spec],
              "weyl-quantize": [symbol], "mu-apply": [chi, data], "wf": [data]}[command]
    grid = [] if command in ("mu-apply", "wf") else ["--grid-n", "16", "--grid-R", R]
    out = tmp_path / "out"
    assert cli.main([command, *map(str, inputs), *grid, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"R must be finite, with finite steps 2R/n and pi/R, got {float(R)}" in err, err
    assert not (out / "manifest.json").exists()
