import json
import os

import numpy as np
import pytest

from fiocalc.fio import FioSpec
from fiocalc.gabor import Field4D
from fiocalc.grids import GridFunction, GridSpec, hermite_grid_function
from fiocalc.phases import phase_from_free_matrix
from fiocalc.serialize import (
    append_config_comment,
    field_to_csv,
    field_to_pgm,
    fio_spec_from_dict,
    fio_spec_to_dict,
    grid_function_from_csv,
    grid_function_to_csv,
    json_dumps,
    read_json,
    sha256_file,
    symplectic_from_list,
    symplectic_to_list,
    write_json,
    write_manifest,
)
from fiocalc.symbols import custom_symbol, gaussian_symbol, harmonic_oscillator_symbol
from fiocalc.symplectic import standard_j
from pgm_reader import read_pgm


def test_grid_function_csv_round_trip_is_exact(tmp_path):
    g = GridSpec(1, 64, 8.0)
    u = hermite_grid_function(g, [3])
    path = tmp_path / "u.csv"
    grid_function_to_csv(u, str(path))
    back = grid_function_from_csv(str(path))
    assert back.spec == g
    assert np.array_equal(back.values, u.values)


def test_csv_header_carries_grid_geometry(tmp_path):
    g = GridSpec(2, 16, 5.0)
    u = GridFunction(g, np.arange(256, dtype=complex))
    path = tmp_path / "k.csv"
    grid_function_to_csv(u, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "2,16,5.0"


def test_config_comment_is_ignored_by_reader(tmp_path):
    g = GridSpec(1, 16, 4.0)
    u = GridFunction(g, np.ones(16, dtype=complex))
    path = tmp_path / "u.csv"
    grid_function_to_csv(u, str(path))
    append_config_comment(str(path), {"command": "test", "seed": 1})
    back = grid_function_from_csv(str(path))
    assert np.array_equal(back.values, u.values)
    assert "# config" in path.read_text()


def test_field_csv_lists_coordinates(tmp_path):
    ax = np.array([0.0, 1.0])
    field = Field4D((ax, ax), np.arange(4, dtype=complex).reshape(2, 2))
    path = tmp_path / "f.csv"
    field_to_csv(field, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].endswith("re,im")
    assert len(lines) == 5


def test_pgm_round_trip_and_scale(tmp_path):
    mag = np.array([[1.0, 0.1], [1e-9, 0.0]])
    path = tmp_path / "m.pgm"
    field_to_pgm(mag, str(path), comment="config {}")
    lev = read_pgm(path)
    assert lev.shape == (2, 2)
    assert lev[0, 0] == 255  # the peak
    assert lev[1, 0] == 0  # below the fixed floor
    assert 0 < lev[0, 1] < 255


def test_json_writer_is_deterministic_and_sorted(tmp_path):
    payload = {"b": np.float64(2.0), "a": np.arange(3), "nan": float("nan")}
    s1 = json_dumps(payload)
    s2 = json_dumps({"a": np.arange(3), "nan": float("nan"), "b": np.float64(2.0)})
    assert s1 == s2
    assert json.loads(s1)["nan"] == "nan"


def test_symplectic_list_round_trip():
    chi = standard_j(2)
    back = symplectic_from_list(symplectic_to_list(chi))
    assert back.d == 2
    assert np.array_equal(back.entries, chi.entries)


def test_spec_round_trip_both_forms():
    fac = FioSpec("factored", 2.0, 1.0, b=harmonic_oscillator_symbol(2),
                  chi=standard_j(1))
    back = fio_spec_from_dict(fio_spec_to_dict(fac))
    assert back.form == "factored" and back.order == 2.0
    assert np.allclose(back.chi.entries, fac.chi.entries)
    osc = FioSpec("oscillatory", 0.0, 1.0,
                  phase=phase_from_free_matrix(standard_j(1)),
                  amplitude=gaussian_symbol(2))
    back = fio_spec_from_dict(fio_spec_to_dict(osc))
    assert back.form == "oscillatory"
    assert np.allclose(back.chi.entries, osc.chi.entries)


def test_spec_with_callable_symbol_does_not_serialize():
    spec = FioSpec("factored", 0.0, 1.0,
                   b=custom_symbol(2, 0.0, 1.0, lambda z: np.ones(z.shape[:-1])),
                   chi=standard_j(1))
    with pytest.raises(ValueError):
        fio_spec_to_dict(spec)


def test_manifest_covers_all_files(tmp_path):
    write_json({"x": 1}, str(tmp_path / "a.json"))
    write_json({"y": 2}, str(tmp_path / "b.json"))
    manifest = write_manifest(str(tmp_path))
    assert set(manifest["files"]) == {"a.json", "b.json"}
    listed = read_json(str(tmp_path / "manifest.json"))
    assert listed["files"]["a.json"] == sha256_file(str(tmp_path / "a.json"))
    assert "manifest.json" not in listed["files"]
