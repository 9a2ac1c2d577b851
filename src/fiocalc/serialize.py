"""Deterministic artifact I/O: CSV for sampled data, JSON for reports and
specs, 8-bit PGM rasters for phase-space magnitude maps, and a SHA-256
manifest over an output directory.

All writers emit byte-identical output for identical input: floats are
rendered with repr (shortest round-trip form), JSON keys are sorted, and
newlines are always LF.  Field CSVs format coordinates once per axis value.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

import numpy as np

from .fio import FioSpec
from .grids import GridFunction, GridSpec, SizeGuardError
from .phases import phase_from_dict, phase_to_dict
from .symbols import ShubinSymbol
from .symplectic import SymplecticMatrix


def _fmt(v) -> str:
    return repr(float(v))


def _samples(values) -> list:
    """'re,im' of each complex value, in C order."""
    vals = np.asarray(values, dtype=complex).reshape(-1)
    return [f"{re!r},{im!r}" for re, im in zip(vals.real.tolist(), vals.imag.tolist())]


# -- grid functions ---------------------------------------------------------


def grid_function_to_csv(f: GridFunction, path: str) -> None:
    """Header line d,n,R then one row index,re,im per sample."""
    lines = [f"{f.spec.d},{f.spec.n},{_fmt(f.spec.R)}"]
    lines += [f"{i},{s}" for i, s in enumerate(_samples(f.values))]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def grid_function_from_csv(path: str) -> GridFunction:
    """Read a grid function written by grid_function_to_csv.  Every row index
    in 0..n^d - 1 must appear exactly once; anything else is a ValueError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 3:
            raise ValueError(f"{path}: header {','.join(header)!r} is not d,n,R")
        d, n, R = int(header[0]), int(header[1]), float(header[2])
        spec = GridSpec(d, n, R)
        SizeGuardError.check(n**d)
        vals = np.zeros(n**d, dtype=complex)
        seen = np.zeros(n**d, dtype=bool)
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            idx, re, im = line.split(",")
            i = int(idx)
            if not 0 <= i < vals.size:
                raise ValueError(f"{path}: row index {i} outside 0..{vals.size - 1}")
            if seen[i]:
                raise ValueError(f"{path}: duplicate row index {i}")
            seen[i] = True
            vals[i] = float(re) + 1j * float(im)
    if not seen.all():
        raise ValueError(f"{path}: {int((~seen).sum())} of {vals.size} rows missing")
    return GridFunction(spec, vals)


# -- phase space fields -----------------------------------------------------


def field_to_csv(field, path: str) -> None:
    """Coordinate columns (one per axis of a Field4D, position axes first)
    then re,im; rows iterate over the grid in C order."""
    k = len(field.axes)
    names = [f"x{i}" for i in range(k // 2)] + [f"xi{i}" for i in range(k - k // 2)]
    coords = itertools.product(*[[_fmt(v) for v in a] for a in field.axes])
    lines = [",".join(names + ["re", "im"])]
    lines += [f"{','.join(c)},{s}" for c, s in zip(coords, _samples(field.values))]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


PGM_LOG_MIN, PGM_LOG_MAX = -8.0, 0.0  # log10 range of the PGM color scale


def field_to_pgm(values: np.ndarray, path: str, comment: str) -> None:
    """8-bit PGM of log10(|values| / peak) on a fixed color scale.

    The magnitude is normalized by its peak, mapped through log10, clipped
    to [PGM_LOG_MIN, PGM_LOG_MAX] and linearly scaled to 0..255 (255 =
    peak).  The first axis renders as rows top to bottom.  The single-line
    comment (the run configuration) goes into the PGM header.
    """
    mag = np.abs(np.asarray(values))
    if mag.ndim != 2:
        raise ValueError("PGM export needs a 2-d array")
    peak = mag.max()
    if peak <= 0 or not np.isfinite(peak):
        levels = np.zeros(mag.shape, dtype=np.uint8)
    else:
        with np.errstate(divide="ignore"):
            logs = np.log10(np.where(mag > 0, mag / peak, 0.0))
        logs = np.clip(logs, PGM_LOG_MIN, PGM_LOG_MAX)
        levels = np.rint(255.0 * (logs - PGM_LOG_MIN) / (PGM_LOG_MAX - PGM_LOG_MIN))
        levels = levels.astype(np.uint8)
    rows, cols = levels.shape
    header = f"P5\n# {comment}\n{cols} {rows}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(levels.tobytes())


def append_config_comment(path: str, config: dict) -> None:
    """Append the run configuration to a CSV artifact as a '#' comment line;
    readers skip comment lines."""
    line = "# config " + json.dumps(_jsonable(config), sort_keys=True)
    with open(path, "a", newline="\n") as fh:
        fh.write(line + "\n")


# -- JSON -------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not np.isfinite(v):
            return repr(v)
        return v
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def json_dumps(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def write_json(obj, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json_dumps(obj))


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# -- operator specs ---------------------------------------------------------


def symplectic_to_list(chi: SymplecticMatrix) -> list:
    return chi.entries.tolist()


def symplectic_from_list(entries) -> SymplecticMatrix:
    """The matrix of a list of rows; anything else is a ValueError."""
    try:
        M = np.asarray(entries, dtype=float)
    except TypeError as exc:
        raise ValueError(f"malformed matrix: {exc}") from exc
    if M.ndim != 2:
        raise ValueError(f"a symplectic matrix is a list of rows, got {M.ndim} dimensions")
    return SymplecticMatrix(M.shape[0] // 2, M)


def fio_spec_to_dict(spec: FioSpec) -> dict:
    """JSON form of an operator spec.

    Only symbols given as ShubinSymbol instances serialize; callables (for
    example symbols recovered from sampled kernels) are rejected.
    """
    out = {"form": spec.form, "order": spec.order, "rho": spec.rho}
    if spec.form == "oscillatory":
        out["phase"] = phase_to_dict(spec.phase)
        if not isinstance(spec.amplitude, ShubinSymbol):
            raise ValueError("amplitude must be a ShubinSymbol to serialize")
        out["amplitude"] = spec.amplitude.to_dict()
    else:
        if not isinstance(spec.b, ShubinSymbol):
            raise ValueError("symbol b must be a ShubinSymbol to serialize")
        out["b"] = spec.b.to_dict()
        out["chi"] = symplectic_to_list(spec.chi)
    return out


def fio_spec_from_dict(data: dict) -> FioSpec:
    """The spec of a JSON object written by fio_spec_to_dict; any other input
    is a ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"an operator spec is a JSON object, got {type(data).__name__}")
    form = data["form"]
    try:
        order = float(data["order"])
        rho = float(data["rho"])
    except TypeError as exc:
        raise ValueError(f"malformed operator spec: {exc}") from exc
    if form == "oscillatory":
        return FioSpec(
            form, order, rho,
            phase=phase_from_dict(data["phase"]),
            amplitude=ShubinSymbol.from_dict(data["amplitude"]),
        )
    return FioSpec(
        form, order, rho,
        b=ShubinSymbol.from_dict(data["b"]),
        chi=symplectic_from_list(data["chi"]),
    )


# -- manifest ---------------------------------------------------------------


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(directory: str) -> dict:
    """List every file under the directory (except manifest.json itself)
    with its SHA-256, write manifest.json there, and return the mapping."""
    entries = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            full = os.path.join(root, name)
            rel = os.path.relpath(full, directory)
            if rel == "manifest.json":
                continue
            entries[rel.replace(os.sep, "/")] = sha256_file(full)
    manifest = {"files": dict(sorted(entries.items()))}
    write_json(manifest, os.path.join(directory, "manifest.json"))
    return manifest
