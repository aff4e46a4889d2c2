"""JSON wire formats shared by the library and the command line.

Matrices:   {"rows": n, "cols": m, "data": [[re, im], ...]} row-major.
Subspaces:  {"d": n, "vectors": [[[re, im], ...], ...]}; spanning vectors,
            not necessarily orthonormal -- the loader orthonormalizes.
Vectors reuse the matrix format with one column.
"""

from __future__ import annotations

import cmath
import json

import numpy as np

from .errors import ParseError
from .lattice import Subspace
from .numerics import as_matrix
from .tolerances import DEFAULT, Tolerance


def _complex_entries(data, count: int, what: str) -> list[complex]:
    """Exactly `count` finite [re, im] pairs, or ParseError."""
    if not isinstance(data, list):
        raise ParseError(f"{what} entries must be a list, got {type(data).__name__}")
    if len(data) != count:
        raise ParseError(f"{what}: expected {count} entries, got {len(data)}")
    try:
        values = [complex(re, im) for re, im in data]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad {what} entry: {exc}") from exc
    if not all(cmath.isfinite(z) for z in values):
        raise ParseError(f"{what} has non-finite entries")
    return values


def matrix_to_json(M) -> dict:
    M = as_matrix(M)
    rows, cols = M.shape
    data = [[float(x.real), float(x.imag)] for x in M.reshape(-1)]
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix object: {exc}") from exc
    if rows < 1 or cols < 0:
        raise ParseError(f"bad matrix shape {rows}x{cols}")
    flat = _complex_entries(data, rows * cols, "matrix")
    return np.array(flat, dtype=complex).reshape(rows, cols)


def subspace_to_json(H: Subspace) -> dict:
    vectors = [[[float(x.real), float(x.imag)] for x in H.basis[:, j]]
               for j in range(H.rank)]
    return {"d": H.dim_ambient, "vectors": vectors}


def subspace_from_json(obj, tol: Tolerance = DEFAULT) -> Subspace:
    try:
        d = int(obj["d"])
        vectors = obj["vectors"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad subspace object: {exc}") from exc
    if d < 1:
        raise ParseError(f"bad dimension {d}")
    if not isinstance(vectors, list):
        raise ParseError(f"vectors must be a list, got {type(vectors).__name__}")
    if not vectors:
        return Subspace.zero(d)
    V = np.array([_complex_entries(vec, d, "vector") for vec in vectors], dtype=complex).T
    return Subspace.from_vectors(V, tol)


def vector_from_json(obj) -> np.ndarray:
    M = matrix_from_json(obj)
    if M.shape[1] != 1:
        raise ParseError(f"expected a single column, got {M.shape[1]}")
    return M.reshape(-1)


def report_record(name: str, residual: float, tolerance: float) -> dict:
    return {"name": name, "residual": residual, "tolerance": tolerance,
            "pass": bool(residual <= tolerance)}


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def dump_json(obj, path: str | None = None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
