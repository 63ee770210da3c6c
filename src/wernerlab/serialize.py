"""JSON serialization for states and filters, and the matrix entry lists ``steer`` reuses.

Matrices travel as ``{"dimA": .., "dimB": .., "entries": [[re, im], ...]}``
in row-major order.  Python's float repr is shortest-round-trip, so dumps
are lossless at 17 significant digits.  Certificates serialize in
``certify.Certificate.to_json``; assemblage and correlation JSON live in ``steer``.
"""

from __future__ import annotations

import json

import numpy as np

from .qmat import DensityMatrix


def matrix_to_obj(mat: np.ndarray) -> list[list[float]]:
    flat = np.asarray(mat, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def matrix_from_obj(entries: list[list[float]], rows: int, cols: int) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    if flat.size != rows * cols:
        raise ValueError("entry count does not match matrix shape")
    return flat.reshape(rows, cols)


def state_to_json(rho: DensityMatrix) -> str:
    return json.dumps({"dimA": rho.dimA, "dimB": rho.dimB, "entries": matrix_to_obj(rho.mat)})


def state_from_json(text: str) -> DensityMatrix:
    obj = json.loads(text)
    d = obj["dimA"] * obj["dimB"]
    return DensityMatrix(obj["dimA"], obj["dimB"], matrix_from_obj(obj["entries"], d, d))


def filter_to_json(mat: np.ndarray, side: str) -> str:
    r, c = mat.shape
    return json.dumps({"rows": r, "cols": c, "side": side, "entries": matrix_to_obj(mat)})


def filter_from_json(text: str) -> tuple[np.ndarray, str]:
    obj = json.loads(text)
    return matrix_from_obj(obj["entries"], obj["rows"], obj["cols"]), obj["side"]
