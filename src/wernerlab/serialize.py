"""JSON serialization for states: ``tomo-demo`` writes its reconstruction with it.

States travel as ``{"dimA": .., "dimB": .., "entries": [[re, im], ...]}``
in row-major order.  Python's float repr is shortest-round-trip, so dumps
are lossless at 17 significant digits.
"""

from __future__ import annotations

import json

import numpy as np

from .qmat import DensityMatrix


def state_to_json(rho: DensityMatrix) -> str:
    entries = [[float(z.real), float(z.imag)] for z in rho.mat.ravel()]
    return json.dumps({"dimA": rho.dimA, "dimB": rho.dimB, "entries": entries})


def state_from_json(text: str) -> DensityMatrix:
    obj = json.loads(text)
    if not isinstance(obj, dict) or not {"dimA", "dimB", "entries"} <= obj.keys():
        raise ValueError("a state must be a JSON object with keys dimA, dimB and entries")
    dims, entries = (obj["dimA"], obj["dimB"]), obj["entries"]
    if not all(type(n) is int and n > 0 for n in dims):
        raise ValueError(f"dimA and dimB must be positive integers, got {dims}")
    if not isinstance(entries, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(type(x) in (int, float) for x in pair) for pair in entries
    ):
        raise ValueError("entries must be a list of [re, im] pairs of numbers")
    d = dims[0] * dims[1]
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    if flat.size != d * d:
        raise ValueError("entry count does not match matrix shape")
    return DensityMatrix(*dims, flat.reshape(d, d))
