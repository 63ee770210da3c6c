"""The benchmark's workloads: the CLI calls each one makes and the checks on their outputs.

A workload sample runs its CLI calls for one CLI seed into a fresh output
directory.  Its check returns one ``(operation, ok)`` pair per operation: one
per CSV row or report certificate, plus one per CLI exit code.  The checks
hold for every seed, so a failure is a defect, not bad luck.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Check = list[tuple[str, bool]]

# `extend_noisy` solves one grid point per call; each call draws its own noise.
NOISY_V = "0.4"
# `sweep` runs the default certificate tasks on the default grid.
SWEEP_V_GRID = "0:0.05:0.5"
SWEEP_TASKS = ("ppt", "distill", "fef", "chsh", "dc", "tomo")
SWEEP_DC_ROWS = 15  # the dc task runs the default --d-grid 2:1:16
# `sweep` then restarts the steering see-saw this often per state.
SR_RESTARTS = "16"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[int, Path], list[list[str]]]
    check: Callable[[Path, list], Check]


def _rows(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return []


def _finite(text) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def _exits(codes: list, names: list[str]) -> Check:
    return [(f"{name} exit 0", code == 0) for name, code in zip(names, codes)]


def _padded(ops: Check, expected: int, label: str) -> Check:
    """Count rows a crashed call never wrote as failed operations."""
    return ops + [(f"{label} missing row", False)] * max(expected - len(ops), 0)


# --- pipeline ----------------------------------------------------------------------


def _pipeline_commands(seed: int, out: Path) -> list[list[str]]:
    # At v=0.1, `--strict` fails its filtered dense-coding check on about half
    # of the seeds (the default noise moves the state across the boundary), so
    # the pipeline runs at its default v=0.
    return [["pipeline", "--strict", "--seed", str(seed), "--out", str(out / "report.json")]]


def _check_pipeline(out: Path, codes: list) -> Check:
    ops = _exits(codes, ["pipeline --strict"])
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError):
        report = None
    names = [("unfiltered", c) for c in ("ppt", "one_distillable", "fef", "dense_coding", "gurvits_ball")]
    names += [("filtered", c) for c in ("chsh", "dense_coding", "gurvits_ball")]
    for side, cert in names:
        value = report[side]["certificates"][cert]["value"] if report else None
        ok = _finite(value) and (cert != "chsh" or value > 2.0)
        ops.append((f"{side} {cert} certificate", ok))
    fef2 = report["filtered"]["fef2_exact"] if report else None
    ops.append(("filtered fef2_exact > 1/2", _finite(fef2) and fef2 > 0.5))
    for side in ("unfiltered", "filtered"):
        sr = report[side]["steering_robustness"] if report else None
        ops.append((f"{side} steering robustness >= 0", _finite(sr) and sr >= 0.0))
    return ops


# --- extend_noisy ------------------------------------------------------------------


def _extend_noisy_commands(seed: int, out: Path) -> list[list[str]]:
    return [["extend-table", "--d", "3", "--k-list", "2", "--flavors", "SE,SQE,SE_B", "--noisy",
             "--v-grid", NOISY_V, "--seed", str(seed), "--out", str(out)]]


def _check_extend_noisy(out: Path, codes: list) -> Check:
    rows = _rows(out / "extend_table_d3.csv")
    t_star: dict[str, dict[str, float]] = {}
    for r in rows:
        t_star.setdefault(r["v"], {})[r["flavor"]] = float(r["t_star"])
    ops = []
    for r in rows:
        t = t_star[r["v"]]
        ordered = len(t) == 3 and t["SQE"] <= t["SE"] + 1e-6 and t["SE"] <= t["SE_B"] + 1e-6
        ok = r["status"] == "OPTIMAL" and _finite(r["t_star"]) and ordered
        ops.append((f"{r['flavor']} v={r['v']} OPTIMAL, t*_SQE <= t*_SE <= t*_SE_B", ok))
    return _exits(codes, ["extend-table"]) + _padded(ops, 3 * len(NOISY_V.split(",")), "extend_noisy")


# --- extend_large ------------------------------------------------------------------

# (d, k, flavor) -> critical weight: (1-(d-1)/k)/2 for SE, (1-1/k)/2 for SE_B.
LARGE_EXPECTED = {("3", "4", "SE"): 0.25, ("3", "4", "SE_B"): 0.375, ("5", "2", "SE_B"): 0.25}


def _extend_large_commands(seed: int, out: Path) -> list[list[str]]:
    common = ["extend-table", "--v-grid", "0", "--seed", str(seed), "--out", str(out)]
    return [
        common + ["--d", "3", "--k-list", "4", "--flavors", "SE,SE_B"],
        common + ["--d", "5", "--k-list", "2", "--flavors", "SE_B"],
    ]


def _critical_weight(t_star: float, d: int) -> float:
    """v_t = (n+/D)(t*-1)/t*, written out here so the check does not use the program's own."""
    return 0.0 if t_star <= 1.0 else (d + 1) / (2 * d) * (t_star - 1.0) / t_star


def _check_extend_large(out: Path, codes: list) -> Check:
    ops = _exits(codes, ["extend-table d=3", "extend-table d=5"])
    seen = set()
    for r in _rows(out / "extend_table_d3.csv") + _rows(out / "extend_table_d5.csv"):
        key = (r["d"], r["k"], r["flavor"])
        want = LARGE_EXPECTED.get(key)
        ok = (
            want is not None
            and r["status"] == "OPTIMAL"
            and abs(_critical_weight(float(r["t_star"]), int(r["d"])) - want) <= 2e-3
        )
        ops.append((f"{r['flavor']}({r['d']},{r['k']}) OPTIMAL, critical weight {want}", ok))
        seen.add(key)
    ops += [(f"{key} row missing", False) for key in LARGE_EXPECTED if key not in seen]
    return ops


# --- sweep -------------------------------------------------------------------------


def _sweep_commands(seed: int, out: Path) -> list[list[str]]:
    return [
        ["sweep", "--task", ",".join(SWEEP_TASKS), "--d", "3", "--v-grid", SWEEP_V_GRID,
         "--seed", str(seed), "--out", str(out)],
        ["sweep", "--task", "sr", "--v-grid", "0.1", "--restarts", SR_RESTARTS,
         "--seed", str(seed), "--out", str(out)],
    ]


def _dc_threshold(d: int) -> float | None:
    src = str(Path(__file__).resolve().parent.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from wernerlab.certify import dc_threshold

    return dc_threshold(d, tol=1e-7)


def _check_sweep(out: Path, codes: list) -> Check:
    start, step, stop = (float(x) for x in SWEEP_V_GRID.split(":"))
    n_v = round((stop - start) / step) + 1
    ops = _exits(codes, ["sweep certificates", "sweep sr"])
    for task in SWEEP_TASKS:
        rows = _rows(out / f"{task}_d3.csv")
        task_ops = []
        for r in rows:
            if task == "chsh":
                exact, found = float(r["chsh_horodecki"]), float(r["chsh_seesaw"])
                ok = found <= exact + 1e-6 and abs(found - exact) <= 1e-3
                label = f"chsh v={r['v']} seesaw <= horodecki, within 1e-3"
            elif task == "dc":
                want = _dc_threshold(int(r["d"]))
                ok = want is not None and abs(float(r["v_dc"]) - want) <= 1e-9
                label = f"dc d={r['d']} v_dc matches dc_threshold"
            else:
                value = {"ppt": "min_eig", "distill": "value", "fef": "fef", "tomo": "fidelity"}[task]
                ok = _finite(r[value])
                label = f"{task} v={r['v']} finite {value}"
            task_ops.append((label, ok))
        ops += _padded(task_ops, SWEEP_DC_ROWS if task == "dc" else n_v, task)
    sr = [(f"sr row filtered={r['filtered']}", _finite(r["SR"]) and float(r["SR"]) >= 0.0)
          for r in _rows(out / "sr_d3.csv")]
    return ops + _padded(sr, 2, "sr")


# The first two are the ones BENCHMARK.json lists.  `pipeline` and
# `extend_noisy` swing too much from seed to seed for a run's median to be
# steady (bench/README.md); use them with --compare, which pairs runs by seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            "certificates, Bell see-saw and MLE with no solve, then about 80 small cold steering SDPs: "
            "see-saw rounds, MLE and solver set-up dominate",
            _sweep_commands,
            _check_sweep,
        ),
        Workload(
            "extend_large",
            "a few solves on a 243-side PSD block plus the dense bosonic builder: "
            "per-iteration projection and program build dominate",
            _extend_large_commands,
            _check_extend_large,
        ),
        Workload(
            "pipeline",
            "the default noisy pipeline: tomography, bootstrap MLE, certificates and the steering "
            "see-saw on reconstructed states",
            _pipeline_commands,
            _check_pipeline,
        ),
        Workload(
            "extend_noisy",
            "small noisy SE/SQE/SE_B extension SDPs that need thousands of iterations: "
            "iteration count dominates",
            _extend_noisy_commands,
            _check_extend_noisy,
        ),
    )
}
