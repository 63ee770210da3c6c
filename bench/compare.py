"""Compare two sets of benchmark records (parent and change) written by ``run.py --out``.

One row per workload and end-to-end metric, with each side's median and
quartiles over its runs.  Runs pair up by seed.  The verdict follows the
pair-win rule: a gain needs the change to win at least nine tenths of the
pairs (ties count for neither) and the medians to differ by more than the
parent's quartile spread.  A change median worse than the parent's by more
than the metric's bound is a regression; a parent spread wider than the bound
leaves the metric unresolved unless every change run beats every parent run.
Traced records add one row per per-layer metric, medians only.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _load(directory: str) -> dict[tuple[str, int], dict[int, dict]]:
    groups: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        groups.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return groups


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict[int, float], change: dict[int, float], lower_better: bool, bound: float) -> str:
    """The pair-win verdict for one metric on one workload; runs are keyed by seed."""
    def better(a, b):
        return a < b if lower_better else a > b

    p_q1, p_med, p_q3 = _quartiles(list(parent.values()))
    _, c_med, _ = _quartiles(list(change.values()))
    pairs = [seed for seed in parent if seed in change]
    wins = sum(better(change[s], parent[s]) for s in pairs)
    losses = sum(better(parent[s], change[s]) for s in pairs)
    tally = f"{wins}W/{losses}L/{len(pairs) - wins - losses}T"
    if pairs and wins >= 0.9 * len(pairs) and better(c_med, p_med) and abs(c_med - p_med) > p_q3 - p_q1:
        return f"gain ({tally})" if len(pairs) >= 10 else f"gain, but fewer than 10 pairs ({tally})"
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound:
        if all(better(c, p) for c in change.values() for p in parent.values()):
            return f"better in every run ({tally})"
        return f"unresolved: parent spread exceeds bound {bound} ({tally})"
    worse = (c_med - p_med) if lower_better else (p_med - c_med)
    if p_med and worse / abs(p_med) > bound:
        return f"REGRESSION beyond bound {bound} ({tally})"
    return f"within bound {bound} ({tally})"


def tail_text(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, and the sample count."""
    n = len(walls)
    if n < 11:
        return f"{n} samples, too few for a tail percentile"
    return f"p{100 * (n - 10) / n:.0f}={sorted(walls)[n - 11]:.4g} s over {n} samples"


def _walls(records: dict[int, dict]) -> list[float]:
    return [s["wall_s"] for r in records.values() for s in r["samples"] if s["wall_s"] is not None]


def compare(parent_dir: str, change_dir: str, spec: dict) -> str:
    parent, change = _load(parent_dir), _load(change_dir)
    lines = ["workload | metric | parent median [q1, q3] | change median [q1, q3] | verdict"]

    def fmt(values):
        q1, med, q3 = _quartiles(values)
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    for (workload, trace) in sorted(k for k in parent if k in change):
        p_recs, c_recs = parent[(workload, trace)], change[(workload, trace)]
        if trace:
            keys = sorted(set().union(*(r["metrics"] for r in p_recs.values())))
            for key in keys:
                p = [r["metrics"][key]["value"] for r in p_recs.values() if key in r["metrics"]]
                c = [r["metrics"][key]["value"] for r in c_recs.values() if key in r["metrics"]]
                if p and c:
                    lines.append(f"{workload} | {key} (traced) | {fmt(p)} | {fmt(c)} | per-layer, no bound")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = {s: r["metrics"][name]["value"] for s, r in p_recs.items()}
            c = {s: r["metrics"][name]["value"] for s, r in c_recs.items()}
            v = verdict(p, c, metric["better"] == "lower", metric["bound"])
            lines.append(f"{workload} | {name} ({metric['unit']}) | {fmt(list(p.values()))} | "
                         f"{fmt(list(c.values()))} | {v}")
        failed = [sum(r["failed"] for r in recs.values()) for recs in (p_recs, c_recs)]
        attempted = [sum(r["attempted"] for r in recs.values()) for recs in (p_recs, c_recs)]
        lines.append(f"{workload} | failed_frac | {failed[0]}/{attempted[0]} | {failed[1]}/{attempted[1]} | "
                     f"wall_s tail: parent {tail_text(_walls(p_recs))}, change {tail_text(_walls(c_recs))}")
    return "\n".join(lines)
