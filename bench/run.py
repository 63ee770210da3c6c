#!/usr/bin/env python3
"""wernerlab benchmark: run one workload for a fixed time, check it, print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload, one table
    python3 bench/run.py --workload extend_large --seed 1 --out bench-results/parent
    python3 bench/run.py --compare bench-results/parent bench-results/change

Every CLI call runs ``wernerlab.cli.main`` in a fresh interpreter
(``bench/child.py``), one call at a time (a closed loop with one client), with
BLAS pinned to one thread.  A run draws CLI seeds from ``--seed`` and runs
workload samples until the next one would end more than half a sample after
``--seconds``; it always runs at least one.  ``--trace 1`` alternates
untraced and traced samples of the first CLI seed and reports the per-layer
metrics instead.  The last line of standard output is the JSON result; see
bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from compare import compare, tail_text  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
SETUP_PROBES = 3  # import-only processes per run, besides the one each CLI call gives
DEADLINE_S = 170.0  # a run must exit within 180 s


class BenchError(Exception):
    """The benchmark cannot run in this checkout, so it prints no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Spawns child processes into one scratch directory and enforces the run deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def child(self, argv: list[str], trace: bool) -> dict:
        self.count += 1
        result = self.work / f"child{self.count}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(result), str(int(trace)), *argv]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=self.work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(self.deadline - spawned, 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{' '.join(argv) or 'import'} did not finish before the run deadline") from exc
        try:
            out = json.loads(result.read_text())
        except (OSError, ValueError):
            tail = proc.stderr.strip().splitlines()[-5:]
            return {"rc": proc.returncode, "error": "\n".join(tail) or "no result written", "spans": []}
        out["setup_s"] = out["ready"] - spawned
        if out["error"]:
            out["rc"] = None
        return out

    def sample(self, workload, cli_seed: int, trace: bool) -> dict:
        out_dir = Path(tempfile.mkdtemp(dir=self.work))
        calls = [self.child(argv, trace) for argv in workload.commands(cli_seed, out_dir)]
        codes = [c.get("rc") for c in calls]
        ops = workload.check(out_dir, codes)
        shutil.rmtree(out_dir)
        errors = [c["error"] for c in calls if c.get("error")]
        spans = []
        for c in calls:  # one span list per call; re-index parents after concatenation
            base = len(spans)
            spans += [[n, s, e, p + base if p >= 0 else -1, a] for n, s, e, p, a in c["spans"]]
        complete = all("wall_s" in c and c["wall_s"] is not None for c in calls)
        return {
            "cli_seed": cli_seed,
            "trace": trace,
            "wall_s": sum(c["wall_s"] for c in calls) if complete else None,
            "setup_s": [c["setup_s"] for c in calls if "setup_s" in c],
            "rss_mb": max((c.get("rss_mb", 0.0) for c in calls), default=0.0),
            "failed_ops": [name for name, ok in ops if not ok],
            "attempted": len(ops),
            "errors": errors,
            "spans": spans,
        }


def cli_seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def environment(seed: int, versions: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        **versions,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One run: set-up probes, then timed samples until ``seconds`` are used up."""
    workload = WORKLOADS[name]
    if not (SRC / "wernerlab" / "__init__.py").is_file():
        raise BenchError(f"no wernerlab sources under {SRC}")
    runner = Runner(work)
    warm = runner.child([], False)  # fills bytecode caches before set-up is timed
    if "versions" not in warm:
        raise BenchError(f"cannot import wernerlab from {SRC}: {warm['error'].strip().splitlines()[-1]}")
    setup = [runner.child([], False)["setup_s"] for _ in range(SETUP_PROBES)]
    seeds = cli_seeds(name, seed)
    first_seed = next(seeds)
    samples, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        if trace:
            samples += [runner.sample(workload, first_seed, False), runner.sample(workload, first_seed, True)]
        else:
            samples.append(runner.sample(workload, first_seed if not samples else next(seeds), False))
        durations.append(time.monotonic() - t0)
        # stop when the next sample would end more than half a sample past `seconds`
        if time.monotonic() - start + statistics.median(durations) / 2 > seconds:
            break
        if time.monotonic() + 2 * max(durations) > runner.deadline:
            break
    if not all(any(s["wall_s"] is not None for s in samples if s["trace"] == flag) for flag in {False, trace}):
        errors = [e for s in samples for e in s["errors"]] or ["no output"]
        raise BenchError(f"no {name} sample completed: {errors[0].strip().splitlines()[-1]}")
    for s in samples:
        setup += s["setup_s"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed, warm["versions"]),
        "setup_samples": setup,
        "samples": samples,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(len(s["failed_ops"]) for s in samples),
    }
    record["correct"] = record["failed"] == 0 and all(s["wall_s"] is not None for s in samples)
    record["metrics"] = trace_metrics(samples) if trace else end_to_end(samples, setup)
    return record


def end_to_end(samples: list[dict], setup: list[float]) -> dict:
    walls = [s["wall_s"] for s in samples if s["wall_s"] is not None]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(s["rss_mb"] for s in samples), "unit": "MB"},
    }


UNITS = {"calls": "count", "iters": "count", "not_optimal": "count", "queries": "count",
         "sr_solves": "count", "mle_calls": "count", "mle_iters": "count", "max_psd_n": "count",
         "iters_per_call": "iter/call", "solves_per_restart": "solve/restart", "ms_per_iter": "ms"}


def trace_metrics(samples: list[dict]) -> dict:
    traced = [layer_metrics(s["spans"]) for s in samples if s["trace"] and s["wall_s"] is not None]
    metrics = {}
    for key in traced[0]:
        unit = UNITS.get(key.split(".", 1)[1], "s")
        metrics[key] = {"value": statistics.median(t[key] for t in traced), "unit": unit}
    walls = {flag: [s["wall_s"] for s in samples if s["trace"] == flag and s["wall_s"] is not None]
             for flag in (False, True)}
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def summary(record: dict) -> list[str]:
    walls = [s["wall_s"] for s in record["samples"] if s["wall_s"] is not None]
    lines = [
        f"# {record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"wall_s {tail_text(walls)}, setup over {len(record['setup_samples'])} probes, "
        f"failed_frac {record['failed']}/{record['attempted']}",
        "# env " + json.dumps(record["env"], sort_keys=True),
    ]
    for key, m in record["metrics"].items():
        lines.append(f"#   {key:<24} {m['value']:.6g} {m['unit']}")
    for s in record["samples"]:
        for op in s["failed_ops"]:
            lines.append(f"# FAILED cli_seed={s['cli_seed']}: {op}")
        for err in s["errors"]:
            lines.append(f"# ERROR cli_seed={s['cli_seed']}: {err.strip().splitlines()[-1]}")
    return lines


def save(record: dict, out_dir: str) -> None:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (path / name).write_text(json.dumps(record) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write each run's full record (samples, env) to this directory")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two directories of records written with --out")
    args = parser.parse_args(argv)
    if args.compare:
        print(compare(*args.compare, json.loads((ROOT / "BENCHMARK.json").read_text())))
        return 0
    if not args.workload:
        parser.error("--workload or --compare is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    work_root = ROOT / ".bench_run"
    work_root.mkdir(exist_ok=True)
    try:
        for name in names:
            with tempfile.TemporaryDirectory(dir=work_root) as work:
                record = measure(name, args.seed, args.seconds, bool(args.trace), Path(work))
            print("\n".join(summary(record)), flush=True)
            if args.out:
                save(record, args.out)
            records.append(record)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        if not any(work_root.iterdir()):
            work_root.rmdir()
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
