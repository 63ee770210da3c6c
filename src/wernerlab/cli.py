"""Command-line front end: parameter sweeps, table reproduction, the
end-to-end noisy pipeline, tomography demo, and a raw conic-program runner.

Every sweep writes CSV files plus a run manifest; re-running with the same
manifest (``--replay``) reproduces each CSV byte for byte.  Floats print at 12
significant digits and every row carries the seed that produced it.  CSV
schemas are documented in SCHEMAS.md.

A failed command writes nothing; replay rejects all but sweep and extend-table manifests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import locale  # noqa: F401  argparse's gettext imports it at the first message it translates
import os
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  numpy loads it at its first use, which would put the load inside a command

from . import __version__, certify, extend, filterops, qmat, serialize, solver, states, steer, tomo

# thread settings that can change the last bits of a BLAS result, and so a CSV
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fmt(x: float) -> str:
    return f"{float(x):.12g}"


def derive_seed(global_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{global_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


def parse_grid(text: str) -> list[float]:
    """start:step:stop (stepping toward stop, including it when a step lands on it) or comma-separated values."""
    if ":" in text:
        start, step, stop = (float(t) for t in text.split(":"))
        if not np.isfinite([start, step, stop]).all() or step == 0 or (stop - start) * step < 0:
            raise ValueError(f"grid {text!r}: start, step and stop must be finite, and the step nonzero and toward stop")
        n = int((stop - start) / step + 1e-9)  # 1e-9 keeps a stop reached up to rounding, as in 0:0.1:0.3
        return [round(start + i * step, 12) for i in range(n + 1)]
    return [float(t) for t in text.split(",")]


def int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


# what a --config value that is not a string must already be, by its option's type (bool: a flag; lists nonempty)
CONFIG_TYPES = {
    int: ("an integer", lambda x: type(x) is int),
    float: ("a number", lambda x: type(x) in (int, float)),
    parse_grid: ("a list of numbers", lambda x: type(x) is list and x != [] and {*map(type, x)} <= {int, float}),
    int_list: ("a list of integers", lambda x: type(x) is list and x != [] and {*map(type, x)} <= {int}),
    bool: ("true or false", lambda x: type(x) is bool),
    None: ("a string", lambda x: type(x) is str),
}


def write_csv(path: Path, header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(c) if isinstance(c, float) else str(c) for c in row))
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


# --- sweep task implementations -------------------------------------------------


def _state_for(d, v, noisy, seed):
    ideal = states.werner(d, v)
    if not noisy:
        return ideal
    return states.noisy_surrogate(ideal, states.experiment_like_noise(v, seed=seed))


def _grid_seeds(task_seed, grid):
    """The seed of each grid point: the i-th is seeded by ``task_seed ^ i``."""
    return [task_seed ^ i for i in range(len(grid))]


def _grid_states(args, task_seed):
    """The seed and the state of each v of the grid."""
    seeds = _grid_seeds(task_seed, args.v_grid)
    return seeds, [_state_for(args.d, v, args.noisy, seed) for v, seed in zip(args.v_grid, seeds)]


def sweep_ppt(args, task_seed):
    seeds, rhos = _grid_states(args, task_seed)
    rows = []
    for v, seed, rho in zip(args.v_grid, seeds, rhos):
        cert = certify.ppt_min_eig(rho)
        rows.append([args.d, float(v), seed, cert.value, cert.verdict])
    return ["d", "v", "seed", "min_eig", "verdict"], rows


def _closed_form_or_search(rhos, seeds, closed_form, search):
    """``closed_form``'s result for each state where it has one, else that of one ``search(rhos, seeds)``
    call over the rest, which seeds each row alone, so its bits do not depend on the other rows."""
    found = [closed_form(rho) for rho in rhos]
    rest = [i for i, res in enumerate(found) if res is None]
    searched = iter(search([rhos[i] for i in rest], [seeds[i] for i in rest]) if rest else [])
    return [next(searched) if res is None else res for res in found]


def sweep_distill(args, task_seed):
    states.check_restarts(args.restarts)  # whichever way the rows are answered
    seeds, rhos = _grid_states(args, task_seed)
    search = partial(certify.one_distillable_many, restarts=args.restarts)
    certs = _closed_form_or_search(rhos, seeds, certify.one_distillable_closed_form, search)
    rows = [
        [args.d, float(v), seed, cert.value, cert.verdict, args.restarts]
        for v, seed, cert in zip(args.v_grid, seeds, certs)
    ]
    return ["d", "v", "seed", "value", "verdict", "restarts"], rows


def sweep_fef(args, task_seed):
    states.check_restarts(args.restarts)  # whichever way the rows are answered
    seeds, rhos = _grid_states(args, task_seed)
    certs = _closed_form_or_search(rhos, seeds, certify.fef_closed_form, partial(certify.fef_many, restarts=args.restarts))
    rows = []
    for v, seed, cert in zip(args.v_grid, seeds, certs):
        filtered_f2 = certify.fef2_exact(filterops.rotated_filtered_state(v)) if args.d == 3 else float("nan")
        rows.append([args.d, float(v), seed, cert.value, 1.0 / args.d, filtered_f2])
    return ["d", "v", "seed", "fef", "threshold", "filtered_f2"], rows


def sweep_chsh(args, task_seed):
    seeds = _grid_seeds(task_seed, args.v_grid)
    rhos = [filterops.rotated_filtered_state(v) for v in args.v_grid]
    found = steer.seesaw_bell_many(rhos, steer.chsh_coefficients(), seeds, restarts=args.restarts)
    rows = [
        [float(v), seed, certify.chsh_horodecki(rho_f).value, value]
        for v, seed, rho_f, value in zip(args.v_grid, seeds, rhos, found)
    ]
    return ["v", "seed", "chsh_horodecki", "chsh_seesaw"], rows


def sweep_sr(args, task_seed):
    """Werner then filtered row per v, both with that v's seed; every row is checked before any is answered."""
    keys = [(v, seed, f) for v, seed in zip(args.v_grid, _grid_seeds(task_seed, args.v_grid)) for f in (0, 1)]
    rhos = []
    for v, _, filtered in keys:
        rhos.append(filterops.rotated_filtered_state(v) if filtered else states.werner(3, v))
        steer.check_seesaw_args(rhos[-1], args.n_settings, args.restarts, args.sdp_tol, args.max_rounds)
    kw = {"restarts": args.restarts, "sdp_tol": args.sdp_tol, "max_rounds": args.max_rounds}
    found = _closed_form_or_search(
        rhos, [seed for _, seed, _ in keys], lambda rho: steer.sr_closed_form(rho, args.n_settings),
        lambda rhos, seeds: [steer.sr_state_lower_bound(r, args.n_settings, seed=s, **kw) for r, s in zip(rhos, seeds)],
    )
    rows = [
        [float(v), args.n_settings, filtered, res.best, res.best_gap, args.restarts, seed]
        for (v, seed, filtered), res in zip(keys, found)
    ]
    return ["v", "n_s", "filtered", "SR", "gap", "restarts", "seed"], rows


def sweep_dc(args, task_seed):
    seeds = _grid_seeds(task_seed, args.d_grid)
    rows = [[int(d), seed, certify.dc_threshold(int(d), tol=1e-7)] for d, seed in zip(args.d_grid, seeds)]
    return ["d", "seed", "v_dc"], rows


def _extend_rows(args, flavors, seed_of):
    """One row per flavor, k and v; ``seed_of(k, i)`` seeds the noisy state at the i-th v."""
    if len(set(flavors)) < len(flavors) or len(set(args.k_list)) < len(args.k_list):
        raise ValueError(f"a flavor or a k is named more than once: flavors {flavors}, k {args.k_list}")
    rows = []
    for flavor in flavors:
        for k in args.k_list:
            for i, v in enumerate(args.v_grid):
                rho = _state_for(args.d, v, args.noisy, seed_of(k, i))
                rho = qmat.swap_parties(rho) if args.side == "A" else rho  # a query copies party B
                res = extend.run_query(extend.ExtensionQuery(rho, k, flavor), tol=args.sdp_tol)
                rows.append([args.d, k, args.side, flavor, float(v), res.t_star, res.gap, res.status])
    return ["d", "k", "side", "flavor", "v", "t_star", "gap", "status"], rows


def sweep_extend(args, task_seed):
    return _extend_rows(args, [args.flavor], lambda k, i: task_seed ^ (k * 1000 + i))


def sweep_tomo(args, task_seed):
    records = [tomo.simulate_counts(rho, args.shots, seed) for seed, rho in zip(*_grid_states(args, task_seed))]
    recons = tomo.mle_reconstruct_many(records, max_iter=3000)
    rows = [
        [float(v), rec.seed, args.shots, qmat.uhlmann_fidelity(recon, states.werner(3, v))]
        for v, rec, (recon, _) in zip(args.v_grid, records, recons)
    ]
    return ["v", "seed", "N", "fidelity"], rows


SWEEPS = {
    "ppt": sweep_ppt,
    "distill": sweep_distill,
    "fef": sweep_fef,
    "chsh": sweep_chsh,
    "sr": sweep_sr,
    "dc": sweep_dc,
    "extend": sweep_extend,
    "tomo": sweep_tomo,
}
TASKS = tuple(SWEEPS)
# chsh, sr and tomo build d = 3 states whatever --d says; dc reads its dimensions from --d-grid and
# writes dc_d3.csv.  Another --d would only mislabel their CSVs.
D3_ONLY_TASKS = ("chsh", "sr", "tomo", "dc")


def _blas_settings() -> dict:
    """The BLAS library numpy was built with and this process's BLAS thread variables (null when unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"), **{k: os.environ.get(k) for k in BLAS_THREAD_VARS}}


def _write_run(command: str, args, tables: dict, **fields) -> None:
    """Write each ``name: (header, rows)`` table as a CSV, then the manifest; callers compute every table first."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {name: write_csv(out_dir / name, header, rows) for name, (header, rows) in tables.items()}
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "args": {
            k: v for k, v in vars(args).items() if k not in ("func", "config", "replay", "command") and v is not None
        },
        "global_seed": args.seed,
        "blas": _blas_settings(),
        "outputs": outputs,
        **fields,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_sweep(args) -> int:
    tasks = args.task.split(",")
    for task in tasks:  # all checked before anything is written
        if tasks.count(task) > 1:  # it would run twice and write one CSV
            print(f"task {task!r} is named more than once", file=sys.stderr)
            return 1
        if task not in SWEEPS or (task in D3_ONLY_TASKS and args.d != 3):
            why = f"runs only at --d 3, not {args.d}" if task in SWEEPS else f"is unknown; choose from {TASKS}"
            if task == "dc":
                why += "; it reads its dimensions from --d-grid"
            print(f"task {task!r} {why}", file=sys.stderr)
            return 1
        if args.noisy and task in ("chsh", "sr", "dc"):  # they build no state that --noisy could replace
            print(f"task {task!r} has no noisy form; run it without --noisy", file=sys.stderr)
            return 1
        if task == "dc" and not all(float(d).is_integer() and d >= 2 for d in args.d_grid):
            print(f"task 'dc' needs integer dimensions of at least 2 in --d-grid, not {args.d_grid}", file=sys.stderr)
            return 1
    task_seeds, tables, wall_times = {}, {}, {}
    for task in tasks:
        task_seeds[task] = derive_seed(args.seed, task)
        t0 = time.perf_counter()
        tables[f"{task}_d{args.d}.csv"] = SWEEPS[task](args, task_seeds[task])
        wall_times[task] = time.perf_counter() - t0
    _write_run("sweep", args, tables, task_seeds=task_seeds, wall_times=wall_times)
    print(f"wrote {len(tables)} file(s) to {Path(args.out)}")
    return 0


def run_replay(args) -> int:
    """Re-run a sweep or extend-table manifest's command into a temporary directory, with its
    recorded args as defaults (the ``--config`` path), and compare its CSV digests.

    The recorded files stay as they are.  Standard output holds only the verdict, not the
    re-run's report of what it wrote to a directory that is gone when this returns."""
    manifest = json.loads(Path(args.replay).read_text())
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if command not in ("sweep", "extend-table") or not all(isinstance(manifest.get(key), dict)
                                                           for key in ("args", "outputs")):
        print(f"cannot replay: {args.replay} is not a sweep or extend-table manifest", file=sys.stderr)
        return 1
    parser, commands = build_parser([command])
    with tempfile.TemporaryDirectory() as scratch:
        argv = [command, "--out", scratch]
        try:
            rerun = _apply_config(parser, commands[command], parser.parse_args(argv), argv, manifest["args"])
        except (SystemExit, ValueError):  # argparse exits 2, but 2 is the --strict verdict code
            print(f"cannot replay: the manifest's {command!r} arguments do not parse", file=sys.stderr)
            return 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = rerun.func(rerun)
        if code != 0:
            return code
        fresh = json.loads((Path(scratch) / "manifest.json").read_text())
    if fresh["outputs"] != manifest["outputs"]:
        print("replay mismatch: CSV digests differ", file=sys.stderr)
        recorded = manifest.get("blas")
        if recorded is not None and recorded != fresh["blas"]:
            print(
                f"replay mismatch: BLAS settings differ, recorded {json.dumps(recorded, sort_keys=True)}, "
                f"this run {json.dumps(fresh['blas'], sort_keys=True)}",
                file=sys.stderr,
            )
        return 1
    print("replay OK: all CSV digests match")
    return 0


# --- pipeline --------------------------------------------------------------------


def _cert_entry(cert: certify.Certificate, std: float | None = None) -> dict:
    entry = {"value": cert.value, "threshold": cert.threshold, "verdict": cert.verdict}
    if std is not None:
        entry["std"] = std
    return entry


def _certify_measured(rho, args, seeds, headline, check, **tag) -> tuple[qmat.DensityMatrix, dict]:
    """Measure rho with ``args.shots`` shots, reconstruct it, and certify the reconstruction: ``check`` is
    the ``headline`` certificate, which alone carries a bootstrap std.  ``seeds`` seed the counts, the
    bootstrap and the steering see-saw; ``tag`` goes to ``simulate_counts``.  Returns the
    reconstruction and its half of the report: ``mle``, ``certificates`` and ``steering_robustness``."""
    counts_seed, boot_seed, sr_seed = seeds
    counts = tomo.simulate_counts(rho, args.shots, counts_seed, **tag)
    recon, history = tomo.mle_reconstruct_with_history(counts, max_iter=3000)
    _, std = tomo.bootstrap_error(counts, lambda r: check(r).value, n_boot=args.bootstrap, seed=boot_seed)
    sr = steer.sr_state_lower_bound(recon, args.n_settings, restarts=args.sr_restarts, seed=sr_seed)
    return recon, {
        "mle": {"gap_nats": history.gap, "steps": len(history) - 1, "capped": history.capped},
        "certificates": {
            headline: _cert_entry(check(recon), std),
            "dense_coding": _cert_entry(certify.dense_coding_delta(recon)),
            "gurvits_ball": _cert_entry(certify.gurvits_ball(recon)),
        },
        "steering_robustness": sr.best,
    }


def run_pipeline(args) -> int:
    t_start = time.perf_counter()
    v = args.v
    seed = derive_seed(args.seed, f"pipeline:{v}")
    spec = states.NoiseSpec(depol=args.depol, coherent_eps=args.eps, seed=seed)
    ideal = states.werner(3, v)
    surrogate = states.noisy_surrogate(ideal, spec)

    recon, unfiltered = _certify_measured(
        surrogate, args, (seed ^ 1, seed ^ 2, seed ^ 5), "ppt", certify.ppt_min_eig, state_tag=f"w3v{v}"
    )
    unfiltered["fidelity_vs_ideal"] = qmat.uhlmann_fidelity(recon, ideal)
    certs = unfiltered["certificates"]
    certs["one_distillable"] = _cert_entry(certify.one_distillable(recon, restarts=args.restarts, seed=seed ^ 3))
    certs["fef"] = _cert_entry(certify.fef(recon, restarts=max(args.restarts // 2, 4), seed=seed ^ 4))

    # single-copy filtering of the reconstructed state, then qubit rotations
    pi = filterops.qubit_projection(3, (1, 2))
    filtered_raw, success_prob = filterops.apply_filter(recon, pi, pi)
    rot = qmat.kron(qmat.PAULI_X, qmat.PAULI_Z)
    filtered_state = qmat.as_state(rot @ filtered_raw.mat @ rot.conj().T, 2, 2)
    recon_f, filtered = _certify_measured(
        filtered_state, args, (seed ^ 6, seed ^ 7, seed ^ 8), "chsh", certify.chsh_horodecki
    )
    filtered["fidelity_vs_target"] = qmat.uhlmann_fidelity(recon_f, filterops.rotated_filtered_state(v))
    filtered["fef2_exact"] = certify.fef2_exact(recon_f)

    report = {
        "schema_version": 1,
        "params": {
            "v": v,
            "depol": args.depol,
            "eps": args.eps,
            "shots": args.shots,
            "global_seed": args.seed,
            "derived_seed": seed,
            "n_settings": args.n_settings,
        },
        "unfiltered": unfiltered,
        "filter": {"success_prob": success_prob, "kept_levels": [1, 2]},
        "filtered": filtered,
        "wall_time_s": time.perf_counter() - t_start,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)

    if args.strict:
        failures = _strict_check(v, report)
        if failures:
            for f in failures:
                print(f"verdict check failed: {f}", file=sys.stderr)
            return 2
    return 0


def _strict_check(v: float, report: dict) -> list[str]:
    """Direction checks against ideal-theory expectations, skipping boundaries."""
    failures = []
    margin = 0.03
    certs_u = report["unfiltered"]["certificates"]
    certs_f = report["filtered"]["certificates"]
    if v < 0.5 - margin and certs_u["ppt"]["verdict"] != "FAIL":
        failures.append(f"expected entanglement (NPPT) at v={v}")
    if v > 0.5 + margin and certs_u["ppt"]["verdict"] == "FAIL":
        failures.append(f"unexpected NPPT at v={v}")
    if v < 0.4 - margin and certs_u["one_distillable"]["verdict"] != "PASS":
        failures.append(f"expected 1-distillability at v={v}")
    v_chsh = 2 * (np.sqrt(2) - 1) / (3 * np.sqrt(2) + 1)  # filtered CHSH boundary: the root of 2*sqrt(2)(4-6v)/(4+2v) = 2
    if v < v_chsh - margin and certs_f["chsh"]["verdict"] != "PASS":
        failures.append(f"expected filtered CHSH violation at v={v}")
    v_dc = certify.dc_threshold(3, 1e-6)
    if v < v_dc - margin and certs_f["dense_coding"]["verdict"] != "PASS":
        failures.append(f"expected filtered dense-codability at v={v}")
    if v < 0.4 - margin and report["filtered"]["fef2_exact"] <= 0.5:
        failures.append(f"expected filtered teleportation power at v={v}")
    return failures


# --- extend-table / tomo-demo / solve ---------------------------------------------


def run_extend_table(args) -> int:
    table = _extend_rows(args, args.flavors.split(","), lambda k, i: derive_seed(args.seed, f"et{k}{i}"))
    _write_run("extend-table", args, {f"extend_table_d{args.d}.csv": table})
    print(f"wrote extend table to {Path(args.out)}")
    return 0


def run_tomo_demo(args) -> int:
    seed = derive_seed(args.seed, "tomo-demo")
    ideal = states.werner(3, args.v)
    rho = _state_for(3, args.v, args.noisy, seed)
    rec = tomo.simulate_counts(rho, args.shots, seed, state_tag=f"w3v{args.v}")
    recon, history = tomo.mle_reconstruct_with_history(rec, max_iter=3000)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "counts.csv").write_text(tomo.counts_to_csv(rec))
    (out_dir / "counts.meta.json").write_text(tomo.counts_metadata_json(rec) + "\n")
    (out_dir / "reconstruction.json").write_text(serialize.state_to_json(recon) + "\n")
    fid = qmat.uhlmann_fidelity(recon, ideal)
    capped = f", above tol after {history.tries} tries" if history.capped else ""
    print(
        f"reconstructed in {len(history) - 1} iterations (certified gap {history.gap:.3g} nats{capped}); "
        f"fidelity vs ideal = {fid:.6f}"
    )
    return 0


def run_solve(args) -> int:
    try:
        prog = solver.load_program(Path(args.program).read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot load program: {exc}", file=sys.stderr)
        return 1
    sol = solver.solve(prog, tol=args.tol, max_iter=args.max_iter)
    print(f"status: {sol.status}")
    print(f"primal objective: {fmt(sol.primal_obj)}")
    print(f"dual objective: {fmt(sol.dual_obj)}")
    print(f"gap: {fmt(sol.gap)}")
    print(f"iterations: {sol.iterations}")
    return 0 if sol.status != "MAX_ITER" else 1


# --- argument parsing --------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="JSON config file; explicit flags win")
    p.add_argument("--seed", type=int, default=2024, help="global seed")


def _sweep_options(p):
    _add_common(p)
    p.add_argument("--noisy", action="store_true", help="use noisy surrogates instead of ideal states")
    p.add_argument("--task", default="ppt", help=f"comma-separated tasks from {TASKS}")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--v-grid", dest="v_grid", type=parse_grid, default="0:0.05:0.5")
    p.add_argument("--d-grid", dest="d_grid", type=parse_grid, default="2:1:16")
    p.add_argument("--k-list", dest="k_list", type=int_list, default="2")
    p.add_argument("--side", default="B", choices=["A", "B"])
    p.add_argument("--flavor", default="SE", choices=["SE", "SQE", "SE_B"])
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--n-settings", dest="n_settings", type=int, default=2)
    p.add_argument("--max-rounds", dest="max_rounds", type=int, default=30)
    p.add_argument("--shots", type=int, default=10**4)
    p.add_argument("--sdp-tol", dest="sdp_tol", type=float, default=1e-7)
    p.add_argument("--out", default="out")
    p.add_argument("--replay", help="manifest.json to replay instead of running new args")


def _pipeline_options(p):
    _add_common(p)
    p.add_argument("--v", type=float, default=0.0)
    p.add_argument("--depol", type=float, default=0.05)
    p.add_argument("--eps", type=float, default=0.03)
    p.add_argument("--shots", type=int, default=10**5)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--sr-restarts", dest="sr_restarts", type=int, default=4)
    p.add_argument("--n-settings", dest="n_settings", type=int, default=2)
    p.add_argument("--bootstrap", type=int, default=15)
    p.add_argument("--out", help="write the JSON report to this file instead of stdout")
    p.add_argument("--strict", action="store_true", help="exit 2 when verdicts defy ideal theory")


def _extend_table_options(p):
    _add_common(p)
    p.add_argument("--noisy", action="store_true", help="use noisy surrogates instead of ideal states")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--v-grid", dest="v_grid", type=parse_grid, default="0:0.05:0.45")
    p.add_argument("--k-list", dest="k_list", type=int_list, default="2,3")
    p.add_argument("--side", default="B", choices=["A", "B"])
    p.add_argument("--flavors", default="SE,SQE")
    p.add_argument("--sdp-tol", dest="sdp_tol", type=float, default=1e-7)
    p.add_argument("--out", default="out")


def _tomo_demo_options(p):
    _add_common(p)
    p.add_argument("--noisy", action="store_true", help="use noisy surrogates instead of ideal states")
    p.add_argument("--v", type=float, default=0.3)
    p.add_argument("--shots", type=int, default=10**4)
    p.add_argument("--out", default="out")


def _solve_options(p):
    p.add_argument("--program", required=True)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=200000)


COMMANDS = {  # name -> (help, the function that adds its options, the function that runs it)
    "sweep": ("parameter sweeps producing CSV + manifest", _sweep_options, run_sweep),
    "pipeline": ("surrogate -> tomography -> filter -> certificates", _pipeline_options, run_pipeline),
    "extend-table": ("reproduce the symmetric-extension tables", _extend_table_options, run_extend_table),
    "tomo-demo": ("simulate counts and reconstruct one state", _tomo_demo_options, run_tomo_demo),
    "solve": ("solve a conic program from its text dump", _solve_options, run_solve),
}


def build_parser(names=COMMANDS) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser with a subparser for each command in ``names``, and those subparsers by name."""
    # --help prints the module docstring's first two paragraphs
    parser = argparse.ArgumentParser(prog="wernerlab", description="\n\n".join(__doc__.split("\n\n")[:2]))
    parser.add_argument("--version", action="version", version=__version__)
    # the usage names every command; with all built, no metavar, so errors still name the argument "command"
    every = None if len(names) == len(COMMANDS) else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        help_text, add_options, run = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_options(p)
        p.set_defaults(func=run)
    return parser, sub.choices


def _apply_config(parser, command: argparse.ArgumentParser, args, argv: list[str], values=None) -> argparse.Namespace:
    """Parse argv again with ``values`` as the defaults of ``command``, argv's subcommand parser,
    so that argparse decides which flags were given and those keep priority, abbreviated or not.

    ``values`` is a manifest's recorded args on replay.  When it is None, the values are
    the ``--config`` file's JSON, and without that file args come back as they are.  A
    string value goes through its option's type, as on the command line, any other value
    must already be what that type makes (``CONFIG_TYPES``), and the result must be one of
    the option's choices, if it has them.  Raises ValueError unless the values are an object
    whose keys (dashes read as underscores) are all options of the subcommand, with allowed
    values."""
    if values is None:
        if not getattr(args, "config", None):
            return args
        values = json.loads(Path(args.config).read_text())
    if not isinstance(values, dict):
        raise ValueError("--config must hold a JSON object")
    options = {action.dest: action for action in command._actions if action.option_strings and action.dest != "help"}
    defaults = {}
    for key, val in values.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        name, holds = CONFIG_TYPES[bool if action.nargs == 0 else action.type]  # store_true has no type
        if not (holds(val) or isinstance(val, str) and action.type):
            name = name.replace("a list", "a nonempty list") if val == [] else name
            raise ValueError(f"config key {key!r}: expected {name}, not {json.dumps(val)}")
        try:
            val = action.type(val) if isinstance(val, str) and action.type else val
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
        if action.choices is not None and val not in action.choices:
            allowed = ", ".join(map(repr, action.choices))
            raise ValueError(f"config key {key!r}: invalid choice {val!r} (choose from {allowed})")
        defaults[action.dest] = val
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # each add_argument builds a formatter: a named command gets only its parser, anything else all of them
    parser, commands = build_parser([argv[0]] if argv and argv[0] in COMMANDS else COMMANDS)
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, commands[args.command], args, argv)
        if getattr(args, "replay", None):
            return run_replay(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
