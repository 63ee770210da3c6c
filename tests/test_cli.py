"""Tests for the command-line front end."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from wernerlab import certify, cli, solver, steer, tomo
from wernerlab.cli import derive_seed, main, parse_grid
from wernerlab.extend import critical_weight
from wernerlab.filterops import rotated_filtered_state
from wernerlab.qmat import uhlmann_fidelity
from wernerlab.solver import Block, ConicProgram, dump_program
from wernerlab.states import werner


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_parse_grid():
    assert parse_grid("0:0.1:0.3") == [0.0, 0.1, 0.2, 0.3]
    assert parse_grid("1,2,5") == [1.0, 2.0, 5.0]


def test_parse_grid_defaults_unchanged():
    assert parse_grid("0:0.05:0.5") == [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]
    assert parse_grid("0:0.05:0.45") == [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    assert parse_grid("2:1:16") == [float(d) for d in range(2, 17)]


def test_parse_grid_never_passes_stop():
    assert parse_grid("0:0.6:1") == [0.0, 0.6]
    assert parse_grid("0.5:-0.1:0") == [0.5, 0.4, 0.3, 0.2, 0.1, 0.0]
    assert parse_grid("0.2:0.1:0.2") == [0.2]


@pytest.mark.parametrize("text", ["0:0:0.5", "0.5:0.1:0", "0:-0.1:0.5", "0:0.1:inf", "0:inf:1", "-inf:1:0", "0:nan:1"])
def test_parse_grid_rejects_bad_steps(tmp_path, capsys, text):
    with pytest.raises(ValueError, match="step"):
        parse_grid(text)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--task", "ppt", "--v-grid", text, "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "--v-grid" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v_grid": text}))
    assert main(["sweep", "--task", "ppt", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert "step" in capsys.readouterr().err


def test_seed_derivation_stable():
    assert derive_seed(7, "ppt") == derive_seed(7, "ppt")
    assert derive_seed(7, "ppt") != derive_seed(8, "ppt")
    assert derive_seed(7, "ppt") != derive_seed(7, "fef")


def test_sweep_ppt_matches_closed_form(tmp_path):
    out = tmp_path / "run"
    code = main(["sweep", "--task", "ppt", "--d", "3", "--v-grid", "0:0.1:0.5", "--out", str(out), "--seed", "3"])
    assert code == 0
    header, rows = read_csv(out / "ppt_d3.csv")
    assert header == ["d", "v", "seed", "min_eig", "verdict"]
    for row in rows:
        v, min_eig = float(row[1]), float(row[3])
        assert min_eig == pytest.approx((2 * v - 1) / 3, abs=1e-9)
        assert int(row[2]) >= 0  # every row carries its seed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["task_seeds"]["ppt"] == derive_seed(3, "ppt")
    assert "ppt_d3.csv" in manifest["outputs"]


@pytest.mark.parametrize(
    "task, options",
    [
        ("ppt", []),
        ("sr", ["--restarts", "3", "--max-rounds", "5", "--n-settings", "3"]),  # the v = 0 Werner row solves
        ("ppt", ["--noisy", "--v-grid", "0,0.2"]),
    ],
    ids=["ppt", "sr", "ppt-noisy"],
)
def test_sweep_replay_byte_identical(tmp_path, capsys, task, options):
    out = tmp_path / "run"
    assert main(["sweep", "--task", task, "--v-grid", "0:0.25:0.5", "--out", str(out), "--seed", "11", *options]) == 0
    first = (out / f"{task}_d3.csv").read_bytes()
    assert json.loads((out / "manifest.json").read_text())["args"]["noisy"] == ("--noisy" in options)
    capsys.readouterr()
    assert main(["sweep", "--replay", str(out / "manifest.json")]) == 0
    assert capsys.readouterr().out == "replay OK: all CSV digests match\n"  # nothing of the re-run's own output
    assert (out / f"{task}_d3.csv").read_bytes() == first


def test_sweep_unknown_task(tmp_path, capsys):
    assert main(["sweep", "--task", "nonsense", "--out", str(tmp_path / "x")]) == 1
    # the whole list is checked before any task runs
    out = tmp_path / "run"
    assert main(["sweep", "--task", "ppt,nonsense", "--out", str(out)]) == 1
    assert "'nonsense'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_repeated_task(tmp_path, capsys, monkeypatch):
    # a repeated task would run twice and write one CSV, and the manifest would time only its second run
    monkeypatch.setitem(cli.SWEEPS, "ppt", lambda args, task_seed: pytest.fail("ran a task before the checks"))
    out = tmp_path / "run"
    assert main(["sweep", "--task", "ppt,ppt", "--v-grid", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "task 'ppt' is named more than once\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["extend-table", "--flavors", "SE,SE", "--k-list", "2"],
        ["extend-table", "--flavors", "SE", "--k-list", "2,2"],
        ["sweep", "--task", "extend", "--k-list", "2,2"],
    ],
    ids=["extend-table-flavor", "extend-table-k", "sweep-k"],
)
def test_extension_rows_reject_a_repeated_flavor_or_k(tmp_path, capsys, monkeypatch, argv):
    # a repeated flavor or k wrote its rows twice
    monkeypatch.setattr(cli.extend, "run_query", lambda *args, **kwargs: pytest.fail("ran a query before the check"))
    out = tmp_path / "run"
    assert main(argv + ["--v-grid", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: a flavor or a k is named more than once")
    assert not out.exists()


def test_sweep_rejects_negative_max_rounds(tmp_path, capsys):
    # it ran as --max-rounds 0 and wrote the same sr_d3.csv
    out = tmp_path / "run"
    argv = ["sweep", "--task", "sr", "--v-grid", "0.1", "--restarts", "2", "--max-rounds", "-3", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: max_rounds must be at least 0, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("d_grid", ["2.5", "1", "0", "2,3,1"])
def test_dc_rejects_dimensions_it_cannot_use(tmp_path, capsys, monkeypatch, d_grid):
    # 2.5 wrote a d=2 row, 1 a v_dc of 3e-8 with a RuntimeWarning, and 0 ended in a ZeroDivisionError
    monkeypatch.setitem(cli.SWEEPS, "ppt", lambda args, task_seed: pytest.fail("ran a task before the checks"))
    out = tmp_path / "run"
    assert main(["sweep", "--task", "ppt,dc", "--d-grid", d_grid, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("task 'dc' needs integer dimensions of at least 2 in --d-grid")
    assert not out.exists()


@pytest.mark.parametrize("task", ["chsh", "sr", "dc"])
def test_tasks_without_a_noisy_form_reject_noisy(tmp_path, capsys, task):
    # these tasks build no state that --noisy could replace, so they wrote the bytes of a run without it
    out = tmp_path / "run"
    argv = ["sweep", "--task", f"ppt,{task}", "--noisy", "--v-grid", "0.1", "--restarts", "1", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"task {task!r} has no noisy form; run it without --noisy\n"
    assert not out.exists()


def test_pipeline_offers_no_noisy_flag(tmp_path, capsys):
    # the pipeline always builds its noisy surrogate
    with pytest.raises(SystemExit):
        main(["pipeline", "--noisy", "--out", str(tmp_path / "r.json")])
    assert "unrecognized arguments: --noisy" in capsys.readouterr().err
    config = tmp_path / "c.json"
    config.write_text('{"noisy": true}')
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == "error: unknown config key 'noisy'\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("sdp_tol", [1e-3, 1e-5])
def test_sweep_sr_solves_at_the_given_tolerance(tmp_path, monkeypatch, sdp_tol):
    tols = []
    solve_many = solver.Family.solve_many
    monkeypatch.setattr(solver.Family, "solve_many", lambda self, b, tol: tols.append(tol) or solve_many(self, b, tol))
    # with three settings the Werner row at v = 0.1 < 1/6 has no closed form, so the see-saw solves it
    argv = ["sweep", "--task", "sr", "--v-grid", "0.1", "--restarts", "1", "--max-rounds", "2", "--n-settings", "3"]
    assert main([*argv, "--sdp-tol", str(sdp_tol), "--out", str(tmp_path)]) == 0
    assert tols and set(tols) == {sdp_tol}


def test_sweep_sr_checks_sdp_tol_without_a_solve(tmp_path, capsys, monkeypatch):
    # both rows of the default two settings take the closed form, which solves nothing
    monkeypatch.setattr(solver.Family, "solve_many", lambda *args, **kwargs: pytest.fail("solved"))
    out = tmp_path / "run"
    assert main(["sweep", "--task", "sr", "--sdp-tol", "0", "--v-grid", "0.1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: tol must be finite and positive\n"
    assert not out.exists()


def test_sweep_sr_answers_ideal_rows_in_closed_form(tmp_path, monkeypatch):
    # the unfiltered Werner rows are 2-extendible and the filtered rows isotropic: no row solves
    monkeypatch.setattr(solver.Family, "solve_many", lambda *args, **kwargs: pytest.fail("solved"))
    assert main(["sweep", "--task", "sr", "--v-grid", "0,0.1", "--restarts", "1", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "sr_d3.csv")
    assert [row[2:5] for row in rows] == [
        ["0", "0", "0"], ["1", "0.171572875254", "0"], ["0", "0", "0"], ["1", "0.059994506182", "0"]
    ]


@pytest.mark.parametrize("task", ["sr", "chsh", "tomo", "dc"])
def test_qutrit_only_tasks_reject_other_dimensions(tmp_path, capsys, task):
    # sr, chsh and tomo build d = 3 states whatever --d says, and dc sweeps --d-grid, so d = 4 would mislabel their CSV
    out = tmp_path / "run"
    argv = ["sweep", "--task", f"ppt,{task}", "--d", "4", "--v-grid", "0.1", "--restarts", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"'{task}'" in err
    assert ("--d-grid" in err) == (task == "dc")
    assert not out.exists()


def test_config_file_with_flag_priority(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v-grid": "0:0.5:0.5", "d": 3, "seed": 5}))
    out = tmp_path / "run"
    code = main(
        ["sweep", "--task", "ppt", "--config", str(cfg), "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out / "ppt_d3.csv")
    assert len(rows) == 2  # grid came from the config
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["global_seed"] == 9  # explicit flag beat the config
    # an abbreviated flag beats the config too
    out = tmp_path / "abbrev"
    assert main(["sweep", "--task", "ppt", "--config", str(cfg), "--v-gr", "0.1", "--out", str(out)]) == 0
    _, rows = read_csv(out / "ppt_d3.csv")
    assert [row[1] for row in rows] == ["0.1"]
    assert json.loads((out / "manifest.json").read_text())["global_seed"] == 5


@pytest.mark.parametrize("config", [[1, 2], None, "0:0.5:0.5"], ids=["list", "null", "string"])
def test_config_file_must_hold_an_object(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["sweep", "--task", "ppt", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --config must hold a JSON object\n"
    assert not out.exists()


@pytest.mark.parametrize("recorded", [[1, 2], None], ids=["list", "null"])
def test_replay_rejects_args_that_are_not_an_object(tmp_path, capsys, recorded):
    out = tmp_path / "run"
    assert main(["sweep", "--task", "ppt", "--v-grid", "0", "--out", str(out)]) == 0
    manifest_file = out / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["args"] = recorded
    manifest_file.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["sweep", "--replay", str(manifest_file)]) == 1
    assert "cannot replay" in capsys.readouterr().err


def test_config_values_must_be_among_the_choices(tmp_path, capsys):
    # the choices are checked, like every key, before any task writes its CSV
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"side": "C", "v-grid": "0"}))
    out = tmp_path / "run"
    assert main(["sweep", "--task", "ppt,extend", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: config key 'side': invalid choice 'C' (choose from 'A', 'B')\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command,key,value,expected",
    [
        (["sweep", "--task", "ppt"], "v-grid", 0.1, "a list of numbers"),
        (["sweep", "--task", "dc"], "d-grid", 5, "a list of numbers"),
        (["sweep"], "task", 5, "a string"),
        (["sweep", "--task", "sr", "--v-grid", "0.1"], "restarts", 2.5, "an integer"),
        (["sweep", "--task", "ppt", "--v-grid", "0"], "d", 3.5, "an integer"),
        (["sweep", "--task", "ppt", "--v-grid", "0"], "seed", 1.5, "an integer"),
        (["tomo-demo"], "shots", 100.7, "an integer"),
        (["sweep", "--task", "ppt", "--v-grid", "0"], "noisy", "yes", "true or false"),
        # the command line cannot give an empty grid, and neither can a config file
        (["sweep", "--task", "ppt"], "v-grid", [], "a nonempty list of numbers"),
        (["extend-table", "--flavors", "SE", "--v-grid", "0"], "k-list", [], "a nonempty list of integers"),
    ],
)
def test_config_values_must_have_their_options_type(tmp_path, capsys, command, key, value, expected):
    # a string goes through the option's type; anything else must already be what that type makes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "run"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config key {key!r}: expected {expected}, not {json.dumps(value)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("d", "x", "invalid literal for int() with base 10: 'x'"),
        ("v-grid", "0.1,x", "could not convert string to float: 'x'"),
        ("v-grid", "", "could not convert string to float: ''"),
    ],
)
def test_config_strings_their_type_cannot_parse_name_the_key(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "run"
    assert main(["sweep", "--task", "ppt", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config key {key!r}: {message}\n"
    assert not out.exists()


def test_replay_rejects_recorded_values_outside_the_choices(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["sweep", "--task", "ppt", "--v-grid", "0", "--out", str(out)]) == 0
    manifest_file = out / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["args"]["flavor"] = "SEB"
    manifest_file.write_text(json.dumps(manifest))
    recorded = {f.name: f.read_bytes() for f in out.iterdir()}
    capsys.readouterr()
    assert main(["sweep", "--replay", str(manifest_file)]) == 1
    captured = capsys.readouterr()
    assert "cannot replay" in captured.err and captured.out == ""
    assert {f.name: f.read_bytes() for f in out.iterdir()} == recorded


@pytest.mark.parametrize("key", ["func", "restart", "command", "max-iter"])
def test_config_file_rejects_unknown_keys(tmp_path, capsys, key):
    # func and command are parsed attributes, not options; restart is a typo; max-iter is solve's
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v-grid": "0", key: 4}))
    out = tmp_path / "run"
    assert main(["sweep", "--task", "ppt", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    assert not out.exists()


def test_grid_tasks_write_the_bytes_of_a_loop_over_solo_calls(tmp_path):
    argv = ["sweep", "--task", "fef,distill,chsh", "--v-grid", "0:0.25:0.5", "--restarts", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    seeds = {task: derive_seed(2024, task) for task in ("fef", "distill", "chsh")}
    rows = {task: [] for task in seeds}
    for i, v in enumerate([0.0, 0.25, 0.5]):
        rho, rho_f = werner(3, v), rotated_filtered_state(v)
        seed = seeds["fef"] ^ i
        found = certify.fef(rho, restarts=4, seed=seed).value
        rows["fef"].append([3, v, seed, found, 1 / 3, certify.fef2_exact(rho_f)])
        seed = seeds["distill"] ^ i
        cert = certify.one_distillable(rho, restarts=4, seed=seed)
        rows["distill"].append([3, v, seed, cert.value, cert.verdict, 4])
        seed = seeds["chsh"] ^ i
        found = steer.seesaw_bell(rho_f, steer.chsh_coefficients(), restarts=4, seed=seed)
        rows["chsh"].append([v, seed, certify.chsh_horodecki(rho_f).value, found])
    headers = {
        "fef": ["d", "v", "seed", "fef", "threshold", "filtered_f2"],
        "distill": ["d", "v", "seed", "value", "verdict", "restarts"],
        "chsh": ["v", "seed", "chsh_horodecki", "chsh_seesaw"],
    }
    for task, header in headers.items():
        cli.write_csv(tmp_path / f"{task}_solo.csv", header, rows[task])
        assert (tmp_path / f"{task}_d3.csv").read_bytes() == (tmp_path / f"{task}_solo.csv").read_bytes()
    # ideal fef and distill rows are closed form; noisy ones run the fef_many and one_distillable_many stacks
    noisy = tmp_path / "noisy"
    argv = ["sweep", "--task", "fef,distill", "--noisy", "--v-grid", "0:0.25:0.5", "--restarts", "4", "--out", str(noisy)]
    assert main(argv) == 0
    rows = {"fef": [], "distill": []}
    for i, v in enumerate([0.0, 0.25, 0.5]):
        seed = seeds["fef"] ^ i
        found = certify.fef(cli._state_for(3, v, True, seed), restarts=4, seed=seed).value
        rows["fef"].append([3, v, seed, found, 1 / 3, certify.fef2_exact(rotated_filtered_state(v))])
        seed = seeds["distill"] ^ i
        cert = certify.one_distillable(cli._state_for(3, v, True, seed), restarts=4, seed=seed)
        rows["distill"].append([3, v, seed, cert.value, cert.verdict, 4])
    for task in rows:
        cli.write_csv(noisy / f"{task}_solo.csv", headers[task], rows[task])
        assert (noisy / f"{task}_d3.csv").read_bytes() == (noisy / f"{task}_solo.csv").read_bytes()


def test_ideal_fef_and_distill_rows_run_no_search(tmp_path, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(certify, "fef_many", search)
    monkeypatch.setattr(certify, "one_distillable_many", search)
    assert main(["sweep", "--task", "fef,distill", "--d", "4", "--v-grid", "0:0.25:1", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "distill_d4.csv")
    assert [row[4] for row in rows] == ["PASS", "PASS"] + ["INCONCLUSIVE"] * 3  # the boundary is v = 5/14
    _, rows = read_csv(tmp_path / "fef_d4.csv")
    assert len(rows) == 5 and all(float(row[3]) < 0.25 for row in rows)


def test_sweep_tomo_writes_the_bytes_of_solo_reconstructions(tmp_path, capsys):
    argv = ["sweep", "--task", "tomo", "--v-grid", "0.1,0.3", "--shots", "2000", "--seed", "5", "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = []
    for i, v in enumerate([0.1, 0.3]):
        seed = derive_seed(5, "tomo") ^ i
        recon, _ = tomo.mle_reconstruct_with_history(tomo.simulate_counts(werner(3, v), 2000, seed), max_iter=3000)
        rows.append([v, seed, 2000, uhlmann_fidelity(recon, werner(3, v))])
    cli.write_csv(tmp_path / "tomo_solo.csv", ["v", "seed", "N", "fidelity"], rows)
    assert (tmp_path / "tomo_d3.csv").read_bytes() == (tmp_path / "tomo_solo.csv").read_bytes()
    capsys.readouterr()
    assert main(["sweep", "--replay", str(tmp_path / "manifest.json")]) == 0
    assert capsys.readouterr().out == "replay OK: all CSV digests match\n"


def test_extend_table_command(tmp_path):
    out = tmp_path / "ext"
    code = main(
        [
            "extend-table",
            "--d",
            "3",
            "--v-grid",
            "0,0.2",
            "--k-list",
            "2",
            "--flavors",
            "SE",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out / "extend_table_d3.csv")
    assert header == ["d", "k", "side", "flavor", "v", "t_star", "gap", "status"]
    values = {float(r[4]): float(r[5]) for r in rows}
    assert values[0.0] == pytest.approx(1.0, abs=1e-4)
    assert values[0.2] == pytest.approx(0.7, abs=1e-4)


def test_extend_table_werner_lp_beyond_the_dimension_cap(tmp_path, capsys):
    out = tmp_path / "ext"
    argv = ["extend-table", "--d", "3", "--k-list", "20", "--flavors", "SE,SE_B", "--v-grid", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    header, rows = read_csv(out / "extend_table_d3.csv")
    found = {r[3]: (r[7], critical_weight(float(r[5]), 3)) for r in rows}
    assert found.keys() == {"SE", "SE_B"}
    assert found["SE"][0] == found["SE_B"][0] == "OPTIMAL"
    assert found["SE"][1] == pytest.approx(0.45, abs=2e-3)  # (1 - (d-1)/k)/2
    assert found["SE_B"][1] == pytest.approx(0.475, abs=2e-3)  # (1 - 1/k)/2
    capsys.readouterr()
    noisy = ["extend-table", "--d", "3", "--k-list", "5", "--noisy", "--v-grid", "0", "--out", str(tmp_path / "n")]
    assert main(noisy) == 1
    assert "error:" in capsys.readouterr().err


def test_extend_table_sqe_keeps_the_dimension_cap(tmp_path, capsys):
    # a noisy input solves the SQE program, whose 4^4 = 256 exceeds the cap; a Werner input does not
    argv = ["extend-table", "--d", "4", "--k-list", "3", "--flavors", "SQE", "--v-grid", "0"]
    assert main(argv + ["--noisy", "--out", str(tmp_path / "ext")]) == 1
    assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())
    assert not (tmp_path / "ext").exists()
    assert main(argv + ["--out", str(tmp_path / "werner")]) == 0
    _, rows = read_csv(tmp_path / "werner" / "extend_table_d4.csv")
    assert [row[5:] for row in rows] == [["1", "0", "OPTIMAL"]]  # t* = 1 exactly, with no solve


def test_sweep_extend_and_extend_table_write_the_same_rows(tmp_path):
    grid = ["--d", "3", "--k-list", "2,3", "--v-grid", "0,0.2", "--side", "A", "--seed", "5"]
    assert main(["sweep", "--task", "extend", "--flavor", "SE_B", *grid, "--out", str(tmp_path / "s")]) == 0
    assert main(["extend-table", "--flavors", "SE_B", *grid, "--out", str(tmp_path / "t")]) == 0
    swept = (tmp_path / "s" / "extend_d3.csv").read_text()
    tabled = (tmp_path / "t" / "extend_table_d3.csv").read_text()
    assert swept == tabled
    assert len(swept.splitlines()) == 5


def test_tomo_demo_roundtrip(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["tomo-demo", "--v", "0.2", "--shots", "5000", "--out", str(out), "--seed", "4"]) == 0
    from wernerlab import tomo

    # the printed count is of accepted steps; the trace also holds the start value
    seed = derive_seed(4, "tomo-demo")
    _, history = tomo.mle_reconstruct_with_history(tomo.simulate_counts(werner(3, 0.2), 5000, seed), max_iter=3000)
    line = capsys.readouterr().out
    assert line.startswith(f"reconstructed in {len(history) - 1} iterations (certified gap {history.gap:.3g} nats); ")
    assert history.gap <= 0.1

    rec = tomo.counts_from_csv(
        (out / "counts.csv").read_text(), (out / "counts.meta.json").read_text()
    )
    assert rec.counts.shape == (9, 9)
    from wernerlab import serialize

    rho = serialize.state_from_json((out / "reconstruction.json").read_text())
    assert rho.dimA == rho.dimB == 3


def test_tomo_demo_reports_a_gap_above_tol(tmp_path, capsys, monkeypatch):
    from wernerlab import tomo

    real = tomo.mle_reconstruct_with_history
    monkeypatch.setattr(tomo, "mle_reconstruct_with_history", lambda rec, max_iter: real(rec, max_iter=10))
    assert main(["tomo-demo", "--v", "0.2", "--shots", "5000", "--out", str(tmp_path), "--seed", "4"]) == 0
    assert " nats, above tol after 10 tries); " in capsys.readouterr().out


def test_solve_command(tmp_path):
    from wernerlab.extend import ExtensionQuery, build_program
    from wernerlab.solver import dump_program
    from wernerlab.states import werner

    prog_file = tmp_path / "se.prog"
    prog_file.write_text(dump_program(build_program(ExtensionQuery(werner(2, 0.0), 2, "SE"))))
    assert main(["solve", "--program", str(prog_file), "--tol", "1e-8"]) == 0
    assert main(["solve", "--program", str(tmp_path / "missing.prog")]) == 1


@pytest.mark.parametrize(
    "flags, message",
    [(["--tol", "nan"], "tol must be"), (["--tol", "inf"], "tol must be"), (["--max-iter", "0"], "max_iter must be")],
)
def test_solve_command_rejects_bad_stopping_rules(tmp_path, capsys, flags, message):
    prog_file = tmp_path / "lp.prog"
    prog_file.write_text("\n".join(shifted_lp_dump_lines()) + "\n")
    assert main(["solve", "--program", str(prog_file), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and "status:" not in captured.out


def shifted_lp_dump_lines():
    # min x s.t. x - s = 3, s >= 0: one OBJ entry, two A triplets, one RHS entry
    prog = ConicProgram((Block("free", 1), Block("nonneg", 1)), np.array([1.0, 0.0]), sp.csr_matrix([[1.0, -1.0]]), [3.0])
    lines = dump_program(prog).splitlines()
    assert lines[4:] == ["OBJ 1", "0 1.0", "A 1 2 2", "0 0 1.0", "0 1 -1.0", "RHS 1", "0 3.0", "END"]
    return lines


def solve_dump(tmp_path, lines):
    prog_file = tmp_path / "edited.prog"
    prog_file.write_text("\n".join(lines) + "\n")
    return main(["solve", "--program", str(prog_file)])


def test_solve_rejects_truncated_dumps(tmp_path, capsys):
    lines = shifted_lp_dump_lines()
    assert solve_dump(tmp_path, lines) == 0
    for cut in range(len(lines)):
        capsys.readouterr()
        assert solve_dump(tmp_path, lines[:cut]) == 1, cut
        assert capsys.readouterr().err.startswith("cannot load program:"), cut


@pytest.mark.parametrize(
    "line, entry",
    [
        (5, "-1 1.0"),  # OBJ: a negative index would write the last entry
        (5, "2 1.0"),
        (10, "-1 3.0"),  # RHS
        (10, "1 3.0"),
        (7, "-1 0 1.0"),  # A: row, then column
        (7, "1 0 1.0"),
        (8, "0 -1 -1.0"),
        (8, "0 2 -1.0"),
    ],
)
def test_solve_rejects_out_of_range_indices(tmp_path, capsys, line, entry):
    lines = shifted_lp_dump_lines()
    lines[line] = entry
    assert solve_dump(tmp_path, lines) == 1
    assert capsys.readouterr().err.startswith("cannot load program: index")


@pytest.mark.parametrize(
    "header, count, entry, message",
    [
        (6, "A 1 2 3", "0 0 1.0", "repeated A index (0, 0)"),  # summed into [[2, -1]] if let through
        (4, "OBJ 2", "0 5.0", "repeated OBJ index 0"),  # the later value overwrote the earlier one
        (9, "RHS 2", "0 4.0", "repeated RHS index 0"),
        (11, "END", "0 3.0", "line '0 3.0' after END"),  # ignored if let through
    ],
    ids=["A", "OBJ", "RHS", "after-END"],
)
def test_solve_rejects_repeated_entries_and_trailing_lines(tmp_path, capsys, header, count, entry, message):
    lines = shifted_lp_dump_lines()
    lines[header] = count
    lines.insert(header + 2, entry)  # after the section's first entry, or after END
    assert solve_dump(tmp_path, lines) == 1
    assert capsys.readouterr().err == f"cannot load program: {message}\n"


def test_extend_table_replay_round_trip(tmp_path, capsys):
    out = tmp_path / "ext"
    argv = ["extend-table", "--d", "3", "--v-grid", "0,0.2", "--k-list", "2", "--flavors", "SE"]
    assert main(argv + ["--seed", "5", "--out", str(out)]) == 0
    csv_file = out / "extend_table_d3.csv"
    first = csv_file.read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "extend-table"
    saved = tmp_path / "manifest.json"
    saved.write_text(json.dumps(manifest))
    assert main(["sweep", "--replay", str(saved)]) == 0
    assert csv_file.read_bytes() == first
    # a changed digest is a mismatch; arguments the parser rejects exit 1, not the --strict code 2
    manifest["outputs"]["extend_table_d3.csv"] = "0" * 64
    saved.write_text(json.dumps(manifest))
    assert main(["sweep", "--replay", str(saved)]) == 1
    manifest["args"]["bogus"] = 1
    saved.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["sweep", "--replay", str(saved)]) == 1
    assert "cannot replay" in capsys.readouterr().err


def test_replay_mismatch_leaves_recorded_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["sweep", "--task", "ppt,dc", "--v-grid", "0:0.25:0.5", "--d-grid", "2:1:4", "--seed", "11"]
    assert main(argv + ["--out", str(out)]) == 0
    # a recorded CSV that today's code no longer reproduces, with its digest in the manifest
    csv_file, manifest_file = out / "ppt_d3.csv", out / "manifest.json"
    csv_file.write_text(csv_file.read_text() + "3,0.75,0,0.1,INCONCLUSIVE\n")
    manifest = json.loads(manifest_file.read_text())
    manifest["outputs"]["ppt_d3.csv"] = hashlib.sha256(csv_file.read_bytes()).hexdigest()
    manifest_file.write_text(json.dumps(manifest))
    recorded = {f.name: f.read_bytes() for f in out.iterdir()}
    capsys.readouterr()
    assert main(["sweep", "--replay", str(manifest_file)]) == 1
    assert "replay mismatch" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == recorded


@pytest.mark.parametrize("task", ["distill", "fef", "chsh", "sr"])
def test_sweep_rejects_zero_restarts(tmp_path, capsys, task):
    assert main(["sweep", "--task", task, "--v-grid", "0.1", "--restarts", "0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: restarts must be at least 1")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--task", "sr", "--v-grid", "0.1", "--n-settings", "0"],
        ["pipeline", "--n-settings", "0", "--shots", "2000"],
    ],
    ids=["sweep", "pipeline"],
)
def test_zero_settings_are_rejected_by_name(tmp_path, capsys, argv):
    out = tmp_path / ("out" if argv[0] == "sweep" else "report.json")
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: n_settings must be at least 1, got 0\n"


def test_pipeline_report_and_verdicts(tmp_path):
    report_file = tmp_path / "r.json"
    code = main(
        [
            "pipeline",
            "--v",
            "0.45",
            "--shots",
            "20000",
            "--bootstrap",
            "10",
            "--restarts",
            "8",
            "--sr-restarts",
            "2",
            "--seed",
            "6",
            "--out",
            str(report_file),
        ]
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["schema_version"] == 1
    certs = report["unfiltered"]["certificates"]
    # v = 0.45: still entangled, but no 1-distillability to be found
    assert certs["ppt"]["verdict"] == "FAIL"
    assert certs["one_distillable"]["verdict"] == "INCONCLUSIVE"
    assert certs["one_distillable"]["value"] >= -1e-6
    assert 0 < report["filter"]["success_prob"] <= 1


def test_pipeline_report_follows_its_recipe(tmp_path):
    """Every value of a small pipeline report (wall_time_s excepted), rebuilt by calling the library in
    the recipe's order with the seeds derived from the global seed: this checks the seed schedule and
    the report's shape without pinning a float that may differ on another CPU."""
    from wernerlab import filterops, qmat, states

    report_file = tmp_path / "r.json"
    flags = ["--v", "0.1", "--shots", "20000", "--restarts", "4", "--sr-restarts", "2", "--bootstrap", "10"]
    assert main(["pipeline", *flags, "--seed", "1", "--out", str(report_file)]) == 0
    report = json.loads(report_file.read_text())
    del report["wall_time_s"]

    def entry(cert, std=None):
        fields = {"value": cert.value, "threshold": cert.threshold, "verdict": cert.verdict}
        return fields if std is None else {**fields, "std": std}

    def mle(history):
        return {"gap_nats": history.gap, "steps": len(history) - 1, "capped": history.capped}

    v, shots, n_s = 0.1, 20000, 2
    seed = derive_seed(1, f"pipeline:{v}")
    ideal = werner(3, v)
    surrogate = states.noisy_surrogate(ideal, states.NoiseSpec(depol=0.05, coherent_eps=0.03, seed=seed))
    counts = tomo.simulate_counts(surrogate, shots, seed ^ 1, state_tag=f"w3v{v}")
    recon, history = tomo.mle_reconstruct_with_history(counts, max_iter=3000)
    ppt = certify.ppt_min_eig(recon)
    _, ppt_std = tomo.bootstrap_error(counts, lambda rho: certify.ppt_min_eig(rho).value, n_boot=10, seed=seed ^ 2)
    distill = certify.one_distillable(recon, restarts=4, seed=seed ^ 3)
    fef = certify.fef(recon, restarts=4, seed=seed ^ 4)
    dc, gurvits = certify.dense_coding_delta(recon), certify.gurvits_ball(recon)
    sr = steer.sr_state_lower_bound(recon, n_s, restarts=2, seed=seed ^ 5).best

    pi = filterops.qubit_projection(3, (1, 2))
    filtered_raw, success_prob = filterops.apply_filter(recon, pi, pi)
    rot = qmat.kron(qmat.PAULI_X, qmat.PAULI_Z)
    filtered = qmat.as_state(rot @ filtered_raw.mat @ rot.conj().T, 2, 2)
    counts_f = tomo.simulate_counts(filtered, shots, seed ^ 6, frame=tomo.qubit_bases())
    recon_f, history_f = tomo.mle_reconstruct_with_history(counts_f, max_iter=3000)
    chsh = certify.chsh_horodecki(recon_f)
    _, chsh_std = tomo.bootstrap_error(
        counts_f, lambda rho: certify.chsh_horodecki(rho).value, n_boot=10, seed=seed ^ 7
    )
    f2 = certify.fef2_exact(recon_f)
    dc_f, gurvits_f = certify.dense_coding_delta(recon_f), certify.gurvits_ball(recon_f)
    sr_f = steer.sr_state_lower_bound(recon_f, n_s, restarts=2, seed=seed ^ 8).best

    assert report == {
        "schema_version": 1,
        "params": {
            "v": v, "depol": 0.05, "eps": 0.03, "shots": shots, "n_settings": n_s,
            "global_seed": 1, "derived_seed": seed,
        },
        "unfiltered": {
            "fidelity_vs_ideal": uhlmann_fidelity(recon, ideal),
            "mle": mle(history),
            "certificates": {
                "ppt": entry(ppt, ppt_std),
                "one_distillable": entry(distill),
                "fef": entry(fef),
                "dense_coding": entry(dc),
                "gurvits_ball": entry(gurvits),
            },
            "steering_robustness": sr,
        },
        "filter": {"success_prob": success_prob, "kept_levels": [1, 2]},
        "filtered": {
            "fidelity_vs_target": uhlmann_fidelity(recon_f, rotated_filtered_state(v)),
            "mle": mle(history_f),
            "certificates": {
                "chsh": entry(chsh, chsh_std),
                "dense_coding": entry(dc_f),
                "gurvits_ball": entry(gurvits_f),
            },
            "fef2_exact": f2,
            "steering_robustness": sr_f,
        },
    }


def test_pipeline_without_out_prints_its_report(capsys):
    argv = ["pipeline", "--shots", "2000", "--restarts", "4", "--sr-restarts", "2", "--bootstrap", "10"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 1
    assert report["params"]["shots"] == 2000


def test_pipeline_gurvits_pass_at_half(tmp_path):
    report_file = tmp_path / "r5.json"
    code = main(
        [
            "pipeline",
            "--v",
            "0.5",
            "--shots",
            "20000",
            "--bootstrap",
            "10",
            "--restarts",
            "6",
            "--sr-restarts",
            "1",
            "--seed",
            "2",
            "--out",
            str(report_file),
        ]
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["filtered"]["certificates"]["gurvits_ball"]["verdict"] == "PASS"


def test_pipeline_strict_flags_bad_noise(tmp_path):
    # destroying the state with noise makes the ideal-theory verdicts fail
    code = main(
        [
            "pipeline",
            "--v",
            "0.0",
            "--depol",
            "0.9",
            "--eps",
            "0.0",
            "--shots",
            "20000",
            "--bootstrap",
            "10",
            "--restarts",
            "6",
            "--sr-restarts",
            "1",
            "--seed",
            "3",
            "--strict",
            "--out",
            str(tmp_path / "x.json"),
        ]
    )
    assert code == 2


def test_manifest_records_blas_and_replay_names_a_blas_difference(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "run"
    assert main(["sweep", "--task", "ppt", "--v-grid", "0:0.25:0.5", "--seed", "5", "--out", str(out)]) == 0
    manifest_file = out / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    blas = manifest["blas"]
    assert blas["OPENBLAS_NUM_THREADS"] == "1" and blas["MKL_NUM_THREADS"] is None
    assert set(blas) == {"name", "version", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    # a digest mismatch under the same settings names no BLAS difference
    manifest["outputs"]["ppt_d3.csv"] = "0" * 64
    manifest_file.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["sweep", "--replay", str(manifest_file)]) == 1
    err = capsys.readouterr().err
    assert "replay mismatch: CSV digests differ" in err and "BLAS" not in err
    # the same mismatch after a run under another thread count says so, after the digest line
    manifest["blas"]["OPENBLAS_NUM_THREADS"] = "2"
    manifest_file.write_text(json.dumps(manifest))
    assert main(["sweep", "--replay", str(manifest_file)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "replay mismatch: CSV digests differ"
    assert lines[1].startswith("replay mismatch: BLAS settings differ")
    assert '"OPENBLAS_NUM_THREADS": "2"' in lines[1] and '"OPENBLAS_NUM_THREADS": "1"' in lines[1]


# Runs cli.main on the JSON argv it is given, in a fresh interpreter, and prints on its last line
# the exit code, the scipy modules loaded and the modules that main added to sys.modules.
MODULE_PROBE = """
import json, sys
from wernerlab import cli
before = set(sys.modules)
code = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else 0
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
                  "added": sorted(set(sys.modules) - before)}))
"""


def probe_modules(*argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    args = [sys.executable, "-c", MODULE_PROBE] + ([json.dumps(list(argv))] if argv else [])
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_scipy():
    assert probe_modules()["scipy"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--task", "ppt,distill,fef,chsh,dc,tomo", "--d", "3", "--v-grid", "0:0.05:0.5"],
        ["sweep", "--task", "sr", "--v-grid", "0.1", "--restarts", "2"],
        ["extend-table", "--v-grid", "0", "--d", "3", "--k-list", "4", "--flavors", "SE,SE_B"],
        ["extend-table", "--v-grid", "0", "--d", "5", "--k-list", "2", "--flavors", "SE_B"],
        ["pipeline", "--shots", "2000", "--restarts", "4", "--sr-restarts", "2", "--bootstrap", "10"],
        ["tomo-demo", "--shots", "2000"],
    ],
    ids=["sweep-certificates", "sweep-sr", "extend-table-d3", "extend-table-d5", "pipeline", "tomo-demo"],
)
def test_commands_without_a_sparse_program_load_no_module(tmp_path, argv):
    # neither scipy nor anything else: a module that loads inside main is paid in every call's run time
    out = ["--out", str(tmp_path / "report.json")] if argv[0] == "pipeline" else ["--out", str(tmp_path)]
    got = probe_modules(*argv, *out)
    assert got == {"code": 0, "scipy": [], "added": []}


def test_noisy_extend_table_still_loads_scipy(tmp_path):
    argv = ["extend-table", "--d", "3", "--k-list", "2", "--flavors", "SE", "--noisy", "--v-grid", "0.4"]
    got = probe_modules(*argv, "--out", str(tmp_path))
    assert got["code"] == 0 and "scipy.sparse" in got["scipy"]
    _, rows = read_csv(tmp_path / "extend_table_d3.csv")
    assert [row[-1] for row in rows] == ["OPTIMAL"]


COMMAND_NAMES = ["sweep", "pipeline", "extend-table", "tomo-demo", "solve"]
EVERY_COMMAND = "{sweep,pipeline,extend-table,tomo-demo,solve}"


def test_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: wernerlab [-h] [--version] {EVERY_COMMAND} ...\n")
    assert all(f"\n    {name} " in out for name in COMMAND_NAMES)


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_each_command_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: wernerlab {command} [-h]")


def test_unknown_command_names_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    choices = ", ".join(map(repr, COMMAND_NAMES))
    assert f"error: argument command: invalid choice: 'bogus' (choose from {choices})" in capsys.readouterr().err
    # a call that builds one command's parser still prints the usage of them all
    with pytest.raises(SystemExit):
        main(["sweep", "--bogus"])
    assert capsys.readouterr().err.startswith(f"usage: wernerlab [-h] [--version] {EVERY_COMMAND} ...\n")


def test_each_call_builds_only_the_parser_it_runs(tmp_path, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert main(["sweep", "--task", "ppt", "--v-grid", "0", "--out", str(tmp_path / "s")]) == 0
    assert built == ["sweep"]
    built.clear()
    argv = ["extend-table", "--v-grid", "0", "--k-list", "2", "--flavors", "SE", "--out", str(tmp_path / "t")]
    assert main(argv) == 0
    assert built == ["extend-table"]
    built.clear()
    assert main(["sweep", "--replay", str(tmp_path / "t" / "manifest.json")]) == 0
    assert built == ["sweep", "extend-table"]  # the replay command's parser, then the recorded command's


@pytest.mark.parametrize(
    "manifest",
    [
        {},
        [1],
        {"command": "sweep", "args": {"task": "ppt", "v_grid": [0.0]}},
        {"command": "sweep", "args": {"task": "ppt"}, "outputs": ["ppt_d3.csv"]},
        {"command": "bogus", "args": {}, "outputs": {}},
        {"command": "pipeline", "args": {}, "outputs": {}},
    ],
    ids=["empty", "list", "no-outputs", "list-outputs", "unknown-command", "no-manifest-command"],
)
def test_replay_rejects_a_malformed_manifest_before_anything_runs(tmp_path, capsys, monkeypatch, manifest):
    monkeypatch.setitem(cli.SWEEPS, "ppt", lambda args, seed: pytest.fail("the sweep ran"))
    monkeypatch.setattr(cli, "run_pipeline", lambda args: pytest.fail("the pipeline ran"))
    saved = tmp_path / "manifest.json"
    saved.write_text(json.dumps(manifest))
    assert main(["sweep", "--replay", str(saved)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"cannot replay: {saved} is not a sweep or extend-table manifest\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--task", "ppt,sr", "--restarts", "0", "--v-grid", "0.1"], "restarts must be at least 1"),
        (["sweep", "--task", "ppt,tomo", "--shots", "0", "--v-grid", "0.1"], "shots must be"),
        (["sweep", "--task", "sr", "--restarts", "0", "--v-grid", "0.1"], "restarts must be at least 1"),
        (["extend-table", "--k-list", "0", "--v-grid", "0"], "extension needs"),
    ],
    ids=["ppt-sr", "ppt-tomo", "sr", "extend-table"],
)
def test_a_failing_task_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_extend_table_checks_sdp_tol_without_a_solve(tmp_path, capsys, source):
    # SE on a Werner state takes the closed form, which solves nothing; a JSON number skips the option's type
    config = tmp_path / "c.json"
    config.write_text('{"sdp-tol": 0}')
    tol = ["--sdp-tol", "0"] if source == "flag" else ["--config", str(config)]
    out = tmp_path / "run"
    assert main(["extend-table", *tol, "--k-list", "2", "--flavors", "SE", "--v-grid", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: tol must be finite and positive\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "extend-table"])
def test_k_list_errors_name_the_int_list_type(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--k-list", "2,x", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert f"wernerlab {command}: error: argument --k-list: invalid int_list value: '2,x'" in capsys.readouterr().err
