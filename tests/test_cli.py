"""Subcommand pipelines, exit codes, and emitted artifacts."""

import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from nematicq import cli, hedgehog, maier_saupe
from nematicq.cli import main
from nematicq.errors import ConfigError
from nematicq.field import seed_field
from nematicq.fieldio import load_config, read_field, write_field
from nematicq.hisd import SaddleOptions


def write_config(tmp_path, **overrides):
    payload = {
        "nx": 8,
        "ny": 8,
        "lambda2": 5.0,
        "a": -1.0,
        "b": 1.0,
        "c": 1.0,
    }
    payload.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def manifest_outputs(out_dir):
    payload = json.loads((out_dir / "run.json").read_text())
    return payload, sorted(payload["outputs"])


class TestToyCommands:
    def test_landscape_toy_emits_nine_nodes(self, tmp_path, capsys):
        rc = main(["landscape", "--toy", "--out", str(tmp_path)])
        assert rc == 0
        assert "searches=12 branches_run=12 " in capsys.readouterr().out
        payload = json.loads((tmp_path / "landscape.json").read_text())
        assert len(payload["nodes"]) == 9
        indices = sorted(n["index"] for n in payload["nodes"])
        assert indices == [0, 0, 0, 0, 1, 1, 1, 1, 2]
        manifest, outputs = manifest_outputs(tmp_path)
        emitted = sorted(p.name for p in tmp_path.iterdir())
        assert outputs == emitted

    def test_string_toy_barrier(self, tmp_path, capsys):
        rc = main(["string", "--toy", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert abs(payload["barrier_forward"] - 1.0) < 1e-4
        assert abs(payload["barrier_backward"] - 1.0) < 1e-4
        assert payload["ts_lambda1"] < 0.0
        assert payload["sweeps"] == 0  # the straight start already lies on the axis path
        assert capsys.readouterr().out.rstrip().endswith(f"sweeps={payload['sweeps']}")
        profile = (tmp_path / "profile.csv").read_text().splitlines()
        assert profile[0] == "node,alpha,energy"
        assert len(profile) == 17

    def test_saddle_toy(self, tmp_path):
        rc = main(["saddle", "--toy", "--k", "1", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "saddle.json").read_text())
        assert payload["morse_index"] == 1
        assert abs(payload["energy"] - 1.0) < 1e-10
        assert len(payload["lambda_spectrum"]) >= 2
        # the saddle dynamics, then the Newton endgame, each counted apart
        assert payload["iterations"] > 0 and payload["newton_steps"] >= 1

    def test_hedgehog_profile(self, tmp_path):
        rc = main(["hedgehog", "--out", str(tmp_path), "-R", "10", "-N", "128"])
        assert rc == 0
        lines = (tmp_path / "hedgehog.csv").read_text().splitlines()
        assert lines[0] == "r,h"
        assert len(lines) == 130

    @pytest.mark.parametrize(
        "argv",
        [
            ["string", "--toy"],
            ["saddle", "--toy", "--k", "2"],
            ["maier-saupe", "--alpha", "8.0", "--gamma1", "1.3"],
            ["hedgehog", "-N", "64"],
        ],
    )
    def test_run_record_lists_every_file(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        manifest, outputs = manifest_outputs(tmp_path)
        assert outputs == sorted(p.name for p in tmp_path.iterdir())
        assert manifest["error"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["hedgehog", "-N", "64"],
        ["maier-saupe", "--alpha", "8.0"],
        ["landscape", "--toy"],
        ["string", "--toy"],
        ["saddle", "--toy"],
    ],
)
def test_run_record_holds_the_tolerances_the_solver_applies(tmp_path, argv):
    applied = {
        "hedgehog": {"residual": hedgehog._TOL},
        "maier-saupe": {"eta_xtol": maier_saupe._ETA_XTOL, "eta_rtol": maier_saupe._ETA_RTOL},
        # the toy's searches stop at the default gradient tolerance
        "landscape": {"tol": SaddleOptions().tol_grad, "tol_x": cli._TOL_X},
        # the string stops at tol, its climb at find_mep's default ts_tol
        "string": {"tol": 1e-6, "ts_tol": 1e-8},
        "saddle": {"tol": 1e-8},
    }
    assert main(argv + ["--out", str(tmp_path)]) == 0
    manifest, _ = manifest_outputs(tmp_path)
    assert manifest["tolerances"] == applied[argv[0]]


class TestMaierSaupe:
    def test_three_branches(self, tmp_path):
        rc = main(["maier-saupe", "--alpha", "7.0", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "branches.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_single_branch_below_critical(self, tmp_path):
        rc = main(["maier-saupe", "--alpha", "6.0", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "branches.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_leslie_output(self, tmp_path):
        rc = main(
            ["maier-saupe", "--alpha", "8.0", "--gamma1", "1.3", "--out", str(tmp_path)]
        )
        assert rc == 0
        leslie = json.loads((tmp_path / "leslie.json").read_text())
        assert set(leslie) == {"isotropic", "prolate", "oblate"}
        pro = leslie["prolate"]
        assert pro["gamma1"] == 1.3
        assert pro["alpha2"] + pro["alpha3"] == pytest.approx(pro["alpha6"] - pro["alpha5"])

    def test_missing_alpha(self, tmp_path, capsys):
        rc = main(["maier-saupe", "--out", str(tmp_path)])
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    def test_invalid_alpha(self, tmp_path):
        assert main(["maier-saupe", "--alpha", "-2.0", "--out", str(tmp_path)]) == 1

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["maier-saupe", "--alpha", "7.2", "--out", str(a)]) == 0
        assert main(["maier-saupe", "--alpha", "7.2", "--out", str(b)]) == 0
        assert (a / "branches.csv").read_bytes() == (b / "branches.csv").read_bytes()


class TestUsageErrors:
    """A bad command line exits 1; 2 is reserved for a solver that failed."""

    @pytest.mark.parametrize(
        "argv",
        [["maier-saupe", "--alpha", "7", "--seed", "3", "--out", "out"], []],
        ids=["unknown_flag", "missing_subcommand"],
    )
    def test_exits_1_and_writes_nothing(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["saddle", "string", "landscape"])
    def test_seed_with_toy_exits_1_and_writes_nothing(self, tmp_path, monkeypatch, capsys, command):
        # a toy run draws nothing, so a seed would only be recorded, never used
        monkeypatch.chdir(tmp_path)
        assert main([command, "--toy", "--seed", "5"]) == 1
        assert list(tmp_path.iterdir()) == []
        assert "--seed" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: nematicq" in capsys.readouterr().out


class TestConfigCommands:
    def test_minimize_pipeline(self, tmp_path):
        cfg = write_config(tmp_path, init="diagonal(d1)", tol=1e-7)
        out = tmp_path / "out"
        rc = main(["minimize", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "minimize.json").read_text())
        assert payload["converged"] is True
        assert payload["grad_inf_norm"] < 1e-7
        assert payload["n_energy"] > 0 and payload["n_grad"] > 0
        f = read_field(out / "field.csv")
        assert f.domain.nx == 8
        manifest, outputs = manifest_outputs(out)
        assert sorted(p.name for p in out.iterdir()) == outputs

    def test_saddle_starts_from_an_init_snapshot(self, tmp_path):
        # a minimum's snapshot is already stationary: the index-0 search
        # lands where it starts, and writes the same snapshot back
        cfg = write_config(tmp_path, init="diagonal(d1)", tol=1e-7)
        assert main(["minimize", "--config", str(cfg), "--out", str(tmp_path / "min")]) == 0
        snapshot = tmp_path / "min" / "field.csv"
        out = tmp_path / "saddle"
        argv = ["saddle", "--config", str(cfg), "--init", str(snapshot), "--k", "0", "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads((out / "saddle.json").read_text())
        assert payload["morse_index"] == 0
        assert payload["iterations"] == payload["newton_steps"] == 0
        assert (out / "field.csv").read_bytes() == snapshot.read_bytes()

    def test_flow_pipeline_reports_stability(self, tmp_path):
        cfg = write_config(tmp_path, init="isotropic", tol=1e-5, dt=0.5, max_steps=20000)
        out = tmp_path / "out"
        rc = main(["flow", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "flow.json").read_text())
        assert payload["stable"] is True
        assert payload["steps"] > 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "step,time,energy,modified_energy,grad_inf_norm"
        assert len(lines) == payload["steps"] + payload["newton_steps"] + 2

    def test_flow_reports_its_time_and_step_range(self, tmp_path):
        cfg = write_config(tmp_path, init="random(0.2)", tol=1e-6, dt=0.5, max_steps=3000)
        out = tmp_path / "out"
        assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "flow.json").read_text())
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert payload["time"] == rows[-1, 1] > 0.0
        low, high = payload["step_range"]
        assert low <= 0.5 <= high and low < high
        # every SAV step is a rung, up to the rounding of the running sum;
        # the Newton rows after them keep the last SAV row's time
        sav_rows = rows[: payload["steps"] + 1]
        steps = np.diff(sav_rows[:, 1])
        assert np.all(steps >= low * (1.0 - 1e-9)) and np.all(steps <= high * (1.0 + 1e-9))
        assert np.all(rows[payload["steps"] + 1 :, 1] == sav_rows[-1, 1])
        modified = rows[:, 3]
        assert np.all(np.diff(modified) <= 1e-12 * np.abs(modified[:-1]))

    def test_flow_records_its_newton_steps(self, tmp_path, capsys):
        # the endgame's steps are counted apart from the SAV steps, each with
        # its own trajectory row, numbered on at the last SAV row's time,
        # under which the modified energy still never rises
        cfg = write_config(tmp_path, nx=16, ny=16, init="random(0.2)", boundary="planar", tol=1e-8, dt=0.5)
        out = tmp_path / "out"
        assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "flow.json").read_text())
        steps, newton = payload["steps"], payload["newton_steps"]
        assert newton >= 1 and f"steps={steps} newton_steps={newton} " in capsys.readouterr().out
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows.shape[0] == steps + newton + 1
        assert np.array_equal(rows[:, 0], np.arange(steps + newton + 1))
        assert np.all(rows[steps:, 1] == rows[steps, 1]) and rows[steps - 1, 1] < rows[steps, 1]
        assert rows[-1, 4] < 1e-8 and rows[-1, 2] == pytest.approx(payload["energy"], rel=1e-15)
        modified = rows[:, 3]
        assert np.all(np.diff(modified) <= 1e-12 * np.abs(modified[:-1]))

    def test_flow_budget_exhaustion_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, init="isotropic", tol=1e-9, dt=0.1, max_steps=3)
        out = tmp_path / "out"
        rc = main(["flow", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        # partial outputs still written
        assert (out / "trajectory.csv").exists()
        assert (out / "run.json").exists()
        assert not (out / "field.csv").exists()

    def test_missing_lambda2_names_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nx": 8, "ny": 8, "a": -1.0, "b": 1.0, "c": 1.0}))
        rc = main(["minimize", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "lambda2" in capsys.readouterr().err

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mystery=3)
        rc = main(["minimize", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [("tol", 0), ("tol", -1), ("dt", 0), ("dt", -0.5)]
        # json writes and reads these as Infinity and NaN
        + [("tol", np.inf), ("tol", np.nan), ("dt", np.inf), ("lambda2", np.nan), ("a", -np.inf), ("L2", np.inf)],
    )
    def test_non_positive_tolerance_or_step_exits_1(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        out = tmp_path / "o"
        problem = "positive" if np.isfinite(value) else "finite"
        for command in ("minimize", "flow", "landscape"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"config key '{key}' must be {problem}" in err
        assert not out.exists()
        with pytest.raises(ConfigError, match=f"'{key}' must be {problem}"):
            replace(load_config(write_config(tmp_path)), **{key: value})

    @pytest.mark.parametrize("key, value, bound", [("L2", -2.0, "-3/2"), ("c", 0.0, "bounded below")])
    def test_energy_not_bounded_below_exits_1_and_writes_nothing(self, tmp_path, capsys, key, value, bound):
        cfg = write_config(tmp_path, **{key: value})
        out = tmp_path / "o"
        for command in ("minimize", "flow", "landscape", "saddle"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
            assert bound in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_seed_spec_exits_1(self, tmp_path, capsys):
        # random(1e) matches the spec pattern; its sigma is no number
        cfg = write_config(tmp_path, init="random(1e)")
        out = tmp_path / "o"
        assert main(["minimize", "--config", str(cfg), "--out", str(out)]) == 1
        manifest, _ = manifest_outputs(out)
        assert "unknown seed spec 'random(1e)'" in manifest["error"]
        assert f"error: {manifest['error']}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [("flow", "max_steps", -5), ("landscape", "max_nodes", 0)])
    def test_budget_below_one_exits_1(self, tmp_path, capsys, command, key, value):
        # a budget that leaves nothing to run is a configuration mistake,
        # not a solver failure (exit 2) or an empty result
        cfg = write_config(tmp_path, **{key: value})
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"config key '{key}' must be positive, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_overrides_are_range_checked(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        for key, value in (("max_searches", 0), ("tol", -1.0)):
            with pytest.raises(ConfigError, match=key):
                replace(cfg, **{key: value})

    @pytest.mark.parametrize("command", ["saddle", "string"])
    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    def test_non_positive_tol_flag_exits_1(self, tmp_path, capsys, command, value):
        out = tmp_path / "o"
        assert main([command, "--toy", f"--tol={value}", "--out", str(out)]) == 1
        assert "argument --tol: must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["hedgehog", "--radius", "inf"],
            ["hedgehog", "-R", "nan"],
            ["hedgehog", "--radius", "0"],
            ["maier-saupe", "--alpha", "7", "--gamma1", "nan"],
            ["maier-saupe", "--alpha", "7", "--gamma1", "inf"],
            ["maier-saupe", "--alpha", "7", "--gamma1", "-1"],
        ],
    )
    def test_non_finite_radius_or_viscosity_exits_1(self, tmp_path, capsys, argv):
        # an infinite radius reached the banded solver, a NaN viscosity leslie.json
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        assert "error: argument" in capsys.readouterr().err
        assert not out.exists()

    def test_config_required(self, tmp_path, capsys):
        rc = main(["minimize", "--out", str(tmp_path)])
        assert rc == 1
        assert "config" in capsys.readouterr().err

    def test_string_needs_endpoints(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["string", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "field-a" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, init="random(0.5)", seed=3)
        fields = []
        for seed in (5, 9):
            out = tmp_path / f"seed{seed}"
            assert main(["minimize", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
            manifest, _ = manifest_outputs(out)
            assert manifest["inputs"]["seed"] == seed
            assert manifest["inputs"]["out_dir"] == str(out)
            assert manifest["error"] is None
            fields.append((out / "field.csv").read_bytes())
        assert fields[0] != fields[1]

    def test_seed_flag_leaves_a_search_alone(self, tmp_path):
        # the seed draws random(sigma) init fields only; an isotropic start
        # has none, so the saddle search and its certificate must not move
        cfg = write_config(
            tmp_path, lambda2=27.0, a=-2.0 / 3.0, b=2.0, c=2.0, boundary="planar", init="isotropic", tol=1e-7
        )
        runs = []
        for seed in (1, 2):
            out = tmp_path / f"seed{seed}"
            assert main(["saddle", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
            runs.append([(out / name).read_bytes() for name in ("field.csv", "saddle.json")])
        assert runs[0] == runs[1]


class TestRunRecordOnFailure:
    """Exit 2 still leaves run.json, with the message and every file written."""

    def check_record(self, out, capsys):
        manifest, outputs = manifest_outputs(out)
        assert outputs == sorted(p.name for p in out.iterdir())
        assert manifest["error"]
        assert manifest["error"] in capsys.readouterr().err
        return manifest

    def test_string_with_non_stationary_endpoints(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        domain = load_config(cfg).domain()
        write_field(tmp_path / "a.csv", seed_field(domain, "isotropic"))
        write_field(tmp_path / "b.csv", seed_field(domain, "diagonal(d1)"))
        out = tmp_path / "out"
        argv = ["string", "--config", str(cfg), "--field-a", str(tmp_path / "a.csv")]
        argv += ["--field-b", str(tmp_path / "b.csv"), "--n-nodes", "9", "--out", str(out)]
        assert main(argv) == 2
        manifest = self.check_record(out, capsys)
        assert "not stationary" in manifest["error"]
        assert manifest["inputs"]["n_nodes"] == 9

    def test_landscape_with_stalled_seed_minimization(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tol=1e-30)
        out = tmp_path / "out"
        assert main(["landscape", "--config", str(cfg), "--out", str(out)]) == 2
        manifest = self.check_record(out, capsys)
        assert "stalled" in manifest["error"]

    def test_minimize_short_of_tol(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tol=1e-30)
        out = tmp_path / "out"
        assert main(["minimize", "--config", str(cfg), "--out", str(out)]) == 2
        self.check_record(out, capsys)
        assert json.loads((out / "minimize.json").read_text())["converged"] is False

    def test_flow_budget_exhaustion(self, tmp_path, capsys):
        cfg = write_config(tmp_path, init="isotropic", tol=1e-9, dt=0.1, max_steps=3)
        out = tmp_path / "out"
        assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 2
        self.check_record(out, capsys)
        assert len((out / "trajectory.csv").read_text().splitlines()) == 3 + 2


class TestLandscapeFromAMinimum:
    """A config landscape whose seed minimizes to a minimum: the 16^2 planar
    square at lambda2 = 50 from diagonal(d1)."""

    def run(self, tmp_path, **overrides):
        cfg = write_config(
            tmp_path, nx=16, ny=16, lambda2=50.0, a=-2.0 / 3.0, b=2.0, c=2.0,
            boundary="planar", init="diagonal(d1)", tol=1e-6, **overrides,
        )
        return main(["landscape", "--config", str(cfg), "--out", str(tmp_path / "out")])

    def test_without_max_index_exits_1(self, tmp_path, capsys):
        # downward searches from a minimum find nothing: no silent one-node graph
        assert self.run(tmp_path) == 1
        manifest, outputs = manifest_outputs(tmp_path / "out")
        assert "max_index" in manifest["error"] and "max_index" in capsys.readouterr().err
        assert outputs == ["run.json"]

    def test_max_index_3_reaches_the_cross(self, tmp_path):
        assert self.run(tmp_path, max_index=3) == 0
        graph = json.loads((tmp_path / "out" / "landscape.json").read_text())
        nodes = [(node["index"], node["energy"]) for node in graph["nodes"]]
        assert len(nodes) == 7
        # landscape16's five nodes: the index-2 cross, two index-1 saddles and two minima
        for index, energy, count in ((2, 4.9295728, 1), (1, 4.6376755, 2), (0, 4.2740924, 2)):
            assert sum(k == index and abs(e - energy) < 1e-6 for k, e in nodes) == count
        assert len(graph["edges"]) == 40 and graph["branches_run"] == 18 and len(graph["failed"]) == 2


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "nematicq.cli",
                "maier-saupe",
                "--alpha",
                "6.0",
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "branches.csv").exists()
