import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from plumetrace import experiment, filters, flowfield, mesh as meshmod
from plumetrace.cli import load_config, main
from plumetrace.experiment import ScenarioConfig, run_trials

DESK_HASH = "1d6eeab85a34ae50"
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

TINY_CFG = """\
[mesh]
x0 = 0
y0 = 0
x1 = 10
y1 = 10
nx = 4
ny = 4

[flow]
kind = uniform
u = 0.05
v = 0.0

[physics]
diffusivity = 0.02
dt = auto
steps = 3
source_x = 5.0
source_y = 5.0
field_noise = 1e-4
strength_walk = 1e-4

[sensors]
layout = random
count = 5
detect_rate = 0.9
scale = 8.0
levels = 64
noise = 1e-4

[estimator]
kind = rbpf
size = 6
init_cov = 4.0

[run]
trials = 2
seed = 11
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


# a summary holding every key compare reads, each of its type
_SUMMARY = {"estimator": "rbpf", "size": 5, "aee": 1.0, "runtime_total": 0.1,
            "config_hash": "aaaa"}


# one row per config-file key: section, key, raw value, field, parsed value
ONE_KEY_CASES = [
    ("mesh", "file", "grid.txt", "mesh_file", "grid.txt"),
    ("mesh", "x0", "1", "domain", (1.0, 0.0, 1000.0, 1000.0)),
    ("mesh", "y0", "2", "domain", (0.0, 2.0, 1000.0, 1000.0)),
    ("mesh", "x1", "900", "domain", (0.0, 0.0, 900.0, 1000.0)),
    ("mesh", "y1", "800", "domain", (0.0, 0.0, 1000.0, 800.0)),
    ("mesh", "nx", "7", "nx", 7),
    ("mesh", "ny", "9", "ny", 9),
    ("flow", "kind", "rotation", "flow_kind", "rotation"),
    ("flow", "u", "0.5", "flow_u", 0.5),
    ("flow", "v", "-0.25", "flow_v", -0.25),
    ("flow", "center_x", "10", "flow_center", (10.0, 0.0)),
    ("flow", "center_y", "20", "flow_center", (0.0, 20.0)),
    ("flow", "rate", "0.125", "flow_rate", 0.125),
    ("flow", "file", "flow.txt", "flow_file", "flow.txt"),
    ("physics", "diffusivity", "3.5", "diffusivity", 3.5),
    ("physics", "auto_stabilise", "false", "auto_stabilise", False),
    ("physics", "auto_stabilise", "Off", "auto_stabilise", False),
    ("physics", "auto_stabilise", "0", "auto_stabilise", False),
    ("physics", "auto_stabilise", "yes", "auto_stabilise", True),
    ("physics", "dt", "auto", "dt", None),
    ("physics", "dt", "12.5", "dt", 12.5),
    ("physics", "steps", "12", "steps", 12),
    ("physics", "source_x", "100", "source", (100.0, 500.0)),
    ("physics", "source_y", "200", "source", (250.0, 200.0)),
    ("physics", "strength", "2", "strength", 2.0),
    ("physics", "field_noise", "1e-3", "field_noise", 1e-3),
    ("physics", "strength_walk", "1e-6", "strength_walk", 1e-6),
    ("sensors", "file", "sensors.txt", "sensor_file", "sensors.txt"),
    ("sensors", "layout", "random", "sensor_layout", "random"),
    ("sensors", "count", "7", "sensor_count", 7),
    ("sensors", "detect_rate", "0.5", "detect_rate", 0.5),
    ("sensors", "scale", "4", "quantiser_scale", 4.0),
    ("sensors", "levels", "16", "quantiser_levels", 16),
    ("sensors", "noise", "1e-3", "sensor_noise", 1e-3),
    ("estimator", "kind", "enkf", "estimator", "enkf"),
    ("estimator", "size", "50", "size", 50),
    ("estimator", "init_cov", "3", "init_cov", 3.0),
    ("run", "trials", "3", "trials", 3),
    ("run", "seed", "42", "seed", 42),
    ("run", "node_stride", "2", "node_stride", 2),
]


class TestConfigFile:
    @pytest.mark.parametrize("section,key,raw,name,expected", ONE_KEY_CASES)
    def test_one_key_sets_exactly_its_field(self, section, key, raw, name,
                                            expected, tmp_path):
        path = tmp_path / "one.cfg"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        config = load_config(path)
        default = ScenarioConfig()
        for f in dataclasses.fields(ScenarioConfig):
            value = getattr(config, f.name)
            if f.name == name:
                assert repr(value) == repr(expected)
            else:
                assert repr(value) == repr(getattr(default, f.name)), f.name

    def test_one_key_cases_cover_the_schema(self):
        declared = {
            (f.metadata["section"], key)
            for f in dataclasses.fields(ScenarioConfig)
            for key in f.metadata["keys"]
        }
        assert declared == {case[:2] for case in ONE_KEY_CASES}

    def test_force_dt_has_no_config_key(self, tmp_path):
        path = tmp_path / "force.cfg"
        path.write_text("[run]\nforce_dt = true\n")
        with pytest.raises(ValueError, match=r"unknown key 'force_dt'"):
            load_config(path)

    def test_desk_config_matches_defaults(self):
        config = load_config(CONFIG_DIR / "desk.cfg")
        assert config == ScenarioConfig()
        assert config.scenario_hash() == DESK_HASH

    def test_enkf_variant_shares_scenario(self):
        config = load_config(CONFIG_DIR / "desk_enkf.cfg")
        assert config.estimator == "enkf"
        assert config.scenario_hash() == DESK_HASH

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[turbulence]\nintensity = 3\n")
        with pytest.raises(ValueError, match=r"unknown config section"):
            load_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[physics]\nviscosity = 3\n")
        with pytest.raises(ValueError, match=r"unknown key 'viscosity'"):
            load_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[physics]\nsteps = many\n")
        with pytest.raises(ValueError, match=r"bad value for \[physics\] steps"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_auto_dt_and_tuple_slots(self, tiny_cfg):
        config = load_config(tiny_cfg)
        assert config.dt is None
        assert config.domain == (0.0, 0.0, 10.0, 10.0)
        assert config.source == (5.0, 5.0)
        assert config.sensor_layout == "random"
        assert config.quantiser_scale == 8.0

    def test_invalid_config_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[sensors]\ncount = 0\n")
        with pytest.raises(ValueError, match="at least one sensor"):
            load_config(path)


class TestMeshCommand:
    def test_rect_mesh_written(self, tmp_path, capsys):
        out = tmp_path / "grid.txt"
        code = main(["mesh", "--rect", "0", "0", "1", "1",
                     "--nx", "3", "--ny", "2", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "nodes 12  elements 12" in captured
        grid = meshmod.load_mesh(out)
        assert grid.node_count == 12

    def test_stability_printout(self, tmp_path, capsys):
        out = tmp_path / "grid.txt"
        code = main(["mesh", "--rect", "0", "0", "1", "1",
                     "--nx", "10", "--ny", "10", "--out", str(out),
                     "--diffusivity", "1e-3", "--flow-u", "0.04",
                     "--dt", "1e9"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "critical_dt=" in captured
        assert "peclet: max=2" in captured
        assert "warning: Pe > 1" in captured
        assert "UNSTABLE" in captured

    def test_out_directory_is_created(self, tmp_path):
        out = tmp_path / "new" / "grid.txt"
        assert main(["mesh", "--rect", "0", "0", "1", "1",
                     "--out", str(out)]) == 0
        assert meshmod.load_mesh(out).node_count == 121

    def test_roundtrip_through_infile(self, tmp_path, capsys):
        first = tmp_path / "a.txt"
        main(["mesh", "--rect", "0", "0", "2", "1", "--out", str(first)])
        capsys.readouterr()
        second = tmp_path / "b.txt"
        code = main(["mesh", "--in", str(first), "--out", str(second)])
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_requires_rect_or_infile(self, tmp_path):
        assert main(["mesh", "--out", str(tmp_path / "m.txt")]) == 2

    @pytest.mark.parametrize("flags, named", [
        (["--dt", "18"], "--dt"),
        (["--flow-u", "0.02"], "--flow-u"),
        (["--flow-v", "0.02", "--dt", "18"], "--flow-v, --dt"),
    ])
    def test_preview_flags_need_diffusivity(self, flags, named, capsys):
        code = main(["mesh", "--rect", "0", "0", "1000", "1000", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--diffusivity is required by {named}" in captured.err

    @pytest.mark.parametrize("flags, named", [
        (["--rect", "0", "0", "2", "1"], "--rect"),
        (["--nx", "4"], "--nx"),
        (["--rect", "0", "0", "2", "1", "--ny", "4"], "--rect, --ny"),
    ])
    def test_infile_refuses_mesh_building_flags(self, flags, named,
                                                tmp_path, capsys):
        grid = tmp_path / "a.txt"
        assert main(["mesh", "--rect", "0", "0", "1", "1",
                     "--out", str(grid)]) == 0
        capsys.readouterr()
        assert main(["mesh", "--in", str(grid), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{named} cannot be combined" in captured.err

    @pytest.mark.parametrize("flags", [["--seed", "3"], ["--force"],
                                       ["--config", "x.cfg"]])
    def test_rejects_scenario_flags_it_never_reads(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(["mesh", "--rect", "0", "0", "1", "1", *flags])
        assert exc.value.code == 2

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["calibrate"])


class TestPipeline:
    def test_simulate_estimate_compare(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["--config", str(tiny_cfg), "--out", str(out)]
        assert main(["simulate"] + args) == 0
        for name in ("truth.csv", "observations.csv", "sensors.txt"):
            assert (out / name).is_file()

        assert main(["estimate"] + args) == 0
        assert (out / "estimates_rbpf.csv").is_file()
        lines = (out / "estimates_rbpf.csv").read_text().splitlines()
        assert len(lines) == 2 + 2 * 3  # header rows + trials x steps

        enkf_cfg = tmp_path / "tiny_enkf.cfg"
        enkf_cfg.write_text(TINY_CFG.replace("kind = rbpf", "kind = enkf"))
        assert main(["estimate", "--config", str(enkf_cfg),
                     "--out", str(out)]) == 0
        assert (out / "estimates_enkf.csv").is_file()

        capsys.readouterr()
        assert main(["compare", "--out", str(out),
                     str(out / "summary_rbpf.json"),
                     str(out / "summary_enkf.json")]) == 0
        table = capsys.readouterr().out
        assert "rbpf" in table and "enkf" in table
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[1] == "method,size,aee,runtime_s"
        assert len(rows) == 4

    def test_estimate_rejects_foreign_observations(self, tiny_cfg, tmp_path,
                                                   capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tiny_cfg),
                     "--out", str(out)]) == 0
        code = main(["estimate", "--config", str(tiny_cfg), "--seed", "99",
                     "--out", str(out)])
        assert code == 2
        assert "hashes to" in capsys.readouterr().err

    def test_estimate_without_observations(self, tiny_cfg, tmp_path, capsys):
        code = main(["estimate", "--config", str(tiny_cfg),
                     "--out", str(tmp_path / "fresh")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text", [
        "[mesh]\nnx = 5\nnx = 6\n", "nx = 5\n[mesh]\nny = 6\n",
    ], ids=["repeated-key", "key-before-any-section"])
    def test_malformed_config_file_is_a_validation_failure(self, text,
                                                           tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config file {path} is malformed" in capsys.readouterr().err

    def test_simulate_refuses_a_non_finite_strength(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        text = (CONFIG_DIR / "desk.cfg").read_text()
        assert "\nstrength = 1.0\n" in text
        path.write_text(text.replace("\nstrength = 1.0\n",
                                     "\nstrength = nan\n"))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert "strength must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_rejects_mixed_scenarios(self, tmp_path, capsys):
        import json
        docs = []
        for i, h in enumerate(("aaaa", "bbbb")):
            doc = {"estimator": "rbpf", "size": 5, "aee": 1.0,
                   "runtime_total": 0.1, "config_hash": h}
            path = tmp_path / f"s{i}.json"
            path.write_text(json.dumps(doc))
            docs.append(str(path))
        code = main(["compare", "--out", str(tmp_path)] + docs)
        assert code == 2
        assert "different scenarios" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,names", [
        ({"estimator": "rbpf"}, "config_hash, size, aee, runtime_total"),
        ({"estimator": "rbpf", "size": 5, "aee": 1.0, "config_hash": "aaaa"},
         "runtime_total"),
        ([1, 2], "not a JSON object"),
        (b'{"estimator": "rbpf",\n', "not JSON"),
        (b'{"estimator": "\xff"}', "not JSON"),
        (dict(_SUMMARY, size=None), "size is None"),
        (dict(_SUMMARY, size=True), "size is True"),
        (dict(_SUMMARY, size=5.0), "size is 5.0"),
        (dict(_SUMMARY, aee="x"), "aee is 'x'"),
        (dict(_SUMMARY, runtime_total=False), "runtime_total is False"),
        (dict(_SUMMARY, estimator=1), "estimator is 1"),
        (dict(_SUMMARY, config_hash=["aaaa"]), "config_hash is ['aaaa']"),
    ], ids=["estimator-only", "no-runtime", "list", "truncated", "not-utf8",
            "size-null", "size-bool", "size-float", "aee-string",
            "runtime-bool", "estimator-number", "hash-list"])
    def test_compare_rejects_malformed_summaries(self, doc, names, tmp_path,
                                                 capsys):
        # bytes are the file's content, anything else its JSON
        path = tmp_path / "summary_rbpf.json"
        path.write_bytes(doc if isinstance(doc, bytes) else
                         json.dumps(doc).encode())
        out = tmp_path / "out"
        assert main(["compare", "--out", str(out), str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and names in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--config", "nonexistent.cfg"],
                                       ["--force"]])
    def test_compare_refuses_scenario_flags(self, flags, tmp_path, capsys):
        docs = []
        for estimator in ("rbpf", "enkf"):
            doc = {"estimator": estimator, "size": 5, "aee": 1.0,
                   "runtime_total": 0.1, "config_hash": "aaaa"}
            path = tmp_path / f"summary_{estimator}.json"
            path.write_text(json.dumps(doc))
            docs.append(str(path))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["compare", *flags, "--seed", "3", "--out", str(out), *docs])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_is_byte_deterministic(self, tiny_cfg, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            args = ["--config", str(tiny_cfg), "--out", str(out)]
            assert main(["simulate"] + args) == 0
            assert main(["estimate"] + args) == 0
        for name in ("truth.csv", "observations.csv", "sensors.txt",
                     "estimates_rbpf.csv"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, name

    def test_estimate_threads_write_identical_bytes(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        args = ["--config", str(tiny_cfg), "--out", str(out)]
        assert main(["simulate"] + args) == 0
        estimates = []
        for threads in ("1", "2"):
            assert main(["estimate", "--threads", threads] + args) == 0
            estimates.append((out / "estimates_rbpf.csv").read_bytes())
        assert estimates[0] == estimates[1]

    @pytest.mark.parametrize("command,name", [
        ("estimate", "run_trials"),
        ("simulate", "write_truth_csv"),
    ])
    def test_an_interrupt_exits_130_with_one_line(self, command, name,
                                                  tiny_cfg, tmp_path,
                                                  monkeypatch, capsys):
        args = ["--config", str(tiny_cfg), "--out", str(tmp_path / "out")]
        assert main(["simulate"] + args) == 0
        capsys.readouterr()

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, name, interrupt)
        assert main([command] + args) == 130
        assert capsys.readouterr().err == "interrupted\n"

    def test_an_interrupt_beside_the_truth_writer_leaves_no_child(
            self, tiny_cfg, tmp_path, monkeypatch, capsys):
        # the truth file's second half is formatted in a forked child, here
        # whatever its size; this process is interrupted in its own half
        monkeypatch.setattr(experiment, "_SPLIT_VALUES", 0)
        monkeypatch.setattr(experiment, "_usable_cores", lambda: 2)
        truth_rows, halves = experiment._truth_rows, []

        def interrupted(row, arrays, stride, start, stop):
            halves.append(start)
            lines = truth_rows(row, arrays, stride, start, stop)
            if start:
                return lines

            def first_then_interrupt():
                yield next(lines)
                raise KeyboardInterrupt
            return first_then_interrupt()

        monkeypatch.setattr(experiment, "_truth_rows", interrupted)
        assert main(["simulate", "--config", str(tiny_cfg),
                     "--out", str(tmp_path / "out")]) == 130
        assert capsys.readouterr().err == "interrupted\n"
        assert halves == [4, 0]           # the child's half, then this one's
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_ctrl_c_beside_the_truth_writer_prints_one_line(self, tiny_cfg,
                                                            tmp_path):
        """SIGINT to the command's process group, as Ctrl-C sends it, while
        the forked child formats its half of truth.csv: the child ignores
        it, and the command ends with one line and exit code 130, leaving
        no process of its group behind."""
        script = textwrap.dedent("""
            import os, signal, sys, time
            from plumetrace import cli, experiment

            experiment._SPLIT_VALUES = 0
            experiment._usable_cores = lambda: 2
            truth_rows = experiment._truth_rows

            def rows(row, arrays, stride, start, stop):
                lines = truth_rows(row, arrays, stride, start, stop)

                def child_half():
                    time.sleep(1.0)          # interrupted in here
                    yield from lines

                def own_half():
                    time.sleep(0.2)          # the child is sleeping
                    os.killpg(0, signal.SIGINT)
                    yield from lines
                return child_half() if start else own_half()

            experiment._truth_rows = rows
            sys.exit(cli.main(sys.argv[1:]))
        """)
        with subprocess.Popen(
                [sys.executable, "-c", script, "simulate", "--config",
                 str(tiny_cfg), "--out", str(tmp_path / "out")],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, start_new_session=True) as command:
            _, err = command.communicate(timeout=60)
        assert (command.returncode, err) == (130, "interrupted\n")
        with pytest.raises(ProcessLookupError):
            os.killpg(command.pid, 0)

    def test_ctrl_c_beside_the_trial_workers_prints_one_line(self, tmp_path):
        """SIGINT to the command's process group, as Ctrl-C sends it, while
        one of two ``--threads`` workers waits on its schedule process and
        the other is done: the command ends them without waiting for their
        work, with one line and exit code 130, leaving no process of its
        group behind."""
        config = tmp_path / "long.cfg"
        config.write_text(TINY_CFG.replace("steps = 3", "steps = 20"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config),
                     "--out", str(out)]) == 0
        sent = tmp_path / "sent.txt"
        script = textwrap.dedent("""
            import os, signal, sys, time
            from plumetrace import cli, experiment, filters

            run_batch = experiment._run_batch
            condition = filters._condition_lower
            second, steps = [], []

            def batch(scenario, indices, logs):
                second.append(indices[0] != 0)
                return run_batch(scenario, indices, logs)

            def slow(*args):
                if second[0]:       # the second worker's schedule process
                    steps.append(None)
                    if len(steps) == 3:     # the first worker is done
                        with open(sys.argv[1], "w") as fh:
                            fh.write(repr(time.time()))
                        os.killpg(0, signal.SIGINT)
                    time.sleep(1.0)     # 20 steps outlast the test's bound
                return condition(*args)

            experiment._run_batch = batch
            filters._condition_lower = slow
            sys.exit(cli.main(sys.argv[2:]))
        """)
        with subprocess.Popen(
                [sys.executable, "-c", script, str(sent), "estimate",
                 "--threads", "2", "--config", str(config),
                 "--out", str(out)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, start_new_session=True) as command:
            _, err = command.communicate(timeout=60)
        ended = time.time()
        assert (command.returncode, err) == (130, "interrupted\n")
        # the second worker's schedule had 17 s left to run, and a worker
        # is given 5 s to end by itself
        assert ended - float(sent.read_text()) < 4.0
        with pytest.raises(ProcessLookupError):
            os.killpg(command.pid, 0)

    def test_simulate_rejects_threads(self, tiny_cfg, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(tiny_cfg), "--threads", "2",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    # one process builds one schedule; two workers build one per batch,
    # in the workers, and the parent builds none
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_estimate_builds_one_schedule(self, threads, tiny_cfg, tmp_path,
                                          monkeypatch):
        out = tmp_path / "out"
        args = ["--config", str(tiny_cfg), "--out", str(out)]
        assert main(["simulate"] + args) == 0
        calls = tmp_path / "calls.txt"
        build = filters.gain_schedule

        def counted(*a, **kw):
            with open(calls, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return build(*a, **kw)

        monkeypatch.setattr(filters, "gain_schedule", counted)
        assert main(["estimate", "--threads", threads] + args) == 0
        builders = calls.read_text().split()
        if threads == "1":
            assert builders == [str(os.getpid())]
        else:
            assert len(builders) == 2       # one batch for each of 2 trials
            assert str(os.getpid()) not in builders
        summary = json.loads((out / "summary_rbpf.json").read_text())
        assert summary["runtime_schedule"] > 0.0

    def test_estimate_refuses_no_threads_before_any_schedule(
            self, tiny_cfg, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        args = ["--config", str(tiny_cfg), "--out", str(out)]
        assert main(["simulate"] + args) == 0

        def refuse(*a, **kw):
            raise AssertionError("built a gain schedule for no workers")

        monkeypatch.setattr(filters, "gain_schedule", refuse)
        assert main(["estimate", "--threads", "0"] + args) == 2
        assert "threads" in capsys.readouterr().err
        assert not (out / "estimates_rbpf.csv").exists()

    def test_estimate_rejects_a_missing_trial(self, tiny_cfg, tmp_path,
                                              capsys):
        out = tmp_path / "out"
        args = ["--config", str(tiny_cfg), "--out", str(out)]
        assert main(["simulate"] + args) == 0
        path = out / "observations.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith("1,")))
        assert main(["estimate"] + args) == 2
        assert "holds 1 trial(s), but the config runs 2" in \
            capsys.readouterr().err

    def test_estimate_names_a_missing_cell(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["--config", str(tiny_cfg), "--out", str(out)]
        assert main(["simulate"] + args) == 0
        path = out / "observations.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        assert main(["estimate"] + args) == 2
        assert "no value for trial 1, step 3, sensor 4" in \
            capsys.readouterr().err

    def test_estimate_refuses_a_rewritten_flow_file(self, tiny_cfg, tmp_path,
                                                    capsys):
        flow = tmp_path / "flow.txt"

        def write_flow(speed):
            u = np.full((1, 2, 2), speed)
            flowfield.save_gridded_flow(flowfield.GriddedFlow(
                [-1.0, 11.0], [-1.0, 11.0], [0.0], u, np.zeros_like(u)), flow)

        write_flow(0.05)
        cfg = tmp_path / "flow.cfg"
        cfg.write_text(tiny_cfg.read_text().replace(
            "kind = uniform", f"kind = file\nfile = {flow}"))
        out = tmp_path / "out"
        args = ["--config", str(cfg), "--out", str(out)]
        assert main(["simulate"] + args) == 0
        config = load_config(cfg)
        moved = tmp_path / "moved.txt"
        moved.write_bytes(flow.read_bytes())
        assert (dataclasses.replace(config, flow_file=str(moved))
                .scenario_hash() == config.scenario_hash())
        write_flow(0.04)
        assert main(["estimate"] + args) == 2
        assert "was simulated under config" in capsys.readouterr().err
        assert not (out / "estimates_rbpf.csv").exists()

    def test_simulate_shares_the_trial_pipeline_truth(self, tiny_cfg,
                                                      tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tiny_cfg),
                     "--out", str(out)]) == 0
        rows = (out / "truth.csv").read_text().splitlines()[2:]
        config = load_config(tiny_cfg)
        for trial, result in enumerate(run_trials(config)):
            expected = [
                f"{trial},{k + 1}," + ",".join(format(v, ".17g") for v in row)
                for k, row in enumerate(result.truth)
            ]
            written = [r for r in rows if r.startswith(f"{trial},")
                       and not r.startswith(f"{trial},0,")]
            assert written == expected

    def test_seed_override_changes_draws(self, tiny_cfg, tmp_path):
        base, other = tmp_path / "base", tmp_path / "other"
        assert main(["simulate", "--config", str(tiny_cfg),
                     "--out", str(base)]) == 0
        assert main(["simulate", "--config", str(tiny_cfg), "--seed", "123",
                     "--out", str(other)]) == 0
        assert ((base / "observations.csv").read_bytes()
                != (other / "observations.csv").read_bytes())
