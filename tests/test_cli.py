import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from coldplate import cli, fv, thermal
from coldplate.cli import (_CONFIG, _EXTENT, _FINITE, _LIST, _POINT,
                           _REQUIRED, _STRING, ACTIONS, ConfigError, _Kind,
                           assembly_to_json, main, parse_config)

from coldplate.geometry import PRESETS
from coldplate.properties import MATERIALS, get_material
from coldplate.studies import SWEEP_AXES
from conftest import small_assembly


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def small_doc(action, **extra):
    doc = {"action": action, "assembly": assembly_to_json(small_assembly())}
    doc.update(extra)
    return doc


class TestParseConfig:
    def test_minimal_preset(self):
        cfg = parse_config(json.dumps({"preset": "primary_side"}), action="report")
        assert cfg.action == "report"
        assert cfg.flow.inlet_velocity == 1.1
        assert cfg.flow.inlet_temperature == 49.0
        assert cfg.evaluation.minor_loss_K == 2.0
        assert cfg.evaluation.solver == fv.SolverSettings(
            resolution=2e-3, tol=1e-8, max_iters=20000)
        assert cfg.evaluation.stack == thermal.default_die_stack()

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({"preset": "primary_side",
                                     "flow": {"velocty": 1.1}}),
                         action="report")
        assert "velocty" in str(exc.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="pressure"):
            parse_config(json.dumps({"preset": "primary_side", "pressure": 1.0}),
                         action="report")

    def test_preset_and_assembly_conflict(self):
        doc = small_doc("report", preset="primary")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(json.dumps(doc))

    def test_neither_preset_nor_assembly(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(json.dumps({"action": "report"}))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config(json.dumps({"preset": "tertiary"}), action="report")

    def test_json_error_carries_location(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("{not json", action="report")

    def test_action_conflict(self):
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config(json.dumps({"preset": "primary_side",
                                     "action": "sweep",
                                     "sweep": {"axis": "velocity",
                                               "values": [1.0]}}),
                         action="report")

    def test_sweep_requires_section(self):
        with pytest.raises(ConfigError, match="'sweep' section"):
            parse_config(json.dumps({"preset": "primary_side"}), action="sweep")

    def test_all_errors_reported_together(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({"bogus": 1, "flow": {"velocty": 2}}),
                         action="report")
        message = str(exc.value)
        assert "bogus" in message and "velocty" in message
        assert "exactly one" in message

    @pytest.mark.parametrize("name", ["primary_side", "secondary_side",
                                      "small"])
    def test_assembly_round_trip(self, name):
        # the written document reads back, through the table, as the same
        # records; a preset name builds them through the same builder
        assembly = PRESETS.get(name, small_assembly)()
        doc = json.dumps({"assembly": assembly_to_json(assembly)})
        assert parse_config(doc, action="report").assembly == assembly
        if name in PRESETS:
            assert parse_config(json.dumps({"preset": name}),
                                action="report").assembly == assembly

    @pytest.mark.parametrize("text", [
        "[" * 100_000, '{"flow": {"v_mps": ' + "1" * 5000 + "}}"],
        ids=["nested-too-deeply", "integer-too-long"])
    def test_undecodable_json_is_config_error(self, tmp_path, text):
        # JSON that fails to decode without a JSONDecodeError: a
        # RecursionError used to escape as a traceback, and the integer's
        # ValueError escaped parse_config
        with pytest.raises(ConfigError, match="^config parse error: "):
            parse_config(text, action="report")
        path = tmp_path / "materials.json"
        path.write_text(text)
        with pytest.raises(ConfigError,
                           match="^invalid config: materials_file: "):
            parse_config(json.dumps({"preset": "primary_side",
                                     "materials_file": str(path)}),
                         action="report")

    @pytest.mark.parametrize("text", ["[]", "3", '"report"', "null"])
    def test_non_object_config_is_config_error(self, text):
        with pytest.raises(ConfigError,
                           match="^config must be a JSON object$"):
            parse_config(text, action="report")

    @pytest.mark.parametrize("grid", [
        {"v_min": 1e20, "v_max": 1e21, "v_step": 1},
        {"v_min": 0.5, "v_max": 1e300},
    ], ids=["step-below-spacing", "too-many-points"])
    def test_unenumerable_velocity_grid_is_config_error(self, grid):
        # the config table passes each value; the grid as a whole fails
        with pytest.raises(ConfigError, match="optimize: "):
            parse_config(json.dumps({"preset": "primary_side",
                                     "optimize": grid}), action="optimize")


class TestMain:
    def test_report_on_preset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"preset": "primary_side"})
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        assert "t_max" in capsys.readouterr().out
        doc = json.loads((out / "result.json").read_text())
        assert doc["hydraulics"]["regime"] == "turbulent"
        assert doc["hydraulics"]["reynolds"] == pytest.approx(6244.6, rel=1e-3)
        csv = (out / "result.csv").read_text().splitlines()
        assert csv[0].startswith("t_max_C,dp_Pa,mass_kg")

    def test_report_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "primary_side"})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["report", "--config", str(cfg),
                         "--out", str(out)]) == 0
            outs.append(((out / "result.json").read_bytes(),
                         (out / "result.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_default_inlet_echoed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"preset": "secondary_side"})
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out),
                     "--echo-config"]) == 0
        stdout = capsys.readouterr().out
        resolved = json.loads(stdout[:stdout.rindex("}") + 1])
        assert resolved["flow"]["inlet_C"] == 49.0
        assert resolved["hydraulics"]["minor_loss_K"] == 2.0

    def test_echoed_config_round_trips(self, tmp_path, capsys):
        sweep = {"axis": "velocity", "values": [1.1, 2.9]}
        optimize = {"materials": ["aluminum"], "channel_counts": [3],
                    "cover_thicknesses_m": [1e-3], "v_min": 1.1,
                    "v_max": 2.9, "v_step": 1.8}
        for action, extra in (("report", {}), ("sweep", {"sweep": sweep}),
                              ("optimize", {"optimize": optimize})):
            cfg = write_config(tmp_path, {"preset": "primary_side", **extra})
            out1 = tmp_path / action / "o1"
            assert main([action, "--config", str(cfg), "--out", str(out1),
                         "--echo-config"]) == 0
            stdout = capsys.readouterr().out
            resolved = json.loads(stdout[:stdout.rindex("}") + 1])
            # the echo lists the section defaults too, and the assumed die
            # stack that the network model used
            assert resolved["stack"] == {"layers": [
                {"name": name, "thickness_m": t, "conductivity": k,
                 "area_factor": 1.0} for name, t, k in (
                    ("die", 0.35e-3, 370.0), ("die-attach", 0.10e-3, 50.0),
                    ("substrate", 0.63e-3, 170.0),
                    ("baseplate", 3.0e-3, 387.6),
                    ("interface", 0.10e-3, 5.0))]}
            if action != "report":
                assert resolved[action]["evaluator"] == "network"
            if action == "optimize":
                assert resolved["optimize"]["t_max_limit_C"] == 135.0
            cfg2 = write_config(tmp_path, resolved, "resolved.json")
            out2 = tmp_path / action / "o2"
            assert main([action, "--config", str(cfg2),
                         "--out", str(out2)]) == 0
            capsys.readouterr()
            assert ((out1 / "result.json").read_bytes()
                    == (out2 / "result.json").read_bytes())
            assert ((out1 / "result.csv").read_bytes()
                    == (out2 / "result.csv").read_bytes())

    def test_no_run_builds_a_die_stack(self, tmp_path, capsys, monkeypatch):
        # the assumed stack is one record, built at import: neither the
        # config nor a design point builds it again
        def refuse():
            raise AssertionError("a die stack was built after import")
        monkeypatch.setattr(thermal, "default_die_stack", refuse)
        for action, extra in (
                ("report", {}),
                ("sweep", {"sweep": {"axis": "velocity",
                                     "values": [1.1, 2.9]}}),
                ("optimize", {"optimize": {"channel_counts": [3],
                                           "v_step": 0.6}})):
            cfg = write_config(tmp_path, {"preset": "primary_side", **extra})
            assert main([action, "--config", str(cfg),
                         "--out", str(tmp_path / action)]) == 0
        assert capsys.readouterr().err == ""

    def test_invalid_config_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"preset": "primary_side",
                                      "flow": {"velocty": 1.1}})
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert "velocty" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["report", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["file", "file/out"],
                             ids=["out-is-a-file", "out-under-a-file"])
    def test_unwritable_out_is_an_error(self, tmp_path, capsys, out):
        # creating the output directory used to end in a FileExistsError
        # or NotADirectoryError traceback
        (tmp_path / "file").write_text("kept")
        cfg = write_config(tmp_path, {"preset": "primary_side"})
        assert main(["report", "--config", str(cfg),
                     "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert (tmp_path / "file").read_text() == "kept"

    @pytest.mark.parametrize("out", ["file", "file/out"],
                             ids=["out-is-a-file", "out-under-a-file"])
    def test_unwritable_out_refused_before_the_run(self, tmp_path, capsys,
                                                   monkeypatch, out):
        # the output path used to be created only after the whole solve
        calls = []
        monkeypatch.setitem(cli._RUNNERS, "solve-fv",
                            lambda config: calls.append(config))
        (tmp_path / "file").write_text("kept")
        cfg = write_config(tmp_path, {"preset": "primary_side"})
        assert main(["solve-fv", "--config", str(cfg),
                     "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / "file") in err
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "file"]

    def test_non_utf8_config_is_an_error(self, tmp_path, capsys):
        # used to end in a UnicodeDecodeError traceback
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid config: not UTF-8 text: 'utf-8' codec can't "
            "decode byte 0xff in position 0: invalid start byte\n")
        assert not out.exists()

    def test_sweep(self, tmp_path):
        cfg = write_config(tmp_path, {
            "preset": "primary_side",
            "sweep": {"axis": "velocity", "values": [0.8, 1.1, 1.4]}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "result.csv").read_text().splitlines()
        assert lines[0] == "descriptor,v_mps,t_max_C,dp_Pa,mass_kg,feasible"
        assert len(lines) == 4

    def test_optimize(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "preset": "primary_side",
            "optimize": {"materials": ["copper", "aluminum"],
                         "channel_counts": [3, 6],
                         "cover_thicknesses_m": [1e-3],
                         "v_min": 0.8, "v_max": 2.0, "v_step": 0.4}})
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert "best:" in capsys.readouterr().out
        doc = json.loads((out / "result.json").read_text())
        assert doc["best"] is not None
        assert doc["best"]["feasible"] is True
        # each descriptor holds commas, so the CSV quotes it
        with open(out / "result.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert len(table) == 1 + len(doc["rows"])
        assert {len(row) for row in table} == {6}
        assert [row[0] for row in table[1:]] == [
            row["descriptor"] for row in doc["rows"]]

    def test_optimize_without_feasible_design(self, tmp_path, capsys):
        # no design keeps its junctions within 1 K of the 49 C inlet
        cfg = write_config(tmp_path, {
            "preset": "primary_side",
            "optimize": {"channel_counts": [3], "v_step": 0.8,
                         "t_max_limit_C": 50.0}})
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == "no feasible design\n"
        doc = json.loads((out / "result.json").read_text())
        assert doc["best"] is None and doc["rows"]
        assert not any(row["feasible"] for row in doc["rows"])

    def test_solve_fv_on_inline_assembly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_doc("solve-fv"))
        out = tmp_path / "out"
        assert main(["solve-fv", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert "FV t_max" in capsys.readouterr().out
        doc = json.loads((out / "result.json").read_text())
        assert doc["t_max_C"] > 49.0
        field = (out / "field.txt").read_text().splitlines()
        assert field[3] == "DATASET STRUCTURED_POINTS"

    def test_short_channels_refused_by_fv(self, tmp_path, capsys):
        # the FV grid voids channels through the whole plate length, so a
        # shorter channel_length would be solved as a full-length one
        doc = small_doc("solve-fv", solver={"resolution_m": 2.5e-3})
        doc["assembly"]["layout"]["channel_length_m"] = 0.06
        del doc["action"]  # the same plate for both actions
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["solve-fv", "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: the FV grid needs channels as long as the plate: "
            "channel_length 0.06 m, plate length 0.12 m\n")
        assert not (out / "result.json").exists()
        assert main(["report", "--config", str(cfg),
                     "--out", str(out)]) == 0

    def test_band_factor_bound_is_an_error(self, tmp_path, capsys):
        # 800 x 317 x 31 cells are within the cell limit, but the FV
        # solver's band factor would hold 32 doubles per cell
        cfg = write_config(tmp_path, {"preset": "primary_side",
                                      "solver": {"resolution_m": 5.8e-4}})
        out = tmp_path / "out"
        assert main(["solve-fv", "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: resolution 0.00058 m gives a 2.16 GB band factor (31 "
            "cells through the thickness); the limit is 2 GB\n")
        assert not (out / "result.json").exists()

    def test_failed_band_factorization_is_an_error(self, tmp_path, capsys):
        # conduction 29 orders of magnitude above the films leaves a plane
        # matrix that is singular in floating point
        materials = tmp_path / "materials.json"
        materials.write_text(json.dumps(
            {"copper": {"thermal_conductivity": 1e30}}))
        doc = small_doc("solve-fv", solver={"resolution_m": 2.5e-3})
        cfg = write_config(tmp_path, {**doc,
                                      "materials_file": str(materials)})
        out = tmp_path / "out"
        assert main(["solve-fv", "--config", str(cfg),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the FV system's band factorization "
                              "failed (") and err.count("\n") == 1
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("conductivity", [1e10, 1e20])
    def test_rounding_swamped_solve_is_an_error(self, tmp_path, capsys,
                                                conductivity):
        # fv.solve refuses a field whose recomputed residual exceeds tol
        materials = tmp_path / "materials.json"
        materials.write_text(json.dumps(
            {"copper": {"thermal_conductivity": conductivity}}))
        doc = small_doc("solve-fv", solver={"resolution_m": 2.5e-3})
        cfg = write_config(tmp_path, {**doc,
                                      "materials_file": str(materials)})
        out = tmp_path / "out"
        assert main(["solve-fv", "--config", str(cfg),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the field's recomputed residual ")
        assert err.count("\n") == 1
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("section, message", [
        ({"flow": {"v_mps": float("nan")}},
         "flow.v_mps must be a finite number > 0"),
        ({"coolant": {"thermal_conductivity": float("nan")}},
         "coolant.thermal_conductivity must be a finite number > 0"),
    ], ids=["nan-velocity", "nan-coolant"])
    def test_solve_fv_nan_input_is_an_error(self, tmp_path, capsys, section,
                                            message):
        # rejected before the solve: no traceback, no 20,000-iteration stall
        cfg = write_config(tmp_path, small_doc(
            "solve-fv", solver={"resolution_m": 2.5e-3}, **section))
        assert main(["solve-fv", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("velocity", [5e-324, 1e-310, 1e-300, 1e-200])
    def test_tiny_velocity_is_one_error_line(self, tmp_path, velocity):
        # the coolant march's quotient by the mass flow divides by zero or
        # overflows, and its cumulative sum overflows or turns NaN; the
        # solve refuses the sinks with no numpy warning ahead of the error.
        # pytest records warnings instead of printing them, so the CLI
        # runs in a process of its own
        cfg = write_config(tmp_path, small_doc(
            "solve-fv", solver={"resolution_m": 2.5e-3},
            flow={"v_mps": velocity}))
        env = {**os.environ,
               "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "coldplate.cli", "solve-fv", "--config",
             str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: coolant pass ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert not (tmp_path / "out" / "result.json").exists()

    _OPTIMIZE = {"materials": ["copper"], "channel_counts": [2],
                 "cover_thicknesses_m": [1e-3], "v_min": 0.5, "v_max": 1.5}
    _COARSE = {"resolution_m": 2.5e-3}

    @pytest.mark.parametrize("action, doc", [
        ("report", {"preset": "primary_side"}),
        ("report", {"preset": "secondary_side"}),
        ("sweep", small_doc("sweep", sweep={"axis": "velocity",
                                            "values": [0.6, 1.1]})),
        ("optimize", small_doc("optimize", optimize=_OPTIMIZE)),
    ], ids=["report-primary", "report-secondary", "sweep", "optimize"])
    def test_network_actions_load_no_numpy(self, tmp_path, action, doc):
        # an action that solves no FV starts and runs on the standard
        # library alone
        loaded = main_in_fresh_process(tmp_path, action, doc, (
            "assert cli.main(argv) == 0\n"
            "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules}\n"
            "                        & {'numpy', 'scipy'})))\n"))
        assert loaded == []

    @pytest.mark.parametrize("action, doc", [
        ("solve-fv", small_doc("solve-fv", solver=_COARSE)),
        ("sweep", small_doc("sweep", solver=_COARSE, sweep={
            "axis": "velocity", "values": [0.6, 1.1], "evaluator": "fv"})),
        ("optimize", small_doc("optimize", optimize={
            **_OPTIMIZE, "v_min": 1.1, "v_max": 1.1, "evaluator": "fv"})),
        ("mesh-study", small_doc("mesh-study", mesh_study={
            "resolutions_m": [2.5e-3, 2e-3, 1.5e-3]})),
    ], ids=["solve-fv", "sweep", "optimize", "mesh-study"])
    def test_fv_actions_load_scipy_in_set_up(self, tmp_path, action, doc):
        # importing fv loads no scipy; an FV action loads it before its
        # first grid, so that no solve, and no pool thread, waits on it
        imported, held = main_in_fresh_process(tmp_path, action, doc, (
            "from coldplate import fv\n"
            "imported, held, build_grid = 'scipy' in sys.modules, [], "
            "fv.build_grid\n"
            "def traced(*args):\n"
            "    held.append('scipy.linalg' in sys.modules)\n"
            "    return build_grid(*args)\n"
            "fv.build_grid = traced\n"
            "assert cli.main(argv) == 0\n"
            "print(json.dumps([imported, held]))\n"))
        assert not imported and held[0]

    @pytest.mark.parametrize("action, section", [
        ("sweep", {"sweep": {"axis": "velocity", "values": [1.1, 2.9],
                             "evaluator": "fv"}}),
        ("optimize", {"optimize": {
            "materials": ["copper"], "channel_counts": [3],
            "cover_thicknesses_m": [1e-3], "v_min": 1.1, "v_max": 1.1,
            "evaluator": "fv"}}),
        ("mesh-study", {"mesh_study": {
            "resolutions_m": [2.5e-3, 2.2e-3, 2e-3]}}),
        ("solve-fv", {}),
    ], ids=["sweep", "optimize", "mesh-study", "solve-fv"])
    def test_solver_tol_reaches_fv_points(self, tmp_path, monkeypatch,
                                          action, section):
        settings = []

        def solve(*args, tol, max_iters, **kwargs):
            settings.append((tol, max_iters))
            return SimpleNamespace(t_max=60.0, residual=0.0, iterations=1,
                                   energy_imbalance=0.0, to_json=dict)
        monkeypatch.setattr(fv, "solve", solve)
        monkeypatch.setattr(fv, "write_structured_points", lambda *a: None)
        cfg = write_config(tmp_path, {
            "preset": "primary_side",
            "solver": {"tol": 1e-6, "max_iters": 77, "resolution_m": 2.5e-3},
            **section})
        assert main([action, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert settings and set(settings) == {(1e-6, 77)}

    def test_mesh_study_on_inline_assembly(self, tmp_path):
        cfg = write_config(tmp_path, small_doc(
            "mesh-study",
            mesh_study={"resolutions_m": [2.5e-3, 2e-3, 1.5e-3]}))
        out = tmp_path / "out"
        assert main(["mesh-study", "--config", str(cfg),
                     "--out", str(out)]) == 0
        lines = (out / "result.csv").read_text().splitlines()
        assert lines[0] == "cells,t_max_C,delta_K"
        assert len(lines) == 4
        doc = json.loads((out / "result.json").read_text())
        assert isinstance(doc["converged"], bool)

    def test_coolant_override(self, tmp_path):
        doc = {"preset": "primary_side",
               "coolant": {"dynamic_viscosity": 2.006e-3}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        # doubled viscosity halves the Reynolds number
        assert result["hydraulics"]["reynolds"] == pytest.approx(
            6244.6 / 2, rel=1e-3)


NAN = float("nan")


def main_in_fresh_process(tmp_path, action, doc, script):
    """What `script` prints last, read as JSON, run in a fresh process
    that has imported json, sys and coldplate.cli; `argv` holds the
    arguments of `coldplate <action>` on the config `doc`."""
    cfg = write_config(tmp_path, doc)
    argv = [action, "--config", str(cfg), "--out", str(tmp_path / "out")]
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\nfrom coldplate import cli"
         f"\nargv = {argv!r}\n{script}"],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TestMalformedConfig:
    @pytest.mark.parametrize("action, section, message", [
        ("report", {"coolant": {"density": "x"}},
         "coolant.density must be a finite number > 0, got 'x'"),
        ("report", {"flow": "fast"}, "flow must be an object"),
        ("report", {"flow": {"v_mps": NAN}},
         "flow.v_mps must be a finite number > 0, got nan"),
        ("report", {"flow": {"v_mps": True}},
         "flow.v_mps must be a finite number > 0, got True"),
        ("report", {"sweep": 5}, "sweep must be an object"),
        ("report", {"materials_file": 0}, "materials_file must be a string"),
        ("report", {"materials_file": True},
         "materials_file must be a string"),
        ("report", {"materials_file": ["m.json"]},
         "materials_file must be a string"),
        ("solve-fv", {"solver": {"max_iters": 1.5}},
         "solver.max_iters must be an integer >= 1, got 1.5"),
        ("sweep", {"sweep": {"values": [1.0]}}, "missing key 'sweep.axis'"),
        ("sweep", {"sweep": {"axis": "velocity", "values": 5}},
         "sweep.values must be a non-empty list"),
        ("sweep", {"sweep": {"axis": "velocity", "values": [1.0, "a"]}},
         "sweep.values[1] must be a finite number > 0, got 'a'"),
        ("sweep", {"sweep": {"axis": "channel_shape",
                             "values": ["hexagonal"]}},
         "unknown sweep.values[0] 'hexagonal'"),
        ("sweep", {"sweep": {"axis": "velocity", "values": [1.0],
                             "evaluator": "cfd"}},
         "unknown sweep.evaluator 'cfd'"),
        ("optimize", {"optimize": {"channel_counts": 3}},
         "optimize.channel_counts must be a non-empty list"),
        ("optimize", {"optimize": {"v_step": 0}},
         "optimize.v_step must be a finite number > 0, got 0"),
        ("optimize", {"optimize": {"materials": ["copper", "unobtainium"]}},
         "unknown optimize.materials[1] 'unobtainium'"),
        ("optimize", {"optimize": {"v_min": 1e20, "v_max": 1e21,
                                   "v_step": 1}},
         "v_step 1.0 is below the float spacing of v_min 1e+20"),
        ("optimize", {"optimize": {"v_min": 1.0, "v_max": 1.000000000001,
                                   "v_step": 1e-13}},
         "invalid config: optimize: v_step 1e-13 repeats grid points"),
        ("optimize", {"optimize": {"v_min": 2.0, "v_max": 1.0}},
         "error: invalid config: optimize: empty velocity grid\n"),
        # about 1.6e12 cells: refused before any array is allocated
        ("solve-fv", {"solver": {"resolution_m": 1e-5}},
         "resolution 1e-05 m gives 1.64e+12 cells; the limit is 1e+07"),
        ("mesh-study", {"mesh_study": {"resolutions_m": [1e-5, 9e-6, 8e-6]}},
         "resolution 1e-05 m gives 1.64e+12 cells"),
        ("mesh-study", {"mesh_study": {
            "resolutions_m": [0.002, 0.001999, 0.001998]}},
         "resolutions 0.002 m and 0.001999 m give the same 240 x 95 x 9 "
         "grid"),
    ], ids=["coolant-string", "flow-string", "nan-velocity", "bool-velocity",
            "sweep-on-report", "materials-file-int", "materials-file-bool",
            "materials-file-list", "fractional-max-iters", "sweep-no-axis",
            "sweep-values-number", "sweep-values-mixed", "sweep-bad-shape",
            "sweep-bad-evaluator", "channel-counts-number", "zero-v-step",
            "unknown-material", "v-step-below-spacing",
            "v-step-repeats-points", "empty-v-grid", "fv-grid-too-fine",
            "mesh-grid-too-fine", "mesh-same-grid"])
    def test_is_an_error(self, tmp_path, capsys, action, section, message):
        cfg = write_config(tmp_path, {"preset": "primary_side", **section})
        out = tmp_path / "out"
        assert main([action, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "result.json").exists()

    def test_non_finite_result_is_an_error(self, tmp_path, capsys):
        # every input is finite, but the die powers sum to inf; strict JSON
        # refuses to write the result
        doc = small_doc("report")
        for die in doc["assembly"]["modules"][0]["dies"]:
            die["power_W"] = 1e308
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "result.json").exists()

    def test_unequal_dies_are_an_error(self, tmp_path, capsys):
        doc = small_doc("report")
        doc["assembly"]["modules"][0]["dies"][1]["footprint_m"] = [2e-3, 2e-3]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: module 'M1': the network model needs identical dies, "
            "and a die differs from the first in footprint or power\n")
        assert not (out / "result.json").exists()

    def test_nan_die_power_is_an_error(self, tmp_path, capsys):
        # rejected when the config is parsed, not after max_iters CG steps
        doc = small_doc("solve-fv", solver={"resolution_m": 2.5e-3})
        doc["assembly"]["modules"][0]["dies"][0]["power_W"] = NAN
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["solve-fv", "--config", str(cfg),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and (
            "assembly.modules[0].dies[0].power_W must be a finite number "
            ">= 0, got nan") in err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("action, key, value, message", [
        ("report", "rows", 3, "assembly.layout.rows must be 1 or 2, got 3"),
        ("report", "rows", True,
         "assembly.layout.rows must be 1 or 2, got True"),
        ("report", "channels_per_row", 1.5,
         "assembly.layout.channels_per_row must be an integer >= 1, "
         "got 1.5"),
        ("solve-fv", "channels_per_row", 1.5,
         "assembly.layout.channels_per_row must be an integer >= 1, "
         "got 1.5"),
    ], ids=["three-rows", "bool-rows", "fractional-channels-report",
            "fractional-channels-solve-fv"])
    def test_unbuildable_channel_count_is_an_error(self, tmp_path, capsys,
                                                   action, key, value,
                                                   message):
        doc = small_doc(action, solver={"resolution_m": 2.5e-3})
        doc["assembly"]["layout"][key] = value
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([action, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: invalid config: {message}\n"
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("action, changes, messages", [
        ("report", {("plate", "length_m"): True},
         ["assembly.plate.length_m must be a finite number > 0, got True"]),
        ("report", {("modules", 0, "dies", 0, "power_W"): True},
         ["assembly.modules[0].dies[0].power_W must be a finite number "
          ">= 0, got True"]),
        ("report", {("modules", 0, "origin_m"): 5},
         ["assembly.modules[0].origin_m must be two values, each a finite "
          "number, got 5"]),
        ("report", {("modules", 0, "origin_m"): [0.0, 0.0, 0.0]},
         ["assembly.modules[0].origin_m must be two values, each a finite "
          "number, got [0.0, 0.0, 0.0]"]),
        ("report", {("plate",): ...}, ["missing key 'assembly.plate'"]),
        ("report", {("layout", "shape", "radius_m"): None},
         ["assembly.layout.shape.radius_m must be a finite number > 0, "
          "got None"]),
        ("report", {("modules", 0, "origin_m"): 5,
                    ("layout", "shape", "radius_m"): None},
         ["assembly.modules[0].origin_m must be two values",
          "assembly.layout.shape.radius_m must be a finite number > 0"]),
        ("report", {("layout", "shape", "radius_m"): 1e200},
         ["assembly: channels do not fit through thickness"]),
        ("sweep", {("layout", "shape", "radius_m"): 1e200},
         ["assembly: channels do not fit through thickness"]),
        ("optimize", {("layout", "cover_thickness_m"): 0.01},
         ["assembly: channels do not fit through thickness"]),
        ("report", {("layout", "shape", "kind"): "hexagonal"},
         ["unknown assembly.layout.shape.kind 'hexagonal'"]),
        ("report", {("layout", "shape", "width_m"): 0.01},
         ["unknown key 'assembly.layout.shape.width_m'"]),
        ("report", {("plate", "material"): "unobtainium"},
         ["unknown assembly.plate.material 'unobtainium'"]),
        ("report", {("modules", 0, "id"): 7},
         ["assembly.modules[0].id must be a string, got 7"]),
        ("report", {("modules",): {}},
         ["assembly.modules must be a non-empty list, got {}"]),
        ("report", {("modules",): []},
         ["assembly.modules must be a non-empty list, got []"]),
        ("report", {("modules", 0, "dies"): []},
         ["assembly.modules[0].dies must be a non-empty list, got []"]),
    ], ids=["bool-length", "bool-power", "int-origin", "three-origin",
            "no-plate", "null-radius", "two-violations", "huge-radius-report",
            "huge-radius-sweep", "base-fails-validate-optimize",
            "unknown-kind", "key-of-other-kind", "unknown-material",
            "int-id", "modules-object", "empty-modules", "empty-dies"])
    def test_malformed_assembly_is_an_error(self, tmp_path, capsys, action,
                                            changes, messages):
        # each used to pass, crash with a traceback, stop at its first
        # violation or name no key; an Ellipsis value deletes the key
        doc = small_doc(action, sweep={"axis": "velocity", "values": [1.1]},
                        optimize={"channel_counts": [1], "v_min": 1.1,
                                  "v_max": 1.1})
        for path, value in changes.items():
            parent = doc["assembly"]
            for key in path[:-1]:
                parent = parent[key]
            if value is ...:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([action, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert all(message in err for message in messages), err
        assert not out.exists()

    def test_huge_length_message_stays_short(self, tmp_path, capsys):
        # figures from 1e6 mm on are printed in exponent form; with :.3f
        # this line held two 204-digit numbers
        doc = small_doc("report")
        doc["assembly"]["layout"]["shape"]["radius_m"] = 1e200
        cfg = write_config(tmp_path, doc)
        assert main(["report", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: invalid config: assembly: channels do not fit through "
            "thickness: rows*depth + 2*cover = 2.000e+203 mm > 12.000 mm; "
            "assembly: channels do not fit across width: 2.000e+203 mm > "
            "60.000 mm\n")

    def test_unknown_assembly_key_is_an_error(self, tmp_path, capsys):
        # a misspelt key used to leave its value out silently: "module"
        # gave a plate with no heat and t_max at the inlet temperature
        doc = small_doc("report")
        doc["assembly"]["module"] = doc["assembly"].pop("modules")
        cfg = write_config(tmp_path, doc)
        assert main(["report", "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 1
        assert "unknown key 'assembly.module'" in capsys.readouterr().err
        doc = small_doc("report", flow={"v_mps": 0})
        die = doc["assembly"]["modules"][0]["dies"][1]
        die["powr_W"] = die.pop("power_W")
        cfg = write_config(tmp_path, doc)
        assert main(["report", "--config", str(cfg),
                     "--out", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        # joined with the other violations on the one error line
        assert err.startswith("error: invalid config: ")
        assert "flow.v_mps must be" in err
        assert "unknown key 'assembly.modules[0].dies[1].powr_W'" in err
        assert not (tmp_path / "b" / "result.json").exists()

    @pytest.mark.parametrize("body, message", [
        ('{"copper": {"thermal_conductivty": 200}}',
         "unknown key 'materials_file.copper.thermal_conductivty'"),
        ('{"copper": {"density": true}}',
         "materials_file.copper.density must be a finite number > 0, "
         "got True"),
        ('{"copper": {"density": "9000"}}',
         "materials_file.copper.density must be a finite number > 0, "
         "got '9000'"),
        ('{"copper": 5}', "materials_file.copper must be an object, got 5"),
        ('[{"copper": {}}]',
         "materials_file must be an object, got [{'copper': {}}]"),
        ('{"mystery": {"density": 1000.0}}',
         "missing key 'materials_file.mystery.thermal_conductivity'; "
         "missing key 'materials_file.mystery.specific_heat'"),
        ('{"copper": {"density": NaN}}',
         "materials_file.copper.density must be a finite number > 0, "
         "got nan"),
        (b"\xff\xfe", "materials_file: 'utf-8' codec can't decode byte 0xff "
         "in position 0: invalid start byte"),
        ('{"copper": {"density": true}, "brass": {"thermal_conductivity": '
         '109.0, "density": 8530.0, "specific_heat": 380.0, "colour": 1}}',
         "materials_file.copper.density must be a finite number > 0, "
         "got True; unknown key 'materials_file.brass.colour'"),
        # csv quotes no carriage return, so the name would split its rows
        ('{"cu\\rni": {"thermal_conductivity": 200.0, "density": 8900.0, '
         '"specific_heat": 390.0}}',
         "key 'materials_file.cu\\rni' must be printable text"),
        ('{"cu\\nni": {"density": 8900.0}, "copper": {"density": 0}}',
         "key 'materials_file.cu\\nni' must be printable text; missing key "
         "'materials_file.cu\\nni.thermal_conductivity'; missing key "
         "'materials_file.cu\\nni.specific_heat'; "
         "materials_file.copper.density must be a finite number > 0, got 0"),
    ], ids=["misspelt-key", "bool-density", "string-density", "int-entry",
            "list-file", "incomplete-new-material", "nan-density",
            "not-utf8", "two-violations", "carriage-return-name",
            "line-break-name"])
    def test_malformed_materials_file_is_an_error(self, tmp_path, capsys,
                                                  body, message):
        # a misspelt key, a bool or a string used to pass (a true density
        # ran as 1 kg/m^3), a wrong type to end in Python error text, and
        # only the first violation was reported
        path = tmp_path / "materials.json"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
        cfg = write_config(tmp_path, {"preset": "secondary_side",
                                      "materials_file": str(path)})
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: invalid config: {message}\n")
        assert not out.exists()

    def test_violations_listed_together(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({
                "preset": "primary_side", "solver": {"tol": -1},
                "optimize": {"materials": ["unobtainium"], "v_step": 0}}),
                action="optimize")
        message = str(exc.value)
        for fragment in ("solver.tol", "unobtainium", "optimize.v_step"):
            assert fragment in message


class TestMaterialsFile:
    @pytest.fixture
    def materials_file(self, tmp_path):
        path = tmp_path / "materials.json"
        path.write_text(json.dumps({
            "copper": {"thermal_conductivity": 200.0},
            "brass": {"thermal_conductivity": 109.0, "density": 8530.0,
                      "specific_heat": 380.0}}))
        return str(path)

    def test_file_overrides_and_adds_materials(self, tmp_path):
        path = tmp_path / "materials.json"
        path.write_text(json.dumps({
            "copper": {"thermal_conductivity": 400.0},
            "inconel": {"thermal_conductivity": 11.4, "density": 8440.0,
                        "specific_heat": 435.0}}))
        cfg = parse_config(json.dumps({
            "preset": "secondary_side", "materials_file": str(path),
            "optimize": {"materials": ["copper", "inconel"]}}),
            action="optimize")
        copper, inconel = cfg.optimize.materials
        assert cfg.assembly.plate.material == copper
        assert copper.thermal_conductivity == 400.0
        assert copper.density == 8978.0  # kept from the built-in
        assert copper.specific_heat == 381.0
        assert inconel.density == 8440.0
        # the built-ins, and a config without the file, are untouched
        assert get_material("copper").thermal_conductivity == 387.6
        assert parse_config(json.dumps({"preset": "secondary_side"}),
                            action="report").assembly.plate.material is (
            MATERIALS["copper"])

    def test_sweep_and_optimize_use_the_file(self, materials_file):
        cfg = parse_config(json.dumps({
            "preset": "secondary_side", "materials_file": materials_file,
            "sweep": {"axis": "material", "values": ["copper", "brass"]},
            "optimize": {"materials": ["brass", "copper"]}}), action="sweep")
        assert [m.thermal_conductivity
                for m in cfg.sweep.values] == [200.0, 109.0]
        assert [m.thermal_conductivity
                for m in cfg.optimize.materials] == [109.0, 200.0]
        assert cfg.resolved["sweep"]["values"] == ["copper", "brass"]
        assert cfg.resolved["optimize"]["materials"] == ["brass", "copper"]

    def test_material_sweep_matches_report(self, tmp_path, materials_file):
        base = {"preset": "secondary_side", "materials_file": materials_file}
        report = write_config(tmp_path, base, "report.json")
        sweep = write_config(tmp_path, {**base, "sweep": {
            "axis": "material", "values": ["copper", "brass"]}}, "sweep.json")
        assert main(["report", "--config", str(report),
                     "--out", str(tmp_path / "r")]) == 0
        assert main(["sweep", "--config", str(sweep),
                     "--out", str(tmp_path / "s")]) == 0
        t_report = json.loads(
            (tmp_path / "r" / "result.json").read_text())["thermal"]["t_max_C"]
        rows = json.loads((tmp_path / "s" / "result.json").read_text())["rows"]
        assert [r["descriptor"] for r in rows] == ["material=copper",
                                                   "material=brass"]
        assert rows[0]["t_max_C"] == t_report

    @pytest.mark.parametrize("name", ["cu,ni", 'cu"ni'],
                             ids=["comma", "quote"])
    def test_material_name_round_trips_through_csv(self, tmp_path, name):
        path = tmp_path / "materials.json"
        path.write_text(json.dumps({name: {
            "thermal_conductivity": 109.0, "density": 8530.0,
            "specific_heat": 380.0}}))
        cfg = write_config(tmp_path, {
            "preset": "secondary_side", "materials_file": str(path),
            "sweep": {"axis": "material", "values": ["copper", name]}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "result.json").read_text())["rows"]
        with open(out / "result.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert [r["descriptor"] for r in table] == [
            "material=copper", f"material={name}"]
        assert [float(r["t_max_C"]) for r in table] == [
            r["t_max_C"] for r in rows]

    def test_optimize_over_a_file_only_material(self, tmp_path,
                                                materials_file):
        cfg = write_config(tmp_path, {
            "preset": "secondary_side", "materials_file": materials_file,
            "optimize": {"materials": ["brass"], "channel_counts": [12],
                         "cover_thicknesses_m": [1e-3], "v_min": 1.1,
                         "v_max": 1.1}})
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = json.loads((out / "result.json").read_text())["rows"]
        assert [r["descriptor"] for r in rows] == [
            "material=brass,channels_per_row=12,cover_mm=1,v=1.1"]


def _json_values():
    leaves = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.text(max_size=6))
    return st.recursive(leaves, lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
        max_leaves=6)


_MATERIAL_KEYS = ("thermal_conductivity", "density", "specific_heat")


def _materials_files():
    """Materials-file bodies: mostly objects keyed by a built-in, a new or
    a junk name, whose entries are complete, partial, junk keys or any
    JSON; else any JSON."""
    keys = dict.fromkeys(_MATERIAL_KEYS, st.floats(1.0, 1e4))
    complete, some = (st.fixed_dictionaries(keys),
                      st.fixed_dictionaries({}, optional=keys))
    entry = complete | some | _json_values() | st.dictionaries(
        st.sampled_from(_MATERIAL_KEYS) | st.text(max_size=4),
        st.floats(1.0, 1e4) | _json_values(), max_size=3)
    names = st.sampled_from(["copper", "aluminum", "brass"])
    files = st.dictionaries(names | st.text(max_size=4), entry, max_size=2)
    return files | files | _json_values()


@settings(max_examples=100, deadline=None)
@given(body=_materials_files())
def test_materials_file_fuzz(body):
    # any file either parses or is a ConfigError; what parses gives copper
    # the file's values over the built-in's
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "materials.json"
        path.write_text(json.dumps(body))
        try:
            config = parse_config(json.dumps({
                "preset": "secondary_side", "materials_file": str(path)}),
                action="report")
        except ConfigError:
            return
    copper = config.assembly.plate.material
    for key in _MATERIAL_KEYS:
        assert getattr(copper, key) == body.get("copper", {}).get(
            key, getattr(MATERIALS["copper"], key))


def _arbitrary_documents(table):
    """Objects with up to three keys from a config table or a junk key;
    each value is arbitrary JSON or a value of the kind the table expects."""
    def kind(check):
        if isinstance(check, set):
            return st.sampled_from(sorted(check))
        if isinstance(check, list):
            return st.lists(kind(check[0]), min_size=1, max_size=2)
        if isinstance(check, _Kind):  # a kind and keys of its table
            return st.sampled_from(sorted(check)).flatmap(
                lambda k: _arbitrary_documents(check[k]).map(
                    lambda doc: {"kind": k, **doc}))
        if isinstance(check, dict):
            return _arbitrary_documents(check)
        if check in (_POINT, _EXTENT):  # one to three numbers
            return st.lists(kind(_FINITE), min_size=1, max_size=3)
        return st.integers(-1, 3) | st.floats() | st.text(max_size=6)
    values = {key: kind(check) | _json_values()
              for key, (check, _) in table.items()}
    values["junk"] = _json_values()
    return st.lists(st.sampled_from(sorted(values)), max_size=3,
                    unique=True).flatmap(lambda keys: st.fixed_dictionaries(
                        {key: values[key] for key in keys}))


# keys whose values are checked against the rest of the document: the
# action against the command line, preset against assembly, and the
# materials file on disk
_CROSS_KEYS = {"action", "preset", "assembly", "materials_file"}


# sweep values of the two axes that take names, not small counts
_SWEEP_NAMES = {"material": ["aluminum", "copper"],
                "channel_shape": ["rectangular", "semicircular"]}


def _near(x: float):
    """Numbers within a factor of two of x."""
    return st.floats(-1.0, 1.0).map(lambda u: x * 2.0**u)


def _valid(check, like):
    """Values `check` accepts on its own, near the example `like`: a table
    default or a value of an example document. A number lies within a
    factor of two of a numeric example (of 1.0 without one), a pair item
    by item, a string names a material, and a free list holds small
    counts."""
    if isinstance(check, set):
        return st.sampled_from(sorted(check))
    if isinstance(check, list):
        item = like[0] if isinstance(like, list) else None
        return st.lists(_valid(check[0], item), min_size=1, max_size=2)
    if isinstance(check, _Kind):
        def of_kind(k):
            example = (like if isinstance(like, dict)
                       and like.get("kind") == k else {})
            return _valid_documents(check[k], example).map(
                lambda doc: {"kind": k, **doc})
        return st.sampled_from(sorted(check)).flatmap(of_kind)
    if isinstance(check, dict):
        return _valid_documents(check, like if isinstance(like, dict)
                                else {})
    if check is _STRING:
        return st.sampled_from(["aluminum", "copper"])
    if check is _LIST:
        return st.lists(st.integers(1, 3), min_size=1, max_size=2)
    if check in (_POINT, _EXTENT):
        x, y = like if isinstance(like, list) else (1.0, 1.0)
        return st.tuples(_near(x), _near(y)).map(list)
    base = like if type(like) in (int, float) else 1.0
    values = st.integers(1, 2 * base) if type(base) is int else _near(base)
    return values.map(lambda v: v if check[1](v) is not None else base)


def _valid_documents(table, like):
    """Objects with a table's required keys and some of its others, each
    value one the table accepts on its own: the key's example, from the
    example document `like` or the table's default, or a value near it."""
    values = {}
    for key, (check, default) in table.items():
        if key not in _CROSS_KEYS:
            example = like.get(key, default)
            values[key] = _valid(check, example)
            if example is not None and example is not _REQUIRED:
                values[key] |= st.just(example)
    required = {key for key, (_, default) in table.items()
                if default is _REQUIRED}
    documents = st.fixed_dictionaries(
        {key: values[key] for key in required},
        optional={key: values[key] for key in values.keys() - required})
    if "axis" in table:  # sweep values must suit the axis
        documents = documents.map(lambda doc: {
            **doc, "values": _SWEEP_NAMES.get(doc["axis"], doc["values"])})
    return documents


def _documents(table):
    """Config overlays: three in four hold only values the table accepts,
    so most parse and reach an action; the rest are arbitrary."""
    valid = _valid_documents(table, {})
    return st.one_of(valid, valid, valid, _arbitrary_documents(table))


# valid on its own; the fuzz overwrites some of its keys
_BASE = {"preset": "primary_side",
         "sweep": {"axis": "velocity", "values": [1.1]}, "optimize": {},
         "mesh_study": {"resolutions_m": [2e-3]},
         "stack": {"layers": [{"name": "die", "thickness_m": 1e-4,
                               "conductivity": 100.0}]}}


# solve-fv examples run the small plate at 2.5 mm (5,760 cells): neither
# preset builds a grid coarser than 2.5 mm, where a primary_side solve
# takes 0.4 s
_FV_BASE = {**{k: v for k, v in _BASE.items() if k != "preset"},
            "assembly": assembly_to_json(small_assembly())}


@settings(max_examples=100, deadline=None)
@given(overlay=_documents(_CONFIG),
       assembly=_valid(_CONFIG["assembly"][0], _FV_BASE["assembly"]),
       action=st.sampled_from(ACTIONS + (None,)))
def test_parse_config_fuzz(overlay, assembly, action):
    # any document either parses or is a ConfigError, never another error;
    # what parses echoes as strict JSON. The inline assembly is drawn from
    # the table near the small plate, so some fit and some fail validate
    doc = {**_FV_BASE, "assembly": assembly, **overlay}
    try:
        config = parse_config(json.dumps(doc), action=action)
    except ConfigError:
        return
    json.dumps(config.resolved, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(overlay=_documents(_CONFIG))
@pytest.mark.parametrize("action, base, pinned", [
    ("report", _BASE, {}),
    ("solve-fv", _FV_BASE, {"solver": {"resolution_m": 2.5e-3}}),
], ids=["report", "solve-fv"])
def test_main_fuzz(action, base, pinned, overlay):
    # any document runs, or fails with exit 1 and one error line; no
    # exception escapes main
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "config.json"
        config.write_text(json.dumps({**base, **overlay, **pinned}))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([action, "--config", str(config), "--out", out])
    lines = err.getvalue().splitlines()
    assert code == 0 or (code == 1 and len(lines) == 1
                         and lines[0].startswith("error:")), (code, lines)


def test_cli_matrix_covers_every_action():
    # the byte-identity matrix of tests/cli_matrix.py: every action on both
    # presets, every sweep axis, a first linear solve from an all-zero
    # guess (inlet at 0 C), a 3-pass FV solve at 2.9 m/s, a network sweep,
    # a network optimize and an FV sweep with every evaluation setting off
    # its default, and an FV sweep whose max_iters binds, and FV velocity
    # and material sweeps on a 2-thread pool; the configs parse, none is
    # run here
    from cli_matrix import CASES, ENVIRONMENTS
    default = parse_config(json.dumps({"preset": "primary_side"}),
                           action="report").evaluation
    covered, with_settings, max_iters = set(), set(), set()
    for action, doc in CASES.values():
        cfg = parse_config(json.dumps(doc), action=action)
        sweep, evaluation = doc.get("sweep", {}), cfg.evaluation
        evaluator = doc.get(action, {}).get("evaluator", "network")
        covered.add((doc.get("preset"), action, sweep.get("axis"), evaluator))
        if (evaluation.coolant != default.coolant
                and evaluation.stack != default.stack
                and evaluation.minor_loss_K != default.minor_loss_K
                and evaluation.solver.tol != default.solver.tol):
            with_settings.add((action, evaluator))
        if "max_iters" in doc.get("solver", {}):
            max_iters.add((action, evaluator))
    assert {("sweep", "network"), ("optimize", "network"),
            ("sweep", "fv")} <= with_settings
    assert ("sweep", "fv") in max_iters
    for preset in PRESETS:
        for action in ACTIONS:
            axes = ([(axis, "network") for axis in SWEEP_AXES]
                    + [("velocity", "fv")] if action == "sweep"
                    else [(None, "network")])
            assert {(preset, action, *a) for a in axes} <= covered
    flows = [(action, doc.get("flow")) for action, doc in CASES.values()]
    assert ("solve-fv", {"inlet_C": 0.0}) in flows
    assert ("solve-fv", {"v_mps": 2.9}) in flows
    assert sorted((CASES[name][1]["sweep"]["axis"],
                   CASES[name][1]["sweep"]["evaluator"],
                   env["COLDPLATE_THREADS"])
                  for name, env in ENVIRONMENTS.items()) == [
        ("material", "fv", "2"), ("velocity", "fv", "2")]


def test_cli_matrix_against_exits_1_unless_identical(tmp_path, monkeypatch,
                                                     capsys):
    # one case of the matrix, run four times: against a run of the same
    # code it exits 0; against a run with a changed file, or without the
    # case, it exits 1
    import cli_matrix
    monkeypatch.setattr(cli_matrix, "CASES",
                        {"small-report": cli_matrix.CASES["small-report"]})
    runs = [tmp_path / name for name in "abcd"]
    assert cli_matrix.main([str(runs[0])]) == 0
    assert cli_matrix.main([str(runs[1]), "--against", str(runs[0])]) == 0
    assert capsys.readouterr().out.endswith(
        "small-report: exit 0, identical\n")
    (runs[0] / "small-report" / "stdout").write_text("changed\n")
    assert cli_matrix.main([str(runs[2]), "--against", str(runs[0])]) == 1
    assert "stdout text differs" in capsys.readouterr().out
    shutil.rmtree(runs[1] / "small-report")
    assert cli_matrix.main([str(runs[3]), "--against", str(runs[1])]) == 1
    assert capsys.readouterr().out == (
        f"small-report: exit 0, no case small-report under {runs[1]}\n")
