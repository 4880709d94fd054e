import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from coldplate import fv
from coldplate.cli import _CONFIG, ACTIONS, ConfigError, main, parse_config
from coldplate.geometry import assembly_to_json

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
        assert cfg.minor_loss_K == 2.0
        assert cfg.solver == fv.SolverSettings(resolution=2e-3, tol=1e-8,
                                               max_iters=20000)

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
            # the echo lists the section defaults too
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
    ], ids=["coolant-string", "flow-string", "nan-velocity", "bool-velocity",
            "sweep-on-report", "materials-file-int", "materials-file-bool",
            "materials-file-list", "fractional-max-iters", "sweep-no-axis",
            "sweep-values-number", "sweep-values-mixed", "sweep-bad-shape",
            "sweep-bad-evaluator", "channel-counts-number", "zero-v-step",
            "unknown-material", "v-step-below-spacing"])
    def test_is_an_error(self, tmp_path, capsys, action, section, message):
        cfg = write_config(tmp_path, {"preset": "primary_side", **section})
        out = tmp_path / "out"
        assert main([action, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
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

    def test_nan_die_power_is_an_error(self, tmp_path, capsys):
        # rejected where the die is built, not after max_iters CG steps
        doc = small_doc("solve-fv", solver={"resolution_m": 2.5e-3})
        doc["assembly"]["modules"][0]["dies"][0]["power_W"] = NAN
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["solve-fv", "--config", str(cfg),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "die power must be finite" in err
        assert "Traceback" not in err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("action, key, value, message", [
        ("report", "rows", 3,
         "rows must be an integer >= 1 and <= 2 (a row per cooled face), "
         "got 3"),
        ("report", "rows", True, "got True"),
        ("report", "channels_per_row", 1.5,
         "channels_per_row must be an integer >= 1, got 1.5"),
        ("solve-fv", "channels_per_row", 1.5, "got 1.5"),
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
        assert err.startswith("error: invalid config: assembly:")
        assert message in err and "Traceback" not in err
        assert not (out / "result.json").exists()

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


def _documents(table):
    """Objects with up to three keys from a config table or a junk key;
    each value is arbitrary JSON or a value of the kind the table expects."""
    def kind(check):
        if isinstance(check, set):
            return st.sampled_from(sorted(check))
        if isinstance(check, list):
            return st.lists(kind(check[0]), min_size=1, max_size=2)
        if isinstance(check, dict):
            return _documents(check)
        return st.integers(-1, 3) | st.floats() | st.text(max_size=6)
    values = {key: kind(check) | _json_values()
              for key, (check, _) in table.items()}
    values["junk"] = _json_values()
    return st.lists(st.sampled_from(sorted(values)), max_size=3,
                    unique=True).flatmap(lambda keys: st.fixed_dictionaries(
                        {key: values[key] for key in keys}))


# valid on its own; the fuzz overwrites some of its keys
_BASE = {"preset": "primary_side",
         "sweep": {"axis": "velocity", "values": [1.1]}, "optimize": {},
         "mesh_study": {"resolutions_m": [2e-3]},
         "stack": {"layers": [{"name": "die", "thickness_m": 1e-4,
                               "conductivity": 100.0}]}}


@settings(max_examples=100, deadline=None)
@given(overlay=_documents(_CONFIG),
       action=st.sampled_from(ACTIONS + (None,)))
def test_parse_config_fuzz(overlay, action):
    # any document either parses or is a ConfigError, never another error;
    # what parses echoes as strict JSON
    try:
        config = parse_config(json.dumps({**_BASE, **overlay}), action=action)
    except ConfigError:
        return
    json.dumps(config.resolved, allow_nan=False)
