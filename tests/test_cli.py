import json

import pytest

from coldplate.cli import ConfigError, main, parse_config
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
        assert cfg.tol == 1e-8
        assert cfg.resolution == 2e-3

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
        cfg = write_config(tmp_path, {"preset": "primary_side"})
        out1 = tmp_path / "o1"
        main(["report", "--config", str(cfg), "--out", str(out1),
              "--echo-config"])
        stdout = capsys.readouterr().out
        resolved = stdout[:stdout.rindex("}") + 1]
        cfg2 = write_config(tmp_path, json.loads(resolved), "resolved.json")
        out2 = tmp_path / "o2"
        assert main(["report", "--config", str(cfg2),
                     "--out", str(out2)]) == 0
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
        ({"flow": {"v_mps": float("nan")}}, "inlet velocity must be > 0"),
        ({"coolant": {"thermal_conductivity": float("nan")}}, "non-finite"),
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
