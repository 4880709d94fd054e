"""Command-line surface: `coldplate <action> --config <file> [--out DIR]`.

Actions: report | sweep | optimize | solve-fv | mesh-study. The config is
a strict JSON document checked against `_CONFIG`, which gives every key's
type, range and default; all violations are reported together. Lengths
carry an explicit _m suffix in key names. Every action writes result.json
and result.csv into the output directory; solve-fv additionally writes
field.txt. Outputs are byte-stable for a given config.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import fv, hydraulics, studies, thermal
from .geometry import (Assembly, PRESETS, assembly_from_json,
                       assembly_to_json, plate_mass)
from .hydraulics import DEFAULT_MINOR_LOSS_K, FlowCondition
from .properties import (CoolantProps, MaterialLibrary, water_at_reference)

ACTIONS = ("report", "sweep", "optimize", "solve-fv", "mesh-study")


class ConfigError(ValueError):
    """Invalid configuration; message lists every violation found."""


# --------------------------------------------------------------------------
# config table
#
# Every key maps to (check, default). A check is (must_be, accept), where
# accept(value) returns the value to use (numbers as float) or None to
# reject it; {"a", "b"}, one of these strings; [check], a non-empty list of
# values passing check; or {key: (check, default)}, an object with only
# these keys. An absent key takes its default, checked like a given value;
# a None default leaves it out and _REQUIRED makes its absence an error.

_REQUIRED = object()


def _number(must_be: str, in_range, big=sys.float_info.max):
    """A finite JSON number (bools are not numbers) that is in range."""
    return must_be, lambda v: (float(v) if type(v) in (int, float)
                               and -big <= v <= big and in_range(v) else None)


_FINITE = _number("a finite number", lambda v: True)
_NON_NEGATIVE = _number("a finite number >= 0", lambda v: v >= 0)
_POSITIVE = _number("a finite number > 0", lambda v: v > 0)
_AT_LEAST_ONE = _number("a finite number >= 1", lambda v: v >= 1)
_COUNT = "an integer >= 1", lambda v: v if type(v) is int and v >= 1 else None
_STRING = "a string", lambda v: v if isinstance(v, str) else None
_OBJECT = "an object", lambda v: v if isinstance(v, dict) else None
_LIST = "a non-empty list", lambda v: v if isinstance(v, list) and v else None


def _resolve(check, value, path: str, errors: list[str]):
    """`value` as accepted by `check`, or None after appending each
    violation to `errors`; JSON null is never accepted."""
    if isinstance(check, tuple):  # (must_be, accept)
        if (accepted := check[1](value)) is None:
            errors.append(f"{path} must be {check[0]}, got {value!r}")
        return accepted
    if isinstance(check, set):
        if isinstance(value, str) and value in check:
            return value
        errors.append(f"unknown {path} {value!r}; one of {sorted(check)}")
        return None
    if isinstance(check, list):
        if _resolve(_LIST, value, path, errors) is None:
            return None
        items = [_resolve(check[0], v, f"{path}[{i}]", errors)
                 for i, v in enumerate(value)]
        return None if None in items else items
    if _resolve(_OBJECT, value, path, errors) is None:
        return None
    at = f"{path}." if path else ""
    errors += [f"unknown key {at + k!r}" for k in value if k not in check]
    resolved = {}
    for key, (item, default) in check.items():
        if key not in value and default is _REQUIRED:
            errors.append(f"missing key {at + key!r}")
        elif key in value or default is not None:
            got = _resolve(item, value.get(key, default), at + key, errors)
            if got is not None:
                resolved[key] = got
    return resolved


# check for each item of sweep.values by axis; material names are looked
# up in the config's own material library instead
_SWEEP_ITEM = {"velocity": _POSITIVE, "channel_count": _COUNT,
               "channel_shape": {"rectangular", "semicircular"},
               "cover_thickness": _POSITIVE}
_EVALUATOR = ({"network", "fv"}, "network")
_WATER = water_at_reference()
_SOLVER = fv.SolverSettings()

_CONFIG = {
    "action": (set(ACTIONS), None),
    "preset": (set(PRESETS), None),
    "assembly": (_OBJECT, None),
    "materials_file": (_STRING, None),
    "coolant": ({
        "name": (_STRING, _WATER.name),
        "density": (_POSITIVE, _WATER.density),
        "dynamic_viscosity": (_POSITIVE, _WATER.dynamic_viscosity),
        "specific_heat": (_POSITIVE, _WATER.specific_heat),
        "thermal_conductivity": (_POSITIVE, _WATER.thermal_conductivity),
        "reference_temperature_C": (_FINITE, _WATER.reference_temperature),
    }, {}),
    "flow": ({"v_mps": (_POSITIVE, 1.1),
              "inlet_C": (_FINITE, thermal.DEFAULT_INLET_C)}, {}),
    "stack": ({"layers": ([{
        "name": (_STRING, _REQUIRED),
        "thickness_m": (_POSITIVE, _REQUIRED),
        "conductivity": (_POSITIVE, _REQUIRED),
        "area_factor": (_AT_LEAST_ONE, 1.0),
    }], _REQUIRED)}, None),
    "solver": ({"tol": (_POSITIVE, _SOLVER.tol),
                "max_iters": (_COUNT, _SOLVER.max_iters),
                "resolution_m": (_POSITIVE, _SOLVER.resolution)}, {}),
    "hydraulics": ({"minor_loss_K": (_NON_NEGATIVE, DEFAULT_MINOR_LOSS_K)},
                   {}),
    "sweep": ({"axis": (set(studies.SWEEP_AXES), _REQUIRED),
               "values": (_LIST, _REQUIRED),
               "evaluator": _EVALUATOR}, None),
    "optimize": ({
        "materials": ([_STRING], ["copper", "aluminum", "stainless-steel"]),
        "channel_counts": ([_COUNT], [3, 6]),
        "cover_thicknesses_m": ([_POSITIVE], [1e-3, 0.5e-3]),
        "v_min": (_POSITIVE, 0.5),
        "v_max": (_POSITIVE, 2.9),
        "v_step": (_POSITIVE, studies.DEFAULT_V_STEP),
        "t_max_limit_C": (_FINITE, studies.DEFAULT_T_MAX_LIMIT_C),
        "pressure_budget_Pa": (_POSITIVE, studies.DEFAULT_PRESSURE_BUDGET_PA),
        "evaluator": _EVALUATOR,
    }, None),
    "mesh_study": ({"resolutions_m": ([_POSITIVE], _REQUIRED)}, None),
}


@dataclass
class RunConfig:
    action: str
    assembly: Assembly
    coolant: CoolantProps
    flow: FlowCondition
    stack: thermal.DieStack | None
    minor_loss_K: float
    solver: fv.SolverSettings
    sweep: studies.SweepSpec | None
    optimize: studies.DesignProblem | None
    resolved: dict  # fully-resolved document for --echo-config


def parse_config(text: str, action: str | None = None) -> RunConfig:
    """Parse and validate a JSON config, filling documented defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error: {exc.msg} at line "
                          f"{exc.lineno} column {exc.colno}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    errors: list[str] = []
    resolved = _resolve(_CONFIG, doc, "", errors)

    cfg_action = resolved.setdefault("action", action)
    if cfg_action is None:
        errors.append("no action given (config key 'action' or CLI argument)")
    elif action is not None and cfg_action != action:
        errors.append(f"config action {cfg_action!r} conflicts with "
                      f"command-line action {action!r}")
    needed = (cfg_action or "").replace("-", "_")
    if needed in ("sweep", "optimize", "mesh_study") and needed not in doc:
        errors.append(f"action {cfg_action!r} needs a {needed!r} section")

    library = MaterialLibrary()
    if "materials_file" in resolved:
        try:
            library.load_overrides(resolved["materials_file"])
        except (AttributeError, OSError, TypeError, ValueError) as exc:
            errors.append(f"materials_file: {exc}")

    def materials(names, path):
        """This config's records for a list of material names, or None."""
        if _resolve([set(library.names())], names, path, errors):
            return tuple(map(library.get_material, names))

    assembly = None
    if "preset" in resolved:
        resolved["assembly"] = assembly_to_json(
            PRESETS[resolved.pop("preset")]())
    if ("preset" in doc) == ("assembly" in doc):
        errors.append("exactly one of 'preset' or 'assembly' is required")
    elif "assembly" in resolved:
        try:
            assembly = assembly_from_json(resolved["assembly"],
                                          library.get_material)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"assembly: {exc}")

    # material names become this config's records; other sweep values stay
    # as given, because the row descriptors print them
    sweep, opt = resolved.get("sweep", {}), resolved.get("optimize", {})
    sweep_values = sweep.get("values")
    if "axis" in sweep and sweep_values:
        if sweep["axis"] == "material":
            sweep_values = materials(sweep_values, "sweep.values")
        else:
            _resolve([_SWEEP_ITEM[sweep["axis"]]], sweep_values,
                     "sweep.values", errors)
    opt_materials = (materials(opt["materials"], "optimize.materials")
                     if "materials" in opt else None)

    if errors:
        raise ConfigError("invalid config: " + "; ".join(errors))

    resolved["assembly"] = assembly_to_json(assembly)
    # coolant and solver keys are the field names, with a unit suffix
    coolant = CoolantProps(**{key.removesuffix("_C"): value
                              for key, value in resolved["coolant"].items()})
    solver = fv.SolverSettings(**{key.removesuffix("_m"): v
                                  for key, v in resolved["solver"].items()})
    flow = FlowCondition(inlet_velocity=resolved["flow"]["v_mps"],
                         inlet_temperature=resolved["flow"]["inlet_C"])
    stack = None
    if "stack" in resolved:
        stack = thermal.DieStack(layers=tuple(thermal.StackLayer(
            l["name"], l["thickness_m"], l["conductivity"], l["area_factor"])
            for l in resolved["stack"]["layers"]))
    common = dict(base=assembly, coolant=coolant, stack=stack,
                  minor_loss_K=resolved["hydraulics"]["minor_loss_K"],
                  solver=solver)
    problem = None
    if opt:
        try:
            problem = studies.DesignProblem(
                materials=opt_materials,
                channel_counts=tuple(opt["channel_counts"]),
                cover_thicknesses=tuple(opt["cover_thicknesses_m"]),
                v_min=opt["v_min"], v_max=opt["v_max"], v_step=opt["v_step"],
                t_max_limit=opt["t_max_limit_C"],
                pressure_budget=opt["pressure_budget_Pa"],
                inlet_temperature=flow.inlet_temperature, **common)
        except ValueError as exc:  # a velocity grid too fine to enumerate
            raise ConfigError(f"invalid config: optimize: {exc}") from None
    return RunConfig(
        action=cfg_action, assembly=assembly, coolant=coolant, flow=flow,
        stack=stack, minor_loss_K=common["minor_loss_K"], solver=solver,
        sweep=studies.SweepSpec(
            axis=sweep["axis"], values=tuple(sweep_values), flow=flow,
            evaluator=sweep["evaluator"], **common) if sweep else None,
        optimize=problem, resolved=resolved)


# --------------------------------------------------------------------------
# actions

def _csv(rows: list[dict]) -> str:
    """CSV text with the first row's keys as the header; floats are
    written with repr and None as an empty field."""
    def field(v):
        return "" if v is None else repr(v) if isinstance(v, float) else str(v)
    lines = [",".join(rows[0])] + [",".join(map(field, row.values()))
                                   for row in rows]
    return "\n".join(lines) + "\n"


def _run_report(config: RunConfig):
    hyd = hydraulics.report(config.coolant, config.assembly.layout,
                            config.flow.inlet_velocity, config.minor_loss_K)
    th = thermal.solve_network(config.assembly, config.coolant, config.flow,
                               config.stack)
    mass = plate_mass(config.assembly)
    result = {"hydraulics": hyd.to_json(), "thermal": th.to_json(),
              "mass_kg": mass}
    csv = _csv([{
        "t_max_C": th.t_max, "dp_Pa": hyd.pressure_drop, "mass_kg": mass,
        "reynolds": hyd.reynolds, "regime": hyd.regime,
        "coolant_outlet_C": th.coolant_outlet}])
    summary = (f"t_max = {th.t_max:.2f} C | dP = {hyd.pressure_drop:.1f} Pa "
               f"| mass = {mass:.3f} kg | Re = {hyd.reynolds:.0f} "
               f"({hyd.regime})")
    return result, csv, None, summary


def _run_sweep(config: RunConfig):
    result = studies.run_sweep(config.sweep)
    summary = (f"sweep over {config.sweep.axis}: {len(result.rows)} points, "
               f"t_max {min(r.t_max_C for r in result.rows):.2f}.."
               f"{max(r.t_max_C for r in result.rows):.2f} C")
    doc = result.to_json()
    return doc, _csv(doc["rows"]), None, summary


def _run_optimize(config: RunConfig):
    result = studies.optimize(config.optimize,
                              config.resolved["optimize"]["evaluator"])
    if result.best:
        summary = (f"best: {result.best.descriptor} | mass = "
                   f"{result.best.mass_kg:.3f} kg | t_max = "
                   f"{result.best.t_max_C:.2f} C")
    else:
        summary = "no feasible design"
    doc = result.to_json()
    return doc, _csv(doc["rows"]), None, summary


def _run_solve_fv(config: RunConfig):
    grid = fv.build_grid(config.assembly, config.solver.resolution)
    solution = fv.solve(grid, config.coolant, config.flow,
                        config.assembly.plate.material, tol=config.solver.tol,
                        max_iters=config.solver.max_iters)
    result = solution.to_json()
    csv = _csv([{
        "t_max_C": solution.t_max, "residual": solution.residual,
        "iterations": solution.iterations,
        "energy_imbalance_W": solution.energy_imbalance,
        "cells": grid.cell_count}])
    summary = (f"FV t_max = {solution.t_max:.2f} C on {grid.cell_count} "
               f"cells | energy imbalance = "
               f"{solution.energy_imbalance:.3e} W")
    return result, csv, (solution, grid), summary


def _run_mesh_study(config: RunConfig):
    result = fv.mesh_study(lambda r: fv.build_grid(config.assembly, r),
                           config.coolant, config.flow,
                           config.assembly.plate.material,
                           config.resolved["mesh_study"]["resolutions_m"],
                           config.solver)
    summary = (f"mesh study: {len(result.rows)} levels, converged = "
               f"{result.converged}")
    doc = result.to_json()
    return doc, _csv(doc["rows"]), None, summary


_RUNNERS = {
    "report": _run_report,
    "sweep": _run_sweep,
    "optimize": _run_optimize,
    "solve-fv": _run_solve_fv,
    "mesh-study": _run_mesh_study,
}


def run(config: RunConfig, out_dir: Path, echo_config: bool = False) -> int:
    """Execute the configured action and write result artifacts."""
    if echo_config:
        print(json.dumps(config.resolved, indent=2, sort_keys=True))
    result, csv, field_data, summary = _RUNNERS[config.action](config)
    # strict JSON: a non-finite result is an error, not a NaN in the file
    text = json.dumps(result, indent=2, sort_keys=True, allow_nan=False)

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(text + "\n")
    (out_dir / "result.csv").write_text(csv)
    if field_data is not None:
        solution, grid = field_data
        fv.write_structured_points(solution, grid, out_dir / "field.txt")
    print(summary)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coldplate",
        description="Cold-plate design and analysis toolkit")
    parser.add_argument("action", choices=ACTIONS)
    parser.add_argument("--config", required=True,
                        help="JSON configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--echo-config", action="store_true",
                        help="print the fully resolved configuration")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, action=args.action)
        return run(config, Path(args.out), echo_config=args.echo_config)
    except (ConfigError, ValueError, fv.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
