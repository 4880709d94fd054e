"""Command-line surface: `coldplate <action> --config <file> [--out DIR]`.

Actions: report | sweep | optimize | solve-fv | mesh-study. The config is
a strict JSON document checked against `_CONFIG`, which gives every key's
type, range and default, the inline assembly's too; the entries of the
materials file are checked against `_OVERRIDE` or `_NEW_MATERIAL`. All
violations are reported together, with those `geometry.validate` finds in
the assembly. Lengths carry an explicit _m suffix in key names. The
assembly's and the materials file's document formats live here alone.
Every action writes result.json and result.csv into the output
directory; solve-fv additionally writes field.txt, one line per cell in
"% .16e" (17 significant digits: each value reads back bit for bit; the
bytes changed after 409ecd4, which wrote repr, the values did not).
Outputs are byte-stable for a given config.
"""

from __future__ import annotations

import argparse
import errno
import json
import sys
from csv import DictWriter
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path

from . import fv, hydraulics, studies, thermal
from .geometry import (PRESETS, Assembly, ChannelLayout, DieSource,
                       ModulePlacement, PlateGeometry, Rectangular,
                       Semicircular, plate_mass, validate)
from .hydraulics import DEFAULT_MINOR_LOSS_K, FlowCondition
from .properties import (MATERIALS, CoolantProps, SolidMaterial,
                         water_at_reference)

ACTIONS = ("report", "sweep", "optimize", "solve-fv", "mesh-study")


class ConfigError(ValueError):
    """Invalid configuration; message lists every violation found."""


# --------------------------------------------------------------------------
# config table
#
# Every key maps to (check, default). A check is (must_be, accept), where
# accept(value) returns the value to use (numbers as float) or None to
# reject it; {"a", "b"}, one of these strings; [check], a non-empty list of
# values passing check; {key: (check, default)}, an object with only these
# keys; or _Kind(name=table, ...), an object whose "kind" names its table.
# An absent key takes its default, checked like a given value; a None
# default leaves it out and _REQUIRED makes its absence an error.

_REQUIRED = object()


class _Kind(dict):
    """Check of an object whose "kind" key names the table of its keys."""


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


def _pair(item):
    """A list of two values, each accepted by the check `item`."""
    return f"two values, each {item[0]}", lambda v: (
        pair if isinstance(v, list) and len(v) == 2
        and None not in (pair := [item[1](x) for x in v]) else None)


_POINT = _pair(_FINITE)     # (x, y) m
_EXTENT = _pair(_POSITIVE)  # (dx, dy) m


def _required(**checks) -> dict:
    """An object table whose every key is required."""
    return {key: (check, _REQUIRED) for key, check in checks.items()}


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
    if isinstance(check, _Kind):
        kind = _resolve(set(check), value.get("kind"), f"{path}.kind", errors)
        if kind is None:
            return None
        check = {"kind": ({kind}, _REQUIRED), **check[kind]}
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


def _field(key: str) -> str:
    """The record field a config key names: the key less its unit suffix."""
    name, _, unit = key.rpartition("_")
    return name if unit in ("m", "C", "W", "Pa") else key


def _document(check, value):
    """The document `check` reads as `value`, a record or one of its
    fields: the reverse of `_record`."""
    if isinstance(check, list):
        return [_document(check[0], item) for item in value]
    if isinstance(check, _Kind):
        kind = {cls: k for k, cls in _SHAPES.items()}[type(value)]
        return {"kind": kind, **_document(check[kind], value)}
    if isinstance(check, dict):
        return {key: _document(item, getattr(value, _field(key)))
                for key, (item, _) in check.items()}
    if isinstance(value, SolidMaterial):
        return value.name
    return list(value) if isinstance(value, tuple) else value


_SHAPES = {"rectangular": Rectangular, "semicircular": Semicircular}
# check for each item of sweep.values by axis; material names are looked
# up in the config's own material library instead
_SWEEP_ITEM = {"velocity": _POSITIVE, "channel_count": _COUNT,
               "channel_shape": set(_SHAPES), "cover_thickness": _POSITIVE}
_EVALUATOR = (set(studies.EVALUATORS), "network")
_WATER = water_at_reference()
_SOLVER = fv.SolverSettings()
_FLOW = studies.SweepSpec.flow
_STACK = _required(layers=[{
    **_required(name=_STRING, thickness_m=_POSITIVE, conductivity=_POSITIVE),
    "area_factor": (_AT_LEAST_ONE, 1.0)}])

_CONFIG = {
    "action": (set(ACTIONS), None),
    "preset": (set(PRESETS), None),
    # the plate material is looked up in the config's own material library
    "assembly": ({
        "plate": (_required(length_m=_POSITIVE, width_m=_POSITIVE,
                            thickness_m=_POSITIVE, material=_STRING),
                  _REQUIRED),
        "layout": (_required(
            rows=("1 or 2", lambda v: v if type(v) is int and v in (1, 2)
                  else None),
            channels_per_row=_COUNT, channel_length_m=_POSITIVE,
            shape=_Kind(rectangular=_required(width_m=_POSITIVE,
                                              height_m=_POSITIVE),
                        semicircular=_required(radius_m=_POSITIVE)),
            cover_thickness_m=_POSITIVE, lateral_pitch_m=_POSITIVE),
            _REQUIRED),
        "modules": ([_required(
            id=_STRING, face={"top", "bottom"}, origin_m=_POINT,
            footprint_m=_EXTENT, dies=[_required(
                center_m=_POINT, footprint_m=_EXTENT,
                power_W=_NON_NEGATIVE)])], None),
    }, None),
    "materials_file": (_STRING, None),
    "coolant": ({
        "name": (_STRING, _WATER.name),
        "density": (_POSITIVE, _WATER.density),
        "dynamic_viscosity": (_POSITIVE, _WATER.dynamic_viscosity),
        "specific_heat": (_POSITIVE, _WATER.specific_heat),
        "thermal_conductivity": (_POSITIVE, _WATER.thermal_conductivity),
        "reference_temperature_C": (_FINITE, _WATER.reference_temperature),
    }, {}),
    "flow": ({"v_mps": (_POSITIVE, _FLOW.inlet_velocity),
              "inlet_C": (_FINITE, _FLOW.inlet_temperature)}, {}),
    "stack": (_STACK, _document(_STACK, thermal.DEFAULT_DIE_STACK)),
    "solver": ({"tol": (_POSITIVE, _SOLVER.tol),
                "max_iters": (_COUNT, _SOLVER.max_iters),
                "resolution_m": (_POSITIVE, _SOLVER.resolution)}, {}),
    "hydraulics": ({"minor_loss_K": (_NON_NEGATIVE, DEFAULT_MINOR_LOSS_K)},
                   {}),
    "sweep": ({**_required(axis=set(studies.SWEEP_AXES), values=_LIST),
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
    "mesh_study": (_required(resolutions_m=[_POSITIVE]), None),
}

# an entry of the materials file, keyed by material name: a built-in's keys
# may be left out and keep its values, a new material must give all three
_MATERIAL_KEYS = ("thermal_conductivity", "density", "specific_heat")
_OVERRIDE = {key: (_POSITIVE, None) for key in _MATERIAL_KEYS}
_NEW_MATERIAL = _required(**dict.fromkeys(_MATERIAL_KEYS, _POSITIVE))


def _materials(path: str | None,
               errors: list[str]) -> dict[str, SolidMaterial | None]:
    """The config's materials by name: the built-ins, with the entries of
    the materials file at `path` merged over them; an entry in error maps
    to None, after its violations are appended to `errors`."""
    materials = dict(MATERIALS)
    if path is None:
        return materials
    try:  # unreadable, not UTF-8, not JSON, or too deep or long to decode
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, RecursionError, ValueError) as exc:
        errors.append(f"materials_file: {exc}")
        return materials
    for name, fields in (_resolve(_OBJECT, entries, "materials_file",
                                  errors) or {}).items():
        base, seen = MATERIALS.get(name), len(errors)
        if not name.isprintable():  # csv would write a "\r" unquoted
            errors.append(f"key {f'materials_file.{name}'!r} must be "
                          f"printable text")
        fields = _resolve(_OVERRIDE if base else _NEW_MATERIAL, fields,
                          f"materials_file.{name}", errors)
        materials[name] = None if len(errors) > seen else (
            replace(base, **fields) if base else SolidMaterial(name, **fields))
    return materials


def _record(cls, section: dict, **fields):
    """The `cls` record of a resolved config section: each key's value is
    its field's, lists as tuples, and `fields` give the other fields."""
    for key, value in section.items():
        fields.setdefault(_field(key),
                          tuple(value) if isinstance(value, list) else value)
    return cls(**fields)


def _assembly(doc: dict, material) -> Assembly:
    """The Assembly of a resolved assembly section; material(name) gives
    the plate's material record."""
    plate, layout = doc["plate"], doc["layout"]
    shape = {k: v for k, v in layout["shape"].items() if k != "kind"}
    return Assembly(
        plate=_record(PlateGeometry, plate,
                      material=material(plate["material"])),
        layout=_record(ChannelLayout, layout, shape=_record(
            _SHAPES[layout["shape"]["kind"]], shape)),
        modules=tuple(_record(ModulePlacement, m, dies=tuple(
            _record(DieSource, d) for d in m["dies"]))
            for m in doc.get("modules", ())))


def assembly_to_json(assembly: Assembly) -> dict:
    """The config document of an assembly."""
    return _document(_CONFIG["assembly"][0], assembly)


@dataclass
class RunConfig:
    action: str
    assembly: Assembly
    flow: FlowCondition
    evaluation: studies.Evaluation
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
    except (RecursionError, ValueError) as exc:  # too deep, too many digits
        raise ConfigError(f"config parse error: {exc}") from None
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

    materials = _materials(resolved.get("materials_file"), errors)

    # a preset resolves through the same builder as an inline assembly
    if "preset" in resolved:
        resolved["assembly"] = assembly_to_json(
            PRESETS[resolved.pop("preset")]())
    if ("preset" in doc) == ("assembly" in doc):
        errors.append("exactly one of 'preset' or 'assembly' is required")
    plate = resolved.get("assembly", {}).get("plate", {})
    if "material" in plate:
        _resolve(set(materials), plate["material"],
                 "assembly.plate.material", errors)
    sweep, opt = resolved.get("sweep", {}), resolved.get("optimize", {})
    if "axis" in sweep and sweep.get("values"):
        item = {**_SWEEP_ITEM, "material": set(materials)}[sweep["axis"]]
        _resolve([item], sweep["values"], "sweep.values", errors)
    if "materials" in opt:
        _resolve([set(materials)], opt["materials"], "optimize.materials",
                 errors)

    if not errors:  # the table accepts the assembly, so its records build
        assembly = _assembly(resolved["assembly"], materials.__getitem__)
        errors += [f"assembly: {v}" for v in validate(assembly)]
    if errors:
        raise ConfigError("invalid config: " + "; ".join(errors))

    # material names become this config's records; other sweep values stay
    # as given, because the row descriptors print them
    sweep_values = sweep.get("values", ())
    if sweep.get("axis") == "material":
        sweep_values = [materials[name] for name in sweep_values]

    flow = FlowCondition(inlet_velocity=resolved["flow"]["v_mps"],
                         inlet_temperature=resolved["flow"]["inlet_C"])
    evaluation = studies.Evaluation(
        coolant=_record(CoolantProps, resolved["coolant"]),
        stack=thermal.DieStack(layers=tuple(
            _record(thermal.StackLayer, layer)
            for layer in resolved["stack"]["layers"])),
        minor_loss_K=resolved["hydraulics"]["minor_loss_K"],
        solver=_record(fv.SolverSettings, resolved["solver"]))

    def study(cls, section: dict, **fields):
        # the evaluator is not a field: run_sweep and optimize take it
        return _record(cls, {k: v for k, v in section.items()
                             if k != "evaluator"},
                       base=assembly, evaluation=evaluation, **fields)

    try:  # DesignProblem refuses a velocity grid it cannot use
        problem = study(studies.DesignProblem, opt, materials=tuple(
            materials[name] for name in opt["materials"]),
            inlet_temperature=flow.inlet_temperature) if opt else None
    except ValueError as exc:
        raise ConfigError(f"invalid config: optimize: {exc}") from None
    return RunConfig(
        action=cfg_action, assembly=assembly, flow=flow, evaluation=evaluation,
        sweep=study(studies.SweepSpec, sweep, values=tuple(sweep_values),
                    flow=flow) if sweep else None,
        optimize=problem, resolved=resolved)


# --------------------------------------------------------------------------
# actions

def _csv(rows: list[dict]) -> str:
    """CSV text with the first row's keys as the header; a field is quoted
    only when it needs quoting, floats are written with repr and None as an
    empty field."""
    text = StringIO()
    writer = DictWriter(text, fieldnames=rows[0], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


def _run_report(config: RunConfig):
    hyd = hydraulics.report(config.evaluation.coolant, config.assembly.layout,
                            config.flow.inlet_velocity,
                            config.evaluation.minor_loss_K)
    th = thermal.solve_network(config.assembly, config.evaluation.coolant,
                               config.flow, config.evaluation.stack)
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
    result = studies.run_sweep(config.sweep,
                               config.resolved["sweep"]["evaluator"])
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
    solver = config.evaluation.solver
    grid = fv.build_grid(config.assembly, solver.resolution)
    solution = fv.solve(grid, config.evaluation.coolant, config.flow,
                        config.assembly.plate.material, tol=solver.tol,
                        max_iters=solver.max_iters)
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
                           config.evaluation.coolant, config.flow,
                           config.assembly.plate.material,
                           config.resolved["mesh_study"]["resolutions_m"],
                           config.evaluation.solver)
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


def _check_out(out_dir: Path) -> None:
    """Refuse an output path that is, or lies under, an existing file, so
    the run fails before it computes; creates nothing."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise NotADirectoryError(errno.ENOTDIR, "Not a directory",
                                         str(path))
            return


def run(config: RunConfig, out_dir: Path, echo_config: bool = False) -> int:
    """Execute the configured action and write result artifacts."""
    _check_out(out_dir)
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

    # exit 2: a file that cannot be read or written; exit 1: a malformed
    # config (a ConfigError, or text that is not UTF-8) or a failed run
    try:
        text = Path(args.config).read_text(encoding="utf-8")
        config = parse_config(text, action=args.action)
        return run(config, Path(args.out), echo_config=args.echo_config)
    except OSError as exc:
        status, message = 2, exc
    except UnicodeDecodeError as exc:
        status, message = 1, f"invalid config: not UTF-8 text: {exc}"
    except (ValueError, fv.ConvergenceError) as exc:
        status, message = 1, exc
    print(f"error: {message}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
