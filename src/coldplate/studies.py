"""Parametric trade studies and the constrained mass minimizer.

A design point is (material, channel count at the equal-area radius,
cover thickness, inlet velocity). Sweeps evaluate one axis at a time;
the optimizer enumerates the finite candidate grid with mass-based
pruning and must select the same design as brute-force enumeration.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from . import fv, hydraulics, thermal
from .geometry import (REFERENCE_RECT, Assembly, ChannelLayout, Rectangular,
                       Semicircular, equal_area_radius, plate_mass,
                       secondary_side)
from .hydraulics import DEFAULT_MINOR_LOSS_K, FlowCondition
from .properties import (CoolantProps, SolidMaterial, get_material,
                         water_at_reference)

SWEEP_AXES = ("velocity", "material", "channel_shape", "channel_count",
              "cover_thickness")

DEFAULT_T_MAX_LIMIT_C = 135.0
DEFAULT_PRESSURE_BUDGET_PA = 50e3
DEFAULT_V_STEP = 0.1
_MAX_VELOCITY_POINTS = 10**6

# reference CFD maxima for the secondary-side design iteration; comparison
# only, never asserted
SECONDARY_SCENARIO_REFERENCE_C = (144.93, 142.04, 136.86, 131.58)


@dataclass(frozen=True)
class StudyRow:
    descriptor: str
    v_mps: float
    t_max_C: float
    dp_Pa: float
    mass_kg: float
    feasible: bool

    def to_json(self) -> dict:
        return {"descriptor": self.descriptor, "v_mps": self.v_mps,
                "t_max_C": self.t_max_C, "dp_Pa": self.dp_Pa,
                "mass_kg": self.mass_kg, "feasible": self.feasible}


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[StudyRow, ...]
    best: StudyRow | None = None

    def to_json(self) -> dict:
        return {"rows": [r.to_json() for r in self.rows],
                "best": self.best.to_json() if self.best else None}


@dataclass(frozen=True)
class SweepSpec:
    base: Assembly
    axis: str
    values: tuple
    coolant: CoolantProps = water_at_reference()
    flow: FlowCondition = FlowCondition(1.1, thermal.DEFAULT_INLET_C)
    stack: thermal.DieStack | None = None
    evaluator: str = "network"
    minor_loss_K: float = DEFAULT_MINOR_LOSS_K
    solver: fv.SolverSettings = fv.SolverSettings()

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ValueError("sweep values must be non-empty")
        if self.evaluator not in ("network", "fv"):
            raise ValueError(f"unknown evaluator {self.evaluator!r}")


@dataclass(frozen=True)
class DesignProblem:
    base: Assembly
    materials: tuple[str | SolidMaterial, ...]
    channel_counts: tuple[int, ...]
    cover_thicknesses: tuple[float, ...]  # m
    v_min: float
    v_max: float
    v_step: float = DEFAULT_V_STEP
    t_max_limit: float = DEFAULT_T_MAX_LIMIT_C     # deg C
    pressure_budget: float = DEFAULT_PRESSURE_BUDGET_PA  # Pa
    coolant: CoolantProps = water_at_reference()
    inlet_temperature: float = thermal.DEFAULT_INLET_C
    stack: thermal.DieStack | None = None
    minor_loss_K: float = DEFAULT_MINOR_LOSS_K
    solver: fv.SolverSettings = fv.SolverSettings()

    def __post_init__(self):
        # a zero or non-finite step never leaves the velocities() loop,
        # nor does one that v_min absorbs in floating point
        if not (math.isfinite(self.v_min) and math.isfinite(self.v_max)
                and 0 < self.v_step < math.inf):
            raise ValueError("v_min, v_max must be finite, v_step in (0, inf)")
        if self.v_min + self.v_step == self.v_min:
            raise ValueError(f"v_step {self.v_step!r} is below the float "
                             f"spacing of v_min {self.v_min!r}")
        if (self.v_max - self.v_min) / self.v_step + 1 > _MAX_VELOCITY_POINTS:
            raise ValueError(f"velocity grid has more than "
                             f"{_MAX_VELOCITY_POINTS} points")

    def velocities(self) -> list[float]:
        vs = []
        n = 0
        while True:
            v = round(self.v_min + n * self.v_step, 12)
            if v > self.v_max + 1e-12:
                break
            vs.append(v)
            n += 1
        return vs


# --------------------------------------------------------------------------
# single-point evaluation

def _reference_rect_layout(base: Assembly) -> ChannelLayout:
    """The rectangular layout whose wetted area channel-count variants
    must preserve."""
    layout = base.layout
    if isinstance(layout.shape, Rectangular):
        return layout
    # reconstruct the 2 x 10 mm reference at the base channel count
    return replace(layout, shape=REFERENCE_RECT)


def with_channel_count(base: Assembly, channels_per_row: int) -> Assembly:
    """Equal-area channel-count variant of the base assembly."""
    ref = _reference_rect_layout(base)
    radius = equal_area_radius(ref, channels_per_row)
    layout = replace(base.layout, channels_per_row=channels_per_row,
                     shape=Semicircular(radius=radius),
                     lateral_pitch=base.plate.width / channels_per_row)
    return replace(base, layout=layout)


def evaluate_design(assembly: Assembly, coolant: CoolantProps,
                    flow: FlowCondition,
                    stack: thermal.DieStack | None = None,
                    minor_loss_K: float = DEFAULT_MINOR_LOSS_K,
                    evaluator: str = "network",
                    solver: fv.SolverSettings = fv.SolverSettings(),
                    ) -> tuple[float, float, float]:
    """Returns (t_max deg C, pressure drop Pa, plate mass kg); solver
    applies to the "fv" evaluator."""
    dp = hydraulics.pressure_drop(coolant, assembly.layout,
                                  flow.inlet_velocity, minor_loss_K)
    mass = plate_mass(assembly)
    if evaluator == "network":
        t_max = thermal.solve_network(assembly, coolant, flow, stack).t_max
    elif evaluator == "fv":
        grid = fv.build_grid(assembly, solver.resolution)
        t_max = fv.solve(grid, coolant, flow, assembly.plate.material,
                         tol=solver.tol, max_iters=solver.max_iters).t_max
    else:
        raise ValueError(f"unknown evaluator {evaluator!r}")
    return t_max, dp, mass


def _worker_count() -> int:
    raw = os.environ.get("COLDPLATE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# --------------------------------------------------------------------------
# sweeps

def _apply_axis(spec: SweepSpec, value) -> tuple[Assembly, FlowCondition, str]:
    base, flow = spec.base, spec.flow
    if spec.axis == "velocity":
        return base, replace(flow, inlet_velocity=float(value)), f"v={value}"
    if spec.axis == "material":
        mat = get_material(value) if isinstance(value, str) else value
        assembly = replace(base, plate=replace(base.plate, material=mat))
        return assembly, flow, f"material={mat.name}"
    if spec.axis == "channel_shape":
        ref = _reference_rect_layout(base)
        count = base.layout.channels_per_row
        shape = {"rectangular": ref.shape, "semicircular": Semicircular(
            radius=equal_area_radius(ref, count))}[value]
        assembly = replace(base, layout=replace(base.layout, shape=shape))
        return assembly, flow, f"shape={value}"
    if spec.axis == "channel_count":
        return (with_channel_count(base, int(value)), flow,
                f"channels_per_row={int(value)}")
    # cover_thickness
    assembly = replace(base, layout=replace(base.layout,
                                            cover_thickness=float(value)))
    return assembly, flow, f"cover_m={value}"


def run_sweep(spec: SweepSpec) -> StudyResult:
    """One evaluation per axis value, rows in input order."""
    points = [_apply_axis(spec, value) for value in spec.values]

    def eval_point(point):
        assembly, flow, descriptor = point
        t_max, dp, mass = evaluate_design(
            assembly, spec.coolant, flow, spec.stack, spec.minor_loss_K,
            spec.evaluator, spec.solver)
        return StudyRow(descriptor=descriptor, v_mps=flow.inlet_velocity,
                        t_max_C=t_max, dp_Pa=dp, mass_kg=mass, feasible=True)

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        return StudyResult(rows=tuple(pool.map(eval_point, points)))


# --------------------------------------------------------------------------
# secondary-side iteration replay

def secondary_side_scenario(assembly: Assembly = secondary_side(),
                            coolant: CoolantProps = water_at_reference(),
                            ) -> StudyResult:
    """Replays the single-sided plate design iteration: raise velocity,
    halve the cover, raise velocity again. t_max must fall at every step."""
    steps = [
        (1.1, 1.0e-3),
        (1.4, 1.0e-3),
        (1.4, 0.5e-3),
        (2.9, 0.5e-3),
    ]
    rows = []
    for (v, cover), reference in zip(steps, SECONDARY_SCENARIO_REFERENCE_C):
        variant = replace(assembly,
                          layout=replace(assembly.layout,
                                         cover_thickness=cover))
        flow = FlowCondition(v, thermal.DEFAULT_INLET_C)
        t_max, dp, mass = evaluate_design(variant, coolant, flow)
        descriptor = (f"v={v},cover_mm={cover * 1e3:g},"
                      f"ref_C={reference},delta_K={t_max - reference:.2f}")
        rows.append(StudyRow(descriptor=descriptor, v_mps=v, t_max_C=t_max,
                             dp_Pa=dp, mass_kg=mass, feasible=True))
    return StudyResult(rows=tuple(rows))


# --------------------------------------------------------------------------
# constrained mass minimization

def _row_key(row: StudyRow):
    return (row.mass_kg, row.t_max_C, row.dp_Pa, row.descriptor)


def optimize(problem: DesignProblem, evaluator: str = "network",
             prune: bool = True) -> StudyResult:
    """Minimize plate mass subject to temperature, pressure and velocity
    limits over the finite candidate grid.

    With prune=True, geometry variants already heavier than the feasible
    incumbent skip their thermal evaluations; the selected design is
    identical either way.
    """
    velocities = problem.velocities()
    if not velocities:
        raise ValueError("empty velocity grid")

    rows: list[StudyRow] = []
    best: StudyRow | None = None

    for mat in problem.materials:
        material = get_material(mat) if isinstance(mat, str) else mat
        for count in problem.channel_counts:
            for cover in problem.cover_thicknesses:
                variant = with_channel_count(problem.base, count)
                variant = replace(
                    variant,
                    plate=replace(variant.plate, material=material),
                    layout=replace(variant.layout, cover_thickness=cover))
                mass = plate_mass(variant)
                if prune and best is not None and mass > best.mass_kg:
                    continue
                for v in velocities:
                    flow = FlowCondition(v, problem.inlet_temperature)
                    t_max, dp, mass = evaluate_design(
                        variant, problem.coolant, flow, problem.stack,
                        problem.minor_loss_K, evaluator, problem.solver)
                    feasible = (t_max <= problem.t_max_limit
                                and dp <= problem.pressure_budget
                                and v <= problem.v_max)
                    descriptor = (f"material={material.name},"
                                  f"channels_per_row={count},"
                                  f"cover_mm={cover * 1e3:g},v={v:g}")
                    row = StudyRow(descriptor=descriptor, v_mps=v,
                                   t_max_C=t_max, dp_Pa=dp, mass_kg=mass,
                                   feasible=feasible)
                    rows.append(row)
                    if feasible and (best is None
                                     or _row_key(row) < _row_key(best)):
                        best = row
    return StudyResult(rows=tuple(rows), best=best)
