"""Parametric trade studies and the constrained mass minimizer.

A design point is (material, channel count at the equal-area radius,
cover thickness, inlet velocity). One `Evaluation` record says how a
study evaluates its points, and `_row` builds every row of every study
from a design and a flow. Sweeps evaluate one axis at a time. The
optimizer minimizes plate mass over the finite candidate grid; its
pruned search must select the same design as the exhaustive one. It
visits the geometries in ascending mass and needs only a few thermal
evaluations per geometry, because the models are monotone in velocity:
mass does not depend on v, dp never falls as v rises, and t_max never
rises. A geometry whose evaluations show t_max rising has its whole
velocity grid evaluated. A pruned result's rows are the points it
evaluated.
"""

from __future__ import annotations

import bisect
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

from . import hydraulics, thermal
from .fv_settings import SolverSettings
from .geometry import (REFERENCE_RECT, Assembly, Rectangular, Semicircular,
                       equal_area_radius, plate_mass, secondary_side,
                       wetted_perimeter)
from .hydraulics import DEFAULT_MINOR_LOSS_K, FlowCondition
from .properties import (CoolantProps, SolidMaterial, get_material,
                         water_at_reference)

SWEEP_AXES = ("velocity", "material", "channel_shape", "channel_count",
              "cover_thickness")
EVALUATORS = ("network", "fv")

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
        # by hand: dataclasses.asdict deep-copies every value, and vars()
        # gives each row a dict that it keeps
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
class Evaluation:
    """How a study evaluates each design point; stack applies to the
    "network" evaluator, solver to the "fv" evaluator."""
    coolant: CoolantProps = water_at_reference()
    stack: thermal.DieStack = thermal.DEFAULT_DIE_STACK
    minor_loss_K: float = DEFAULT_MINOR_LOSS_K
    solver: SolverSettings = SolverSettings()


@dataclass(frozen=True)
class SweepSpec:
    base: Assembly
    axis: str
    values: tuple
    flow: FlowCondition = FlowCondition(1.1, thermal.DEFAULT_INLET_C)
    evaluation: Evaluation = Evaluation()

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ValueError("sweep values must be non-empty")


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
    inlet_temperature: float = thermal.DEFAULT_INLET_C
    evaluation: Evaluation = Evaluation()

    def __post_init__(self):
        # a zero or non-finite step never leaves the velocities loop, nor
        # does one that v_min absorbs in floating point
        if not (math.isfinite(self.v_min) and math.isfinite(self.v_max)
                and 0 < self.v_step < math.inf):
            raise ValueError("v_min, v_max must be finite, v_step in (0, inf)")
        if self.v_min + self.v_step == self.v_min:
            raise ValueError(f"v_step {self.v_step!r} is below the float "
                             f"spacing of v_min {self.v_min!r}")
        # velocities runs on to v_max + 1e-12, its rounding's slack
        if ((self.v_max + 1e-12 - self.v_min) / self.v_step + 1
                > _MAX_VELOCITY_POINTS):
            raise ValueError(f"velocity grid has more than "
                             f"{_MAX_VELOCITY_POINTS} points")
        if not self.velocities:
            raise ValueError("empty velocity grid")
        if len(set(self.velocities)) < len(self.velocities):
            raise ValueError(f"v_step {self.v_step!r} repeats grid points, "
                             f"which are rounded to 12 decimals")

    @cached_property
    def velocities(self) -> tuple[float, ...]:
        """The velocity grid, each point rounded to 12 decimals."""
        vs, n = [], 0
        while ((v := round(self.v_min + n * self.v_step, 12))
               <= self.v_max + 1e-12):
            vs.append(v)
            n += 1
        return tuple(vs)


# --------------------------------------------------------------------------
# single-point evaluation

def variant(base: Assembly, material: str | SolidMaterial | None = None,
            channel_count: int | None = None,
            channel_shape: str | None = None,
            cover_thickness: float | None = None) -> Assembly:
    """The base assembly with each given sweep-axis value in place.

    Count and shape variants keep the wetted perimeter of one reference
    row, and so its wetted area: the base channel count of the base's
    own rectangle, or of REFERENCE_RECT (2 x 10 mm) on a non-rectangular
    base. The "rectangular" shape is that rectangle; a count or
    "semicircular" variant is a semicircle whose row has that perimeter,
    and a count variant spreads its channels over the plate width.
    """
    plate, layout = base.plate, base.layout
    if material is not None:
        plate = replace(plate, material=get_material(material)
                        if isinstance(material, str) else material)
    if channel_count is not None or channel_shape is not None:
        rect = (layout.shape if isinstance(layout.shape, Rectangular)
                else REFERENCE_RECT)
        count = (layout.channels_per_row if channel_count is None
                 else channel_count)
        shapes = {"rectangular": rect, "semicircular": Semicircular(
            radius=equal_area_radius(
                wetted_perimeter(rect) * layout.channels_per_row, count))}
        pitch = (layout.lateral_pitch if channel_count is None
                 else plate.width / count)
        layout = replace(layout, channels_per_row=count, lateral_pitch=pitch,
                         shape=shapes[channel_shape or "semicircular"])
    if cover_thickness is not None:
        layout = replace(layout, cover_thickness=float(cover_thickness))
    return replace(base, plate=plate, layout=layout)


def evaluate_design(assembly: Assembly, flow: FlowCondition,
                    evaluation: Evaluation = Evaluation(),
                    evaluator: str = "network") -> tuple[float, float, float]:
    """Returns (t_max deg C, pressure drop Pa, plate mass kg). An "fv"
    point builds its own grid at the solver resolution and solves on it."""
    coolant, solver = evaluation.coolant, evaluation.solver
    dp = hydraulics.pressure_drop(coolant, assembly.layout,
                                  flow.inlet_velocity, evaluation.minor_loss_K)
    mass = plate_mass(assembly)
    if evaluator == "network":
        t_max = thermal.solve_network(assembly, coolant, flow,
                                      evaluation.stack).t_max
    elif evaluator == "fv":
        from . import fv  # here, so that network points load no numpy
        grid = fv.build_grid(assembly, solver.resolution)
        t_max = fv.solve(grid, coolant, flow, assembly.plate.material,
                         tol=solver.tol, max_iters=solver.max_iters).t_max
    else:
        raise ValueError(f"unknown evaluator {evaluator!r}")
    return t_max, dp, mass


def _row(descriptor: str, design: Assembly, flow: FlowCondition,
         evaluation: Evaluation, evaluator: str,
         problem: DesignProblem | None = None) -> StudyRow:
    """The row of one design point. It is feasible when t_max, dp and v
    are within the problem's limits; a row with no problem is feasible."""
    t_max, dp, mass = evaluate_design(design, flow, evaluation, evaluator)
    feasible = problem is None or (
        t_max <= problem.t_max_limit and dp <= problem.pressure_budget
        and flow.inlet_velocity <= problem.v_max)
    return StudyRow(descriptor, flow.inlet_velocity, t_max, dp, mass, feasible)


def _worker_count() -> int:
    raw = os.environ.get("COLDPLATE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# --------------------------------------------------------------------------
# sweeps

def _apply_axis(spec: SweepSpec, value) -> tuple[str, Assembly, FlowCondition]:
    base, flow = spec.base, spec.flow
    if spec.axis == "velocity":
        return f"v={value}", base, replace(flow, inlet_velocity=float(value))
    assembly = variant(base, **{spec.axis: value})
    descriptor = {"material": f"material={assembly.plate.material.name}",
                  "channel_shape": f"shape={value}",
                  "channel_count": f"channels_per_row={value}",
                  "cover_thickness": f"cover_m={value}"}[spec.axis]
    return descriptor, assembly, flow


def run_sweep(spec: SweepSpec, evaluator: str = "network") -> StudyResult:
    """One evaluation per axis value, rows in input order."""
    points = [_apply_axis(spec, value) for value in spec.values]
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        return StudyResult(rows=tuple(pool.map(
            lambda point: _row(*point, spec.evaluation, evaluator), points)))


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
        row = _row(f"v={v},cover_mm={cover * 1e3:g},ref_C={reference}",
                   variant(assembly, cover_thickness=cover),
                   FlowCondition(v, thermal.DEFAULT_INLET_C),
                   Evaluation(coolant=coolant), "network")
        rows.append(replace(row, descriptor=f"{row.descriptor},delta_K="
                            f"{row.t_max_C - reference:.2f}"))
    return StudyResult(rows=tuple(rows))


# --------------------------------------------------------------------------
# constrained mass minimization

def _row_key(row: StudyRow):
    return (row.mass_kg, row.t_max_C, row.dp_Pa, row.descriptor)


def optimize(problem: DesignProblem, evaluator: str = "network",
             prune: bool = True) -> StudyResult:
    """Minimize plate mass subject to temperature, pressure and velocity
    limits over the finite candidate grid; best is the feasible row least
    by _row_key.

    With prune=False every grid point is evaluated, in grid order: the
    exhaustive oracle. With prune=True the geometries are visited in
    ascending mass, in grid order among equal masses (the cover variants
    of a geometry share its mass), up to the first one heavier than the
    best row so far. Each one is searched by _search: t_max is probed at
    v_hi, the fastest grid velocity within v_max and the pressure budget
    (found from dp alone), and at the grid point below it, and only on an
    exact t_max tie there bisected for the slowest velocity of that
    t_max. The rows are the points evaluated, each geometry's in grid
    order. The selected design is the same either way.
    """
    velocities = problem.velocities
    designs = [variant(problem.base, material=material,
                       channel_count=count, cover_thickness=cover)
               for material in problem.materials
               for count in problem.channel_counts
               for cover in problem.cover_thicknesses]

    def rows_of(design: Assembly):
        """The design's row at a velocity, as a function of it."""
        # 15 digits name every point of the 12-decimal grid below 1000 m/s
        return lambda v: _row(
            f"material={design.plate.material.name},"
            f"channels_per_row={design.layout.channels_per_row},"
            f"cover_mm={design.layout.cover_thickness * 1e3:.15g},"
            f"v={v:.15g}", design, FlowCondition(v, problem.inlet_temperature),
            problem.evaluation, evaluator, problem)

    def best_of(rows, best=None):  # the first of equals, as in grid order
        return min(([best] if best else []) + [r for r in rows if r.feasible],
                   key=_row_key, default=None)

    if not prune:
        rows = [row for d in designs for row in map(rows_of(d), velocities)]
        return StudyResult(rows=tuple(rows), best=best_of(rows))

    rows: list[StudyRow] = []
    best: StudyRow | None = None
    for mass, design in sorted(((plate_mass(d), d) for d in designs),
                               key=lambda pair: pair[0]):
        if best is not None and mass > best.mass_kg:
            break
        found = _search(problem, velocities, rows_of(design),
                        lambda v: hydraulics.pressure_drop(
                            problem.evaluation.coolant, design.layout, v,
                            problem.evaluation.minor_loss_K))
        rows += found
        best = best_of(found, best)
    return StudyResult(rows=tuple(rows), best=best)


def _search(problem: DesignProblem, velocities: tuple[float, ...], evaluate,
            pressure_drop) -> list[StudyRow]:
    """The rows one geometry's pruned search evaluates, in grid order.

    It is exact where t_max never rises and dp never falls with v. The
    geometry's rows share its mass, so _row_key orders its feasible ones
    by t_max, dp, then descriptor. Velocities up to v_hi pass the budget
    and v_max, so the least t_max is at v_hi: if that row is too hot, no
    row is feasible. The rows that tie its t_max form a run [v_lo, v_hi],
    of which v_lo has the least dp; the later points of the same dp are
    evaluated too, so the descriptors decide among them as in _row_key.
    If the evaluated t_max rise anywhere with v, the premise fails for
    this geometry and every velocity is evaluated.
    """
    done: dict[int, StudyRow] = {}

    def at(i: int) -> StudyRow:
        if i not in done:
            done[i] = evaluate(velocities[i])
        return done[i]

    # v_hi: the last grid point within v_max and the budget, from dp alone
    within = range(bisect.bisect_right(velocities, problem.v_max))
    hi = bisect.bisect_right(within, problem.pressure_budget,
                             key=lambda i: pressure_drop(velocities[i])) - 1
    top = at(max(hi, 0))  # with no v in budget, a row that shows why
    if hi > 0 and top.feasible and at(hi - 1).t_max_C == top.t_max_C:
        lo, tie = 0, hi - 1  # velocities[tie] ties top's t_max
        while lo < tie:
            mid = (lo + tie) // 2
            if at(mid).t_max_C == top.t_max_C:
                tie = mid
            else:
                lo = mid + 1
        dp = done[lo].dp_Pa
        while lo < hi and pressure_drop(velocities[lo + 1]) == dp:
            lo += 1
            at(lo)
    order = sorted(done)
    t_max = [done[i].t_max_C for i in order]
    if any(b > a for a, b in zip(t_max, t_max[1:])):
        order = range(len(velocities))
    return [at(i) for i in order]
