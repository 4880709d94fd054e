"""Reduced-order junction temperature model.

Each module's heat crosses, in series: the die layer stack, a 45-degree
spreading cone through the plate, the cover between channel and surface,
and the channel-wall convection film. The coolant bulk temperature is
marched streamwise, accumulating each upstream module's heat, so downstream
modules see a warmer fluid. A module's dies are equal parallel paths, so
they must be identical in footprint and power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import hydraulics
from .geometry import (Assembly, ChannelShape, hydraulic_diameter, validate,
                       wetted_perimeter)
from .hydraulics import RE_TRANSITION
from .properties import CoolantProps

NU_LAMINAR = 3.66  # constant-wall-temperature fully developed value

DEFAULT_INLET_C = 49.0


@dataclass(frozen=True)
class StackLayer:
    name: str
    thickness: float     # m
    conductivity: float  # W/(m*K)
    area_factor: float = 1.0  # cumulative area growth relative to the die

    def __post_init__(self):
        if not (0 < self.thickness < math.inf
                and 0 < self.conductivity < math.inf
                and 1.0 <= self.area_factor < math.inf):
            raise ValueError(f"layer {self.name}: thickness and conductivity "
                             "must be in (0, inf), area_factor in [1, inf)")


@dataclass(frozen=True)
class DieStack:
    layers: tuple[StackLayer, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("die stack needs at least one layer")

    def resistance(self, die_area: float) -> float:
        """Sum of t_i/(k_i*A_i) for one die, K/W."""
        return sum(l.thickness / (l.conductivity * die_area * l.area_factor)
                   for l in self.layers)


def default_die_stack() -> DieStack:
    """Assumed SiC half-bridge module stack; layer data is not published
    for this package family, so every figure here is overridable."""
    return DieStack(layers=(
        StackLayer("die", 0.35e-3, 370.0),
        StackLayer("die-attach", 0.10e-3, 50.0),
        StackLayer("substrate", 0.63e-3, 170.0),
        StackLayer("baseplate", 3.0e-3, 387.6),
        StackLayer("interface", 0.10e-3, 5.0),
    ))


DEFAULT_DIE_STACK = default_die_stack()


@dataclass(frozen=True)
class ModuleResult:
    id: str
    junction_temperature: float       # deg C
    local_coolant_temperature: float  # deg C
    resistance_breakdown: dict[str, float]  # K/W, module level


@dataclass(frozen=True)
class ThermalReport:
    per_module: tuple[ModuleResult, ...]
    coolant_outlet: float  # deg C
    t_max: float           # deg C
    heat_transfer_coefficient: float  # W/(m^2*K)
    nusselt: float

    def to_json(self) -> dict:
        return {
            "per_module": [
                {"id": m.id,
                 "junction_temperature_C": m.junction_temperature,
                 "local_coolant_temperature_C": m.local_coolant_temperature,
                 "resistance_breakdown_K_per_W": m.resistance_breakdown}
                for m in self.per_module
            ],
            "coolant_outlet_C": self.coolant_outlet,
            "t_max_C": self.t_max,
            "heat_transfer_coefficient_W_per_m2K": self.heat_transfer_coefficient,
            "nusselt": self.nusselt,
        }


def nusselt(re: float, pr: float) -> float:
    """Nu: 3.66 for Re <= 2500, Dittus-Boelter above."""
    if re <= 0 or pr <= 0:
        raise ValueError("Re and Pr must be > 0")
    if re <= RE_TRANSITION:
        return NU_LAMINAR
    return 0.023 * re**0.8 * pr**0.4


def _channel_film(coolant: CoolantProps, shape: ChannelShape,
                  v: float) -> tuple[float, float]:
    """(Nu, h) of the channel wall at velocity v > 0, h = Nu*k_f/D_h."""
    d_h = hydraulic_diameter(shape)
    nu = nusselt(hydraulics.reynolds(coolant, v, d_h), coolant.prandtl)
    return nu, nu * coolant.thermal_conductivity / d_h


def heat_transfer_coefficient(coolant: CoolantProps, shape: ChannelShape,
                              v: float) -> float:
    """Channel-wall film coefficient h = Nu*k_f/D_h, W/(m^2*K)."""
    if v <= 0:
        raise ValueError("velocity must be > 0")
    return _channel_film(coolant, shape, v)[1]


def coolant_outlet(coolant: CoolantProps, mass_flow: float, inlet: float,
                   total_power: float) -> float:
    """Bulk outlet temperature from the overall energy balance, deg C."""
    if mass_flow <= 0:
        raise ValueError("mass flow must be > 0")
    return inlet + total_power / (mass_flow * coolant.specific_heat)


def spreading_resistance(die_footprint: tuple[float, float],
                         module_footprint: tuple[float, float],
                         depth: float, conductivity: float) -> float:
    """45-degree cone spreading resistance from die into the plate, K/W.

    The cross-section grows as (a+2z)(b+2z) until either dimension hits the
    module footprint, then stays clamped; integrated analytically piecewise.
    """
    a0, b0 = die_footprint
    amax, bmax = module_footprint

    def seg(z0: float, z1: float) -> float:
        a_lo, b_lo = min(a0 + 2 * z0, amax), min(b0 + 2 * z0, bmax)
        a_grow = a0 + 2 * z0 < amax
        b_grow = b0 + 2 * z0 < bmax
        dz = z1 - z0
        if a_grow and b_grow:
            a1, b1 = a_lo + 2 * dz, b_lo + 2 * dz
            if abs(a_lo - b_lo) < 1e-15:
                return (1.0 / a_lo - 1.0 / a1) / 2.0
            return math.log((a1 * b_lo) / (b1 * a_lo)) / (2.0 * (b_lo - a_lo))
        if a_grow:  # b clamped
            return math.log((a_lo + 2 * dz) / a_lo) / (2.0 * b_lo)
        if b_grow:  # a clamped
            return math.log((b_lo + 2 * dz) / b_lo) / (2.0 * a_lo)
        return dz / (a_lo * b_lo)

    # breakpoints where each dimension reaches the clamp
    za = max(0.0, (amax - a0) / 2.0)
    zb = max(0.0, (bmax - b0) / 2.0)
    points = sorted({0.0, min(za, depth), min(zb, depth), depth})
    total = sum(seg(points[i], points[i + 1]) for i in range(len(points) - 1))
    return total / conductivity


def solve_network(assembly: Assembly, coolant: CoolantProps,
                  flow: hydraulics.FlowCondition,
                  stack: DieStack = DEFAULT_DIE_STACK) -> ThermalReport:
    """Junction temperatures for every module of the assembly."""
    violations = validate(assembly)
    if violations:
        raise ValueError("invalid assembly: " + "; ".join(violations))
    if flow.inlet_velocity <= 0:
        raise ValueError("network model needs inlet velocity > 0")

    layout = assembly.layout
    plate = assembly.plate
    k_plate = plate.material.thermal_conductivity

    nu, h = _channel_film(coolant, layout.shape, flow.inlet_velocity)
    m_dot = hydraulics.mass_flow_total(coolant, layout, flow.inlet_velocity)

    # spreading depth: to the mid-plane for a double-sided plate
    depth = plate.thickness / layout.rows

    modules = sorted(assembly.modules, key=lambda m: (m.origin[0], m.id))
    results = []
    for mod in modules:
        # only strictly upstream heat: face-to-face pairs at the same x see
        # the same bulk fluid temperature
        upstream_heat = sum(m.power for m in modules
                            if m.origin[0] < mod.origin[0] - 1e-12)
        t_local = flow.inlet_temperature + upstream_heat / (
            m_dot * coolant.specific_heat)
        a_module = mod.footprint[0] * mod.footprint[1]
        # one channel row serves each cooled face
        a_wet_share = (wetted_perimeter(layout.shape)
                       * layout.channels_per_row * mod.footprint[0])

        r_conv = 1.0 / (h * a_wet_share)
        r_cover = layout.cover_thickness / (k_plate * a_module)
        n_dies = len(mod.dies)
        if n_dies and mod.power > 0:
            # identical dies in parallel
            die = mod.dies[0]
            if any(d.footprint != die.footprint or d.power != die.power
                   for d in mod.dies):
                raise ValueError(
                    f"module {mod.id!r}: the network model needs identical "
                    "dies, and a die differs from the first in footprint "
                    "or power")
            die_area = die.footprint[0] * die.footprint[1]
            r_stack = stack.resistance(die_area) / n_dies
            r_spread = spreading_resistance(die.footprint, mod.footprint,
                                            depth, k_plate) / n_dies
        else:
            r_stack = 0.0
            r_spread = 0.0

        t_junction = mod.power * (r_stack + r_spread + r_cover + r_conv) + t_local
        results.append(ModuleResult(
            id=mod.id,
            junction_temperature=t_junction,
            local_coolant_temperature=t_local,
            resistance_breakdown={"stack": r_stack, "spread": r_spread,
                                  "cover": r_cover, "convection": r_conv}))

    outlet = coolant_outlet(coolant, m_dot, flow.inlet_temperature,
                            assembly.total_power)
    t_max = max((r.junction_temperature for r in results),
                default=flow.inlet_temperature)
    return ThermalReport(per_module=tuple(results), coolant_outlet=outlet,
                         t_max=t_max, heat_transfer_coefficient=h, nusselt=nu)
