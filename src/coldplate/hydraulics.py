"""Flow regime, friction factor, pressure drop and mass flow for the
channel array.

The laminar/turbulent switch sits at Re = 2500 (inclusive to laminar).
Friction uses f = 64/Re below the switch and Blasius f = 0.316*Re^-0.25
above it; the discontinuity at the branch point is deliberate and tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .geometry import (ChannelLayout, ChannelShape, cross_section_area,
                       hydraulic_diameter)
from .properties import CoolantProps

RE_TRANSITION = 2500.0
DEFAULT_MINOR_LOSS_K = 2.0  # entrance + exit

LAMINAR = "laminar"
TURBULENT = "turbulent"


@dataclass(frozen=True)
class FlowCondition:
    inlet_velocity: float     # m/s
    inlet_temperature: float  # deg C

    def __post_init__(self):
        if not 0 <= self.inlet_velocity < math.inf:
            raise ValueError("inlet velocity must be finite and >= 0")
        if not math.isfinite(self.inlet_temperature):
            raise ValueError("inlet temperature must be finite")


@dataclass(frozen=True)
class HydraulicsReport:
    reynolds: float
    regime: str
    friction_factor: float
    pressure_drop: float      # Pa
    mass_flow_total: float    # kg/s
    transition_velocity: float  # m/s

    def to_json(self) -> dict:
        return asdict(self)


def reynolds(coolant: CoolantProps, v: float, d_h: float) -> float:
    """Re = rho*v*D_h/mu."""
    if d_h <= 0:
        raise ValueError("hydraulic diameter must be > 0")
    if v < 0:
        raise ValueError("velocity must be >= 0")
    return coolant.density * v * d_h / coolant.dynamic_viscosity


def classify(re: float) -> str:
    if not 0 <= re < math.inf:
        raise ValueError(
            f"Reynolds number must be finite and >= 0, got {re!r}")
    return LAMINAR if re <= RE_TRANSITION else TURBULENT


def transition_velocity(coolant: CoolantProps, shape: ChannelShape) -> float:
    """Velocity at which Re reaches the 2500 switch point, m/s."""
    d_h = hydraulic_diameter(shape)
    return RE_TRANSITION * coolant.dynamic_viscosity / (coolant.density * d_h)


def friction_factor(re: float) -> float:
    """Darcy friction factor; laminar 64/Re, turbulent Blasius."""
    if not 0 < re < math.inf:
        raise ValueError(f"Reynolds number must be finite and > 0, got {re!r}")
    if re <= RE_TRANSITION:
        return 64.0 / re
    return 0.316 * re**-0.25


def pressure_drop(coolant: CoolantProps, layout: ChannelLayout, v: float,
                  minor_loss_K: float = DEFAULT_MINOR_LOSS_K) -> float:
    """Darcy-Weisbach drop across one channel, Pa.

    Identical parallel channels share the same drop, so this is also the
    plate-level figure (manifolds excluded).
    """
    if v <= 0:
        raise ValueError("velocity must be > 0")
    d_h = hydraulic_diameter(layout.shape)
    re = reynolds(coolant, v, d_h)
    f = friction_factor(re)
    dyn = coolant.density * v * v / 2.0
    return f * (layout.channel_length / d_h) * dyn + minor_loss_K * dyn


def mass_flow_total(coolant: CoolantProps, layout: ChannelLayout,
                    v: float) -> float:
    """Total coolant mass flow through all channels, kg/s."""
    if v < 0:
        raise ValueError("velocity must be >= 0")
    return (coolant.density * v * cross_section_area(layout.shape)
            * layout.channel_count)


def report(coolant: CoolantProps, layout: ChannelLayout, v: float,
           minor_loss_K: float = DEFAULT_MINOR_LOSS_K) -> HydraulicsReport:
    """Full hydraulic summary for one flow condition, v > 0."""
    d_h = hydraulic_diameter(layout.shape)
    re = reynolds(coolant, v, d_h)
    return HydraulicsReport(
        reynolds=re,
        regime=classify(re),
        friction_factor=friction_factor(re),
        pressure_drop=pressure_drop(coolant, layout, v, minor_loss_K),
        mass_flow_total=mass_flow_total(coolant, layout, v),
        transition_velocity=transition_velocity(coolant, layout.shape),
    )
