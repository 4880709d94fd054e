"""Solid material and coolant property tables.

Built-in solid conductivities/densities follow the default property tables
shipped with mainstream CFD solvers (copper 387.6, aluminum 202.4,
stainless steel 16.27 W/m-K). Properties are constant: no temperature
dependence is modeled, and water is evaluated at the 20 C reference state.
The module holds records and tables only: reading a materials file, and
checking its entries, is the config reader's job (`cli`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class UnknownMaterialError(KeyError):
    """Raised when a material name is not in the registry."""

    def __init__(self, name: str, known: list[str]):
        super().__init__(name)
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return f"unknown material {self.name!r}; known: {', '.join(self.known)}"


@dataclass(frozen=True)
class SolidMaterial:
    name: str
    thermal_conductivity: float  # W/(m*K)
    density: float               # kg/m^3
    specific_heat: float         # J/(kg*K)

    def __post_init__(self):
        for field in ("thermal_conductivity", "density", "specific_heat"):
            if not 0.0 < getattr(self, field) < math.inf:
                raise ValueError(f"{self.name}: {field} must be in (0, inf)")


@dataclass(frozen=True)
class CoolantProps:
    name: str
    density: float               # kg/m^3
    dynamic_viscosity: float     # Pa*s
    specific_heat: float         # J/(kg*K)
    thermal_conductivity: float  # W/(m*K)
    reference_temperature: float  # deg C

    def __post_init__(self):
        for field in ("density", "dynamic_viscosity", "specific_heat",
                      "thermal_conductivity"):
            if not 0.0 < getattr(self, field) < math.inf:
                raise ValueError(f"{self.name}: {field} must be in (0, inf)")
        if not math.isfinite(self.reference_temperature):
            raise ValueError(f"{self.name}: non-finite reference_temperature")

    @property
    def prandtl(self) -> float:
        return self.dynamic_viscosity * self.specific_heat / self.thermal_conductivity


# the built-in solids by name; a config's materials file adds to and
# overrides them for that config alone
MATERIALS = {
    "copper": SolidMaterial("copper", 387.6, 8978.0, 381.0),
    "aluminum": SolidMaterial("aluminum", 202.4, 2719.0, 871.0),
    "stainless-steel": SolidMaterial("stainless-steel", 16.27, 8030.0, 502.48),
}

_WATER_20C = CoolantProps(
    name="water",
    density=998.2,
    dynamic_viscosity=1.003e-3,
    specific_heat=4182.0,
    thermal_conductivity=0.6,
    reference_temperature=20.0,
)


def get_material(name: str) -> SolidMaterial:
    """Look up a built-in solid material by name."""
    try:
        return MATERIALS[name]
    except KeyError:
        raise UnknownMaterialError(name, sorted(MATERIALS)) from None


def water_at_reference() -> CoolantProps:
    """Water at the 20 C reference state used throughout the toolkit."""
    return _WATER_20C
