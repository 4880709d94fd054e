"""Parametric cold-plate, channel and module geometry.

Coordinates: x runs along the channel/flow direction (plate length),
y across the plate width, z through the thickness. All dimensions in
meters, powers in watts.

Channels are straight and parallel, run the full channel_length, and are
arranged in one or two rows (a row per cooled face). Rectangular channels
are width x height with height measured into the plate; semicircular
channels have their flat side toward the nearest plate face.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .properties import SolidMaterial, get_material


def _positive(*values) -> bool:
    """Every value is a finite number > 0 (NaN fails the comparison)."""
    return all(0 < v < math.inf for v in values)


def _finite(*values) -> bool:
    return all(map(math.isfinite, values))


# --------------------------------------------------------------------------
# channel cross sections

@dataclass(frozen=True)
class Rectangular:
    width: float   # m, across the plate
    height: float  # m, into the plate (channel depth)

    def __post_init__(self):
        if not _positive(self.width, self.height):
            raise ValueError("rectangular channel dimensions must be finite "
                             "and > 0")


@dataclass(frozen=True)
class Semicircular:
    radius: float  # m

    def __post_init__(self):
        if not _positive(self.radius):
            raise ValueError("semicircular channel radius must be finite "
                             "and > 0")


ChannelShape = Rectangular | Semicircular


def cross_section_area(shape: ChannelShape) -> float:
    """Flow area A of one channel, m^2."""
    if isinstance(shape, Rectangular):
        return shape.width * shape.height
    return math.pi * shape.radius**2 / 2.0


def wetted_perimeter(shape: ChannelShape) -> float:
    """Wetted perimeter P of one channel, m."""
    if isinstance(shape, Rectangular):
        return 2.0 * (shape.width + shape.height)
    return shape.radius * (math.pi + 2.0)


def hydraulic_diameter(shape: ChannelShape) -> float:
    """D_h = 4*A/P, m."""
    return 4.0 * cross_section_area(shape) / wetted_perimeter(shape)


def channel_depth(shape: ChannelShape) -> float:
    """Extent of the channel into the plate, m."""
    return shape.height if isinstance(shape, Rectangular) else shape.radius


def channel_width(shape: ChannelShape) -> float:
    """Extent of the channel across the plate, m."""
    return shape.width if isinstance(shape, Rectangular) else 2.0 * shape.radius


# --------------------------------------------------------------------------
# layout / plate / modules

@dataclass(frozen=True)
class ChannelLayout:
    rows: int                 # channel layers (1 = single face, 2 = both)
    channels_per_row: int
    channel_length: float     # m
    shape: ChannelShape
    cover_thickness: float    # m, solid between channel wall and plate face
    lateral_pitch: float      # m, channel center spacing across the width

    def __post_init__(self):
        if type(self.rows) is not int or self.rows not in (1, 2):
            raise ValueError(f"rows must be an integer >= 1 and <= 2 (a row "
                             f"per cooled face), got {self.rows!r}")
        if type(self.channels_per_row) is not int or self.channels_per_row < 1:
            raise ValueError(f"channels_per_row must be an integer >= 1, got "
                             f"{self.channels_per_row!r}")
        for name in ("channel_length", "cover_thickness", "lateral_pitch"):
            if not _positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and > 0")

    @property
    def channel_count(self) -> int:
        return self.rows * self.channels_per_row


@dataclass(frozen=True)
class PlateGeometry:
    length: float     # m (x)
    width: float      # m (y)
    thickness: float  # m (z)
    material: SolidMaterial

    def __post_init__(self):
        if not _positive(self.length, self.width, self.thickness):
            raise ValueError("plate dimensions must be finite and > 0")


@dataclass(frozen=True)
class DieSource:
    center: tuple[float, float]     # (x, y) m, absolute plate coordinates
    footprint: tuple[float, float]  # (dx, dy) m
    power: float                    # W

    def __post_init__(self):
        if not 0 <= self.power < math.inf:
            raise ValueError("die power must be finite and >= 0")
        if not _positive(*self.footprint):
            raise ValueError("die footprint must be finite and > 0")
        if not _finite(*self.center):
            raise ValueError("die center must be finite")


@dataclass(frozen=True)
class ModulePlacement:
    id: str
    face: str                       # "top" | "bottom"
    origin: tuple[float, float]     # (x, y) m of the lower corner
    footprint: tuple[float, float]  # (dx, dy) m
    dies: tuple[DieSource, ...]

    def __post_init__(self):
        if self.face not in ("top", "bottom"):
            raise ValueError(f"face must be 'top' or 'bottom', got {self.face!r}")
        if not (_finite(*self.origin) and _positive(*self.footprint)):
            raise ValueError(f"module {self.id}: origin must be finite and "
                             "footprint finite and > 0")

    @property
    def power(self) -> float:
        return sum(d.power for d in self.dies)


@dataclass(frozen=True)
class Assembly:
    plate: PlateGeometry
    layout: ChannelLayout
    modules: tuple[ModulePlacement, ...] = field(default_factory=tuple)

    @property
    def total_power(self) -> float:
        return sum(m.power for m in self.modules)

    def channel_y_centers(self) -> list[float]:
        """Channel centerlines across the width, centered on the plate."""
        n = self.layout.channels_per_row
        pitch = self.layout.lateral_pitch
        y0 = self.plate.width / 2.0 - (n - 1) * pitch / 2.0
        return [y0 + i * pitch for i in range(n)]


# --------------------------------------------------------------------------
# derived quantities

def total_wetted_area(layout: ChannelLayout) -> float:
    """S = P * L * (rows * N), m^2."""
    return (wetted_perimeter(layout.shape) * layout.channel_length
            * layout.channel_count)


def equal_area_radius(reference: ChannelLayout, new_channels_per_row: int) -> float:
    """Semicircle radius preserving the reference layout's wetted area.

    The reference must be rectangular; rows and length stay fixed, so the
    radius satisfies (pi + 2)*r*N_new = P_rect*N_ref.
    """
    if not isinstance(reference.shape, Rectangular):
        raise ValueError("equal_area_radius requires a rectangular reference")
    if new_channels_per_row < 1:
        raise ValueError("new_channels_per_row must be >= 1")
    p_rect = wetted_perimeter(reference.shape)
    return (p_rect * reference.channels_per_row
            / ((math.pi + 2.0) * new_channels_per_row))


def plate_mass(assembly: Assembly) -> float:
    """Plate mass in kg: density * (box volume - channel volumes).

    Coolant mass is excluded.
    """
    plate = assembly.plate
    layout = assembly.layout
    box = plate.length * plate.width * plate.thickness
    channels = (cross_section_area(layout.shape) * layout.channel_length
                * layout.channel_count)
    return plate.material.density * (box - channels)


def validate(assembly: Assembly) -> list[str]:
    """Geometric consistency check; returns all violations (empty = ok)."""
    violations = []
    plate, layout = assembly.plate, assembly.layout

    depth = channel_depth(layout.shape)
    needed = layout.rows * depth + 2.0 * layout.cover_thickness
    if needed > plate.thickness + 1e-12:
        violations.append(
            f"channels do not fit through thickness: rows*depth + 2*cover = "
            f"{needed * 1e3:.3f} mm > {plate.thickness * 1e3:.3f} mm")

    w_ch = channel_width(layout.shape)
    lateral = (layout.channels_per_row - 1) * layout.lateral_pitch + w_ch
    if lateral > plate.width + 1e-12:
        violations.append(
            f"channels do not fit across width: {lateral * 1e3:.3f} mm > "
            f"{plate.width * 1e3:.3f} mm")
    if layout.channels_per_row > 1 and layout.lateral_pitch < w_ch:
        violations.append("lateral_pitch smaller than channel width")
    if layout.channel_length > plate.length + 1e-12:
        violations.append("channel_length exceeds plate length")

    for mod in assembly.modules:
        x0, y0 = mod.origin
        dx, dy = mod.footprint
        if (x0 < -1e-12 or y0 < -1e-12
                or x0 + dx > plate.length + 1e-12
                or y0 + dy > plate.width + 1e-12):
            violations.append(f"module {mod.id} extends outside the plate")
        for die in mod.dies:
            cx, cy = die.center
            ddx, ddy = die.footprint
            if (cx - ddx / 2 < x0 - 1e-12 or cx + ddx / 2 > x0 + dx + 1e-12
                    or cy - ddy / 2 < y0 - 1e-12 or cy + ddy / 2 > y0 + dy + 1e-12):
                violations.append(f"module {mod.id}: die outside module footprint")

    by_face: dict[str, list[ModulePlacement]] = {"top": [], "bottom": []}
    for mod in assembly.modules:
        by_face[mod.face].append(mod)
    for face, mods in by_face.items():
        for i, a in enumerate(mods):
            for b in mods[i + 1:]:
                ax0, ay0 = a.origin
                bx0, by0 = b.origin
                if (ax0 < bx0 + b.footprint[0] - 1e-12
                        and bx0 < ax0 + a.footprint[0] - 1e-12
                        and ay0 < by0 + b.footprint[1] - 1e-12
                        and by0 < ay0 + a.footprint[1] - 1e-12):
                    violations.append(
                        f"modules {a.id} and {b.id} overlap on face {face}")
    return violations


# --------------------------------------------------------------------------
# JSON serialization

def _shape_to_json(shape: ChannelShape) -> dict:
    if isinstance(shape, Rectangular):
        return {"kind": "rectangular", "width_m": shape.width,
                "height_m": shape.height}
    return {"kind": "semicircular", "radius_m": shape.radius}


def _only(data, path: str, *keys: str) -> dict:
    """data, checked to be an object whose every key is one of keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{path} must be an object, got {data!r}")
    if unknown := [repr(f"{path}.{k}") for k in data if k not in keys]:
        raise ValueError("unknown key " + ", ".join(unknown))
    return data


def shape_from_json(data: dict) -> ChannelShape:
    kind = data.get("kind")
    if kind == "rectangular":
        _only(data, "assembly.layout.shape", "kind", "width_m", "height_m")
        return Rectangular(width=data["width_m"], height=data["height_m"])
    if kind == "semicircular":
        _only(data, "assembly.layout.shape", "kind", "radius_m")
        return Semicircular(radius=data["radius_m"])
    raise ValueError(f"unknown channel shape kind {kind!r}")


def assembly_to_json(assembly: Assembly) -> dict:
    plate = assembly.plate
    layout = assembly.layout
    return {
        "plate": {
            "length_m": plate.length,
            "width_m": plate.width,
            "thickness_m": plate.thickness,
            "material": plate.material.name,
        },
        "layout": {
            "rows": layout.rows,
            "channels_per_row": layout.channels_per_row,
            "channel_length_m": layout.channel_length,
            "shape": _shape_to_json(layout.shape),
            "cover_thickness_m": layout.cover_thickness,
            "lateral_pitch_m": layout.lateral_pitch,
        },
        "modules": [
            {
                "id": m.id,
                "face": m.face,
                "origin_m": list(m.origin),
                "footprint_m": list(m.footprint),
                "dies": [
                    {"center_m": list(d.center),
                     "footprint_m": list(d.footprint),
                     "power_W": d.power}
                    for d in m.dies
                ],
            }
            for m in assembly.modules
        ],
    }


def assembly_from_json(data: dict, material_lookup=get_material) -> Assembly:
    """The assembly a document describes. A key this does not read is an
    error naming its path, such as assembly.modules[0].dies[1].powr_W."""
    _only(data, "assembly", "plate", "layout", "modules")
    p = _only(data["plate"], "assembly.plate",
              "length_m", "width_m", "thickness_m", "material")
    lay = _only(data["layout"], "assembly.layout", "rows", "channels_per_row",
                "channel_length_m", "shape", "cover_thickness_m",
                "lateral_pitch_m")
    plate = PlateGeometry(
        length=p["length_m"], width=p["width_m"], thickness=p["thickness_m"],
        material=material_lookup(p["material"]))
    layout = ChannelLayout(
        rows=lay["rows"],
        channels_per_row=lay["channels_per_row"],
        channel_length=lay["channel_length_m"],
        shape=shape_from_json(lay["shape"]),
        cover_thickness=lay["cover_thickness_m"],
        lateral_pitch=lay["lateral_pitch_m"])
    modules = []
    for i, m in enumerate(data.get("modules", [])):
        path = f"assembly.modules[{i}]"
        _only(m, path, "id", "face", "origin_m", "footprint_m", "dies")
        dies = [_only(d, f"{path}.dies[{j}]", "center_m", "footprint_m",
                      "power_W") for j, d in enumerate(m["dies"])]
        modules.append(ModulePlacement(
            id=m["id"], face=m["face"],
            origin=tuple(m["origin_m"]), footprint=tuple(m["footprint_m"]),
            dies=tuple(DieSource(center=tuple(d["center_m"]),
                                 footprint=tuple(d["footprint_m"]),
                                 power=d["power_W"]) for d in dies)))
    return Assembly(plate=plate, layout=layout, modules=tuple(modules))


def dumps_assembly(assembly: Assembly) -> str:
    return json.dumps(assembly_to_json(assembly), indent=2, sort_keys=True)


def loads_assembly(text: str) -> Assembly:
    return assembly_from_json(json.loads(text))


# --------------------------------------------------------------------------
# presets

# Reference rectangular channel: 10 mm across x 2 mm deep.
REFERENCE_RECT = Rectangular(width=0.010, height=0.002)

# Switching losses per module, W.
PRIMARY_MODULE_LOSSES = {
    "P1-P7": 102.0,
    "P2-P8": 107.16,
    "P3-P9": 84.88,
    "P4-P10": 91.1,
    "P5-P11": 89.6,
    "P6-P12": 85.16,
}
SECONDARY_MODULE_LOSSES = {
    "S1-S3": 211.4,
    "S2-S4": 127.18,
}

# Module and die footprints are not published for this package family;
# these defaults are assumptions and can be overridden in configs.
DEFAULT_MODULE_FOOTPRINT = (0.122, 0.062)  # (dx streamwise, dy) m
DEFAULT_DIE_FOOTPRINT = (0.010, 0.010)     # m
DIES_PER_MODULE = 6                        # two switches x three chips


def _make_module(mod_id: str, face: str, x_center: float, y_center: float,
                 power: float) -> ModulePlacement:
    dx, dy = DEFAULT_MODULE_FOOTPRINT
    origin = (x_center - dx / 2.0, y_center - dy / 2.0)
    # 3 x 2 die grid, power split equally
    die_dx, die_dy = DEFAULT_DIE_FOOTPRINT
    xs = [x_center + k * dx / 4.0 for k in (-1, 0, 1)]
    ys = [y_center + k * dy / 4.0 for k in (-1, 1)]
    dies = tuple(
        DieSource(center=(x, y), footprint=(die_dx, die_dy),
                  power=power / DIES_PER_MODULE)
        for x in xs for y in ys)
    return ModulePlacement(id=mod_id, face=face, origin=origin,
                           footprint=(dx, dy), dies=dies)


def primary_side() -> Assembly:
    """Double-sided copper plate, 480 x 190 x 18 mm, 2 rows x 3 semicircular
    channels at the equal-area radius of the 2 x 10 mm rectangular reference,
    six modules (three per face)."""
    n = 3
    ref = ChannelLayout(rows=2, channels_per_row=n, channel_length=0.48,
                        shape=REFERENCE_RECT, cover_thickness=0.001,
                        lateral_pitch=0.19 / n)
    radius = equal_area_radius(ref, n)
    layout = replace(ref, shape=Semicircular(radius=radius))
    plate = PlateGeometry(length=0.48, width=0.19, thickness=0.018,
                          material=get_material("copper"))
    names = list(PRIMARY_MODULE_LOSSES)
    x_centers = [0.08, 0.24, 0.40]
    modules = []
    for i, name in enumerate(names):
        face = "top" if i < 3 else "bottom"
        modules.append(_make_module(name, face, x_centers[i % 3], 0.095,
                                    PRIMARY_MODULE_LOSSES[name]))
    return Assembly(plate=plate, layout=layout, modules=tuple(modules))


def secondary_side() -> Assembly:
    """Single-sided copper plate, 330 x 205 x 7.6 mm, 2 rows x 6 semicircular
    channels at the 6-per-row equal-area radius, two modules on top."""
    ref = ChannelLayout(rows=2, channels_per_row=3, channel_length=0.33,
                        shape=REFERENCE_RECT, cover_thickness=0.001,
                        lateral_pitch=0.205 / 3)
    radius = equal_area_radius(ref, 6)
    layout = ChannelLayout(rows=2, channels_per_row=6, channel_length=0.33,
                           shape=Semicircular(radius=radius),
                           cover_thickness=0.001, lateral_pitch=0.205 / 6)
    plate = PlateGeometry(length=0.33, width=0.205, thickness=0.0076,
                          material=get_material("copper"))
    modules = tuple(
        _make_module(name, "top", x, 0.1025, SECONDARY_MODULE_LOSSES[name])
        for name, x in zip(SECONDARY_MODULE_LOSSES, (0.10, 0.23)))
    return Assembly(plate=plate, layout=layout, modules=tuple(modules))


PRESETS = {
    "primary_side": primary_side,
    "secondary_side": secondary_side,
}
