import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import coldplate as cp
from coldplate.geometry import REFERENCE_RECT, channel_depth

RECT = cp.Rectangular(width=0.010, height=0.002)


def layout(shape, n=3, rows=2, length=0.48, cover=1e-3, pitch=0.19 / 3):
    return cp.ChannelLayout(rows=rows, channels_per_row=n,
                            channel_length=length, shape=shape,
                            cover_thickness=cover, lateral_pitch=pitch)


class TestCrossSection:
    def test_rectangle(self):
        assert cp.cross_section_area(RECT) == pytest.approx(2.0e-5)

    def test_semicircle_large(self):
        # pi*r^2/2 by hand
        assert cp.cross_section_area(cp.Semicircular(0.0046)) == pytest.approx(
            math.pi * 0.0046**2 / 2, rel=1e-12)
        assert cp.cross_section_area(cp.Semicircular(0.0046)) == pytest.approx(
            3.3238e-5, rel=1e-3)

    def test_semicircle_small(self):
        assert cp.cross_section_area(cp.Semicircular(0.0023)) == pytest.approx(
            8.3095e-6, rel=1e-3)


class TestWettedPerimeter:
    def test_rectangle(self):
        assert cp.wetted_perimeter(RECT) == pytest.approx(0.024)

    def test_semicircle(self):
        assert cp.wetted_perimeter(cp.Semicircular(0.0046)) == pytest.approx(
            0.023651, rel=1e-4)

    def test_zero_radius_rejected(self):
        with pytest.raises(ValueError):
            cp.Semicircular(0.0)


class TestHydraulicDiameter:
    def test_rectangle(self):
        assert cp.hydraulic_diameter(RECT) == pytest.approx(3.333e-3, rel=1e-3)

    def test_semicircle(self):
        assert cp.hydraulic_diameter(cp.Semicircular(0.0046)) == pytest.approx(
            5.622e-3, rel=1e-3)

    def test_square_duct_identity(self):
        assert cp.hydraulic_diameter(
            cp.Rectangular(0.004, 0.004)) == pytest.approx(0.004, rel=1e-12)


class TestTotalWettedArea:
    def test_rect_layout(self):
        assert cp.total_wetted_area(layout(RECT)) == pytest.approx(0.06912)

    def test_equal_area_semicircle(self):
        r = cp.equal_area_radius(cp.wetted_perimeter(RECT) * 3, 3)
        assert cp.total_wetted_area(
            layout(cp.Semicircular(r))) == pytest.approx(0.06912, rel=1e-12)

    def test_zero_channels_rejected(self):
        with pytest.raises(ValueError):
            layout(RECT, n=0)


class TestEqualAreaRadius:
    def test_three_channels(self):
        r = cp.equal_area_radius(cp.wetted_perimeter(RECT) * 3, 3)
        assert r == pytest.approx(4.668e-3, rel=1e-3)

    def test_six_channels(self):
        r = cp.equal_area_radius(cp.wetted_perimeter(RECT) * 3, 6)
        assert r == pytest.approx(2.334e-3, rel=1e-3)

    def test_fixed_point(self):
        # a rectangle with perimeter (pi+2)*r maps back to the same r
        r = 0.004
        rect = cp.Rectangular(width=(math.pi + 2.0) * r / 2.0 - 0.001,
                              height=0.001)
        assert cp.equal_area_radius(
            cp.wetted_perimeter(rect) * 3, 3) == pytest.approx(r, rel=1e-12)

    def test_semicircle_row_maps_back_to_its_radius(self):
        # a semicircular base's own row perimeter gives back its radius
        semi = cp.Semicircular(0.004)
        assert cp.equal_area_radius(
            cp.wetted_perimeter(semi) * 6, 6) == pytest.approx(
                semi.radius, rel=1e-12)

    @given(w=st.floats(1e-3, 0.05), h=st.floats(1e-3, 0.05),
           n_ref=st.integers(1, 8), n_new=st.integers(1, 8))
    def test_wetted_area_round_trip(self, w, h, n_ref, n_new):
        ref = layout(cp.Rectangular(w, h), n=n_ref, pitch=1.0)
        r = cp.equal_area_radius(cp.wetted_perimeter(ref.shape) * n_ref,
                                 n_new)
        new = layout(cp.Semicircular(r), n=n_new, pitch=1.0)
        assert cp.total_wetted_area(new) == pytest.approx(
            cp.total_wetted_area(ref), rel=1e-12)


class TestPlateMass:
    def baseline_assembly(self):
        plate = cp.PlateGeometry(0.48, 0.19, 0.018,
                                 cp.get_material("copper"))
        return cp.Assembly(plate=plate,
                           layout=layout(cp.Semicircular(0.0046)))

    def test_initial_plate_near_13kg(self):
        mass = cp.plate_mass(self.baseline_assembly())
        # box-minus-channels by hand
        oracle = 8978.0 * (0.48 * 0.19 * 0.018
                           - 6 * math.pi * 0.0046**2 / 2 * 0.48)
        assert mass == pytest.approx(oracle, rel=1e-12)
        assert abs(mass - 13.0) / 13.0 < 0.10

    def test_thinned_plate(self):
        plate = cp.PlateGeometry(0.48, 0.19, 0.0076,
                                 cp.get_material("copper"))
        asm = cp.Assembly(plate=plate,
                          layout=layout(cp.Semicircular(0.0023), n=6,
                                        pitch=0.19 / 6))
        assert cp.plate_mass(asm) == pytest.approx(5.79, rel=1e-2)

    def test_solid_block_identity(self):
        # mass plus displaced channel volume recovers the solid block
        asm = self.baseline_assembly()
        rho = asm.plate.material.density
        channels = (cp.cross_section_area(asm.layout.shape)
                    * asm.layout.channel_length * 6)
        box = rho * 0.48 * 0.19 * 0.018
        assert cp.plate_mass(asm) + rho * channels == pytest.approx(
            box, rel=1e-12)

    def test_monotone_in_channel_count(self):
        base = self.baseline_assembly()
        masses = []
        for n in (1, 3, 6):
            asm = replace(base, layout=replace(base.layout,
                                               channels_per_row=n,
                                               lateral_pitch=0.19 / n))
            masses.append(cp.plate_mass(asm))
        assert masses[0] > masses[1] > masses[2]

    @given(s=st.floats(0.5, 2.0))
    def test_cubic_scaling(self, s):
        base = self.baseline_assembly()
        scaled = cp.Assembly(
            plate=cp.PlateGeometry(0.48 * s, 0.19 * s, 0.018 * s,
                                   base.plate.material),
            layout=replace(base.layout,
                           channel_length=0.48 * s,
                           shape=cp.Semicircular(0.0046 * s),
                           cover_thickness=1e-3 * s,
                           lateral_pitch=0.19 * s / 3))
        assert cp.plate_mass(scaled) == pytest.approx(
            cp.plate_mass(base) * s**3, rel=1e-9)
        assert cp.total_wetted_area(scaled.layout) == pytest.approx(
            cp.total_wetted_area(base.layout) * s**2, rel=1e-9)


class TestValidate:
    def test_presets_pass(self):
        assert cp.validate(cp.primary_side()) == []
        assert cp.validate(cp.secondary_side()) == []

    def test_module_outside_plate(self, primary):
        bad = replace(primary.modules[0], origin=(0.45, 0.15))
        asm = replace(primary, modules=(bad,))
        assert any("outside the plate" in v for v in cp.validate(asm))

    def test_channel_fit_violation(self):
        plate = cp.PlateGeometry(0.1, 0.05, 0.002, cp.get_material("copper"))
        lay = cp.ChannelLayout(rows=1, channels_per_row=1, channel_length=0.1,
                               shape=cp.Semicircular(0.0023),
                               cover_thickness=0.5e-3, lateral_pitch=0.025)
        asm = cp.Assembly(plate=plate, layout=lay)
        assert any("thickness" in v for v in cp.validate(asm))

    def test_pitch_below_channel_width(self, primary):
        close = replace(primary, layout=replace(primary.layout,
                                                lateral_pitch=1e-3))
        assert "lateral_pitch smaller than channel width" in \
            cp.validate(close)

    def test_overlapping_modules(self, primary):
        dup = replace(primary.modules[0], id="dup")
        asm = replace(primary, modules=primary.modules + (dup,))
        assert any("overlap" in v for v in cp.validate(asm))

    def test_all_violations_reported(self, primary):
        bad1 = replace(primary.modules[0], origin=(0.45, 0.15))
        bad2 = replace(primary.modules[1], id="dup",
                       origin=primary.modules[1].origin)
        dup = replace(primary.modules[1], id="dup2")
        asm = replace(primary, modules=(bad1, bad2, dup))
        assert len(cp.validate(asm)) >= 2


def test_reference_rect_is_2_by_10_mm():
    assert REFERENCE_RECT.width == 0.010
    assert REFERENCE_RECT.height == 0.002
    assert channel_depth(REFERENCE_RECT) == 0.002


def test_primary_preset_power(primary):
    assert primary.total_power == pytest.approx(559.9)
    assert all(len(m.dies) == 6 for m in primary.modules)
    faces = [m.face for m in primary.modules]
    assert faces.count("top") == 3 and faces.count("bottom") == 3


def test_secondary_preset(secondary):
    assert secondary.total_power == pytest.approx(211.4 + 127.18)
    assert secondary.plate.thickness == 0.0076
    assert secondary.layout.channels_per_row == 6
    assert all(m.face == "top" for m in secondary.modules)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build", [
    lambda: cp.Rectangular(NAN, 0.002),
    lambda: cp.Rectangular(0.01, INF),
    lambda: cp.Semicircular(NAN),
    lambda: cp.Semicircular(INF),
    lambda: layout(RECT, rows=NAN),
    lambda: layout(RECT, n=NAN),
    lambda: layout(RECT, length=NAN),
    lambda: layout(RECT, cover=INF),
    lambda: layout(RECT, pitch=NAN),
    lambda: cp.PlateGeometry(0.48, NAN, 0.018, cp.get_material("copper")),
    lambda: cp.PlateGeometry(0.48, 0.19, INF, cp.get_material("copper")),
    lambda: cp.DieSource(center=(0.1, 0.1), footprint=(0.01, 0.01),
                         power=NAN),
    lambda: cp.DieSource(center=(0.1, 0.1), footprint=(0.01, 0.01),
                         power=INF),
    lambda: cp.DieSource(center=(0.1, 0.1), footprint=(NAN, 0.01),
                         power=10.0),
    lambda: cp.DieSource(center=(NAN, 0.1), footprint=(0.01, 0.01),
                         power=10.0),
    lambda: cp.ModulePlacement(id="M", face="top", origin=(NAN, 0.0),
                               footprint=(0.1, 0.1), dies=()),
    lambda: cp.ModulePlacement(id="M", face="top", origin=(0.0, 0.0),
                               footprint=(0.1, INF), dies=()),
], ids=["rect-width", "rect-height", "semi-nan", "semi-inf", "rows",
        "channels-per-row", "channel-length", "cover", "pitch",
        "plate-width", "plate-thickness", "die-power-nan", "die-power-inf",
        "die-footprint", "die-center", "module-origin", "module-footprint"])
def test_non_finite_rejected(build):
    # NaN passes `<= 0` and `< 1` checks; it must be refused where built
    with pytest.raises(ValueError, match="finite|>= 1"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: cp.ModulePlacement(id="M", face="side", origin=(0.0, 0.0),
                                footprint=(0.1, 0.1), dies=()),
     "face must be 'top' or 'bottom', got 'side'"),
    (lambda: cp.equal_area_radius(cp.wetted_perimeter(RECT) * 3, 0),
     "new_channels_per_row must be >= 1"),
    (lambda: cp.equal_area_radius(cp.wetted_perimeter(RECT) * 3,
                                  float("nan")),
     "new_channels_per_row must be >= 1"),
    (lambda: cp.equal_area_radius(float("nan"), 3),
     "row_perimeter must be finite and > 0"),
    (lambda: cp.equal_area_radius(INF, 3),
     "row_perimeter must be finite and > 0"),
    (lambda: cp.equal_area_radius(0.0, 3),
     "row_perimeter must be finite and > 0"),
], ids=["module-face", "zero-channels", "nan-channels", "nan-perimeter",
        "inf-perimeter", "zero-perimeter"])
def test_out_of_domain_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
