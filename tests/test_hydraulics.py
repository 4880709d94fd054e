import math

import pytest
from hypothesis import example, given, strategies as st

import coldplate as cp
from coldplate.hydraulics import LAMINAR, TURBULENT, classify, report

RECT = cp.Rectangular(width=0.010, height=0.002)
SEMI_46 = cp.Semicircular(0.0046)
SEMI_23 = cp.Semicircular(0.0023)


def layout(shape, n=6, rows=2, length=0.48):
    return cp.ChannelLayout(rows=rows, channels_per_row=n,
                            channel_length=length, shape=shape,
                            cover_thickness=1e-3, lateral_pitch=0.19 / n)


class TestReynolds:
    def test_semicircular_anchor(self, water):
        re = cp.reynolds(water, 0.44, cp.hydraulic_diameter(SEMI_46))
        assert re == pytest.approx(2500.0, rel=0.02)

    def test_rectangular_anchor(self, water):
        re = cp.reynolds(water, 0.75, cp.hydraulic_diameter(RECT))
        assert re == pytest.approx(2500.0, rel=0.02)

    def test_zero_velocity(self, water):
        assert cp.reynolds(water, 0.0, 0.003) == 0.0

    @given(v=st.floats(0.01, 5.0), s=st.floats(0.5, 3.0))
    def test_linear_in_velocity(self, water, v, s):
        d_h = cp.hydraulic_diameter(SEMI_23)
        assert cp.reynolds(water, s * v, d_h) == pytest.approx(
            s * cp.reynolds(water, v, d_h), rel=1e-12)


class TestTransitionVelocity:
    def test_semicircular(self, water):
        assert cp.transition_velocity(water, SEMI_46) == pytest.approx(
            0.44, abs=0.02)

    def test_rectangular(self, water):
        assert cp.transition_velocity(water, RECT) == pytest.approx(
            0.75, abs=0.02)

    def test_linear_in_viscosity(self, water):
        from dataclasses import replace
        doubled = replace(water, dynamic_viscosity=2 * water.dynamic_viscosity)
        assert cp.transition_velocity(doubled, RECT) == pytest.approx(
            2 * cp.transition_velocity(water, RECT), rel=1e-12)

    @given(r=st.floats(5e-4, 0.02))
    def test_reynolds_at_transition_is_2500(self, water, r):
        shape = cp.Semicircular(r)
        v = cp.transition_velocity(water, shape)
        re = cp.reynolds(water, v, cp.hydraulic_diameter(shape))
        assert re == pytest.approx(2500.0, rel=1e-12)

    def test_regime_flips_at_transition(self, water):
        v_t = cp.transition_velocity(water, SEMI_23)
        d_h = cp.hydraulic_diameter(SEMI_23)
        eps = 1e-9
        assert classify(cp.reynolds(water, v_t - eps, d_h)) == LAMINAR
        assert classify(cp.reynolds(water, v_t + eps, d_h)) == TURBULENT


class TestFrictionFactor:
    def test_laminar_value(self):
        assert cp.friction_factor(64.0) == 1.0

    def test_blasius_value(self):
        # 0.316 * 3076^-0.25 by hand
        assert cp.friction_factor(3076.0) == pytest.approx(0.04243, rel=1e-3)

    def test_branch_point_inclusive_laminar(self):
        assert cp.friction_factor(2500.0) == pytest.approx(64.0 / 2500.0)
        assert cp.friction_factor(2500.0) == pytest.approx(0.0256)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            cp.friction_factor(0.0)

    # Non-increasing for every pair; strictly decreasing once the pair is
    # far enough apart for floating point to separate the two values.
    @given(st.tuples(st.floats(1.0, 2500.0), st.floats(1.0, 2500.0)))
    def test_decreasing_laminar(self, pair):
        a, b = sorted(pair)
        if a < b:
            assert cp.friction_factor(a) >= cp.friction_factor(b)
        if b > a * (1 + 1e-12):
            assert cp.friction_factor(a) > cp.friction_factor(b)

    @given(st.tuples(st.floats(2500.01, 1e6), st.floats(2500.01, 1e6)))
    @example((999999.9999999999, 1e6))  # both give 0.009992797406132079
    def test_decreasing_turbulent(self, pair):
        a, b = sorted(pair)
        if a < b:
            assert cp.friction_factor(a) >= cp.friction_factor(b)
        if b > a * (1 + 1e-12):
            assert cp.friction_factor(a) > cp.friction_factor(b)


@pytest.mark.parametrize("function, re", [
    (classify, math.nan), (classify, -5.0), (classify, math.inf),
    (cp.friction_factor, math.nan), (cp.friction_factor, -5.0),
    (cp.friction_factor, math.inf)])
def test_reynolds_outside_domain_rejected(function, re):
    with pytest.raises(ValueError, match="Reynolds number must be finite"):
        function(re)


@pytest.mark.parametrize("call, message", [
    (lambda w: cp.reynolds(w, 1.1, 0.0), "hydraulic diameter must be > 0"),
    (lambda w: cp.reynolds(w, -1.1, 0.003), "velocity must be >= 0"),
    (lambda w: cp.mass_flow_total(w, layout(SEMI_23), -1.1),
     "velocity must be >= 0"),
], ids=["reynolds-diameter", "reynolds-velocity", "mass-flow-velocity"])
def test_out_of_domain_rejected(water, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(water)


class TestPressureDrop:
    def test_hand_darcy(self, water):
        # r = 2.3 mm semicircle, L = 0.48 m, v = 1.1 m/s, no minor losses
        dp = cp.pressure_drop(water, layout(SEMI_23), 1.1, minor_loss_K=0.0)
        assert dp == pytest.approx(4376.0, rel=2e-3)

    def test_minor_loss_term(self, water):
        lay = layout(SEMI_23)
        base = cp.pressure_drop(water, lay, 1.1, minor_loss_K=0.0)
        with_k = cp.pressure_drop(water, lay, 1.1, minor_loss_K=2.0)
        assert with_k - base == pytest.approx(
            2.0 * water.density * 1.1**2 / 2.0, rel=1e-12)
        assert with_k - base == pytest.approx(1207.8, rel=1e-3)

    def test_vanishes_with_velocity(self, water):
        lay = layout(SEMI_23)
        assert cp.pressure_drop(water, lay, 1e-6) < 1.0
        with pytest.raises(ValueError):
            cp.pressure_drop(water, lay, 0.0)

    @given(st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0)))
    def test_increasing_in_velocity(self, water, pair):
        a, b = sorted(pair)
        lay = layout(SEMI_23)
        if a < b:
            assert cp.pressure_drop(water, lay, a) < cp.pressure_drop(
                water, lay, b)

    def test_increasing_in_length(self, water):
        short = cp.pressure_drop(water, layout(SEMI_23, length=0.2), 1.1)
        long = cp.pressure_drop(water, layout(SEMI_23, length=0.6), 1.1)
        assert short < long


class TestMassFlow:
    def test_twelve_channels(self, water):
        # rho*v*A*12 by hand
        lay = layout(SEMI_23, n=6, rows=2)
        oracle = 998.2 * 1.1 * (math.pi * 0.0023**2 / 2) * 12
        assert cp.mass_flow_total(water, lay, 1.1) == pytest.approx(
            oracle, rel=1e-12)
        assert cp.mass_flow_total(water, lay, 1.1) == pytest.approx(
            0.1095, rel=1e-3)

    def test_zero_velocity(self, water):
        assert cp.mass_flow_total(water, layout(SEMI_23), 0.0) == 0.0

    def test_linear_in_channel_count(self, water):
        three = cp.mass_flow_total(water, layout(SEMI_23, n=3), 1.1)
        six = cp.mass_flow_total(water, layout(SEMI_23, n=6), 1.1)
        assert six == pytest.approx(2 * three, rel=1e-12)


def test_report_summary(water):
    rep = report(water, layout(SEMI_23), 1.1)
    assert rep.regime == TURBULENT
    assert rep.reynolds == pytest.approx(3077.0, rel=1e-3)
    assert rep.transition_velocity == pytest.approx(
        cp.transition_velocity(water, SEMI_23), rel=1e-12)
    doc = rep.to_json()
    assert set(doc) == {"reynolds", "regime", "friction_factor",
                        "pressure_drop", "mass_flow_total",
                        "transition_velocity"}


class TestFlowCondition:
    @pytest.mark.parametrize("v, t", [
        (-1.0, 49.0), (math.nan, 49.0), (math.inf, 49.0),
        (1.1, math.nan), (1.1, -math.inf)])
    def test_rejects_negative_or_non_finite(self, v, t):
        with pytest.raises(ValueError):
            cp.FlowCondition(v, t)

    def test_zero_velocity_allowed(self):
        assert cp.FlowCondition(0.0, 49.0).inlet_velocity == 0.0
