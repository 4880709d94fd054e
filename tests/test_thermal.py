import math
from dataclasses import replace

import pytest

import coldplate as cp
from coldplate import thermal
from coldplate.thermal import spreading_resistance

SEMI_23 = cp.Semicircular(0.0023)
SEMI_46 = cp.Semicircular(0.0046)


class TestNusselt:
    def test_laminar_constant(self):
        assert cp.nusselt(1000.0, 7.0) == 3.66
        assert cp.nusselt(1000.0, 0.7) == 3.66

    def test_dittus_boelter(self):
        # 0.023 * 3076^0.8 * 6.99^0.4 by hand
        assert cp.nusselt(3076.0, 6.99) == pytest.approx(30.9, rel=2e-3)

    def test_branch_point_inclusive_laminar(self):
        assert cp.nusselt(2500.0, 6.99) == 3.66

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            cp.nusselt(0.0, 7.0)
        with pytest.raises(ValueError):
            cp.nusselt(1000.0, 0.0)


class TestHeatTransferCoefficient:
    def test_turbulent_case(self, water):
        h = cp.heat_transfer_coefficient(water, SEMI_23, 1.1)
        assert h == pytest.approx(6.6e3, rel=0.02)

    def test_laminar_case(self, water):
        h = cp.heat_transfer_coefficient(water, SEMI_46, 0.2)
        d_h = cp.hydraulic_diameter(SEMI_46)
        assert h == pytest.approx(3.66 * 0.6 / d_h, rel=1e-12)
        assert h == pytest.approx(390.0, rel=2e-2)

    def test_zero_velocity_rejected(self, water):
        with pytest.raises(ValueError, match="^velocity must be > 0$"):
            cp.heat_transfer_coefficient(water, SEMI_23, 0.0)

    def test_linear_in_conductivity(self, water):
        doubled = replace(water, thermal_conductivity=1.2,
                          specific_heat=water.specific_heat * 2)
        # Pr held fixed so Nu is unchanged
        assert doubled.prandtl == pytest.approx(water.prandtl)
        assert cp.heat_transfer_coefficient(
            doubled, SEMI_23, 1.1) == pytest.approx(
            2 * cp.heat_transfer_coefficient(water, SEMI_23, 1.1), rel=1e-12)


class TestCoolantOutlet:
    def test_primary_energy_balance(self, water):
        # 559.9 W through 0.1095 kg/s from 49 C, by hand
        m_dot = 998.2 * 1.1 * (math.pi * 0.0023**2 / 2) * 12
        out = cp.coolant_outlet(water, m_dot, 49.0, 559.9)
        assert out == pytest.approx(49.0 + 559.9 / (m_dot * 4182.0), rel=1e-12)
        assert out == pytest.approx(50.22, abs=0.01)

    def test_zero_power(self, water):
        assert cp.coolant_outlet(water, 0.1, 49.0, 0.0) == 49.0

    def test_linear_in_power(self, water):
        rise1 = cp.coolant_outlet(water, 0.1, 49.0, 100.0) - 49.0
        rise2 = cp.coolant_outlet(water, 0.1, 49.0, 200.0) - 49.0
        assert rise2 == pytest.approx(2 * rise1, rel=1e-12)

    def test_zero_flow_rejected(self, water):
        with pytest.raises(ValueError):
            cp.coolant_outlet(water, 0.0, 49.0, 100.0)


class TestSpreadingResistance:
    def test_square_cone_closed_form(self):
        # unclamped square cone: (1/(2k)) * (1/a - 1/(a+2d))
        k, a, d = 387.6, 0.01, 0.009
        oracle = (1.0 / a - 1.0 / (a + 2 * d)) / (2.0 * k)
        assert spreading_resistance((a, a), (0.062, 0.122), d, k) == \
            pytest.approx(oracle, rel=1e-12)

    def test_rectangular_cone_against_quadrature(self):
        from scipy.integrate import quad
        a, b, d, k = 0.008, 0.012, 0.02, 100.0
        amax, bmax = 0.020, 0.060

        def integrand(z):
            return 1.0 / (min(a + 2 * z, amax) * min(b + 2 * z, bmax))

        oracle, _ = quad(integrand, 0.0, d, points=[(amax - a) / 2])
        assert spreading_resistance((a, b), (amax, bmax), d, k) == \
            pytest.approx(oracle / k, rel=1e-9)

    @pytest.mark.parametrize("die, module, d, k", [
        ((0.01, 0.01), (0.122, 0.02), 0.009, 387.6),
        ((0.008, 0.012), (0.06, 0.02), 0.02, 100.0),
        ((0.01, 0.004), (0.03, 0.012), 0.009, 16.27),
    ])
    def test_axis_swap(self, die, module, d, k):
        # the second axis clamps within d while the first still grows, so
        # the two orders run the two one-sided branches
        assert spreading_resistance(die, module, d, k) == \
            spreading_resistance(die[::-1], module[::-1], d, k)

    def test_fully_clamped(self):
        # once both dimensions hit the module footprint it is 1D conduction
        r0 = spreading_resistance((0.02, 0.02), (0.02, 0.02), 0.01, 200.0)
        assert r0 == pytest.approx(0.01 / (200.0 * 0.02 * 0.02), rel=1e-12)

    def test_decreasing_in_conductivity(self):
        r_cu = spreading_resistance((0.01, 0.01), (0.06, 0.12), 0.009, 387.6)
        r_ss = spreading_resistance((0.01, 0.01), (0.06, 0.12), 0.009, 16.27)
        assert r_ss == pytest.approx(r_cu * 387.6 / 16.27, rel=1e-12)


class TestDieStack:
    def test_default_stack_resistance(self):
        stack = cp.default_die_stack()
        area = 1e-4
        oracle = sum(l.thickness / (l.conductivity * area)
                     for l in stack.layers)
        assert stack.resistance(area) == pytest.approx(oracle, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cp.DieStack(layers=())

    def test_bad_layer_rejected(self):
        # NaN passes `<= 0` and `< 1` checks; a NaN thickness gave a NaN t_max
        for bad in [(-1e-3, 100.0), (math.nan, 100.0), (math.inf, 100.0),
                    (1e-3, math.nan), (1e-3, math.inf),
                    (1e-3, 100.0, 0.5), (1e-3, 100.0, math.nan),
                    (1e-3, 100.0, math.inf)]:
            with pytest.raises(ValueError, match="layer bad"):
                thermal.StackLayer("bad", *bad)


class TestSolveNetwork:
    def test_primary_runs(self, primary, water):
        rep = cp.solve_network(primary, water, cp.FlowCondition(1.1, 49.0))
        assert math.isfinite(rep.t_max)
        assert rep.t_max == max(m.junction_temperature
                                for m in rep.per_module)
        # sanity band only; absolute calibration is covered by the FV comparison
        assert 49.0 < rep.t_max < 135.0

    @pytest.mark.parametrize("unequal", [
        lambda dies, i: dies[:i] + [replace(dies[i], footprint=(2e-3, 2e-3))]
        + dies[i + 1:],
        lambda dies, i: [replace(d, power=sum(e.power for e in dies)
                                 if j == i else 0.0)
                         for j, d in enumerate(dies)],
    ], ids=["shrunk-die", "all-power-on-one-die"])
    @pytest.mark.parametrize("i", [0, 5], ids=["first", "last"])
    def test_unequal_dies_refused(self, secondary, water, unequal, i):
        # the model puts copies of the first die in parallel: a 2 x 2 mm die
        # took S1-S3 from 66.81 to 373.66 C when listed first and left it
        # when listed last, and no power split moved it
        flow = cp.FlowCondition(1.1, 49.0)
        rep = cp.solve_network(secondary, water, flow)
        assert rep.per_module[0].junction_temperature == pytest.approx(
            66.81, abs=5e-3)
        mod = secondary.modules[0]
        assert len(mod.dies) == 6
        bad = replace(mod, dies=tuple(unequal(list(mod.dies), i)))
        with pytest.raises(ValueError, match="module 'S1-S3': the network "
                           "model needs identical dies"):
            cp.solve_network(replace(secondary, modules=(
                bad,) + secondary.modules[1:]), water, flow)

    def test_zero_power_gives_inlet(self, primary, water):
        dead = replace(primary, modules=tuple(
            replace(m, dies=tuple(replace(d, power=0.0) for d in m.dies))
            for m in primary.modules))
        rep = cp.solve_network(dead, water, cp.FlowCondition(1.1, 49.0))
        for m in rep.per_module:
            assert m.junction_temperature == pytest.approx(49.0, abs=1e-12)
        assert rep.coolant_outlet == pytest.approx(49.0, abs=1e-12)

    def test_symmetric_pair_with_infinite_heat_capacity(self, water):
        plate = cp.PlateGeometry(0.4, 0.1, 0.012, cp.get_material("copper"))
        layout = cp.ChannelLayout(rows=2, channels_per_row=2,
                                  channel_length=0.4,
                                  shape=SEMI_23, cover_thickness=1e-3,
                                  lateral_pitch=0.05)
        die = cp.DieSource(center=(0.1, 0.05), footprint=(0.01, 0.01),
                           power=60.0)
        mod_a = cp.ModulePlacement(id="A", face="top", origin=(0.08, 0.035),
                                   footprint=(0.04, 0.03), dies=(die,))
        die_b = replace(die, center=(0.3, 0.05))
        mod_b = cp.ModulePlacement(id="B", face="top", origin=(0.28, 0.035),
                                   footprint=(0.04, 0.03), dies=(die_b,))
        asm = cp.Assembly(plate=plate, layout=layout, modules=(mod_a, mod_b))

        huge_cp = replace(water, specific_heat=1e18)
        rep = cp.solve_network(asm, huge_cp, cp.FlowCondition(1.1, 49.0))
        temps = [m.junction_temperature for m in rep.per_module]
        assert temps[0] == pytest.approx(temps[1], abs=1e-9)

        # with finite heat capacity the downstream module runs hotter
        rep2 = cp.solve_network(asm, water, cp.FlowCondition(1.1, 49.0))
        by_id = {m.id: m.junction_temperature for m in rep2.per_module}
        assert by_id["B"] > by_id["A"]

    def test_energy_bookkeeping(self, primary, water):
        flow = cp.FlowCondition(1.1, 49.0)
        rep = cp.solve_network(primary, water, flow)
        m_dot = cp.mass_flow_total(water, primary.layout, 1.1)
        lhs = primary.total_power
        rhs = m_dot * water.specific_heat * (rep.coolant_outlet - 49.0)
        assert rhs == pytest.approx(lhs, rel=1e-10)

    def test_velocity_monotonicity(self, primary, water):
        temps = [cp.solve_network(primary, water,
                                  cp.FlowCondition(v, 49.0)).t_max
                 for v in [0.3 + 0.1 * i for i in range(28)]]
        assert all(a > b for a, b in zip(temps, temps[1:]))

    def test_material_ordering(self, primary, water):
        flow = cp.FlowCondition(1.1, 49.0)
        temps = {}
        for name in ("copper", "aluminum", "stainless-steel"):
            asm = replace(primary, plate=replace(
                primary.plate, material=cp.get_material(name)))
            temps[name] = cp.solve_network(asm, water, flow).t_max
        assert temps["copper"] < temps["aluminum"] < temps["stainless-steel"]

    def test_cover_halving_cools(self, secondary, water):
        flow = cp.FlowCondition(1.4, 49.0)
        thick = cp.solve_network(secondary, water, flow).t_max
        thin = cp.solve_network(
            replace(secondary, layout=replace(secondary.layout,
                                              cover_thickness=0.5e-3)),
            water, flow).t_max
        assert thin < thick

    def test_zero_flow_rejected(self, primary, water):
        with pytest.raises(ValueError):
            cp.solve_network(primary, water, cp.FlowCondition(0.0, 49.0))

    def test_invalid_assembly_rejected(self, primary, water):
        bad = replace(primary, modules=(replace(primary.modules[0],
                                                origin=(0.45, 0.15)),))
        with pytest.raises(ValueError):
            cp.solve_network(bad, water, cp.FlowCondition(1.1, 49.0))

    def test_report_serializes(self, primary, water):
        rep = cp.solve_network(primary, water, cp.FlowCondition(1.1, 49.0))
        doc = rep.to_json()
        assert len(doc["per_module"]) == 6
        assert set(doc["per_module"][0]["resistance_breakdown_K_per_W"]) == {
            "stack", "spread", "cover", "convection"}
