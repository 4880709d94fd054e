import csv
import io
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import coldplate as cp
from coldplate import cli, fv, studies
from coldplate.geometry import PRESETS, REFERENCE_RECT
from coldplate.studies import (DesignProblem, StudyRow, SweepSpec,
                               evaluate_design, optimize, run_sweep,
                               secondary_side_scenario, variant)


def problem(base, **kw):
    defaults = dict(materials=("copper", "aluminum", "stainless-steel"),
                    channel_counts=(3, 6), cover_thicknesses=(1e-3, 0.5e-3),
                    v_min=0.5, v_max=2.9, v_step=0.3)
    defaults.update(kw)
    return DesignProblem(base=base, **defaults)


class TestSweepSpec:
    def test_unknown_axis_rejected(self, secondary):
        with pytest.raises(ValueError):
            SweepSpec(base=secondary, axis="viscosity", values=(1.0,))

    def test_empty_values_rejected(self, secondary):
        with pytest.raises(ValueError):
            SweepSpec(base=secondary, axis="velocity", values=())

    def test_unknown_evaluator_rejected(self, secondary):
        # the evaluator is run_sweep's argument, as it is optimize's
        spec = SweepSpec(base=secondary, axis="velocity", values=(1.0,))
        with pytest.raises(ValueError, match="^unknown evaluator 'cfd'$"):
            run_sweep(spec, "cfd")


def test_evaluate_design_rejects_unknown_evaluator(secondary):
    with pytest.raises(ValueError, match="^unknown evaluator 'cfd'$"):
        evaluate_design(secondary, cp.FlowCondition(1.1, 49.0),
                        evaluator="cfd")


class TestRunSweep:
    def test_velocity_sweep_monotone(self, primary):
        res = run_sweep(SweepSpec(base=primary, axis="velocity",
                                  values=tuple(0.5 + 0.3 * i
                                               for i in range(9))))
        temps = [r.t_max_C for r in res.rows]
        dps = [r.dp_Pa for r in res.rows]
        assert all(a > b for a, b in zip(temps, temps[1:]))
        assert all(a < b for a, b in zip(dps, dps[1:]))

    def test_material_sweep_ordering(self, primary):
        res = run_sweep(SweepSpec(base=primary, axis="material",
                                  values=("copper", "aluminum",
                                          "stainless-steel")))
        temps = [r.t_max_C for r in res.rows]
        assert temps[0] < temps[1] < temps[2]
        assert temps[2] - temps[1] >= 20.0

    def test_channel_count_swap_small(self, primary):
        res = run_sweep(SweepSpec(base=primary, axis="channel_count",
                                  values=(3, 6)))
        assert abs(res.rows[0].t_max_C - res.rows[1].t_max_C) <= 5.0
        # halving the per-channel area doubles the count; wetted area holds
        assert res.rows[1].mass_kg > res.rows[0].mass_kg * 0.95

    def test_shape_swap_small(self, primary):
        res = run_sweep(SweepSpec(base=primary, axis="channel_shape",
                                  values=("rectangular", "semicircular")))
        assert abs(res.rows[0].t_max_C - res.rows[1].t_max_C) <= 5.0
        assert res.rows[0].descriptor == "shape=rectangular"

    def test_cover_sweep_monotone(self, secondary):
        res = run_sweep(SweepSpec(base=secondary, axis="cover_thickness",
                                  values=(1.4e-3, 1e-3, 0.5e-3)))
        temps = [r.t_max_C for r in res.rows]
        assert temps[0] > temps[1] > temps[2]

    def test_single_value_equals_direct(self, primary):
        res = run_sweep(SweepSpec(base=primary, axis="velocity",
                                  values=(1.1,)))
        direct = evaluate_design(primary, cp.FlowCondition(1.1, 49.0))
        row = res.rows[0]
        assert (row.t_max_C, row.dp_Pa, row.mass_kg) == direct

    def test_permutation_equivariance(self, primary):
        values = (0.6, 1.1, 1.7, 2.3, 2.9)
        forward = run_sweep(SweepSpec(base=primary, axis="velocity",
                                      values=values))
        shuffled = list(values)
        random.Random(7).shuffle(shuffled)
        back = run_sweep(SweepSpec(base=primary, axis="velocity",
                                   values=tuple(shuffled)))
        by_v = {r.v_mps: r for r in back.rows}
        for row in forward.rows:
            assert by_v[row.v_mps] == row

    def test_threaded_matches_serial(self, primary, monkeypatch):
        spec = SweepSpec(base=primary, axis="velocity",
                         values=(0.6, 1.1, 1.7, 2.3))
        serial = run_sweep(spec)
        monkeypatch.setenv("COLDPLATE_THREADS", "4")
        threaded = run_sweep(spec)
        assert threaded == serial

    @pytest.mark.parametrize("raw, workers", [
        ("4", 4), ("0", 1), ("two", 1), ("2.5", 1)])
    def test_worker_count(self, monkeypatch, raw, workers):
        # a value that is not an integer >= 1 runs serially
        monkeypatch.setenv("COLDPLATE_THREADS", raw)
        assert studies._worker_count() == workers


class TestChannelCountVariant:
    def test_preserves_wetted_area(self, primary):
        base_area = cp.total_wetted_area(primary.layout)
        for n in (1, 2, 3, 6):
            design = variant(primary, channel_count=n)
            assert cp.total_wetted_area(design.layout) == pytest.approx(
                base_area, rel=1e-12)

    def test_pitch_spans_plate(self, primary):
        design = variant(primary, channel_count=5)
        assert design.layout.lateral_pitch == pytest.approx(
            primary.plate.width / 5)


class TestVariant:
    @pytest.mark.parametrize("axis", [{"channel_count": 3},
                                      {"channel_shape": "semicircular"}],
                             ids=["count", "shape"])
    def test_primary_preset_is_its_own_variant(self, primary, axis):
        # the preset's channels follow the same equal-area rule, bit for bit
        assert variant(primary, **axis) == primary

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 4: variant takes a row of 6 reference rectangles, "
        "the base count, where the preset was sized from 3, so "
        "r = 4.67 mm against the preset's 2.33 mm"))
    @pytest.mark.parametrize("axis", [{"channel_count": 6},
                                      {"channel_shape": "semicircular"}],
                             ids=["count", "shape"])
    def test_secondary_preset_keeps_its_radius(self, secondary, axis):
        assert variant(secondary, **axis).layout.shape.radius == pytest.approx(
            secondary.layout.shape.radius, rel=1e-12)

    @pytest.mark.xfail(strict=True, raises=fv.GridResolutionError, reason=(
        "ROADMAP items 4 and 5: the uniform 2 mm z-grid resolves neither "
        "the 2 mm-high reference rectangle nor a 0.5 mm cover"))
    @pytest.mark.parametrize("axis", [{"channel_shape": "rectangular"},
                                      {"cover_thickness": 5e-4}],
                             ids=["rectangular", "thin-cover"])
    def test_primary_variant_builds_at_2mm(self, primary, axis):
        fv.build_grid(variant(primary, **axis), 2e-3)

    def test_rectangular_is_the_reference(self, primary):
        design = variant(primary, channel_shape="rectangular")
        assert design.layout == replace(primary.layout, shape=REFERENCE_RECT)

    def test_rectangular_base_is_its_own_reference(self, primary):
        rect = replace(primary, layout=replace(
            primary.layout, shape=cp.Rectangular(width=0.02, height=0.002)))
        assert variant(rect, channel_shape="rectangular") == rect
        semi = variant(rect, channel_shape="semicircular").layout
        assert cp.total_wetted_area(semi) == pytest.approx(
            cp.total_wetted_area(rect.layout), rel=1e-12)

    def test_material_by_name_or_record(self, primary):
        by_name = variant(primary, material="aluminum")
        by_record = variant(primary, material=cp.get_material("aluminum"))
        assert by_name == by_record
        assert by_name.plate.material.name == "aluminum"
        assert by_name.layout == primary.layout

    def test_cover_thickness(self, secondary):
        design = variant(secondary, cover_thickness=0.5e-3)
        assert design.layout == replace(secondary.layout,
                                        cover_thickness=0.5e-3)
        assert design.plate == secondary.plate

    def test_no_keyword_is_the_base(self, secondary):
        assert variant(secondary) == secondary

    @pytest.mark.parametrize("axis, value, descriptor", [
        ("velocity", 1.7, "v=1.7"),
        ("material", "aluminum", "material=aluminum"),
        ("channel_shape", "rectangular", "shape=rectangular"),
        ("channel_count", 6, "channels_per_row=6"),
        ("cover_thickness", 0.0005, "cover_m=0.0005"),
    ])
    def test_sweep_descriptor(self, primary, axis, value, descriptor):
        row, = run_sweep(SweepSpec(base=primary, axis=axis,
                                   values=(value,))).rows
        assert row.descriptor == descriptor

    def test_optimize_descriptor(self, primary):
        res = optimize(problem(primary, materials=("aluminum",),
                               channel_counts=(6,), cover_thicknesses=(5e-4,),
                               v_min=1.1, v_max=1.1))
        assert [r.descriptor for r in res.rows] == [
            "material=aluminum,channels_per_row=6,cover_mm=0.5,v=1.1"]

    def test_optimize_descriptors_name_close_velocities(self, primary):
        # 6 significant digits would print both points as v=1
        res = optimize(problem(primary, materials=("aluminum",),
                               channel_counts=(6,), cover_thicknesses=(1e-3,),
                               v_min=1.0, v_max=1.000001, v_step=1e-6),
                       prune=False)
        assert [r.descriptor for r in res.rows] == [
            "material=aluminum,channels_per_row=6,cover_mm=1,v=1",
            "material=aluminum,channels_per_row=6,cover_mm=1,v=1.000001"]


class TestSecondaryScenario:
    def test_four_steps_strictly_decreasing(self):
        res = secondary_side_scenario()
        assert len(res.rows) == 4
        temps = [r.t_max_C for r in res.rows]
        assert all(a > b for a, b in zip(temps, temps[1:]))

    def test_descriptors_carry_references(self):
        # the replay is no CLI action, so only this pins its descriptors
        res = secondary_side_scenario()
        assert [r.descriptor for r in res.rows] == [
            "v=1.1,cover_mm=1,ref_C=144.93,delta_K=-78.12",
            "v=1.4,cover_mm=1,ref_C=142.04,delta_K=-75.87",
            "v=1.4,cover_mm=0.5,ref_C=136.86,delta_K=-70.73",
            "v=2.9,cover_mm=0.5,ref_C=131.58,delta_K=-66.78"]
        for row, ref in zip(res.rows,
                            studies.SECONDARY_SCENARIO_REFERENCE_C):
            assert row.descriptor.endswith(
                f"ref_C={ref},delta_K={row.t_max_C - ref:.2f}")

    def test_zero_power_variant_constant(self, secondary, water):
        dead = replace(secondary, modules=tuple(
            replace(m, dies=tuple(replace(d, power=0.0) for d in m.dies))
            for m in secondary.modules))
        res = secondary_side_scenario(assembly=dead, coolant=water)
        for row in res.rows:
            assert row.t_max_C == pytest.approx(49.0, abs=1e-9)


class TestOptimize:
    def test_pruned_matches_exhaustive_best(self, primary):
        prob = problem(primary)
        pruned = optimize(prob, prune=True)
        full = optimize(prob, prune=False)
        assert pruned.best == full.best
        assert pruned.best is not None
        assert len(pruned.rows) <= len(full.rows)

    def test_exhaustive_row_count(self, primary):
        prob = problem(primary)
        full = optimize(prob, prune=False)
        expected = (len(prob.materials) * len(prob.channel_counts)
                    * len(prob.cover_thicknesses) * len(prob.velocities))
        assert len(full.rows) == expected

    def test_best_is_feasible_minimum(self, primary):
        res = optimize(problem(primary), prune=False)
        feasible = [r for r in res.rows if r.feasible]
        assert res.best == min(feasible, key=studies._row_key)

    def test_infeasible_problem_has_no_best(self, primary):
        res = optimize(problem(primary, t_max_limit=-10.0))
        assert res.best is None
        assert all(not r.feasible for r in res.rows)

    def test_tightening_never_improves(self, primary):
        loose = optimize(problem(primary)).best
        tight = optimize(problem(primary, pressure_budget=10e3)).best
        if tight is not None:
            assert tight.mass_kg >= loose.mass_kg - 1e-12

    def test_feasibility_flags_consistent(self, primary):
        prob = problem(primary)
        res = optimize(prob, prune=False)
        for row in res.rows:
            expected = (row.t_max_C <= prob.t_max_limit
                        and row.dp_Pa <= prob.pressure_budget)
            assert row.feasible == expected

    @pytest.mark.parametrize("bad", [
        {"v_step": 0.0}, {"v_step": -0.1}, {"v_step": math.nan},
        {"v_step": math.inf}, {"v_min": math.nan}, {"v_max": math.inf},
        {"v_min": 1e20, "v_max": 1e21, "v_step": 1.0},
        {"v_min": 1.0, "v_max": 1.0, "v_step": 1e-17},
        {"v_max": 2e5, "v_step": 0.1},
        {"v_min": 1e-300, "v_max": 1e-300, "v_step": 1e-310}],
        ids=["zero-step", "negative-step", "nan-step", "inf-step",
             "nan-v-min", "inf-v-max", "huge-v-min", "step-below-spacing",
             "too-many-points", "step-below-rounding"])
    def test_bad_velocity_grid_rejected(self, primary, bad):
        # each of these used to loop forever, or for minutes, in
        # enumerating the velocity grid
        with pytest.raises(ValueError):
            problem(primary, **bad)

    def test_material_records_match_names(self, primary):
        names = ("copper", "aluminum")
        grid = dict(channel_counts=(3,), cover_thicknesses=(1e-3,))
        by_name = optimize(problem(primary, materials=names, **grid))
        by_record = optimize(problem(
            primary, materials=tuple(map(cp.get_material, names)), **grid))
        assert by_record == by_name

    def test_empty_velocity_grid_rejected(self, primary):
        with pytest.raises(ValueError, match="^empty velocity grid$"):
            problem(primary, v_min=2.0, v_max=1.0)

    def test_velocity_grid_enumerated_once(self, primary):
        # construction enumerates the grid and keeps it; optimize reads the
        # kept tuple, so a grid put in its place is the one evaluated
        prob = problem(primary)
        assert vars(prob)["velocities"] == tuple(
            round(0.5 + 0.3 * n, 12) for n in range(9))
        vars(prob)["velocities"] = (1.1, 2.3)
        for prune in (True, False):
            assert {r.v_mps for r in optimize(prob, prune=prune).rows} <= {
                1.1, 2.3}
        assert len(optimize(prob, prune=False).rows) == 12 * 2

    def test_velocity_above_v_max_infeasible(self, primary):
        # the grid keeps a rounded step within 1e-12 of v_max, so a point
        # just above v_max is evaluated and must be flagged infeasible
        prob = problem(primary, v_min=0.5, v_step=0.1, v_max=0.5999999999995)
        assert prob.velocities == (0.5, 0.6)
        res = optimize(prob, prune=False)
        above = [r for r in res.rows if r.v_mps == 0.6]
        assert above and not any(r.feasible for r in above)
        # the velocity bound alone rejects them
        assert any(r.t_max_C <= prob.t_max_limit
                   and r.dp_Pa <= prob.pressure_budget for r in above)


def _count_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's args."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


class TestPrunedSearch:
    def test_premise_holds_on_c7_grid(self, primary):
        # the pruned search is exact because, for every geometry, t_max
        # never rises and dp never falls along the velocity grid
        prob = problem(primary, v_step=0.005)
        rows, n = optimize(prob, prune=False).rows, len(prob.velocities)
        assert len(rows) == 12 * n
        for start in range(0, len(rows), n):
            run = rows[start:start + n]
            assert all(b.t_max_C <= a.t_max_C and b.dp_Pa >= a.dp_Pa
                       for a, b in zip(run, run[1:]))

    @pytest.mark.parametrize("limits", [
        {}, {"pressure_budget": 5e3}, {"t_max_limit": 60.0},
        {"pressure_budget": 2e3, "t_max_limit": 200.0}],
        ids=["c7", "budget-5kPa", "limit-60C", "budget-2kPa-limit-200C"])
    @pytest.mark.parametrize("preset, counts", [
        ("primary_side", (3, 6)), ("secondary_side", (12, 20))])
    def test_pruned_best_is_exhaustive_best(self, preset, counts, limits):
        # on secondary_side, 2 kPa leaves only laminar velocities, whose
        # t_max ties: the search bisects for the slowest
        prob = problem(PRESETS[preset](), channel_counts=counts, v_step=0.05,
                       **limits)
        assert optimize(prob).best == optimize(prob, prune=False).best

    def test_repeated_grid_points(self, primary):
        # a step below the grid's 1e-12 rounding would repeat velocities,
        # and the exhaustive search would write each repeat as a row
        with pytest.raises(ValueError, match="^v_step 1e-13 repeats grid "
                           "points, which are rounded to 12 decimals$"):
            problem(primary, v_min=1.0, v_max=1.0 + 1e-12, v_step=1e-13)

    def test_descriptor_breaks_a_dp_tie(self, primary, monkeypatch):
        # t_max is flat from 9 m/s and dp up to 11 m/s, so among 9, 10 and
        # 11 m/s _row_key falls to the descriptors, where "v=10" sorts
        # first; the bisection for 9 m/s never probes 10 m/s
        def dp(coolant, layout, v, minor_loss_K):
            return 1e3 * max(v, 11.0)

        def step(assembly, flow, *args):
            v = flow.inlet_velocity
            t_max = 60.0 if v < 9 else 50.0
            return (t_max, dp(None, assembly.layout, v, 0.0),
                    studies.plate_mass(assembly))
        monkeypatch.setattr(studies.hydraulics, "pressure_drop", dp)
        monkeypatch.setattr(studies, "evaluate_design", step)
        prob = problem(primary, v_min=8.0, v_max=40.0, v_step=1.0)
        pruned, full = optimize(prob), optimize(prob, prune=False)
        assert pruned.best == full.best
        assert pruned.best.descriptor.endswith(",v=10")

    @pytest.mark.parametrize("limits", [{"t_max_limit": -10.0},
                                        {"pressure_budget": 1.0}],
                             ids=["too-hot", "over-budget"])
    def test_no_feasible_design_evaluates_each_geometry_once(
            self, primary, monkeypatch, limits):
        calls = _count_calls(monkeypatch, studies, "evaluate_design")
        res = optimize(problem(primary, **limits))
        assert res.best is None
        assert len(calls) == len(res.rows) == 12
        assert not any(r.feasible for r in res.rows)

    def test_rows_are_the_evaluated_points(self, primary, monkeypatch):
        calls = _count_calls(monkeypatch, studies, "evaluate_design")
        res = optimize(problem(primary))
        # the lightest geometry's two cover variants, at v_hi and below it
        assert len(calls) == len(res.rows) == 4
        assert [r.v_mps for r in res.rows] == [2.6, 2.9] * 2
        assert res.best == res.rows[3]

    def test_fv_pruned_best_is_exhaustive_best(self, small, monkeypatch):
        solves = _count_calls(monkeypatch, fv, "solve")
        prob = DesignProblem(base=small, materials=("copper", "aluminum"),
                             channel_counts=(2,), cover_thicknesses=(1e-3,),
                             v_min=0.5, v_max=1.5, v_step=0.5,
                             pressure_budget=3e3)
        pruned = optimize(prob, "fv")
        # aluminum is lighter; 1.5 m/s is over budget, so v_hi is 1.0
        assert len(solves) == 2
        full = optimize(prob, "fv", prune=False)
        assert len(solves) == 2 + 6
        assert pruned.best == full.best
        assert pruned.best.descriptor == (
            "material=aluminum,channels_per_row=2,cover_mm=1,v=1")

    def test_rising_t_max_falls_back_to_the_whole_grid(self, primary,
                                                        monkeypatch):
        real = studies.evaluate_design

        def bowl(assembly, flow, *args):
            # t_max falls to its least at 1.7 m/s, then rises again
            _, dp, mass = real(assembly, flow, *args)
            return 60.0 + 10.0 * abs(flow.inlet_velocity - 1.7), dp, mass
        monkeypatch.setattr(studies, "evaluate_design", bowl)
        prob = problem(primary)
        pruned, full = optimize(prob), optimize(prob, prune=False)
        assert pruned.best == full.best
        assert pruned.best.v_mps == 1.7
        # the probes at 2.9 and 2.6 m/s show the rise, so both cover
        # variants of the lightest geometry evaluate every velocity
        assert [r.v_mps for r in pruned.rows] == list(prob.velocities) * 2


def _grid_key(grid) -> tuple:
    """A grid's (nx, ny, nz) and the bytes of its cross-section map."""
    return grid.nx, grid.ny, grid.nz, grid.channel_id.tobytes()


class TestFvStudyGrids:
    """Every FV point of a study builds its own grid, from which its solve
    assembles its own system."""

    def test_threaded_fv_sweep_matches_serial(self, small, monkeypatch):
        spec = SweepSpec(base=small, axis="velocity",
                         values=(0.6, 1.1, 1.7, 2.3))
        serial = run_sweep(spec, "fv")
        monkeypatch.setenv("COLDPLATE_THREADS", "2")
        assert run_sweep(spec, "fv") == serial

    def test_threaded_secondary_sweep_matches_serial(self, monkeypatch):
        # the benchmark's threaded sweep: 12 channels at 1.5 mm, where the
        # two pool threads each build their points' grids and run their
        # factorizations and transforms side by side
        spec = SweepSpec(base=cp.secondary_side(), axis="velocity",
                         values=(0.8, 1.1, 1.4, 2.9),
                         evaluation=studies.Evaluation(
                             solver=fv.SolverSettings(resolution=1.5e-3)))
        serial = run_sweep(spec, "fv")
        monkeypatch.setenv("COLDPLATE_THREADS", "2")
        assert run_sweep(spec, "fv") == serial

    def test_velocity_sweep_solves_on_the_base_grid(self, small,
                                                    monkeypatch):
        # more threads than points: every pool thread solves one point on
        # the base assembly's grid at the solver resolution
        solves = _count_calls(monkeypatch, fv, "solve")
        monkeypatch.setenv("COLDPLATE_THREADS", "4")
        spec = SweepSpec(base=small, axis="velocity",
                         values=(0.6, 1.1, 1.7, 2.3))
        run_sweep(spec, "fv")
        key = _grid_key(fv.build_grid(small,
                                      spec.evaluation.solver.resolution))
        assert [_grid_key(args[0]) for args in solves] == [key] * 4

    @pytest.mark.parametrize("prune", [True, False])
    def test_optimize_solves_on_each_design_grid(self, small, prune,
                                                 monkeypatch):
        solves = _count_calls(monkeypatch, fv, "solve")
        # two cover variants of one mass, which voxelize to two grids at
        # 2 mm: the pruned search visits both
        prob = DesignProblem(base=small, materials=("aluminum",),
                             channel_counts=(2,),
                             cover_thicknesses=(1e-3, 3e-3),
                             v_min=0.5, v_max=1.5, v_step=0.5)
        optimize(prob, "fv", prune=prune)
        # pruned, each design is probed at v_hi and the point below it
        per_design = 2 if prune else 3
        keys = [_grid_key(fv.build_grid(
            variant(small, material="aluminum", channel_count=2,
                    cover_thickness=cover),
            prob.evaluation.solver.resolution))
            for cover in prob.cover_thicknesses]
        assert keys[0] != keys[1]
        assert ([_grid_key(args[0]) for args in solves]
                == [key for key in keys for _ in range(per_design)])


_PRINTABLE = st.text(max_size=6).filter(str.isprintable)


class TestCsv:
    def test_header_and_repr_floats(self):
        row = StudyRow("v=1.1", 1.1, 60.5, 5000.25, 5.79, True)
        text = cli._csv([row.to_json()])
        lines = text.splitlines()
        assert lines[0] == "descriptor,v_mps,t_max_C,dp_Pa,mass_kg,feasible"
        assert lines[1] == "v=1.1,1.1,60.5,5000.25,5.79,True"
        assert text.endswith("\n")
        assert (cli._csv([{"cells": 8, "delta_K": None}])
                == "cells,delta_K\n8,\n")

    def test_round_trips_exactly(self, primary):
        res = run_sweep(SweepSpec(base=primary, axis="velocity",
                                  values=(0.7, 1.3)))
        text = cli._csv(res.to_json()["rows"])
        for line, row in zip(text.splitlines()[1:], res.rows):
            fields = line.split(",")
            assert float(fields[2]) == row.t_max_C
            assert float(fields[3]) == row.dp_Pa

    @given(keys=st.lists(_PRINTABLE, min_size=1, max_size=4, unique=True),
           data=st.data())
    def test_round_trips_printable_text(self, keys, data):
        # fields hold commas, quotes and blanks; cli._materials refuses the
        # names csv would not quote, such as one holding a "\r"
        value = _PRINTABLE | st.floats() | st.none()
        width = len(keys)
        rows = [dict(zip(keys, values)) for values in data.draw(st.lists(
            st.lists(value, min_size=width, max_size=width), min_size=1,
            max_size=3))]
        table = list(csv.reader(io.StringIO(cli._csv(rows))))
        assert table == [keys] + [["" if row[k] is None else str(row[k])
                                   for k in keys] for row in rows]
