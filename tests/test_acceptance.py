"""End-to-end acceptance checks.

Each test exercises one acceptance criterion and prints a single
machine-greppable PASS/FAIL line (bypassing output capture) before
asserting, so a full run always shows the per-criterion verdicts.
"""

import json
import sys
from dataclasses import replace

import numpy as np

import coldplate as cp
from coldplate import fv
from coldplate.cli import main as cli_main
from coldplate.studies import (DesignProblem, SweepSpec, optimize, run_sweep,
                               secondary_side_scenario)

INLET_C = 49.0


def verdict(criterion: str, ok: bool) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}",
          file=sys.__stdout__, flush=True)
    assert ok, criterion


def test_c1_transition_velocities(water):
    v_semi = cp.transition_velocity(water, cp.Semicircular(0.0046))
    v_rect = cp.transition_velocity(water, cp.Rectangular(0.010, 0.002))
    ok = abs(v_semi - 0.44) <= 0.02 and abs(v_rect - 0.75) <= 0.02
    verdict("C1 laminar-turbulent transition velocities", ok)


def test_c2_equal_area_radii():
    ref = cp.ChannelLayout(rows=2, channels_per_row=3, channel_length=0.48,
                           shape=cp.Rectangular(0.010, 0.002),
                           cover_thickness=1e-3, lateral_pitch=0.19 / 3)
    r3 = cp.equal_area_radius(ref, 3)
    r6 = cp.equal_area_radius(ref, 6)
    ok = 4.6e-3 <= r3 <= 4.7e-3 and 2.3e-3 <= r6 <= 2.35e-3
    verdict("C2 equal-wetted-area channel radii", ok)


def test_c3_plate_mass():
    plate = cp.PlateGeometry(0.48, 0.19, 0.018, cp.get_material("copper"))
    layout = cp.ChannelLayout(rows=2, channels_per_row=3, channel_length=0.48,
                              shape=cp.Semicircular(0.0046),
                              cover_thickness=1e-3, lateral_pitch=0.19 / 3)
    mass = cp.plate_mass(cp.Assembly(plate=plate, layout=layout))
    ok = abs(mass - 13.0) / 13.0 <= 0.10
    verdict("C3 baseline plate mass near 13 kg", ok)


def test_c4_material_and_geometry_sensitivity(primary):
    mats = run_sweep(SweepSpec(base=primary, axis="material",
                               values=("copper", "aluminum",
                                       "stainless-steel")))
    t_cu, t_al, t_ss = (r.t_max_C for r in mats.rows)
    counts = run_sweep(SweepSpec(base=primary, axis="channel_count",
                                 values=(3, 6)))
    shapes = run_sweep(SweepSpec(base=primary, axis="channel_shape",
                                 values=("rectangular", "semicircular")))
    ok = (t_cu < t_al < t_ss
          and t_ss - t_al >= 20.0
          and abs(counts.rows[0].t_max_C - counts.rows[1].t_max_C) <= 5.0
          and abs(shapes.rows[0].t_max_C - shapes.rows[1].t_max_C) <= 5.0)
    verdict("C4 material dominates; equal-area geometry swaps are minor", ok)


def test_c5_velocity_monotonicity(primary, water):
    velocities = [0.5 + 0.3 * i for i in range(9)]  # 0.5 .. 2.9
    flow = lambda v: cp.FlowCondition(v, INLET_C)
    network = [cp.solve_network(primary, water, flow(v)).t_max
               for v in velocities]
    fv_temps = []
    for v in velocities:
        grid = fv.build_grid(primary, 2e-3)
        fv_temps.append(fv.solve(grid, water, flow(v),
                                 primary.plate.material).t_max)
    scenario = [r.t_max_C for r in secondary_side_scenario().rows]
    decreasing = lambda xs: all(a > b for a, b in zip(xs, xs[1:]))
    ok = (decreasing(network) and decreasing(fv_temps)
          and len(scenario) == 4 and decreasing(scenario))
    verdict("C5 t_max falls with velocity (network, FV, design replay)", ok)


def test_c6_fv_verification(small, water):
    copper = cp.get_material("copper")
    flow = cp.FlowCondition(1.1, INLET_C)

    # 1D slab with exact linear solution
    slab = fv.make_slab_grid(0.08, 0.08, 0.01, 0.002, 2e5, 2000.0)
    sol = fv.solve(slab, water, flow, copper)
    exact = INLET_C + 2e5 / 2000.0 + 2e5 * 0.01 / copper.thermal_conductivity
    slab_ok = abs(sol.t_max - exact) / (exact - INLET_C) <= 0.005

    # conservation and symmetry on a channelled assembly
    grid = fv.build_grid(small, 1.5e-3)
    csol = fv.solve(grid, water, flow, small.plate.material)
    energy_ok = abs(csol.energy_imbalance) <= 1e-6 * grid.total_power
    mirror_ok = float(np.max(np.abs(
        csol.temperature - csol.temperature[:, ::-1, :]))) <= 1e-6

    # grid refinement on a spreading problem
    study = fv.mesh_study(
        lambda r: fv.make_slab_grid(0.08, 0.08, 0.01, r, 2e5, 2000.0,
                                    patch=(0.04, 0.04, 0.01, 0.01)),
        water, flow, copper, [0.008, 0.004, 0.002, 0.001])
    deltas = [row.delta for row in study.rows[1:]]
    mesh_ok = (all(a > b for a, b in zip(deltas, deltas[1:]))
               and deltas[-1] < 0.5 and study.converged)

    verdict("C6 FV verification (slab oracle, conservation, symmetry, mesh)",
            slab_ok and energy_ok and mirror_ok and mesh_ok)


def test_c7_optimizer(primary):
    prob = DesignProblem(base=primary,
                         materials=("copper", "aluminum", "stainless-steel"),
                         channel_counts=(3, 6),
                         cover_thicknesses=(1e-3, 0.5e-3),
                         v_min=0.5, v_max=2.9, v_step=0.3)
    assert len(prob.velocities()) * 12 <= 200
    pruned = optimize(prob, prune=True)
    full = optimize(prob, prune=False)
    infeasible = optimize(replace(prob, t_max_limit=-10.0))
    ok = (pruned.best is not None and pruned.best == full.best
          and infeasible.best is None)
    verdict("C7 pruned optimizer matches exhaustive search", ok)


def test_c8_pressure_drop(water):
    layout = cp.ChannelLayout(rows=2, channels_per_row=6, channel_length=0.48,
                              shape=cp.Semicircular(0.0023),
                              cover_thickness=1e-3, lateral_pitch=0.19 / 6)
    dp = cp.pressure_drop(water, layout, 1.1)
    verdict("C8 operating-point pressure drop within budget band",
            2e3 <= dp <= 25e3)


def test_c9_deterministic_outputs(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "preset": "primary_side",
        "sweep": {"axis": "velocity", "values": [0.8, 1.1, 1.4]}}))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        blobs.append(((out / "result.json").read_bytes(),
                      (out / "result.csv").read_bytes()))
    verdict("C9 byte-identical artifacts across repeated runs",
            blobs[0] == blobs[1])
