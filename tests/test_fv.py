import io
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix, diags, identity, kron
from scipy.sparse.linalg import LinearOperator, spsolve
from scipy.sparse.linalg import cg as scipy_cg

import coldplate as cp
from coldplate import fv
from coldplate.fv import (ConvergenceError, GridResolutionError, build_grid,
                          make_slab_grid, mesh_study, solve,
                          write_structured_points)
from coldplate.studies import variant

from conftest import small_assembly

FLOW = cp.FlowCondition(1.1, 49.0)


def small_rectangular():
    """The small plate with a 6 x 3 mm rectangle in place of its semicircle."""
    small = small_assembly()
    return replace(small, layout=replace(
        small.layout, shape=cp.Rectangular(width=0.006, height=0.003)))


def slab_solution(resolution, patch=None):
    grid = make_slab_grid(length=0.08, width=0.08, thickness=0.01,
                          resolution=resolution, flux_top=2e5, h_bottom=2000.0,
                          patch=patch)
    water = cp.water_at_reference()
    return grid, solve(grid, water, FLOW, cp.get_material("copper"))


class TestSlabOracle:
    def test_matches_1d_analytic(self):
        # uniform flux through a slab is exactly linear; the discrete
        # solution has no truncation error for this profile
        grid, sol = slab_solution(0.002)
        k = cp.get_material("copper").thermal_conductivity
        exact = 49.0 + 2e5 / 2000.0 + 2e5 * 0.01 / k
        assert sol.t_max == pytest.approx(exact, rel=5e-3)
        assert sol.t_max == pytest.approx(exact, rel=1e-9)

    def test_interior_profile_linear(self):
        grid, sol = slab_solution(0.002)
        column = sol.temperature[grid.nx // 2, grid.ny // 2, :]
        diffs = np.diff(column)
        assert np.allclose(diffs, diffs[0], rtol=1e-9)

    def test_energy_imbalance_small(self):
        grid, sol = slab_solution(0.002)
        assert abs(sol.energy_imbalance) <= 1e-6 * grid.total_power


class TestBuildGrid:
    def test_void_fraction_close_to_analytic(self, primary):
        grid = build_grid(primary, 1.5e-3)
        voxel = ((grid.channel_id >= 0).sum() * grid.nx
                 * grid.dx * grid.dy * grid.dz)
        analytic = (cp.cross_section_area(primary.layout.shape)
                    * primary.layout.channel_length * 6)
        assert abs(voxel - analytic) / analytic <= 0.15

    def test_flux_conserves_power(self, primary):
        grid = build_grid(primary, 2e-3)
        assert grid.total_power == pytest.approx(primary.total_power,
                                                 rel=1e-12)

    def test_channels_have_metadata(self, small):
        grid = build_grid(small, 1.5e-3)
        assert grid.n_channels == 2
        assert set(np.unique(grid.channel_id)) == {-1, 0, 1}
        assert cp.cross_section_area(grid.shape) == pytest.approx(
            math.pi * 0.003**2 / 2, rel=1e-12)

    def test_rectangular_channels_on_cell_faces(self, small, water):
        # at 1.5 mm every edge of a 6 x 3 mm channel lies on a cell face,
        # so the void is exactly the analytic cross-section
        rect = small_rectangular()
        grid = build_grid(rect, 1.5e-3)
        assert (grid.nx, grid.ny, grid.nz) == (80, 40, 8)
        voxel = ((grid.channel_id >= 0).sum() * grid.nx
                 * grid.dx * grid.dy * grid.dz)
        assert voxel == pytest.approx(2 * 0.006 * 0.003 * 0.12, rel=1e-12)
        for channel, z_cells in ((0, {1, 2}), (1, {5, 6})):  # bottom, top
            y, z = np.nonzero(grid.channel_id == channel)
            assert set(y) == {18, 19, 20, 21} and set(z) == z_cells
        sol = solve(grid, water, FLOW, rect.plate.material)
        assert abs(sol.energy_imbalance) <= 1e-6 * grid.total_power

    @pytest.mark.parametrize("assembly, resolution", [
        (cp.primary_side, 1.5e-3), (cp.primary_side, 2e-3),
        (cp.primary_side, 2.5e-3), (cp.secondary_side, 1.5e-3),
        (cp.secondary_side, 2e-3), (small_rectangular, 2e-3),
        (small_rectangular, 1.7e-3), (small_rectangular, 0.8e-3),
    ], ids=["primary-1.5", "primary-2", "primary-2.5", "secondary-1.5",
            "secondary-2", "rectangular-2", "rectangular-1.7",
            "rectangular-0.8"])
    def test_two_rows_mirror_through_thickness(self, assembly, resolution):
        # equal covers give a void map that is its own mirror, also where
        # samples lie on the 6 x 3 mm rectangle's faces (at 1.7 and 0.8 mm),
        # so that rounding alone decides whether a face sample is inside;
        # secondary_side builds no grid at 2.5 mm
        void = build_grid(assembly(), resolution).channel_id >= 0
        assert np.array_equal(void, void[:, ::-1])

    @pytest.mark.parametrize("build", [
        lambda r: build_grid(small_assembly(), r),
        lambda r: make_slab_grid(0.08, 0.08, 0.01, r, 2e5, 2000.0),
    ], ids=["assembly", "slab"])
    @pytest.mark.parametrize("resolution", [1e-6, 5e-324])
    def test_grid_size_bounded(self, build, resolution):
        # 1e-6 m gives over 1e13 cells; 5e-324 m makes every count infinite
        with pytest.raises(ValueError, match=r"cells; the limit is 1e\+07"):
            build(resolution)

    def test_band_factor_bounded(self):
        # 80 x 80 x 500 cells are within the cell limit, but their band
        # factor would take 3.2e6 * 501 * 8 B
        with pytest.raises(ValueError, match=(
                r"gives a 12\.8 GB band factor \(500 cells through the "
                r"thickness\); the limit is 2 GB$")):
            make_slab_grid(0.08, 0.08, 0.5, 1e-3, 2e5, 2000.0)

    def test_cover_thinner_than_cell_errors(self):
        # 0.5 mm cover under 1.9 mm cells: the surface layer is mostly void
        thin = replace(cp.secondary_side(),
                       layout=replace(cp.secondary_side().layout,
                                      cover_thickness=0.5e-3))
        with pytest.raises(GridResolutionError):
            build_grid(thin, 1.9e-3)

    def test_unresolved_channel_named(self, primary):
        # the 10 x 2 mm rectangle of the primary plate's rectangular
        # variant fills no 2 mm cell more than half
        rect = variant(primary, channel_shape="rectangular")
        with pytest.raises(GridResolutionError, match=(
                r"^resolution 0\.002 m cannot resolve channel at "
                r"y = 31\.67 mm$")):
            build_grid(rect, 2e-3)

    def test_die_between_cell_centers_on_nearest_face(self, small):
        # 1 x 1 mm dies cover no center of a 2.5 mm cell
        mod = small.modules[0]
        tiny = replace(small, modules=(replace(mod, dies=tuple(
            replace(d, footprint=(1e-3, 1e-3)) for d in mod.dies)),))
        grid = build_grid(tiny, 2.5e-3)
        assert grid.total_power == 100.0
        assert np.count_nonzero(grid.flux_top) == 2
        assert not grid.flux_bottom.any()

    def test_invalid_assembly_rejected(self, primary):
        bad = replace(primary, modules=(replace(primary.modules[0],
                                                origin=(0.45, 0.15)),))
        with pytest.raises(ValueError):
            build_grid(bad, 2e-3)

    def test_nonpositive_resolution_rejected(self, small):
        with pytest.raises(ValueError):
            build_grid(small, 0.0)


class TestSolve:
    def test_zero_power_uniform_inlet(self, small, water):
        dead = replace(small, modules=())
        grid = build_grid(dead, 1.5e-3)
        sol = solve(grid, water, FLOW, small.plate.material)
        assert np.allclose(sol.temperature, 49.0, atol=1e-9)
        assert sol.t_max == pytest.approx(49.0, abs=1e-9)

    def test_maximum_principle(self, small, water):
        grid = build_grid(small, 1.5e-3)
        sol = solve(grid, water, FLOW, small.plate.material)
        assert sol.temperature.min() >= 49.0 - 1e-9
        assert sol.t_max >= sol.temperature.max() - 1e-9

    def test_energy_balance(self, small, water):
        grid = build_grid(small, 1.5e-3)
        sol = solve(grid, water, FLOW, small.plate.material)
        assert abs(sol.energy_imbalance) <= 1e-6 * grid.total_power

    def test_void_cells_hold_coolant_profile(self, small, water):
        grid = build_grid(small, 1.5e-3)
        sol = solve(grid, water, FLOW, small.plate.material)
        y, z = np.nonzero(grid.channel_id >= 0)
        assert y.size
        expected = sol.coolant_profile[grid.channel_id[y, z], :grid.nx].T
        assert np.array_equal(sol.temperature[:, y, z], expected)
        assert expected.max() > FLOW.inlet_temperature

    def test_coolant_outlet_energy(self, small, water):
        grid = build_grid(small, 1.5e-3)
        sol = solve(grid, water, FLOW, small.plate.material)
        m_dot_ch = water.density * 1.1 * cp.cross_section_area(grid.shape)
        removed = sum(m_dot_ch * water.specific_heat * (p[-1] - 49.0)
                      for p in sol.coolant_profile)
        assert removed == pytest.approx(grid.total_power, rel=1e-5)

    def test_mirror_symmetry(self, small, water):
        grid = build_grid(small, 1.5e-3)
        sol = solve(grid, water, FLOW, small.plate.material)
        mirrored = sol.temperature[:, ::-1, :]
        assert np.max(np.abs(sol.temperature - mirrored)) <= 1e-6

    def test_agrees_with_network(self, primary, water):
        grid = build_grid(primary, 2e-3)
        sol = solve(grid, water, FLOW, primary.plate.material)
        net = cp.solve_network(primary, water, FLOW)
        assert abs(sol.t_max - net.t_max) <= 15.0

    def test_zero_velocity_rejected(self, small, water):
        grid = build_grid(small, 1.5e-3)
        with pytest.raises(ValueError, match="inlet velocity must be > 0"):
            solve(grid, water, cp.FlowCondition(0.0, 49.0),
                  small.plate.material)

    def test_non_finite_inputs_rejected(self, small, water):
        # the input dataclasses refuse NaN, so stand-ins reach the solver's
        # own checks, which run before the preconditioner is built
        grid = build_grid(small, 2.5e-3)
        nan_flow = SimpleNamespace(inlet_velocity=math.nan,
                                   inlet_temperature=49.0)
        with pytest.raises(ValueError, match="inlet velocity must be > 0"):
            solve(grid, water, nan_flow, small.plate.material)
        nan_solid = SimpleNamespace(thermal_conductivity=math.nan)
        with pytest.raises(ValueError, match="non-finite conductance"):
            solve(grid, water, FLOW, nan_solid)

    @pytest.mark.parametrize("settings", [
        {"max_iters": 0}, {"tol": 0.0}, {"tol": math.nan}, {"tol": math.inf},
    ], ids=["max-iters-0", "tol-0", "tol-nan", "tol-inf"])
    def test_invalid_solver_settings_rejected(self, small, water, settings):
        # max_iters=0 used to return the unsolved field as converged, and a
        # tol of 0 or NaN ran every iteration and then stalled
        grid = build_grid(small, 2.5e-3)
        with pytest.raises(ValueError, match="need max_iters >= 1 and "
                           "0 < tol < inf"):
            solve(grid, water, FLOW, small.plate.material, **settings)

    def test_no_convective_faces_singular(self, water):
        grid = make_slab_grid(0.04, 0.04, 0.01, 0.005, 1e5, 1000.0)
        grid.h_bottom = None
        with pytest.raises(ValueError, match="singular"):
            solve(grid, water, FLOW, cp.get_material("copper"))

    def test_convergence_error_names_the_residual(self, small, water):
        # each exactly preconditioned iteration shrinks CG's recurrence
        # residual by about 1e-13, so 3 of them cannot reach 1e-300
        grid = build_grid(small, 1.5e-3)
        with pytest.raises(ConvergenceError, match=r"^linear solve did not "
                           r"reach tol 1e-300 in 3 iterations "
                           r"\(residual \d\.\d{3}e[+-]\d\d\)$"):
            solve(grid, water, FLOW, small.plate.material,
                  tol=1e-300, max_iters=3)

    @pytest.mark.parametrize("conductivity", [1e10, 1e20])
    def test_rounding_swamped_solve_refused(self, small, water,
                                            conductivity):
        # conduction far stronger than the films: CG's recurrence meets tol
        # while A x - b, recomputed, is 6.5e-7 of b at 1e10 W/(m K), and at
        # 1e20 the field fell below the 49 C inlet with a residual of 2
        stiff = cp.SolidMaterial("stiff", conductivity, 8900.0, 385.0)
        grid = build_grid(small, 2.5e-3)
        with pytest.raises(ConvergenceError, match=(
                r"^the field's recomputed residual \d\.\d{3}e[+-]\d\d exceeds "
                r"2 x tol 1e-08: rounding in the conduction system swamps "
                r"the solve$")):
            solve(grid, water, FLOW, stiff)

    def test_solves_share_the_grid(self, small, water):
        # a solve leaves its grid as it found it: the same attributes, the
        # same bytes in every array. So two velocities solved on one grid
        # give, bit for bit, what they give on fresh grids
        grid = build_grid(small, 2.5e-3)
        before = bits(grid)
        flows = [cp.FlowCondition(v, 49.0) for v in (1.1, 2.9)]
        shared = [solve(grid, water, flow, small.plate.material)
                  for flow in flows]
        assert bits(grid) == before
        for flow, sol in zip(flows, shared):
            fresh = solve(build_grid(small, 2.5e-3), water, flow,
                          small.plate.material)
            assert bits(sol) == bits(fresh)

    def test_overflow_stops_at_once(self, small, water, monkeypatch):
        # a finite 1e200 W die overflows |b|; the solve must stop before
        # its first pass, with no band solve and no CG call
        module = small.modules[0]
        die = replace(module.dies[0], power=1e200)
        huge = replace(small, modules=(replace(module, dies=(die,)),))
        calls, band_solves = record_cg(monkeypatch), record_band(monkeypatch)
        with pytest.raises(ConvergenceError, match="residual is not finite"):
            solve(build_grid(huge, 2.5e-3), water, FLOW, small.plate.material)
        assert calls == [] and band_solves == []

    def test_non_finite_march_stops_at_once(self, small, water, monkeypatch):
        # at 1e-310 m/s the coolant's heat capacity rate is subnormal and
        # the first march overflows; the loop must not run to _MAX_OUTER
        calls, band_solves = record_cg(monkeypatch), record_band(monkeypatch)
        with np.errstate(over="ignore"), pytest.raises(
                ConvergenceError, match=r"^coolant pass 1 stopped: the sink "
                r"temperatures are not finite$"):
            solve(build_grid(small, 2.5e-3), water,
                  cp.FlowCondition(1e-310, 49.0), small.plate.material)
        assert calls == [] and len(band_solves) == 1

    def test_grid_and_solution_compare_by_identity(self, small, water):
        # their fields are arrays, whose == a generated __eq__ would
        # reduce to one truth value, and raise
        grids = [build_grid(small, 2.5e-3) for _ in range(2)]
        sols = [solve(grid, water, FLOW, small.plate.material)
                for grid in grids]
        for a, b in (grids, sols):
            assert a == a and a != b
            assert a in [b, a] and a not in [b]


def bits(obj) -> dict:
    """vars(obj), each array as its dtype, shape and bytes and each float
    as its hex form, so that == compares bit for bit."""
    return {key: ((v.dtype.str, v.shape, v.tobytes())
                  if isinstance(v, np.ndarray)
                  else v.hex() if isinstance(v, float) else v)
            for key, v in vars(obj).items()}


def record_band(monkeypatch):
    """Replace fv._Inverse.solve_modes with a wrapper logging each call's
    right-hand side size."""
    calls = []
    real = fv._Inverse.solve_modes

    def recording(self, b):
        calls.append(b.size)
        return real(self, b)
    monkeypatch.setattr(fv._Inverse, "solve_modes", recording)
    return calls


def record_cg(monkeypatch):
    """Replace fv.cg with a wrapper logging (A, b, x, iterations) per call."""
    calls = []
    real_cg = fv.cg

    def recording(A, b, *args, **kwargs):
        iterations = [0]

        def count(_):
            iterations[0] += 1
        x, info = real_cg(A, b, *args, callback=count, **kwargs)
        calls.append((A, b, x, iterations[0]))
        return x, info
    monkeypatch.setattr(fv, "cg", recording)
    return calls


# grids of the operator and assembly tests
GRIDS = [
    # 80 x 40 x 8, two channels
    pytest.param(lambda: build_grid(small_assembly(), 1.5e-3), id="small"),
    # 58 x 29 x 6: an odd ny
    pytest.param(lambda: build_grid(small_assembly(), 0.06 / 29),
                 id="small-odd-ny"),
    # 54 x 27 x 5: odd counts through the thickness
    pytest.param(lambda: build_grid(small_assembly(), 0.06 / 27),
                 id="small-54x27x5"),
    # 9 x 10 x 2: an odd nx, all solid
    pytest.param(lambda: make_slab_grid(0.045, 0.05, 0.01, 0.005, 2e5,
                                        2000.0), id="slab-9x10x2"),
    # 2 x 2 x 2 cells: the fewest per axis
    pytest.param(lambda: make_slab_grid(0.04, 0.04, 0.01, 0.02, 2e5,
                                        2000.0), id="slab-2x2x2"),
]


def face_slices(axis):
    """Slices of a 3-D grid picking the low and high cell of every interior
    face across one axis."""
    lo, hi = [slice(None)] * 3, [slice(None)] * 3
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    return tuple(lo), tuple(hi)


def coo_assembly(grid, material, h):
    """Assembly of the whole 3-D grid, its plane map repeated in every x
    plane, through a COO matrix and scipy's conversion to CSR: the
    reference for the bits of fv._assemble.
    Returns (matrix, diag, rhs_fixed, face_cell, face_ua, face_sink), each
    face with its unknown and its flat index into the sink array."""
    k = material.thermal_conductivity
    channel_id = np.broadcast_to(grid.channel_id, (grid.nx, grid.ny, grid.nz))
    void = channel_id >= 0
    solid = ~void
    n = int(solid.sum())
    index = np.full(void.shape, -1, dtype=np.int64)
    index[solid] = np.arange(n)
    n_ch = grid.n_channels
    stations = grid.nx + 1
    spacing = (grid.dx, grid.dy, grid.dz)
    face_area = (grid.dy * grid.dz, grid.dx * grid.dz, grid.dx * grid.dy)

    xidx = np.broadcast_to(np.arange(grid.nx)[:, None, None], void.shape)
    walls = []
    voxel_area = np.zeros(n_ch)
    for axis in range(3):
        blocks = []
        for solid_sl, void_sl in (face_slices(axis),
                                  face_slices(axis)[::-1]):
            m = solid[solid_sl] & void[void_sl]
            ids = channel_id[void_sl][m]
            np.add.at(voxel_area, ids, face_area[axis])
            blocks.append((index[solid_sl][m], ids,
                           ids * stations + xidx[solid_sl][m]))
        walls.append(blocks)
    analytic = (cp.wetted_perimeter(grid.shape) * grid.nx * grid.dx
                if n_ch else 0.0)
    h_corr = h * analytic / voxel_area

    rows_l, cols_l, data_l = [], [], []
    diag = np.zeros(n)
    face_cell, face_ua, face_sink = [], [], []
    for axis in range(3):
        lo, hi = face_slices(axis)
        g = k * face_area[axis] / spacing[axis]
        both = solid[lo] & solid[hi]
        ia, ib = index[lo][both], index[hi][both]
        rows_l.extend((ia, ib))
        cols_l.extend((ib, ia))
        data_l.extend((np.full(ia.size, -g), np.full(ia.size, -g)))
        np.add.at(diag, ia, g)
        np.add.at(diag, ib, g)
        for cells, ids, sink in walls[axis]:
            ua = fv._film(spacing[axis], k, h_corr[ids]) * face_area[axis]
            np.add.at(diag, cells, ua)
            face_cell.append(cells)
            face_ua.append(ua)
            face_sink.append(sink)
    if grid.h_bottom is not None:
        cells = index[:, :, 0][solid[:, :, 0]]
        ua = np.full(cells.size, fv._film(grid.dz, k, grid.h_bottom)
                     * face_area[2])
        np.add.at(diag, cells, ua)
        face_cell.append(cells)
        face_ua.append(ua)
        # the inlet row, constant, at each face's station
        face_sink.append(n_ch * stations + xidx[:, :, 0][solid[:, :, 0]])

    rhs_fixed = np.zeros(n)
    for layer, flux in ((grid.nz - 1, grid.flux_top), (0, grid.flux_bottom)):
        m = solid[:, :, layer] & (flux != 0.0)
        rhs_fixed[index[:, :, layer][m]] += flux[m] * face_area[2]

    rows = np.concatenate(rows_l + [np.arange(n)])
    cols = np.concatenate(cols_l + [np.arange(n)])
    data = np.concatenate(data_l + [diag])
    matrix = coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    return (matrix, diag, rhs_fixed, np.concatenate(face_cell),
            np.concatenate(face_ua), np.concatenate(face_sink))


def assembled(grid):
    """(grid, film coefficient, fv._assemble of both) for a copper plate
    and water at 1.1 m/s; grid() builds the grid."""
    grid = grid()
    h = (cp.heat_transfer_coefficient(cp.water_at_reference(), grid.shape,
                                      1.1) if grid.n_channels else 0.0)
    return grid, h, fv._assemble(grid, cp.get_material("copper"), h)


def one_row_rectangular():
    """small_rectangular with its channels in one row."""
    rect = small_rectangular()
    return replace(rect, layout=replace(rect.layout, rows=1))


def explicit(operator):
    """The 3-D matrix g_x T_x (x) I + I (x) K that `operator` applies."""
    nx = operator.nx
    tx = diags([-np.ones(nx - 1), np.r_[1.0, np.full(nx - 2, 2.0), 1.0],
                -np.ones(nx - 1)], [-1, 0, 1])
    m = operator.plane.shape[0]
    return (operator.gx * kron(tx, identity(m))
            + kron(identity(nx), operator.plane)).tocsr()


class TestAssemble:
    @pytest.mark.parametrize("grid", GRIDS + [
        pytest.param(lambda: make_slab_grid(
            0.08, 0.08, 0.01, 0.002, 2e5, 2000.0,
            patch=(0.04, 0.04, 0.01, 0.01)), id="slab-patch"),
        pytest.param(lambda: build_grid(one_row_rectangular(), 2e-3),
                     id="one-row-rectangular"),
        pytest.param(lambda: build_grid(cp.primary_side(), 2.5e-3),
                     id="primary-2.5"),
        # 220 x 137 x 5 cells, 12 channels, heated from one side
        pytest.param(lambda: build_grid(cp.secondary_side(), 1.5e-3),
                     id="secondary-1.5"),
    ])
    def test_matches_coo_oracle(self, grid):
        # the separable operator is the COO reference's matrix: its
        # Kronecker form entry by entry to 1e-15 of the largest entry,
        # and its apply on random vectors to that for each of a row's 7
        # terms. The walls, the heated cells and their heat bit for bit;
        # each wall's U*A to each sink row, the reference's faces summed
        # per plane, to 1e-13, since the voxelized area is one product per
        # plane face here and a sum face by face there. Also for a second
        # film coefficient on the same grid
        grid, h, system = assembled(grid)
        copper = cp.get_material("copper")
        again = fv._assemble(grid, copper, 3.0 * h)
        rng = np.random.default_rng(0)
        for h, system in ((h, system), (3.0 * h, again)):
            matrix, _, rhs_fixed, face_cell, face_ua, face_sink = (
                coo_assembly(grid, copper, h))
            op = system.operator
            scale = abs(matrix).max()
            assert op.shape == matrix.shape
            assert abs(explicit(op) - matrix).max() <= 1e-15 * scale
            for v in rng.standard_normal((3, matrix.shape[0])):
                assert (np.max(np.abs(op @ v - matrix @ v))
                        <= 1e-15 * scale * np.max(np.abs(v)) * 7)
            m = op.plane.shape[0]
            heat = rhs_fixed.reshape(grid.nx, m)
            heated = np.flatnonzero((heat != 0.0).any(axis=0))
            assert system.heated.tobytes() == heated.tobytes()
            assert system.heat.tobytes() == heat[:, heated].tobytes()
            row, x = np.divmod(face_sink, grid.nx + 1)
            assert np.array_equal(face_cell // m, x)
            table = np.zeros((grid.nx, grid.n_channels + 1, m))
            np.add.at(table, (x, row, face_cell % m), face_ua)
            walls = np.unique(face_cell % m)
            assert system.walls.tobytes() == walls.tobytes()
            assert np.allclose(table[:, :, walls], system.ua, rtol=1e-13,
                               atol=0)
            # and the right-hand side of a pass against varied sinks
            t_sink = rng.uniform(40.0, 60.0,
                                 (grid.n_channels + 1, grid.nx + 1))
            rhs = rhs_fixed.copy()
            np.add.at(rhs, face_cell, face_ua * t_sink.flat[face_sink])
            assert np.allclose(system.rhs(t_sink), rhs, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_csr_structure(self, grid):
        # K, the matrix of one x plane
        _, _, system = assembled(grid)
        a = system.operator.plane
        assert a.indices.dtype == a.indptr.dtype == np.int32
        assert a.has_sorted_indices and a.has_canonical_format
        assert (a != a.T).nnz == 0
        assert np.all(a.data != 0.0) and np.all(a.diagonal() > 0.0)

    def test_solve_peak_memory(self, small, water):
        # the tracemalloc peak of one solve, per cell: 127.9 B measured
        # with the passes in the DCT modes, plus 5%
        grid = build_grid(small, 1.5e-3)
        tracemalloc.start()
        try:
            solve(grid, water, FLOW, small.plate.material)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / grid.cell_count <= 134.3

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads VmHWM from /proc")
    def test_solve_peak_rss(self):
        # the resident-set growth of one solve in a fresh process, which
        # counts what tracemalloc does not see (allocator growth, LAPACK's
        # workspace): the peak RSS after the solve less the peak RSS after
        # build_grid and the scipy import: 128.3-129.5 B per cell measured
        # with the passes in the DCT modes, plus 5%
        growth = peak_rss_growth(
            "plate = cp.primary_side()\n"
            "grid = fv.build_grid(plate, 2.5e-3)\n"
            "fv.scipy_routines()\n",
            "fv.solve(grid, cp.water_at_reference(), "
            "cp.FlowCondition(1.1, 49.0), plate.plate.material)\n")
        cells = build_grid(cp.primary_side(), 2.5e-3).cell_count
        assert growth / cells <= 136.0

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads VmHWM from /proc")
    def test_threaded_sweep_peak_rss(self):
        # the benchmark's threaded sweep, the secondary plate's 4 FV
        # velocities at 1.5 mm on 2 pool threads, whose solves assemble
        # their systems side by side: its resident-set growth in a fresh
        # process, after the scipy import, was 31.5-31.6 MB, plus 5%.
        # Solves that each hold a full n-vector of the imposed heat
        # measured 36.4-36.8 MB
        growth = peak_rss_growth(
            "from coldplate import studies\n"
            "spec = studies.SweepSpec(\n"
            "    base=cp.secondary_side(), axis='velocity',\n"
            "    values=(0.8, 1.1, 1.4, 2.9),\n"
            "    evaluation=studies.Evaluation(\n"
            "        solver=fv.SolverSettings(resolution=1.5e-3)))\n"
            "fv.scipy_routines()\n",
            "studies.run_sweep(spec, 'fv')\n",
            {"COLDPLATE_THREADS": "2"})
        assert growth <= 33.2e6


def peak_rss_growth(setup: str, run: str, environment=None) -> float:
    """The peak-RSS growth, in bytes, of the statements `run` in a fresh
    process, after `setup`; both see `cp` (coldplate) and `fv`. The peak is
    VmHWM, the process image's own: ru_maxrss would carry this test
    process's peak across the exec."""
    script = (
        "import coldplate as cp\n"
        "from coldplate import fv\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) * 1024 for line in fh\n"
        "                    if line.startswith('VmHWM:'))\n"
        f"{setup}before = peak()\n{run}print(peak() - before)\n")
    env = {**os.environ, **(environment or {}),
           "PYTHONPATH": str(Path(cp.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def cosine_basis(n):
    """The orthonormal DCT-II matrix, its arguments reduced exactly."""
    k, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    basis = np.cos(np.pi * ((k * (2 * j + 1)) % (4 * n)) / (2 * n))
    basis[0] *= math.sqrt(1.0 / n)
    basis[1:] *= math.sqrt(2.0 / n)
    return basis


class TestExactInverse:
    @pytest.mark.parametrize("n", [2, 3, 4, 9, 54, 80, 241])
    def test_dct_is_the_orthonormal_cosine_transform(self, n):
        basis = cosine_basis(n)
        assert np.allclose(basis @ basis.T, np.eye(n), rtol=0, atol=1e-14)
        x = np.random.default_rng(n).standard_normal((n, 5))
        y = fv._dct(x)
        assert np.max(np.abs(y - basis @ x)) <= 1e-14 * np.max(np.abs(x)) * n
        assert np.max(np.abs(fv._idct(basis @ x) - x)) <= 1e-13
        assert np.max(np.abs(fv._idct(y) - x)) <= 1e-13

    @pytest.mark.parametrize("grid", GRIDS)
    def test_inverts_the_operator(self, grid):
        _, _, system = assembled(grid)
        inverse = fv._inverse(system)
        for r in np.random.default_rng(0).standard_normal(
                (3, system.operator.shape[0])):
            residual = system.operator @ inverse(r) - r
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(r)

    def test_one_iteration_per_pass(self, primary, water, monkeypatch):
        # the C5 grid and velocities at the default tol: every coolant
        # pass is one band solve in the modes, and the returned field one
        # CG call of one iteration, whose preconditioner is one more band
        # solve; counts repeat exactly, so this catches an inexact inverse
        # without timing anything
        calls, band_solves = record_cg(monkeypatch), record_band(monkeypatch)
        grid = build_grid(primary, 2e-3)
        for v in (0.5 + 0.3 * i for i in range(9)):
            start, band_start = len(calls), len(band_solves)
            sol = solve(grid, water, cp.FlowCondition(v, 49.0),
                        primary.plate.material, tol=1e-8)
            assert [c[3] for c in calls[start:]] == [1]
            assert len(band_solves) - band_start == sol.iterations + 1

    def test_failed_factorization_is_a_convergence_error(self, small,
                                                         water):
        # at 1e30 W/(m K) conduction swamps the films by 29 orders of
        # magnitude, and the mode-0 plane matrix is singular in floating
        # point
        grid = build_grid(small, 2.5e-3)
        solid = cp.SolidMaterial("unobtainium", 1e30, 1000.0, 500.0)
        with pytest.raises(ConvergenceError,
                           match="band factorization failed"):
            solve(grid, water, FLOW, solid)


class TestTwoLevel:
    """The preconditioned coolant-pass solve. The class keeps the name it
    had under the two-level preconditioner that the exact inverse
    replaced, so its test ids compare across versions."""

    def test_preconditioner_spd(self, small, water):
        grid = build_grid(small, 1.5e-3)
        h = cp.heat_transfer_coefficient(water, grid.shape, 1.1)
        system = fv._assemble(grid, small.plate.material, h)
        precond = fv._inverse(system)
        rng = np.random.default_rng(0)
        for _ in range(5):
            u, v = rng.standard_normal((2, system.operator.shape[0]))
            uv, vu = u @ precond(v), v @ precond(u)
            assert abs(uv - vu) <= 1e-12 * max(abs(uv), abs(vu))
            assert v @ precond(v) > 0.0

    def test_first_pass_iteration_budget(self, primary, water, monkeypatch):
        # the passes run no CG: stopped after the first, the solve has made
        # no call. CG on that pass's system from the inlet field, as the
        # returned field's CG starts, takes one iteration at rtol 1e-8,
        # where the two-level preconditioner this inverse replaced took 11
        # to 24; counts repeat exactly, so this catches an inexact inverse
        # without timing anything
        calls = record_cg(monkeypatch)
        monkeypatch.setattr(fv, "_MAX_OUTER", 1)
        grid = build_grid(primary, 2e-3)
        with pytest.raises(ConvergenceError, match="did not converge in 1 "):
            solve(grid, water, FLOW, primary.plate.material)
        assert calls == []
        h = cp.heat_transfer_coefficient(water, grid.shape,
                                         FLOW.inlet_velocity)
        system = fv._assemble(grid, primary.plate.material, h)
        b = system.rhs(np.full((grid.n_channels + 1, grid.nx + 1),
                               FLOW.inlet_temperature))
        _, info = fv.cg(system.operator, b,
                        x0=np.full(b.size, FLOW.inlet_temperature),
                        rtol=1e-8, M=fv._inverse(system), maxiter=100)
        assert info == 0 and calls[0][3] == 1

    @pytest.mark.parametrize("assembly, resolution, velocity", [
        (small_assembly, 1.5e-3, 1.1), (cp.primary_side, 2.5e-3, 1.1),
        (cp.primary_side, 2.5e-3, 2.9)],
        ids=["small", "primary-2.5", "primary-2.5-fast"])
    def test_loose_passes_keep_the_schedule(self, assembly, resolution,
                                            velocity, water, monkeypatch):
        # tol holds the returned field's CG; against 1e-12, the loop at
        # the default tol makes the same passes, the field is one CG call
        # of one iteration, and t_max moves by less than 1e-7 K
        assembly = assembly()
        grid = build_grid(assembly, resolution)
        flow = cp.FlowCondition(velocity, FLOW.inlet_temperature)
        calls, runs = record_cg(monkeypatch), []
        for tol in (1e-12, fv.SolverSettings.tol):
            start = len(calls)
            runs.append((solve(grid, water, flow, assembly.plate.material,
                               tol=tol), calls[start:]))
        (tight, tight_calls), (sol, calls) = runs
        assert sol.iterations == tight.iterations
        assert abs(sol.t_max - tight.t_max) <= 1e-7
        assert [c[3] for c in calls] == [c[3] for c in tight_calls] == [1]
        assert sol.residual <= fv.SolverSettings.tol
        assert abs(sol.energy_imbalance) <= 1e-6 * grid.total_power

    @pytest.mark.parametrize("grid", GRIDS)
    def test_matches_direct_solve(self, grid, water, monkeypatch):
        calls = record_cg(monkeypatch)
        grid = grid()
        copper = cp.get_material("copper")
        solve(grid, water, FLOW, copper, tol=1e-12)
        h = (cp.heat_transfer_coefficient(water, grid.shape, 1.1)
             if grid.n_channels else 0.0)
        _, rhs, temp, _ = calls[-1]
        direct = spsolve(coo_assembly(grid, copper, h)[0].tocsc(), rhs)
        assert np.max(np.abs(temp - direct)) <= 1e-9

    @pytest.mark.parametrize("grid", GRIDS)
    def test_matches_physical_picard(self, grid, water):
        # the Picard loop in physical space, each pass a direct solve of
        # the COO reference's system: the same passes, and the same
        # coolant to 1e-9 K
        grid = grid()
        copper = cp.get_material("copper")
        sol = solve(grid, water, FLOW, copper)
        n_ch, inlet = grid.n_channels, FLOW.inlet_temperature
        h = m_dot = 0.0
        if n_ch:
            h = cp.heat_transfer_coefficient(water, grid.shape, 1.1)
            m_dot = water.density * 1.1 * cp.cross_section_area(grid.shape)
        matrix, _, rhs_fixed, face_cell, face_ua, face_sink = coo_assembly(
            grid, copper, h)
        matrix = matrix.tocsc()
        t_sink = np.full((n_ch + 1, grid.nx + 1), inlet)
        for passes in range(1, fv._MAX_OUTER + 1):
            sink = t_sink.flat[face_sink]
            rhs = rhs_fixed.copy()
            np.add.at(rhs, face_cell, face_ua * sink)
            temp = spsolve(matrix, rhs)
            heat = np.bincount(face_sink, face_ua * (temp[face_cell] - sink),
                               minlength=t_sink.size).reshape(t_sink.shape)
            t_new = t_sink.copy()
            t_new[:n_ch, 1:] = inlet + np.cumsum(
                heat[:n_ch, :-1] / (m_dot * water.specific_heat), axis=1)
            change = np.max(np.abs(t_new - t_sink))
            t_sink = t_new
            if change < fv._FLUID_TOL:
                break
        assert sol.iterations == passes
        assert sol.coolant_profile.shape == (n_ch, grid.nx + 1)
        assert np.max(np.abs(sol.coolant_profile - t_sink[:n_ch]),
                      initial=0.0) <= 1e-9


class TestCg:
    @staticmethod
    def small_system(water):
        """The small plate's operator with the Jacobi preconditioner, under
        which CG takes many iterations."""
        grid = build_grid(small_assembly(), 1.5e-3)
        h = cp.heat_transfer_coefficient(water, grid.shape, 1.1)
        system = fv._assemble(grid, cp.get_material("copper"), h)
        op = system.operator
        diag = explicit(op).diagonal()
        rhs = system.rhs(np.full((grid.n_channels + 1, grid.nx + 1), 49.0))
        x0 = np.full(op.shape[0], 49.0)
        return op, lambda r: r / diag, rhs, x0

    def test_matches_scipy(self, water):
        op, precond, rhs, x0 = self.small_system(water)
        runs = []
        for cg, A, M, atol in (
                (fv.cg, op, precond, {}),
                (scipy_cg, LinearOperator(op.shape, matvec=op.__matmul__,
                                          dtype=float),
                 LinearOperator(op.shape, matvec=precond, dtype=float),
                 {"atol": 0.0})):
            # fv.cg iterates in its x0, so each solver starts from a copy
            count = []
            x, info = cg(A, rhs, x0=x0.copy(), rtol=1e-10, M=M,
                         maxiter=1000, callback=count.append, **atol)
            assert info == 0
            runs.append((x, len(count)))
        (ours, n_ours), (theirs, n_theirs) = runs
        assert n_ours == n_theirs > 0
        assert np.max(np.abs(ours - theirs)) <= 1e-10

    def test_iterates_in_x0(self, water):
        # no copy of the start: the caller's array holds the result
        op, precond, rhs, x0 = self.small_system(water)
        start = x0.copy()
        x, info = fv.cg(op, rhs, x0=x0, rtol=1e-10, M=precond, maxiter=1000)
        assert info == 0 and x is x0 and not np.array_equal(x, start)

    def test_zero_rhs_returns_it(self, water):
        op, precond, rhs, x0 = self.small_system(water)
        zero = np.zeros_like(rhs)
        x, info = fv.cg(op, zero, x0=x0, rtol=1e-10, M=precond, maxiter=10)
        assert x is zero and info == 0

    def test_maxiter_reported(self, water):
        op, precond, rhs, x0 = self.small_system(water)
        count = []
        _, info = fv.cg(op, rhs, x0=x0, rtol=1e-10, M=precond, maxiter=3,
                        callback=count.append)
        assert info == 3 and len(count) == 3

    def test_solve_calls_no_blas_reduction(self, small, water, monkeypatch):
        # threaded BLAS reductions spin every core on FV-sized vectors;
        # none may run inside a solve
        grid = build_grid(small, 1.5e-3)

        def blas(*args, **kwargs):
            raise AssertionError("BLAS reduction called")
        for name in ("dot", "vdot", "inner"):
            monkeypatch.setattr(np, name, blas)
        monkeypatch.setattr(np.linalg, "norm", blas)
        sol = solve(grid, water, FLOW, small.plate.material)
        assert abs(sol.energy_imbalance) <= 1e-6 * grid.total_power


class TestMeshStudy:
    def test_patch_slab_deltas_shrink(self, water):
        res = mesh_study(
            lambda r: make_slab_grid(0.08, 0.08, 0.01, r, 2e5, 2000.0,
                                     patch=(0.04, 0.04, 0.01, 0.01)),
            water, FLOW, cp.get_material("copper"),
            [0.008, 0.004, 0.002, 0.001])
        deltas = [row.delta for row in res.rows[1:]]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] < 0.5
        assert res.converged

    @staticmethod
    def study(assembly, water, resolutions):
        return mesh_study(lambda r: build_grid(assembly, r), water, FLOW,
                          assembly.plate.material, resolutions)

    def test_requires_three_resolutions(self, small, water):
        with pytest.raises(ValueError):
            self.study(small, water, [0.002, 0.001])

    def test_requires_descending(self, small, water):
        with pytest.raises(ValueError):
            self.study(small, water, [0.001, 0.002, 0.003])

    def test_grid_bound_fails_before_any_solve(self, small, water,
                                               monkeypatch):
        # every grid is built before the first solve, so a last size past
        # the grid bound costs no solve of the coarser sizes
        solves = []
        monkeypatch.setattr(fv, "solve", lambda *args, **kw: solves.append(1))
        with pytest.raises(ValueError, match="the limit is"):
            self.study(small, water, [2.5e-3, 2e-3, 1.5e-3, 1e-5])
        assert solves == []

    def test_same_grid_twice_refused_before_any_solve(self, small, water,
                                                      monkeypatch):
        # 2 mm and 1.999 mm both give 60 x 30 x 6 cells: a zero delta that
        # says nothing about convergence
        solves = []
        monkeypatch.setattr(fv, "solve", lambda *args, **kw: solves.append(1))
        with pytest.raises(ValueError, match=(
                r"^resolutions 0\.002 m and 0\.001999 m give the same "
                r"60 x 30 x 6 grid$")):
            self.study(small, water, [0.0025, 0.002, 0.001999])
        assert solves == []

    def test_assembly_ladder(self, small, water):
        res = self.study(small, water, [2.5e-3, 2e-3, 1.5e-3])
        assert res.rows[0].delta is None
        assert all(r.delta is not None for r in res.rows[1:])
        cells = [r.cells for r in res.rows]
        assert cells[0] < cells[1] < cells[2]
        doc = res.to_json()
        assert len(doc["rows"]) == 3 and isinstance(doc["converged"], bool)


class TestFieldOutput:
    def test_structured_points_format(self, water, tmp_path):
        grid, sol = slab_solution(0.004)
        path = tmp_path / "field.txt"
        write_structured_points(sol, grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[3] == "DATASET STRUCTURED_POINTS"
        assert lines[4] == (
            f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} {grid.nz + 1}")
        assert lines[7] == f"CELL_DATA {grid.cell_count}"
        assert len(lines) == 10 + grid.cell_count
        # every value reads back to its float64, x fastest
        values = np.loadtxt(path, skiprows=10)
        order = np.transpose(sol.temperature, (2, 1, 0)).ravel()
        assert np.array_equal(values.view(np.uint64), order.view(np.uint64))

    def test_byte_stable(self, water, tmp_path):
        grid, sol = slab_solution(0.004)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_structured_points(sol, grid, a)
        write_structured_points(sol, grid, b)
        assert a.read_bytes() == b.read_bytes()


def spelt(field: np.ndarray) -> bytes:
    """The field writer's bytes for a (nx, ny, nz) array."""
    fh = io.BytesIO()
    fv._write_field(fh, field)
    return fh.getvalue()


def oracle(values) -> bytes:
    """Python's own spelling of each value, in order."""
    return "".join("% .16e\n" % v for v in np.ravel(values).tolist()).encode()


# any float64: drawn as a float, as a bit pattern, or in the range the
# writer spells itself
_FLOAT64 = (st.floats(allow_subnormal=True)
            | st.integers(0, 2**64 - 1).map(
                lambda bits: float(np.uint64(bits).view(np.float64)))
            | st.floats(1e-5, 1e16))


class TestFieldSpelling:
    """The field writer against "% .16e" % v, its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_FLOAT64, max_size=60))
    def test_any_float64(self, values):
        values = np.array(values, dtype=np.float64)
        assert spelt(values.reshape(-1, 1, 1)) == oracle(values)

    def test_edge_values(self):
        powers = np.array([float(f"1e{k}") for k in range(-6, 17)])
        neighbours = [powers]
        for toward in (0.0, math.inf):
            step = powers
            for _ in range(20):
                step = np.nextafter(step, toward)
                neighbours.append(step)
        values = np.concatenate(neighbours + [np.array([
            0.0, 5e-324, 2.2250738585072014e-308, math.nan, math.inf,
            1e-300, 1e300, 1.7976931348623157e308, 9.999999999999998e15,
            2.0**53, 54.390322314085246,
            # halfway between two 17-digit spellings: ties go to even
            1e15 + 0.25, 1e15 + 0.75, 2e15 + 0.25, 1e14 + 0.125])])
        values = np.concatenate([values, -values])
        assert spelt(values.reshape(-1, 1, 1)) == oracle(values)
        assert spelt(np.array([54.390322314085246]).reshape(1, 1, 1)) == (
            b" 5.4390322314085246e+01\n")

    @pytest.mark.parametrize("size", [
        0, 1, fv._CHUNK - 1, fv._CHUNK, fv._CHUNK + 1, 3 * fv._CHUNK + 7])
    def test_chunk_boundaries(self, size):
        rng = np.random.default_rng(size)
        values = rng.uniform(-100.0, 100.0, size)
        # values spelt by "% .16e" itself on both sides of the boundaries
        values[[i for i in (0, fv._CHUNK - 1, fv._CHUNK, size - 1)
                if 0 <= i < size]] = 0.0
        body = spelt(values.reshape(-1, 1, 1))
        assert body == oracle(values)
        assert len(body) == 24 * size

    def test_cell_order(self):
        # x fastest, then y, then z, in chunks that span several z planes
        field = np.random.default_rng(0).uniform(40.0, 90.0, (7, 11, 300))
        assert spelt(field) == oracle(np.transpose(field, (2, 1, 0)))

    def test_peak_memory_per_chunk(self):
        # the writer holds one chunk of records and its temporaries, never
        # a copy of the field: 1.33 MB measured at _CHUNK = 2**13, plus 10%
        def peak(shape):
            field = np.random.default_rng(1).uniform(40.0, 90.0, shape)
            with open(os.devnull, "wb") as fh:
                tracemalloc.start()
                try:
                    fv._write_field(fh, field)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        small = peak((16, 32, 64))          # 4 chunks
        large = peak((16, 32, 640))         # 40 chunks
        primary = peak((240, 95, 9))        # primary_side at 2 mm
        # one byte per cell more over 36 more chunks would add 22%
        assert large <= 1.05 * small
        assert primary <= 1.46e6
