"""Steady 3D finite-volume conduction in the plate, coupled to a 1D
coolant energy march.

Uniform Cartesian cells; channels are rasterized as void cells (stair-step)
and every solid face adjacent to a void cell gets a Robin condition against
the local coolant bulk temperature. The film coefficient is rescaled per
channel so that h * (voxelized wetted area) equals h * (analytic wetted
area), which keeps the total convective conductance independent of the
rasterization. Exterior faces are adiabatic except where die footprints
impose heat flux, and except for an optional exterior convective face
against fluid held at the inlet temperature (slab verification cases).

Every convective face, channel wall or exterior, is one row of a single
table (cell, U*A, sink). The sink indexes one array of fluid
temperatures: a row per channel, re-marched each outer iteration from the
heat its faces remove, plus a last row fixed at the inlet temperature.

The linear system is symmetric positive definite and is solved by
conjugate gradients with a two-level aggregation preconditioner (Vanek,
Mandel & Brezina, Computing 1996): damped-Jacobi smoothing around an exact
coarse solve on aggregates of 2x2 cell columns through the full thickness.
The contract is the residual tolerance, not the method.

The CG loop is this module's own (`cg`), with scipy's algorithm and
stopping rule. Its dot products and norms avoid BLAS: on vectors of a few
hundred thousand entries a threaded BLAS `ddot` spins every core for each
call, which doubled the CPU time of a solve and left nothing for the
sweep thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from . import thermal
from .geometry import (Assembly, ChannelShape, Semicircular, channel_depth,
                       cross_section_area, validate, wetted_perimeter)
from .hydraulics import FlowCondition
from .properties import CoolantProps, SolidMaterial

_SUBSAMPLE = 4  # per-axis samples for rasterization; even count keeps
                # samples off the cell midlines


class GridResolutionError(ValueError):
    """Resolution cannot resolve the cover between channels and surface."""


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual_history: list[float]):
        super().__init__(message)
        self.residual_history = residual_history


@dataclass(frozen=True)
class SolverSettings:
    """Settings of every FV solve of a run: the config's `solver` section."""
    resolution: float = 2e-3   # m, target cell size
    tol: float = 1e-8          # relative residual of each linear solve
    max_iters: int = 20000     # CG iterations per linear solve


@dataclass(frozen=True)
class ChannelInfo:
    index: int
    y_center: float  # m
    row: str         # "top" | "bottom"
    area: float      # analytic flow area, m^2
    perimeter: float  # analytic wetted perimeter, m


@dataclass
class Grid:
    nx: int
    ny: int
    nz: int
    dx: float
    dy: float
    dz: float
    void: np.ndarray         # bool (nx, ny, nz)
    channel_id: np.ndarray   # int (nx, ny, nz), -1 for solid
    channels: tuple[ChannelInfo, ...]
    flux_top: np.ndarray     # (nx, ny) W/m^2 on the exterior top face
    flux_bottom: np.ndarray  # (nx, ny) W/m^2 on the exterior bottom face
    shape: ChannelShape | None = None
    # (face, h) for slab-style cases: "top" or "bottom" exterior face
    # convecting to fluid held at the flow inlet temperature
    exterior_convection: tuple[str, float] | None = None

    @property
    def cell_count(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def total_power(self) -> float:
        area = self.dx * self.dy
        return float((self.flux_top.sum() + self.flux_bottom.sum()) * area)


@dataclass
class FvSolution:
    temperature: np.ndarray       # (nx, ny, nz) deg C; coolant temp in voids
    t_max: float                  # deg C, surface-corrected
    coolant_profile: np.ndarray   # (n_channels, nx + 1) deg C
    residual: float               # final relative linear residual
    iterations: int               # outer fluid-coupling iterations
    energy_imbalance: float       # W, imposed minus removed

    def to_json(self) -> dict:
        return {
            "t_max_C": self.t_max,
            "residual": self.residual,
            "iterations": self.iterations,
            "energy_imbalance_W": self.energy_imbalance,
            "coolant_outlet_C": [float(p[-1]) for p in self.coolant_profile],
        }


# --------------------------------------------------------------------------
# grid construction

def _channel_cross_section(shape: ChannelShape, row: str, y_center: float,
                           cover: float, thickness: float):
    """Return an inside(y, z) predicate for one channel's cross-section."""
    depth = channel_depth(shape)
    if row == "top":
        z_flat = thickness - cover      # flat side toward the top face
    else:
        z_flat = cover
    if isinstance(shape, Semicircular):
        r2 = shape.radius**2

        def inside(y, z):
            dzs = z_flat - z if row == "top" else z - z_flat
            return (dzs >= 0.0) & ((y - y_center)**2 + dzs**2 <= r2)
    else:
        half_w = shape.width / 2.0

        def inside(y, z):
            if row == "top":
                in_z = (z <= z_flat) & (z >= z_flat - depth)
            else:
                in_z = (z >= z_flat) & (z <= z_flat + depth)
            return in_z & (np.abs(y - y_center) <= half_w)
    return inside


def build_grid(assembly: Assembly, resolution: float) -> Grid:
    """Voxelize the assembly at a target cell size.

    A cell becomes channel void when more than half of a 4x4 sample of its
    cross-section lies inside the channel. Die powers are renormalized over
    the exterior faces they cover so the imposed power is conserved exactly.
    """
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    violations = validate(assembly)
    if violations:
        raise ValueError("invalid assembly: " + "; ".join(violations))

    plate, layout = assembly.plate, assembly.layout
    nx = max(2, round(plate.length / resolution))
    ny = max(2, round(plate.width / resolution))
    nz = max(2, round(plate.thickness / resolution))
    dx, dy, dz = plate.length / nx, plate.width / ny, plate.thickness / nz

    void = np.zeros((nx, ny, nz), dtype=bool)
    channel_id = np.full((nx, ny, nz), -1, dtype=np.int32)

    shape = layout.shape
    rows = ["top"] if layout.rows == 1 else ["bottom", "top"]
    y_centers = assembly.channel_y_centers()
    channels = []

    # symmetric sample offsets within a cell
    offs = (np.arange(_SUBSAMPLE) + 0.5) / _SUBSAMPLE - 0.5
    yc_cell = (np.arange(ny) + 0.5) * dy
    zc_cell = (np.arange(nz) + 0.5) * dz
    ys = (yc_cell[:, None, None, None] + offs[None, None, :, None] * dy)
    zs = (zc_cell[None, :, None, None] + offs[None, None, None, :] * dz)

    index = 0
    for row in rows:
        for y_center in y_centers:
            inside = _channel_cross_section(shape, row, y_center,
                                            layout.cover_thickness,
                                            plate.thickness)
            frac = inside(ys, zs).mean(axis=(2, 3))  # (ny, nz)
            # strictly more than half inside: half-covered cells stay solid,
            # which keeps a fully-covered cover layer solid
            mask = frac > 0.5
            if not mask.any():
                raise GridResolutionError(
                    f"resolution {resolution} m cannot resolve channel at "
                    f"y = {y_center * 1e3:.2f} mm")
            void[:, mask] = True
            channel_id[:, mask] = index
            channels.append(ChannelInfo(
                index=index, y_center=y_center, row=row,
                area=cross_section_area(shape),
                perimeter=wetted_perimeter(shape)))
            index += 1

    if void[:, :, 0].any() or void[:, :, -1].any():
        raise GridResolutionError(
            "resolution too coarse to resolve cover_thickness: channel void "
            "reaches an exterior cell layer")

    flux_top = np.zeros((nx, ny))
    flux_bottom = np.zeros((nx, ny))
    xc = (np.arange(nx) + 0.5) * dx
    yc = (np.arange(ny) + 0.5) * dy
    face_area = dx * dy
    for mod in assembly.modules:
        target = flux_top if mod.face == "top" else flux_bottom
        for die in mod.dies:
            if die.power == 0:
                continue
            cx, cy = die.center
            fx, fy = die.footprint
            in_x = np.abs(xc - cx) <= fx / 2.0 + 1e-12
            in_y = np.abs(yc - cy) <= fy / 2.0 + 1e-12
            cells = np.outer(in_x, in_y)
            n = int(cells.sum())
            if n == 0:
                # die smaller than a cell: deposit on the nearest face
                i = int(np.argmin(np.abs(xc - cx)))
                j = int(np.argmin(np.abs(yc - cy)))
                cells = np.zeros((nx, ny), dtype=bool)
                cells[i, j] = True
                n = 1
            target[cells] += die.power / (n * face_area)

    return Grid(nx=nx, ny=ny, nz=nz, dx=dx, dy=dy, dz=dz, void=void,
                channel_id=channel_id, channels=tuple(channels),
                flux_top=flux_top, flux_bottom=flux_bottom, shape=shape)


def make_slab_grid(length: float, width: float, thickness: float,
                   resolution: float, flux_top: float, h_bottom: float,
                   patch: tuple[float, float, float, float] | None = None,
                   ) -> Grid:
    """All-solid slab with top heat flux and a convective bottom face at
    the flow inlet temperature; verification oracle geometry.

    With patch=(cx, cy, dx, dy) the flux is confined to that footprint
    (flux_top then being the total power over the patch area), which
    introduces real spreading and therefore real discretization error.
    """
    nx = max(2, round(length / resolution))
    ny = max(2, round(width / resolution))
    nz = max(2, round(thickness / resolution))
    dx, dy = length / nx, width / ny
    if patch is None:
        top = np.full((nx, ny), flux_top)
    else:
        cx, cy, pdx, pdy = patch
        xc = (np.arange(nx) + 0.5) * dx
        yc = (np.arange(ny) + 0.5) * dy
        cells = np.outer(np.abs(xc - cx) <= pdx / 2.0 + 1e-12,
                         np.abs(yc - cy) <= pdy / 2.0 + 1e-12)
        top = np.zeros((nx, ny))
        # renormalize so the imposed power is resolution-independent
        power = flux_top * pdx * pdy
        top[cells] = power / (cells.sum() * dx * dy)
    return Grid(
        nx=nx, ny=ny, nz=nz,
        dx=dx, dy=dy, dz=thickness / nz,
        void=np.zeros((nx, ny, nz), dtype=bool),
        channel_id=np.full((nx, ny, nz), -1, dtype=np.int32),
        channels=(),
        flux_top=top,
        flux_bottom=np.zeros((nx, ny)),
        shape=None,
        exterior_convection=("bottom", h_bottom))


# --------------------------------------------------------------------------
# solver

def _film(d: float, k: float, h):
    """Half-cell conduction in series with the film, W/(m^2*K)."""
    return 1.0 / (d / (2.0 * k) + 1.0 / h)


def _shifted(axis: int):
    """Slices picking the low and high cell of every interior face."""
    lo, hi = [slice(None)] * 3, [slice(None)] * 3
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    return tuple(lo), tuple(hi)


@dataclass
class _System:
    matrix: object            # csr
    diag: np.ndarray
    rhs_fixed: np.ndarray     # imposed exterior heat flux, W
    # convective face table, one row per Robin face
    face_cell: np.ndarray     # solid unknown index
    face_ua: np.ndarray       # U*A, W/K
    face_sink: np.ndarray     # flat index into the sink-temperature array
    n_unknowns: int
    index: np.ndarray         # (nx, ny, nz) -> unknown index or -1

    def face_heat(self, temp: np.ndarray, t_sink: np.ndarray) -> np.ndarray:
        """Heat leaving the solid through each convective face, W."""
        return self.face_ua * (temp[self.face_cell]
                               - t_sink.flat[self.face_sink])


def _assemble(grid: Grid, material: SolidMaterial, h: float) -> _System:
    """Build the conduction matrix and the convective face table, whose
    sinks index a (n_channels + 1, nx + 1) fluid-temperature array.
    h is the channel film coefficient."""
    k = material.thermal_conductivity
    solid = ~grid.void
    n = int(solid.sum())
    index = np.full(grid.void.shape, -1, dtype=np.int64)
    index[solid] = np.arange(n)
    n_ch = len(grid.channels)
    stations = grid.nx + 1
    spacing = (grid.dx, grid.dy, grid.dz)
    face_area = (grid.dy * grid.dz, grid.dx * grid.dz, grid.dx * grid.dy)

    # channel-wall faces per axis: (solid cell, channel, sink); the
    # station is the x index of the solid cell owning the face
    xidx = np.broadcast_to(np.arange(grid.nx)[:, None, None],
                           grid.void.shape)
    walls = []
    voxel_area = np.zeros(n_ch)
    for axis in range(3):
        blocks = []
        for solid_sl, void_sl in (_shifted(axis), _shifted(axis)[::-1]):
            m = solid[solid_sl] & grid.void[void_sl]
            ids = grid.channel_id[void_sl][m]
            np.add.at(voxel_area, ids, face_area[axis])
            blocks.append((index[solid_sl][m], ids,
                           ids * stations + xidx[solid_sl][m]))
        walls.append(blocks)

    # rescale h so h * (voxel wetted area) equals h * (analytic area)
    analytic = np.array([ch.perimeter * grid.nx * grid.dx
                         for ch in grid.channels])
    h_corr = h * analytic / voxel_area

    # per axis, conduction then that axis's wall faces; the order in which
    # the diagonal accumulates is part of the byte-stable output
    rows_l, cols_l, data_l = [], [], []
    diag = np.zeros(n)
    face_cell, face_ua, face_sink = [], [], []
    for axis in range(3):
        lo, hi = _shifted(axis)
        g = k * face_area[axis] / spacing[axis]
        both = solid[lo] & solid[hi]
        ia, ib = index[lo][both], index[hi][both]
        rows_l.extend((ia, ib))
        cols_l.extend((ib, ia))
        data_l.extend((np.full(ia.size, -g), np.full(ia.size, -g)))
        np.add.at(diag, ia, g)
        np.add.at(diag, ib, g)
        for cells, ids, sink in walls[axis]:
            ua = _film(spacing[axis], k, h_corr[ids]) * face_area[axis]
            np.add.at(diag, cells, ua)
            face_cell.append(cells)
            face_ua.append(ua)
            face_sink.append(sink)

    # optional exterior convective face (slab cases), last sink row
    if grid.exterior_convection is not None:
        face, h_ext = grid.exterior_convection
        layer = 0 if face == "bottom" else grid.nz - 1
        cells = index[:, :, layer][solid[:, :, layer]]
        ua = np.full(cells.size, _film(grid.dz, k, h_ext) * face_area[2])
        np.add.at(diag, cells, ua)
        face_cell.append(cells)
        face_ua.append(ua)
        face_sink.append(np.full(cells.size, n_ch * stations))
    face_cell = np.concatenate(face_cell)
    if n and not face_cell.size:
        raise ValueError("grid has no convective faces; the steady problem "
                         "is singular")

    # exterior top/bottom heat flux
    rhs_fixed = np.zeros(n)
    for layer, flux in ((grid.nz - 1, grid.flux_top), (0, grid.flux_bottom)):
        m = solid[:, :, layer] & (flux != 0.0)
        rhs_fixed[index[:, :, layer][m]] += flux[m] * face_area[2]

    rows = np.concatenate(rows_l + [np.arange(n)])
    cols = np.concatenate(cols_l + [np.arange(n)])
    data = np.concatenate(data_l + [diag])
    matrix = coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    return _System(matrix=matrix, diag=diag, rhs_fixed=rhs_fixed,
                   face_cell=face_cell, face_ua=np.concatenate(face_ua),
                   face_sink=np.concatenate(face_sink), n_unknowns=n,
                   index=index)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product by numpy's own summation loop; np.dot and
    np.linalg.norm call the BLAS ddot, which may spin a thread per core."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def cg(A, b, *, x0, rtol, atol, M, maxiter, callback=None):
    """Preconditioned conjugate gradients for a symmetric positive definite
    A, with M(r) applying the preconditioner.

    Same algorithm and stopping rule as scipy.sparse.linalg.cg: stop when
    the recurrence residual norm is below max(rtol * |b|, atol). Returns
    (x, 0) on convergence, (x, -1) as soon as |b| or the residual norm is
    not finite (an overflow no later iterate recovers from), and
    (x, maxiter) otherwise; callback(x) runs after every iteration.
    """
    bnorm = _norm(b)
    if bnorm == 0:
        return b, 0
    stop = max(atol, rtol * bnorm)
    x = np.array(x0, dtype=float)
    r = b - A @ x if x.any() else b.copy()
    p = rho_prev = None
    for _ in range(maxiter):
        if not math.isfinite(rnorm := _norm(r)):  # or |b| is not finite
            return x, -1
        if rnorm < stop:
            return x, 0
        z = M(r)
        rho = _dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = A @ p
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def _two_level(system: _System, grid: Grid):
    """Symmetric two-level preconditioner for CG, as a function r -> M r.

    Aggregates are the solid cells of each 2x2 block of (x, y) cell
    columns, through the full thickness. The Galerkin coarse matrix
    P^T A P (P the aggregate indicator) is summed straight from the CSR
    arrays and factored once, which serves every outer pass because A does
    not change between them.
    """
    a = system.matrix
    ii, jj, _ = np.nonzero(~grid.void)
    blocks, agg = np.unique((ii // 2) * grid.ny + jj // 2,
                            return_inverse=True)
    nc = blocks.size
    coarse = splu(coo_matrix(
        (a.data, (np.repeat(agg, np.diff(a.indptr)), agg[a.indices])),
        shape=(nc, nc)).tocsc())
    smooth = (2.0 / 3.0) / system.diag  # damped Jacobi, omega = 2/3

    def apply(r):
        x = smooth * r
        x += coarse.solve(np.bincount(agg, r - a @ x, minlength=nc))[agg]
        x += smooth * (r - a @ x)
        return x
    return apply


def solve(grid: Grid, coolant: CoolantProps, flow: FlowCondition,
          material: SolidMaterial, tol: float = SolverSettings.tol,
          max_iters: int = SolverSettings.max_iters, fluid_tol: float = 1e-3,
          max_outer: int = 100) -> FvSolution:
    """Solve the coupled solid-conduction / coolant-march problem."""
    n_ch = len(grid.channels)
    if n_ch and not flow.inlet_velocity > 0:  # also rejects NaN
        raise ValueError("inlet velocity must be > 0 with channels present")
    h = (thermal.heat_transfer_coefficient(coolant, grid.shape,
                                           flow.inlet_velocity)
         if n_ch else 0.0)
    m_dot = coolant.density * flow.inlet_velocity * np.array(
        [ch.area for ch in grid.channels])

    system = _assemble(grid, material, h)
    if not np.all(np.isfinite(system.diag)):
        raise ValueError("non-finite conductance in the FV system; check "
                         "material, coolant and flow inputs")
    inlet = flow.inlet_temperature
    t_sink = np.full((n_ch + 1, grid.nx + 1), inlet)
    temp = np.full(system.n_unknowns, inlet)
    precond = _two_level(system, grid)

    residuals: list[float] = []
    outer = 0
    while True:
        outer += 1
        rhs = system.rhs_fixed.copy()
        np.add.at(rhs, system.face_cell,
                  system.face_ua * t_sink.flat[system.face_sink])
        temp, info = cg(system.matrix, rhs, x0=temp, rtol=tol, atol=0.0,
                        M=precond, maxiter=max_iters)
        rnorm = _norm(system.matrix @ temp - rhs)
        bnorm = _norm(rhs)
        rel = rnorm / bnorm if bnorm > 0 else 0.0
        residuals.append(rel)
        if info != 0:
            raise ConvergenceError(
                "linear solve stopped: the residual is not finite" if info < 0
                else f"linear solve did not reach tol {tol} in {max_iters} "
                f"iterations (residual {rel:.3e})", residuals)

        if not n_ch:
            break
        # wall heat per sink, then re-march the channel rows
        q_sink = np.bincount(system.face_sink,
                             system.face_heat(temp, t_sink),
                             minlength=t_sink.size).reshape(t_sink.shape)
        rise = q_sink[:n_ch, :-1] / (m_dot[:, None] * coolant.specific_heat)
        t_new = t_sink.copy()
        t_new[:n_ch, 1:] = inlet + np.cumsum(rise, axis=1)
        change = float(np.max(np.abs(t_new - t_sink)))
        t_sink = t_new
        if change < fluid_tol:
            break
        if outer >= max_outer:
            raise ConvergenceError(
                f"coolant march did not converge in {max_outer} outer "
                f"iterations (last change {change:.3e} K)", residuals)

    imbalance = grid.total_power - float(np.sum(
        system.face_heat(temp, t_sink)))

    # field with the sink temperature of each void cell's station
    solid = ~grid.void
    field3d = np.empty(grid.void.shape)
    field3d[solid] = temp
    field3d[grid.void] = t_sink[grid.channel_id[grid.void],
                                np.nonzero(grid.void)[0]]

    # surface extrapolation under imposed flux
    k = material.thermal_conductivity
    t_max = float(np.max(temp))
    for layer, flux in ((grid.nz - 1, grid.flux_top), (0, grid.flux_bottom)):
        m = solid[:, :, layer] & (flux > 0.0)
        if m.any():
            cells = system.index[:, :, layer][m]
            surf = temp[cells] + flux[m] * grid.dz / (2.0 * k)
            t_max = max(t_max, float(surf.max()))

    return FvSolution(
        temperature=field3d,
        t_max=t_max,
        coolant_profile=t_sink[:n_ch],
        residual=residuals[-1],
        iterations=outer,
        energy_imbalance=imbalance)


# --------------------------------------------------------------------------
# mesh-independence harness

@dataclass(frozen=True)
class MeshStudyRow:
    cells: int
    t_max: float       # deg C
    delta: float | None  # K, |change| vs previous row


@dataclass(frozen=True)
class MeshStudyResult:
    rows: tuple[MeshStudyRow, ...]
    converged: bool  # final successive delta < 0.5 K

    def to_json(self) -> dict:
        return {
            "rows": [{"cells": r.cells, "t_max_C": r.t_max,
                      "delta_K": r.delta} for r in self.rows],
            "converged": self.converged,
        }


MESH_CONVERGENCE_DELTA_K = 0.5


def mesh_study(grid_builder, coolant: CoolantProps, flow: FlowCondition,
               material: SolidMaterial, resolutions: list[float],
               solver: SolverSettings = SolverSettings()) -> MeshStudyResult:
    """Solve at a descending list of cell sizes and tabulate t_max deltas.

    grid_builder(resolution) -> Grid voxelizes the case at each size; the
    resolutions take the place of solver.resolution.
    """
    if len(resolutions) < 3:
        raise ValueError("mesh study needs at least 3 resolutions")
    if any(b >= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must be strictly descending")

    rows = []
    for res in resolutions:
        grid = grid_builder(res)
        t_max = solve(grid, coolant, flow, material, tol=solver.tol,
                      max_iters=solver.max_iters).t_max
        delta = abs(t_max - rows[-1].t_max) if rows else None
        rows.append(MeshStudyRow(cells=grid.cell_count, t_max=t_max,
                                 delta=delta))
    return MeshStudyResult(rows=tuple(rows),
                           converged=rows[-1].delta < MESH_CONVERGENCE_DELTA_K)


# --------------------------------------------------------------------------
# field output

def write_structured_points(solution: FvSolution, grid: Grid, path) -> None:
    """Dump the cell-centered temperature field in legacy structured-points
    text format (one scalar, no timestamps; byte-stable for a given run)."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("cold plate temperature field\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} {grid.nz + 1}\n")
        fh.write("ORIGIN 0 0 0\n")
        fh.write(f"SPACING {grid.dx!r} {grid.dy!r} {grid.dz!r}\n")
        fh.write(f"CELL_DATA {grid.cell_count}\n")
        fh.write("SCALARS temperature_C double\n")
        fh.write("LOOKUP_TABLE default\n")
        # VTK cell order: x fastest, then y, then z
        values = np.transpose(solution.temperature, (2, 1, 0)).ravel()
        for v in values:
            fh.write(f"{float(v)!r}\n")
