"""Steady 3D finite-volume conduction in the plate, coupled to a 1D
coolant energy march.

Uniform Cartesian cells; channels are rasterized as void cells
(stair-step). One lookup through each stencil slot classes every face of
a solid cell: a solid neighbour makes it a conduction link, a void one a
channel wall with a Robin condition against the local coolant bulk
temperature, and none an exterior face. The film coefficient is rescaled
per channel so that h * (voxelized wetted area) equals h * (analytic
wetted area), which keeps the total convective conductance independent of
the rasterization. Exterior faces are adiabatic except where die
footprints impose heat flux, and except for an optional convective bottom
face against fluid held at the inlet temperature (slab verification
cases).

Every convective face, channel wall or exterior, is one row of a single
table (cell, U*A, sink). The sink indexes one array of fluid
temperatures: a row per channel, re-marched each outer iteration from the
heat its faces remove, plus a last row fixed at the inlet temperature.

What depends on the grid alone is built once per grid, by its first
solve, and every later solve on the grid references it (`_Structure`): the
CSR row starts and columns, a 7-bit mask per unknown of the stencil slots
that hold a column, the face table's cells and sinks, the voxelized wetted
area per channel, the imposed heat flux and the aggregate map. The grid's
lock makes a solve that asks while another builds it wait for that one.
Each solve builds what depends on the velocity or the material: the
diagonal, each face's U*A, the matrix values, A P, the coarse factor and
Q. A grid is not changed after its first solve, and keeps its structure
until it is dropped.

The outer (Picard) loop solves the conduction system against the sink
temperatures, re-marches the coolant, and stops once no sink temperature
changed by _FLUID_TOL or more. A pass that does not end the loop only
feeds the march, so its solve stops at _PASS_TOL_FACTOR x tol: holding it
to tol would be oversolving in the sense of inexact Newton methods (Dembo,
Eisenstat & Steihaug, SIAM J. Numer. Anal. 1982). When a pass's coolant
change falls below _FLUID_TOL, CG continues from that pass's field on the
same right-hand side to tol, and the loop stops only if the coolant
re-marched from that field still changes by less than _FLUID_TOL. So the
returned field, and its residual, are held to tol. A factor of 100 moved
t_max at the perfbench reference points by at most 5.2e-8 K from every
pass held to tol; 1000 moved one by 5.2e-7 K, too near their 1e-6 K gate.

The linear system is symmetric positive definite and is solved by
conjugate gradients with a two-level aggregation preconditioner (Vanek,
Mandel & Brezina, Computing 1996): damped-Jacobi smoothing with weight
0.9 around an exact coarse solve on aggregates of 4x4 cell columns, split
through the thickness into slabs 3 cells deep. The weight must stay below
1 for the preconditioner to be SPD (D^-1 A has eigenvalues up to 2, and
near 2 on the grid's checkerboard mode). The aggregation is plain, not
smoothed: a smoothed prolongator was measured with no gain (one or two CG
iterations fewer, a third more time per first pass). Each apply costs one
full mat-vec; the post-smoothing is fused into one sparse product with the
precomputed P - S A P, whose rows have a few non-zeros. A P is a sparse
product, which leaves out its exact zeros. The contract is the residual
tolerance, not the method.

The CG loop is this module's own (`cg`), with scipy's algorithm and
stopping rule. Its dot products and norms avoid BLAS: on vectors of a few
hundred thousand entries a threaded BLAS `ddot` spins every core for each
call, which doubled the CPU time of a solve and left nothing for the
sweep thread pool.

CG runs in a fixed working set: x (the caller's start vector, updated in
place), r and p live across an iteration, and one scratch vector holds
A p, then alpha A p and alpha p, so the updates allocate nothing and round
as r -= alpha * q and x += alpha * p do. The first preconditioner output
becomes p without a copy. An apply holds one
vector of its own, the residual written into its mat-vec's output, and
one transient at a time; it restricts with np.bincount over the
aggregate map rather than a stored P^T, which sums each aggregate's cells
in the same order and so gives the same bits. The relative residual
|A x - b| / |b| is recomputed only for the returned field and for a CG
call that did not converge.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

from . import thermal
from .geometry import (Assembly, ChannelShape, Semicircular,
                       cross_section_area, validate, wetted_perimeter)
from .hydraulics import FlowCondition
from .properties import CoolantProps, SolidMaterial

_SUBSAMPLE = 4  # per-axis samples for rasterization; even count keeps
                # samples off the cell midlines
# Largest grid built. The tracemalloc peak of one solve is 195 B per cell
# on primary_side at 2 mm and 190 on secondary_side at 1.5 mm; its peak
# RSS growth (VmHWM in a fresh process, less after build_grid), which
# counts SuperLU's factor, is 225 and 223 there and 246 on primary_side
# at 1.0 mm. So 1e7 cells take about 2.0 GB by the first, 2.5 GB by RSS.
_MAX_CELLS = 10**7
_FLUID_TOL = 1e-3  # K, largest coolant temperature change of a converged pass
_MAX_OUTER = 100   # outer fluid-coupling passes before giving up
# each outer pass's CG stops at this multiple of tol; only the pass that
# ends the loop is finished to tol (see the module docstring)
_PASS_TOL_FACTOR = 100
# coarse aggregates of the preconditioner: blocks of _AGG_COLUMNS x
# _AGG_COLUMNS (x, y) cell columns, _AGG_LAYERS cells deep; on isotropic
# cells, splitting the thickness is what cuts the CG iterations
_AGG_COLUMNS = 4
_AGG_LAYERS = 3
# damped-Jacobi weight of the preconditioner's smoother; below 1 keeps it SPD
# (see _two_level), and 0.9 took 13% fewer CG iterations than 2/3
_SMOOTH_WEIGHT = 0.9


class GridResolutionError(ValueError):
    """Resolution cannot resolve the cover between channels and surface."""


class ConvergenceError(RuntimeError):
    """A linear solve or the coolant march did not converge."""


@dataclass(frozen=True)
class SolverSettings:
    """Settings of every FV solve of a run: the config's `solver` section."""
    resolution: float = 2e-3   # m, target cell size
    # relative residual of the returned field; each outer pass's solve
    # first stops at _PASS_TOL_FACTOR times it
    tol: float = 1e-8
    max_iters: int = 20000     # iterations of each CG call


@dataclass
class Grid:
    nx: int
    ny: int
    nz: int
    dx: float
    dy: float
    dz: float
    channel_id: np.ndarray   # int (nx, ny, nz), -1 for solid
    n_channels: int          # each of cross-section `shape`
    flux_top: np.ndarray     # (nx, ny) W/m^2 on the exterior top face
    flux_bottom: np.ndarray  # (nx, ny) W/m^2 on the exterior bottom face
    shape: ChannelShape | None = None
    # film coefficient of the exterior bottom face, W/(m^2*K), convecting
    # to fluid held at the flow inlet temperature (slab cases)
    h_bottom: float | None = None
    # what the solver takes from the grid alone, built by the first solve
    # on it (see `_structure`); the grid is not changed after that
    _structure: _Structure | None = field(
        default=None, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False)

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

def _inside_channel(shape: ChannelShape, y, s):
    """Which points lie inside a channel's cross-section, at y across the
    plate from its centerline and depth s below its flat side."""
    if isinstance(shape, Semicircular):
        return (s >= 0.0) & (y**2 + s**2 <= shape.radius**2)
    return (s >= 0.0) & (s <= shape.height) & (np.abs(y) <= shape.width / 2.0)


def _cells(extent: tuple[float, float, float], resolution: float):
    """Cell counts (at least 2 per axis) and cell sizes of a box gridded at
    a target cell size. Raises before any array exists when the grid would
    have more than _MAX_CELLS cells."""
    if not resolution > 0:
        raise ValueError("resolution must be > 0")
    # an axis at or above the bound needs no rounding, which would fail on
    # the infinite ratio of a subnormal resolution
    counts = [max(2, round(r)) if r < _MAX_CELLS else r
              for r in (e / resolution for e in extent)]
    if (cells := math.prod(counts)) > _MAX_CELLS:
        raise ValueError(f"resolution {resolution!r} m gives {cells:.3g} "
                         f"cells; the limit is {_MAX_CELLS:.0e}")
    return counts, [e / n for e, n in zip(extent, counts)]


def _deposit(flux: np.ndarray, dx: float, dy: float,
             center: tuple[float, float], footprint: tuple[float, float],
             power: float) -> None:
    """Add a footprint's power to an exterior flux map, spread evenly over
    the faces whose cell centers it covers, or on the nearest face when it
    covers no cell center, so the imposed power is resolution-independent."""
    xc = (np.arange(flux.shape[0]) + 0.5) * dx
    yc = (np.arange(flux.shape[1]) + 0.5) * dy
    (cx, cy), (fx, fy) = center, footprint
    cells = np.outer(np.abs(xc - cx) <= fx / 2.0 + 1e-12,
                     np.abs(yc - cy) <= fy / 2.0 + 1e-12)
    n = int(cells.sum())
    if n == 0:
        cells[np.argmin(np.abs(xc - cx)), np.argmin(np.abs(yc - cy))] = True
        n = 1
    flux[cells] += power / (n * (dx * dy))


def build_grid(assembly: Assembly, resolution: float) -> Grid:
    """Voxelize the assembly at a target cell size.

    A cell becomes channel void when more than half of a 4x4 sample of its
    cross-section lies inside the channel. Die powers are renormalized over
    the exterior faces they cover so the imposed power is conserved exactly.
    """
    plate, layout = assembly.plate, assembly.layout
    (nx, ny, nz), (dx, dy, dz) = _cells(
        (plate.length, plate.width, plate.thickness), resolution)
    violations = validate(assembly)
    if violations:
        raise ValueError("invalid assembly: " + "; ".join(violations))
    # the voids and the wetted area run through all nx cells
    if abs(layout.channel_length - plate.length) > 1e-12:
        raise ValueError(f"the FV grid needs channels as long as the plate: "
                         f"channel_length {layout.channel_length!r} m, plate "
                         f"length {plate.length!r} m")

    channel_id = np.full((nx, ny, nz), -1, dtype=np.int32)

    # symmetric sample offsets within a cell
    offs = (np.arange(_SUBSAMPLE) + 0.5) / _SUBSAMPLE - 0.5
    yc_cell = (np.arange(ny) + 0.5) * dy
    zc_cell = (np.arange(nz) + 0.5) * dz
    ys = (yc_cell[:, None, None, None] + offs[None, None, :, None] * dy)
    zs = (zc_cell[None, :, None, None] + offs[None, None, None, :] * dz)
    # each sample's depth below the flat side of a row's channels; the
    # samples are symmetric through the thickness, so the bottom row's
    # reversed are the top row's, its exact mirror. One row is a top row.
    bottom = zs - layout.cover_thickness
    top = bottom[:, ::-1, :, ::-1]
    depths = [top] if layout.rows == 1 else [bottom, top]
    channels = [(s, y) for s in depths for y in assembly.channel_y_centers()]

    for channel, (s, y_center) in enumerate(channels):
        inside = _inside_channel(layout.shape, ys - y_center, s)
        # strictly more than half inside: half-covered cells stay solid,
        # which keeps a fully-covered cover layer solid
        mask = inside.mean(axis=(2, 3)) > 0.5  # (ny, nz)
        if not mask.any():
            raise GridResolutionError(
                f"resolution {resolution} m cannot resolve channel at "
                f"y = {y_center * 1e3:.2f} mm")
        channel_id[:, mask] = channel

    if (channel_id[:, :, [0, -1]] >= 0).any():
        raise GridResolutionError(
            "resolution too coarse to resolve cover_thickness: channel void "
            "reaches an exterior cell layer")

    flux = {face: np.zeros((nx, ny)) for face in ("top", "bottom")}
    for mod in assembly.modules:
        for die in mod.dies:
            _deposit(flux[mod.face], dx, dy, die.center, die.footprint,
                     die.power)

    return Grid(nx=nx, ny=ny, nz=nz, dx=dx, dy=dy, dz=dz,
                channel_id=channel_id, n_channels=len(channels),
                flux_top=flux["top"], flux_bottom=flux["bottom"],
                shape=layout.shape)


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
    (nx, ny, nz), (dx, dy, dz) = _cells((length, width, thickness),
                                        resolution)
    cx, cy, pdx, pdy = patch or (length / 2.0, width / 2.0, length, width)
    top = np.zeros((nx, ny))
    _deposit(top, dx, dy, (cx, cy), (pdx, pdy), flux_top * pdx * pdy)
    return Grid(nx=nx, ny=ny, nz=nz, dx=dx, dy=dy, dz=dz,
                channel_id=np.full((nx, ny, nz), -1, dtype=np.int32),
                n_channels=0, flux_top=top, flux_bottom=np.zeros((nx, ny)),
                h_bottom=h_bottom)


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

    def face_heat(self, temp: np.ndarray, t_sink: np.ndarray) -> np.ndarray:
        """Heat leaving the solid through each convective face, W."""
        return self.face_ua * (temp[self.face_cell]
                               - t_sink.flat[self.face_sink])


def _neighbour(values: np.ndarray, solid: np.ndarray, slot: int):
    """For every unknown, the value of the grid-shaped `values` at its
    neighbour through one stencil slot (-x, -y, -z, self, +z, +y, +x), or
    -1 where that neighbour is off the grid."""
    if slot == 3:
        return values[solid]
    lo, hi = _shifted(min(slot, 6 - slot))
    cell, other = (lo, hi) if slot > 3 else (hi, lo)
    out = np.full(values.shape, -1, dtype=values.dtype)
    out[cell] = values[other]
    return out[solid]


@dataclass
class _Structure:
    """What the FV system and its preconditioner take from the grid alone.
    One is built per grid, by the first solve on it (see `_structure`);
    every solve on the grid references its arrays, which are read-only."""
    indptr: np.ndarray      # int32 CSR row starts
    indices: np.ndarray     # int32 CSR columns, each row's in slot order
    # per unknown, bit s set where stencil slot s (-x, -y, -z, self, +z,
    # +y, +x) holds a column: a solid neighbour, or the unknown itself
    slots: np.ndarray       # uint8
    # convective faces: the channel walls of each slot, + then - per axis,
    # then the slab cases' exterior bottom faces; a wall's sink is
    # channel * (nx + 1) + station, so it also names the channel
    face_cell: np.ndarray   # int32 solid unknown
    face_sink: np.ndarray   # flat index into the sink-temperature array
    wall_ends: tuple[int, ...]  # where each slot's walls end in the table
    voxel_area: np.ndarray  # voxelized wetted area per channel, m^2
    rhs_fixed: np.ndarray   # imposed exterior heat flux, W
    agg: np.ndarray         # aggregate of each unknown (see `_aggregates`)
    n_agg: int


def _build_structure(grid: Grid) -> _Structure:
    """The grid's `_Structure`: one `_neighbour` lookup of the index map
    per slot gives the CSR columns, compressed past the -1 entries; one of
    `channel_id` per slot gives that slot's wall faces."""
    solid = grid.channel_id < 0
    n = int(solid.sum())
    stations = grid.nx + 1
    face_area = (grid.dy * grid.dz, grid.dx * grid.dz, grid.dx * grid.dy)
    # unknowns run x plane by x plane: a wall face's station is its plane
    plane_end = np.cumsum(solid.sum(axis=(1, 2)))

    face_cell, face_sink, wall_ends = [], [], []
    voxel_area = np.zeros(grid.n_channels)
    for axis in range(3):
        for slot in (6 - axis, axis):
            channel = _neighbour(grid.channel_id, solid, slot)
            cell = np.flatnonzero(channel >= 0).astype(np.int32)
            ids = channel[cell]
            np.add.at(voxel_area, ids, face_area[axis])
            face_cell.append(cell)
            face_sink.append(ids * stations
                             + np.searchsorted(plane_end, cell, side="right"))
            wall_ends.append(sum(c.size for c in face_cell))
    del channel

    index = np.full(solid.shape, -1, dtype=np.int32)  # 7 * _MAX_CELLS < 2**31
    index[solid] = np.arange(n, dtype=np.int32)
    # optional convective bottom face (slab cases), last sink row
    if grid.h_bottom is not None:
        cell = index[:, :, 0][solid[:, :, 0]]
        face_cell.append(cell)
        face_sink.append(np.full(cell.size, grid.n_channels * stations))
    face_cell = np.concatenate(face_cell)
    if n and not face_cell.size:
        raise ValueError("grid has no convective faces; the steady problem "
                         "is singular")

    # exterior top/bottom heat flux
    rhs_fixed = np.zeros(n)
    for layer, flux in ((grid.nz - 1, grid.flux_top), (0, grid.flux_bottom)):
        m = solid[:, :, layer] & (flux != 0.0)
        rhs_fixed[index[:, :, layer][m]] += flux[m] * face_area[2]

    # C-order numbering makes each row's columns ascend in slot order
    columns = np.empty((n, 7), dtype=np.int32)
    for slot in range(7):
        columns[:, slot] = _neighbour(index, solid, slot)
    del index
    present = columns >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1, dtype=np.int32), out=indptr[1:])
    indices = columns[present]
    del columns
    slots = np.packbits(present, axis=1, bitorder="little").reshape(n)
    del present
    structure = _Structure(indptr, indices, slots, face_cell,
                           np.concatenate(face_sink), tuple(wall_ends),
                           voxel_area, rhs_fixed, *_aggregates(grid))
    for array in vars(structure).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return structure


def _structure(grid: Grid) -> _Structure:
    """The grid's `_Structure`, built by the first caller; a thread that
    asks while another builds it waits for that one."""
    with grid._lock:
        if grid._structure is None:
            grid._structure = _build_structure(grid)
        return grid._structure


def _assemble(grid: Grid, material: SolidMaterial, h: float) -> _System:
    """Build the conduction matrix and the convective face table, whose
    sinks index a (n_channels + 1, nx + 1) fluid-temperature array, on the
    grid's `_Structure`. h is the channel film coefficient.

    The per-slot conductances, compressed as the columns are, give the
    values, into whose self slots the diagonal goes. Per unknown the
    diagonal adds up from 0.0 in this order, on which the output bits
    depend: for x, y and z in turn, conduction to a solid + neighbour, to
    a solid - neighbour, the film of a + wall face, of a - wall face; then
    the exterior bottom face's film (slab cases)."""
    structure = _structure(grid)
    k = material.thermal_conductivity
    n = structure.slots.size
    stations = grid.nx + 1
    spacing = (grid.dx, grid.dy, grid.dz)
    face_area = (grid.dy * grid.dz, grid.dx * grid.dz, grid.dx * grid.dy)

    # rescale h so h * (voxel wetted area) equals h * (analytic area)
    analytic = (wetted_perimeter(grid.shape) * grid.nx * grid.dx
                if grid.n_channels else 0.0)
    h_corr = h * analytic / structure.voxel_area

    present = np.unpackbits(structure.slots[:, None], axis=1, count=7,
                            bitorder="little").view(bool)
    diag = np.zeros(n)
    stencil = np.zeros(7)  # off-diagonal value per slot
    face_ua = []
    start = 0
    for axis in range(3):
        g = k * face_area[axis] / spacing[axis]
        stencil[[axis, 6 - axis]] = -g
        for slot in (6 - axis, axis):
            np.add(diag, g, out=diag, where=present[:, slot])
        for end in structure.wall_ends[2 * axis:2 * axis + 2]:
            channel = structure.face_sink[start:end] // stations
            ua = _film(spacing[axis], k, h_corr[channel]) * face_area[axis]
            diag[structure.face_cell[start:end]] += ua
            face_ua.append(ua)
            start = end
    if grid.h_bottom is not None:
        cell = structure.face_cell[start:]
        ua = np.full(cell.size, _film(grid.dz, k, grid.h_bottom)
                     * face_area[2])
        diag[cell] += ua
        face_ua.append(ua)

    data = np.broadcast_to(stencil, present.shape)[present]
    # the diagonal's slot follows a row's minus neighbours
    data[structure.indptr[:-1]
         + present[:, :3].sum(axis=1, dtype=np.int32)] = diag
    del present
    matrix = csr_matrix((data, structure.indices, structure.indptr),
                        shape=(n, n))
    return _System(matrix=matrix, diag=diag, rhs_fixed=structure.rhs_fixed,
                   face_cell=structure.face_cell,
                   face_ua=np.concatenate(face_ua),
                   face_sink=structure.face_sink)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product by numpy's own summation loop; np.dot and
    np.linalg.norm call the BLAS ddot, which may spin a thread per core."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def cg(A, b, *, x0, rtol, M, maxiter, callback=None):
    """Preconditioned conjugate gradients for a symmetric positive definite
    A, with M(r) applying the preconditioner.

    Same algorithm and stopping rule as scipy.sparse.linalg.cg with atol=0:
    stop when the recurrence residual norm is below rtol * |b|. Returns
    (x, 0) on convergence, (x, -1) as soon as |b| or the residual norm is
    not finite (an overflow no later iterate recovers from), and
    (x, maxiter) otherwise; callback(x) runs after every iteration.
    x is x0 itself, a float64 array that CG iterates in place, so a caller
    that needs its start keeps a copy; for a zero b, x is b.
    """
    bnorm = _norm(b)
    if bnorm == 0:
        return b, 0
    stop = rtol * bnorm
    x = x0
    r = A @ x
    np.subtract(b, r, out=r)
    p = rho_prev = None
    for _ in range(maxiter):
        if not math.isfinite(rnorm := _norm(r)):  # or |b| is not finite
            return x, -1
        if rnorm < stop:
            return x, 0
        z = M(r)
        rho = _dot(r, z)
        if p is None:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        del z
        q = A @ p
        alpha = rho / _dot(p, q)
        # alpha q and alpha p in q's storage: the bits of r -= alpha * q
        # and x += alpha * p without their temporaries
        q *= alpha
        r -= q
        np.multiply(p, alpha, out=q)
        x += q
        del q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def _aggregates(grid: Grid):
    """Aggregate of each solid cell (see `_two_level`), in unknown order,
    and the aggregate count. An aggregate's number is the rank of its
    block, in C order, among the blocks holding a solid cell."""
    solid = grid.channel_id < 0
    blocks = [np.arange(m) // size for m, size in zip(
        solid.shape, (_AGG_COLUMNS, _AGG_COLUMNS, _AGG_LAYERS))]
    shape = [b[-1] + 1 for b in blocks]
    block = np.ravel_multi_index(np.ix_(*blocks), shape)[solid]
    occupied = np.zeros(math.prod(shape), dtype=bool)
    occupied[block] = True
    rank = np.cumsum(occupied, dtype=np.int32) - 1
    return rank[block], int(rank[-1]) + 1


def _two_level(system: _System, grid: Grid):
    """Symmetric two-level preconditioner for CG, as a function r -> M r.

    Aggregates are the solid cells of each block of _AGG_COLUMNS x
    _AGG_COLUMNS (x, y) cell columns and _AGG_LAYERS cells through the
    thickness; P is the aggregate indicator (plain aggregation). A P and
    the Galerkin coarse matrix P^T A P are sparse products; the product
    stores no exact zero, so the entry (i, agg(i)) of a cell whose whole
    stencil lies in its own aggregate is left out. The coarse matrix is
    factored once, which serves every outer pass because A does not change
    between them.

    The smoother is damped Jacobi S = _SMOOTH_WEIGHT D^-1 before and after
    the coarse solve. M is SPD exactly when the weight times the largest
    eigenvalue of D^-1 A is below 2; that eigenvalue is at most 2 and comes
    near it on the checkerboard mode of the 7-point grid, so the weight
    stays below 1. An apply makes one full mat-vec and fuses the
    post-smoothing into Q = P - S A P:
    res = r - A S r, e = coarse(P^T res), M r = S (r + res) + Q e.
    """
    a = system.matrix
    structure = _structure(grid)
    agg, nc = structure.agg, structure.n_agg
    n = agg.size
    p = csr_matrix((np.ones(n), agg, np.arange(n + 1, dtype=np.int32)),
                   shape=(n, nc))
    q = a @ p
    coarse = splu((p.T.tocsr() @ q).tocsc(), permc_spec="MMD_AT_PLUS_A")
    smooth = _SMOOTH_WEIGHT / system.diag
    # Q = P - S A P, scaling A P in place so no second copy of it is held;
    # the sum's arrays have room for nnz(A P) + n entries, a copy of it
    # only for its own, and A P and P are freed before that copy is made
    q.data *= np.repeat(-smooth, np.diff(q.indptr))
    q = q + p
    del p
    q = q.copy()

    def apply(r):
        res = a @ (smooth * r)
        np.subtract(r, res, out=res)
        # P^T res: like the CSR product, bincount sums each aggregate's
        # cells in ascending order from 0.0, so the bits are the same
        e = coarse.solve(np.bincount(agg, weights=res, minlength=nc))
        res += r
        res *= smooth
        res += q @ e
        return res
    return apply


def solve(grid: Grid, coolant: CoolantProps, flow: FlowCondition,
          material: SolidMaterial, tol: float = SolverSettings.tol,
          max_iters: int = SolverSettings.max_iters) -> FvSolution:
    """Solve the coupled solid-conduction / coolant-march problem."""
    if not (max_iters >= 1 and 0 < tol < math.inf):  # NaN fails both
        raise ValueError(f"need max_iters >= 1 and 0 < tol < inf, got "
                         f"max_iters={max_iters!r}, tol={tol!r}")
    n_ch = grid.n_channels
    if n_ch and not flow.inlet_velocity > 0:  # also rejects NaN
        raise ValueError("inlet velocity must be > 0 with channels present")
    h = m_dot = 0.0  # per channel
    if n_ch:
        h = thermal.heat_transfer_coefficient(coolant, grid.shape,
                                              flow.inlet_velocity)
        m_dot = (coolant.density * flow.inlet_velocity
                 * cross_section_area(grid.shape))

    system = _assemble(grid, material, h)
    if not np.all(np.isfinite(system.diag)):
        raise ValueError("non-finite conductance in the FV system; check "
                         "material, coolant and flow inputs")
    precond = _two_level(system, grid)
    # the field comes after the setup, whose peak it would raise; CG
    # iterates in it
    inlet = flow.inlet_temperature
    t_sink = np.full((n_ch + 1, grid.nx + 1), inlet)
    temp = np.full(system.diag.size, inlet)

    def residual(x, rhs):
        """Recomputed relative residual |A x - rhs| / |rhs|."""
        bnorm = _norm(rhs)
        return _norm(system.matrix @ x - rhs) / bnorm if bnorm > 0 else 0.0

    def linear(rhs, x0, rtol):
        """The field of CG from x0 to rtol."""
        x, info = cg(system.matrix, rhs, x0=x0, rtol=rtol, M=precond,
                     maxiter=max_iters)
        if info != 0:
            raise ConvergenceError(
                "linear solve stopped: the residual is not finite" if info < 0
                else f"linear solve did not reach tol {rtol:g} (solver.tol "
                f"{tol:g}) in {max_iters} iterations (residual "
                f"{residual(x, rhs):.3e})")
        return x

    def march(temp, t_sink):
        """Sink temperatures re-marched from a solid field's wall heat, and
        their largest change, K."""
        q_sink = np.bincount(system.face_sink,
                             system.face_heat(temp, t_sink),
                             minlength=t_sink.size).reshape(t_sink.shape)
        rise = q_sink[:n_ch, :-1] / (m_dot * coolant.specific_heat)
        t_new = t_sink.copy()
        t_new[:n_ch, 1:] = inlet + np.cumsum(rise, axis=1)
        return t_new, float(np.max(np.abs(t_new - t_sink)))

    pass_tol = _PASS_TOL_FACTOR * tol
    for outer in range(1, _MAX_OUTER + 1):
        rhs = system.rhs_fixed.copy()
        np.add.at(rhs, system.face_cell,
                  system.face_ua * t_sink.flat[system.face_sink])
        temp = linear(rhs, temp, pass_tol)
        t_new, change = march(temp, t_sink)
        if change < _FLUID_TOL and pass_tol > tol:
            # only a field held to tol ends the loop: finish a loose
            # pass's solve and test its coolant change again
            temp = linear(rhs, temp, tol)
            t_new, change = march(temp, t_sink)
        t_sink = t_new
        if change < _FLUID_TOL:
            break
    else:
        raise ConvergenceError(
            f"coolant march did not converge in {_MAX_OUTER} outer "
            f"iterations (last change {change:.3e} K)")
    rel = residual(temp, rhs)

    imbalance = grid.total_power - float(np.sum(
        system.face_heat(temp, t_sink)))

    # field with the sink temperature of each void cell's station
    void = grid.channel_id >= 0
    solid = ~void
    field3d = np.empty(void.shape)
    field3d[solid] = temp
    field3d[void] = t_sink[grid.channel_id[void], np.nonzero(void)[0]]

    # surface extrapolation under imposed flux
    k = material.thermal_conductivity
    t_max = float(np.max(temp))
    for layer, flux in ((grid.nz - 1, grid.flux_top), (0, grid.flux_bottom)):
        m = solid[:, :, layer] & (flux > 0.0)
        if m.any():
            surf = field3d[:, :, layer][m] + flux[m] * grid.dz / (2.0 * k)
            t_max = max(t_max, float(surf.max()))

    return FvSolution(
        temperature=field3d,
        t_max=t_max,
        coolant_profile=t_sink[:n_ch],
        residual=rel,
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
    resolutions take the place of solver.resolution. Successive sizes that
    give the same cell counts are refused before any solve. Each grid, and
    the structure its solve builds, is dropped after that solve.
    """
    if len(resolutions) < 3:
        raise ValueError("mesh study needs at least 3 resolutions")
    if any(b >= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must be strictly descending")

    grids = [grid_builder(res) for res in resolutions]  # fail before solving
    shapes = [f"{g.nx} x {g.ny} x {g.nz}" for g in grids]
    for i, (a, b) in enumerate(zip(shapes, shapes[1:])):
        if a == b:
            raise ValueError(f"resolutions {resolutions[i]!r} m and "
                             f"{resolutions[i + 1]!r} m give the same "
                             f"{b} grid")
    rows = []
    while grids:
        grid = grids.pop(0)
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
