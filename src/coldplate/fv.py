"""Steady 3D finite-volume conduction in the plate, coupled to a 1D
coolant energy march.

Uniform Cartesian cells; channels are rasterized as void cells
(stair-step) and run the whole plate length, so every x plane holds the
same solid cells. One lookup through each stencil slot classes every face
of a solid cell: a solid neighbour makes it a conduction link, a void one
a channel wall with a Robin condition against the local coolant bulk
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
The outer (Picard) loop solves the conduction system against the sink
temperatures, re-marches the coolant, and stops once no sink temperature
changed by _FLUID_TOL or more.

The conduction matrix is separable. Unknown x * m + c is solid cell c of
x plane x, a plane's m solid cells in C order (z fastest). Then
A = g_x T_x (x) I + I (x) K exactly: T_x is the 1-D Laplacian with
adiabatic ends, g_x the conductance of an x face, and K the matrix of one
plane (y and z conduction, channel-wall and bottom films), the same in
every plane because the void map, the wall U*A and the cell sizes do not
vary along x. The orthonormal DCT-II Q diagonalizes T_x, with eigenvalues
lambda_k = 4 sin^2(pi k / 2 nx), so A^-1 = (Q^T (x) I) blockdiag_k
(K + g_x lambda_k I)^-1 (Q (x) I): a transform along x, one plane solve
per mode and the inverse transform (the fast diagonalization method;
Lynch, Rice & Thomas, Numer. Math. 6:185, 1964). Each mode's matrix is
banded with half-bandwidth kd <= nz; one Cholesky factorization of the
block-diagonal band of all nx modes costs O(n kd^2) per solve and holds
(kd + 1) * 8 B per cell, and an apply costs O(n kd) plus two real FFTs
along x. No 3-D matrix is stored: A p applies K to every plane plus the
x differences.

Conjugate gradients (`cg`, this module's own loop with scipy's algorithm
and stopping rule) runs with that exact inverse as its preconditioner, so
one iteration brings a pass's recurrence residual to rounding level, far
below solver.tol; CG stays as the safeguard that holds every pass to tol.
Its dot products and norms avoid BLAS: on vectors of a few hundred
thousand entries a threaded BLAS `ddot` spins every core for each call,
which doubled the CPU time of a solve and left nothing for the sweep
thread pool. The relative residual |A x - b| / |b| is recomputed only for
the returned field, which is refused above _RESIDUAL_SLACK * tol, and for
a CG call that did not converge.

What depends on the grid alone is built once per grid, by its first
solve, and every later solve on the grid references it (`_Structure`): the
CSR pattern of K, the face table's cells and sinks, the voxelized wetted
area per channel and the imposed heat flux. The grid's lock makes a solve
that asks while another builds it wait for that one. Each solve builds
what depends on the velocity or the material: K's values, each face's
U*A and the band factor. A grid is not changed after its first solve, and
keeps its structure until it is dropped.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse import csr_matrix

from . import thermal
from .geometry import (Assembly, ChannelShape, Semicircular,
                       cross_section_area, validate, wetted_perimeter)
from .hydraulics import FlowCondition
from .properties import CoolantProps, SolidMaterial

_SUBSAMPLE = 4  # per-axis samples for rasterization; even count keeps
                # samples off the cell midlines
# Largest grid built, and largest band factor: (nz + 1) * 8 B per cell
# bounds it (see the module docstring). The README states what one solve
# holds per cell; test_solve_peak_memory and test_solve_peak_rss bound it.
_MAX_CELLS = 10**7
_MAX_FACTOR_BYTES = 2 * 10**9
_FLUID_TOL = 1e-3  # K, largest coolant temperature change of a converged pass
_MAX_OUTER = 100   # outer fluid-coupling passes before giving up
# How far the returned field's recomputed residual may exceed tol. CG stops
# on its recurrence residual, which the recomputed one follows to rounding
# drift; past this the rounding of A x itself swamps the solve (conduction
# far stronger than the films), and the field is refused. It is the 2 x tol
# that perfbench/worker.py allows, so every field returned passes that gate.
_RESIDUAL_SLACK = 2.0


class GridResolutionError(ValueError):
    """Resolution cannot resolve the cover between channels and surface."""


class ConvergenceError(RuntimeError):
    """A linear solve or the coolant march did not converge."""


@dataclass(frozen=True)
class SolverSettings:
    """Settings of every FV solve of a run: the config's `solver` section."""
    resolution: float = 2e-3   # m, target cell size
    tol: float = 1e-8          # relative residual of every pass's CG
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
    have more than _MAX_CELLS cells or a band factor of more than
    _MAX_FACTOR_BYTES."""
    if not resolution > 0:
        raise ValueError("resolution must be > 0")
    # an axis at or above the bound needs no rounding, which would fail on
    # the infinite ratio of a subnormal resolution
    counts = [max(2, round(r)) if r < _MAX_CELLS else r
              for r in (e / resolution for e in extent)]
    if (cells := math.prod(counts)) > _MAX_CELLS:
        raise ValueError(f"resolution {resolution!r} m gives {cells:.3g} "
                         f"cells; the limit is {_MAX_CELLS:.0e}")
    if (factor := cells * (counts[2] + 1) * 8) > _MAX_FACTOR_BYTES:
        raise ValueError(f"resolution {resolution!r} m gives a "
                         f"{factor / 1e9:.3g} GB band factor ({counts[2]} "
                         f"cells through the thickness); the limit is "
                         f"{_MAX_FACTOR_BYTES / 1e9:g} GB")
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
class _Operator:
    """The conduction matrix A = g_x T_x (x) I + I (x) K, applied without
    forming it (see the module docstring): K on every x plane, plus the
    conduction across each x face."""
    plane: csr_matrix   # K, symmetric, on one x plane's m solid cells
    gx: float           # conductance of an x face, W/K
    nx: int

    @property
    def shape(self) -> tuple[int, int]:
        n = self.nx * self.plane.shape[0]
        return n, n

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        p = p.reshape(self.nx, -1)
        # a plane per column, so that one sparse product serves them all
        out = np.ascontiguousarray((self.plane @ p.T).T)
        flow = np.diff(p, axis=0)
        flow *= self.gx
        out[1:] += flow
        out[:-1] -= flow
        return out.reshape(-1)


@dataclass
class _System:
    operator: _Operator
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
    """What the FV operator takes from the grid alone. One is built per
    grid, by the first solve on it (see `_structure`); every solve on the
    grid references its arrays, which are read-only. K's rows are one x
    plane's solid cells; the face table and the heat flux are per unknown
    (see the module docstring for the numbering)."""
    indptr: np.ndarray      # int32 CSR row starts of K
    indices: np.ndarray     # int32 CSR columns of K, each row's in slot order
    # per plane cell, where stencil slot s (-x, -y, -z, self, +z, +y, +x)
    # holds a column of K: a solid y or z neighbour, or the cell itself
    present: np.ndarray     # bool (m, 7)
    # convective faces: the channel walls of each slot, + then - per axis,
    # then the slab cases' exterior bottom faces, each slot's x plane by x
    # plane; a wall's sink is channel * (nx + 1) + x, so it also names the
    # channel
    face_cell: np.ndarray   # int32 solid unknown
    face_sink: np.ndarray   # flat index into the sink-temperature array
    wall_ends: tuple[int, ...]  # where each slot's walls end in the table
    voxel_area: np.ndarray  # voxelized wetted area per channel, m^2
    rhs_fixed: np.ndarray   # imposed exterior heat flux, W


def _build_structure(grid: Grid) -> _Structure:
    """The grid's `_Structure`, from its first x plane as a grid one cell
    long: one `_neighbour` lookup of the plane's index map per slot gives
    K's columns, compressed past the -1 entries; one of its channel map per
    slot gives that slot's wall faces, which repeat in every plane."""
    plane = grid.channel_id[:1]
    if not np.array_equal(grid.channel_id, np.broadcast_to(
            plane, grid.channel_id.shape)):
        raise ValueError("the FV solver needs the same channel "
                         "cross-section in every x plane")
    solid = plane < 0
    m = int(solid.sum())
    stations = grid.nx + 1
    face_area = (grid.dy * grid.dz, grid.dx * grid.dz, grid.dx * grid.dy)
    planes = np.arange(grid.nx, dtype=np.int32)[:, None]

    face_cell, face_sink, wall_ends = [], [], []
    voxel_area = np.zeros(grid.n_channels)
    for axis in range(3):
        for slot in (6 - axis, axis):  # none on the x slots
            channel = _neighbour(plane, solid, slot)
            cell = np.flatnonzero(channel >= 0).astype(np.int32)
            ids = channel[cell]
            np.add.at(voxel_area, ids, face_area[axis] * grid.nx)
            face_cell.append((planes * m + cell).ravel())
            face_sink.append((ids * stations + planes).ravel())
            wall_ends.append(sum(c.size for c in face_cell))

    index = np.full(solid.shape, -1, dtype=np.int32)
    index[solid] = np.arange(m, dtype=np.int32)
    # optional convective bottom face (slab cases), last sink row
    if grid.h_bottom is not None:
        cell = index[0, :, 0][solid[0, :, 0]]
        face_cell.append((planes * m + cell).ravel())
        face_sink.append(np.full(grid.nx * cell.size,
                                 grid.n_channels * stations))
    face_cell = np.concatenate(face_cell)
    if m and not face_cell.size:
        raise ValueError("grid has no convective faces; the steady problem "
                         "is singular")

    # exterior top/bottom heat flux
    rhs_fixed = np.zeros(grid.nx * m)
    for layer, flux in ((grid.nz - 1, grid.flux_top), (0, grid.flux_bottom)):
        cell = index[0, :, layer]
        heated = (cell >= 0) & (flux != 0.0)
        rhs_fixed[(planes * m + cell)[heated]] += flux[heated] * face_area[2]

    # C-order numbering makes each row's columns ascend in slot order
    columns = np.stack([_neighbour(index, solid, slot) for slot in range(7)],
                       axis=1)
    present = columns >= 0
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1, dtype=np.int32), out=indptr[1:])
    structure = _Structure(indptr, columns[present], present, face_cell,
                           np.concatenate(face_sink), tuple(wall_ends),
                           voxel_area, rhs_fixed)
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
    """Build the conduction operator and the convective face table, whose
    sinks index a (n_channels + 1, nx + 1) fluid-temperature array, on the
    grid's `_Structure`. h is the channel film coefficient.

    K's per-slot conductances, compressed as its columns are, give its
    values, into whose self slots its diagonal goes: for y and z in turn,
    conduction to a solid + neighbour, to a solid - neighbour, the film of
    a + wall face, of a - wall face; then the exterior bottom face's film
    (slab cases)."""
    structure = _structure(grid)
    k = material.thermal_conductivity
    present = structure.present
    m = present.shape[0]
    stations = grid.nx + 1
    spacing = (grid.dx, grid.dy, grid.dz)
    face_area = (grid.dy * grid.dz, grid.dx * grid.dz, grid.dx * grid.dy)

    # rescale h so h * (voxel wetted area) equals h * (analytic area)
    analytic = (wetted_perimeter(grid.shape) * grid.nx * grid.dx
                if grid.n_channels else 0.0)
    h_corr = h * analytic / structure.voxel_area

    diag = np.zeros(m)
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
            # the first x plane's faces are K's
            first = (end - start) // grid.nx
            diag[structure.face_cell[start:start + first]] += ua[:first]
            face_ua.append(ua)
            start = end
    if grid.h_bottom is not None:
        cell = structure.face_cell[start:]
        ua = np.full(cell.size, _film(grid.dz, k, grid.h_bottom)
                     * face_area[2])
        diag[cell[:cell.size // grid.nx]] += ua[0]
        face_ua.append(ua)

    data = np.broadcast_to(stencil, present.shape)[present]
    # the diagonal's slot follows a row's minus neighbours
    data[structure.indptr[:-1]
         + present[:, :3].sum(axis=1, dtype=np.int32)] = diag
    plane = csr_matrix((data, structure.indices, structure.indptr),
                       shape=(m, m))
    return _System(operator=_Operator(plane, k * face_area[0] / grid.dx,
                                      grid.nx),
                   rhs_fixed=structure.rhs_fixed,
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


def _dct_weights(n: int) -> np.ndarray:
    """w_k = c_k exp(-i pi k / 2n), k < n, as a column: c_k scales the
    DCT-II of length n to an orthonormal one."""
    c = np.full(n, math.sqrt(2.0 / n))
    c[0] = math.sqrt(1.0 / n)
    return (c * np.exp(-0.5j * np.pi * np.arange(n) / n))[:, None]


def _dct(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of each column of x, by one real FFT of the
    column's even entries followed by its odd ones reversed (Makhoul, IEEE
    Trans. Acoust. Speech Signal Process. 28:27, 1980): X_k = Re(w_k V_k),
    where V_{n-k} = conj(V_k) gives the modes above the FFT's half."""
    n = x.shape[0]
    half = n // 2 + 1
    spec = np.fft.rfft(np.concatenate((x[::2], x[1::2][::-1])), axis=0)
    w = _dct_weights(n)
    out = np.empty(x.shape)
    out[:half] = (spec * w[:half]).real
    out[half:] = (spec[n - half:0:-1].conj() * w[half:]).real
    return out


def _idct(y: np.ndarray) -> np.ndarray:
    """Inverse of `_dct`, which is its transpose: the spectrum
    V_k = y_k / w_k + y_{n-k} / conj(w_{n-k}) (y_n = 0) gives the
    reordered column by one inverse real FFT."""
    n = y.shape[0]
    half = n // 2 + 1
    u = 1.0 / _dct_weights(n)
    spec = u[:half] * y[:half]
    spec[1:] += u[n - 1:n - half:-1].conj() * y[n - 1:n - half:-1]
    v = np.fft.irfft(spec, n, axis=0)
    out = np.empty(v.shape)
    out[::2] = v[:(n + 1) // 2]
    out[1::2] = v[(n + 1) // 2:][::-1]
    return out


def _inverse(system: _System):
    """A^-1 as a function r -> A^-1 r, by the fast diagonalization of the
    module docstring.

    The band holds every mode's K + g_x lambda_k I in LAPACK's upper form,
    mode after mode, in Fortran order so that the factorization runs in
    place; no entry couples two modes. Raises ConvergenceError where the
    factorization finds a matrix that is not numerically positive
    definite."""
    op = system.operator
    plane, nx = op.plane, op.nx
    m = plane.shape[0]
    # K's lower triangle, row by row, is its upper triangle column by column
    rows = np.repeat(np.arange(m), np.diff(plane.indptr))
    lower = plane.indices <= rows
    offset = (rows - plane.indices)[lower]
    kd = int(offset.max(initial=0))
    band = np.zeros((kd + 1, nx * m), order="F")
    modes = band.reshape(kd + 1, m, nx, order="F")  # a view of band
    modes[kd - offset, rows[lower]] = plane.data[lower, None]
    modes[kd] += op.gx * 4.0 * np.sin(0.5 * np.pi * np.arange(nx) / nx) ** 2
    try:
        factor = cholesky_banded(band, overwrite_ab=True, check_finite=False)
    except LinAlgError as exc:
        raise ConvergenceError(f"the FV system's band factorization failed "
                               f"({exc})") from None

    def apply(r):
        y = _dct(r.reshape(nx, m)).reshape(-1)
        y = cho_solve_banded((factor, False), y, overwrite_b=True,
                             check_finite=False)
        return _idct(y.reshape(nx, m)).reshape(-1)
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
    op = system.operator
    if not (math.isfinite(op.gx) and np.all(np.isfinite(op.plane.data))):
        raise ValueError("non-finite conductance in the FV system; check "
                         "material, coolant and flow inputs")
    precond = _inverse(system)
    # the field comes after the factor, whose build it would add to; CG
    # iterates in it
    inlet = flow.inlet_temperature
    t_sink = np.full((n_ch + 1, grid.nx + 1), inlet)
    temp = np.full(op.shape[0], inlet)

    def residual(x, rhs):
        """Recomputed relative residual |A x - rhs| / |rhs|."""
        bnorm = _norm(rhs)
        return _norm(op @ x - rhs) / bnorm if bnorm > 0 else 0.0

    for outer in range(1, _MAX_OUTER + 1):
        rhs = system.rhs_fixed.copy()
        np.add.at(rhs, system.face_cell,
                  system.face_ua * t_sink.flat[system.face_sink])
        temp, info = cg(op, rhs, x0=temp, rtol=tol, M=precond,
                        maxiter=max_iters)
        if info != 0:
            raise ConvergenceError(
                "linear solve stopped: the residual is not finite" if info < 0
                else f"linear solve did not reach tol {tol:g} in {max_iters} "
                f"iterations (residual {residual(temp, rhs):.3e})")
        # sink temperatures re-marched from the field's wall heat
        q_sink = np.bincount(system.face_sink,
                             system.face_heat(temp, t_sink),
                             minlength=t_sink.size).reshape(t_sink.shape)
        t_new = t_sink.copy()
        t_new[:n_ch, 1:] = inlet + np.cumsum(
            q_sink[:n_ch, :-1] / (m_dot * coolant.specific_heat), axis=1)
        change = float(np.max(np.abs(t_new - t_sink)))
        t_sink = t_new
        if change < _FLUID_TOL:
            break
    else:
        raise ConvergenceError(
            f"coolant march did not converge in {_MAX_OUTER} outer "
            f"iterations (last change {change:.3e} K)")
    rel = residual(temp, rhs)
    if not rel <= _RESIDUAL_SLACK * tol:
        raise ConvergenceError(
            f"the field's recomputed residual {rel:.3e} exceeds "
            f"{_RESIDUAL_SLACK:g} x tol {tol:g}: rounding in the conduction "
            f"system swamps the solve")

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

_CHUNK = 2**13  # values spelt per step of the field writer
# row i of _DIGITS holds the four ASCII digits of i, "0000" to "9999";
# built from uint8 digits, whose temporaries are 40 kB each
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS = np.stack(np.meshgrid(_DIGIT, _DIGIT, _DIGIT, _DIGIT,
                               indexing="ij"), axis=-1).reshape(-1, 4)
_QUADS = _DIGITS.view(np.uint32).ravel()  # the same four bytes as one word
_POW10 = np.array([float(10**k) for k in range(23)])  # exact in float64
# one "% .16e" record: sign, digit, point, 16 digits, e, sign, 2 digits
_RECORD = np.frombuffer(b" 0.0000000000000000e+00\n", dtype=np.uint8)


def _split(a: np.ndarray):
    """Veltkamp's split: a = hi + lo exactly, each half of 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a: np.ndarray, k: np.ndarray):
    """(p, err) with p = fl(a * 10**k) and p + err = a * 10**k exactly, for
    0 <= k <= 22: Dekker's two-product (Numer. Math. 18:224, 1971), which
    needs no fused multiply-add."""
    p = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def _below(p: np.ndarray, err: np.ndarray, bound: float) -> np.ndarray:
    """Whether p + err, exactly, is below bound, a float64 integer."""
    return (p < bound) | ((p == bound) & (err < 0))


def _write_values(fh, values: np.ndarray, out: np.ndarray) -> None:
    """Write each float64 of a 1-D array as "% .16e\\n" to a binary file,
    through `out`, a (values.size or more, 24) uint8 array of _RECORDs.

    For 1e-5 <= |v| < 1e16 the record is 24 bytes: the 17 significant
    digits are a * 10**(16 - e) rounded half to even, a = |v| and e its
    decimal exponent, as Python's correctly rounded formatting gives them.
    The product is exact in two parts, p + err, and above 2**53 p is an
    even integer, so the rounding is p + rint(err). The digits are spelt
    four at a time from _DIGITS. Any other value, including 0, NaN and
    infinities, goes through "% .16e" itself."""
    out = out[:values.size]
    a = np.abs(values)
    slow = np.flatnonzero(~((a >= 1e-5) & (a < 1e16)))  # NaN fails both
    a[slow] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)  # -6 to 16
    p, err = _times_pow10(a, 16 - e)
    # 10**16 <= a * 10**(16 - e) < 10**17 fixes e; log10 rounded across a
    # power of ten leaves it one off
    off = np.flatnonzero(_below(p, err, 1e16) | ~_below(p, err, 1e17))
    if off.size:
        e[off] += np.where(_below(p[off], err[off], 1e16), -1, 1)
        p[off], err[off] = _times_pow10(a[off], 16 - e[off])
    # below 10**17: the largest double under each power of ten in range
    # lies over 8e-17 of it away, and the rounding moves by 5e-18 at most
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    high, low = np.divmod(digits, 10**8)
    lead, high = np.divmod(high, 10**8)
    out[:, 0] = np.where(np.signbit(values), ord("-"), ord(" "))
    out[:, 1] = lead + ord("0")
    quads = out[:, 3:19].view(np.uint32)
    for column, half in ((0, high), (2, low)):
        quad, rest = np.divmod(half, 10**4)
        quads[:, column] = _QUADS[quad]
        quads[:, column + 1] = _QUADS[rest]
    out[:, 20] = np.where(e < 0, ord("-"), ord("+"))
    out[:, 21:23] = _DIGITS[np.abs(e), 2:]
    start = 0
    for i in slow.tolist():
        fh.write(out[start:i])
        fh.write(b"% .16e\n" % values[i])
        start = i + 1
    fh.write(out[start:])


def _write_field(fh, field: np.ndarray) -> None:
    """Write every value of a (nx, ny, nz) array as "% .16e\\n" to a binary
    file in VTK cell order, x fastest, then y, then z: _CHUNK values at a
    time, gathered from the field, with no transposed copy of it."""
    nx, ny, nz = field.shape
    flat = field.reshape(-1)
    out = np.tile(_RECORD, (_CHUNK, 1))
    for start in range(0, flat.size, _CHUNK):
        row, x = np.divmod(np.arange(start, min(start + _CHUNK, flat.size)),
                           nx)
        z, y = np.divmod(row, ny)
        _write_values(fh, flat[(x * ny + y) * nz + z], out)


def write_structured_points(solution: FvSolution, grid: Grid, path) -> None:
    """Dump the cell-centered temperature field in legacy structured-points
    text format: one scalar per line, x fastest, written as "% .16e" (17
    significant digits, so each reads back to the same float64); no
    timestamps, byte-stable for a given run."""
    with open(path, "wb") as fh:
        fh.write("# vtk DataFile Version 3.0\n"
                 "cold plate temperature field\n"
                 "ASCII\n"
                 "DATASET STRUCTURED_POINTS\n"
                 f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} {grid.nz + 1}\n"
                 "ORIGIN 0 0 0\n"
                 f"SPACING {grid.dx!r} {grid.dy!r} {grid.dz!r}\n"
                 f"CELL_DATA {grid.cell_count}\n"
                 "SCALARS temperature_C double\n"
                 "LOOKUP_TABLE default\n".encode())
        _write_field(fh, solution.temperature)
