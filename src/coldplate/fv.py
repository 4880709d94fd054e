"""Steady 3D finite-volume conduction in the plate, coupled to a 1D
coolant energy march.

Uniform Cartesian cells; channels are rasterized as void cells
(stair-step) and run the whole plate length, so the grid stores one x
plane: a (ny, nz) map of the cross-section that every plane shares. One
lookup through each stencil slot of that plane classes every y and z face
of a solid cell: a solid neighbour makes it a conduction link, a void one
a channel wall with a Robin condition against the local coolant bulk
temperature, and none an exterior face. The film coefficient is rescaled
per channel so that h * (voxelized wetted area) equals h * (analytic
wetted area), which keeps the total convective conductance independent of
the rasterization. Exterior faces are adiabatic except where die
footprints impose heat flux, and except for an optional convective bottom
face against fluid held at the inlet temperature (slab verification
cases).

The convective faces, channel walls and exterior, become one (n_channels
+ 1, walls) table of U*A from each wall (a plane cell with a convective
face) to each sink row, the same in every x plane. The sink row indexes
one array of fluid temperatures: a row per channel, re-marched each outer
iteration from the heat its walls remove, plus a last row fixed at the
inlet temperature; a wall of plane x sinks to its row's station x. The
outer (Picard) loop solves the conduction system against the sink
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

The Picard passes run in those modes. The imposed heat is transformed
once per solve; a pass transforms only the sink rows, adds their U*A to
the walls' columns, solves the band in place and transforms back only
the walls' columns, from which the coolant is re-marched. The returned
field is then solved once by conjugate gradients (`cg`, this module's
own loop with scipy's algorithm and stopping rule) against the last
pass's right-hand side, with the exact inverse as its preconditioner:
one iteration brings its recurrence residual below solver.tol, and
max_iters bounds it. Its dot products and norms avoid BLAS: on vectors
of a few hundred thousand entries a threaded BLAS `ddot` spins every
core for each call, which leaves nothing for the sweep thread pool. The relative residual |A x - b| / |b| is recomputed
for the returned field, which is refused above _RESIDUAL_SLACK * tol.

Each solve assembles its whole system from the grid and leaves the grid
as it found it, so solves on one grid need no synchronization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import thermal
# re-exported: fv.SolverSettings and the errors are this module's too
from .fv_settings import ConvergenceError, GridResolutionError, SolverSettings
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


@functools.cache
def scipy_routines():
    """(cholesky_banded, cho_solve_banded, csr_matrix), the scipy routines
    a solve uses. This is the package's one scipy import: a process that
    solves no FV never loads scipy, and the first solve loads it unless
    the caller has called this first (`cli.run` does, in an FV action's
    set-up)."""
    from scipy.linalg import cho_solve_banded, cholesky_banded
    from scipy.sparse import csr_matrix
    return cholesky_banded, cho_solve_banded, csr_matrix


@dataclass(eq=False)  # compared by identity: its fields are arrays
class Grid:
    nx: int
    ny: int
    nz: int
    dx: float
    dy: float
    dz: float
    channel_id: np.ndarray   # int32 (ny, nz), every x plane; -1 for solid
    n_channels: int          # each of cross-section `shape`
    flux_top: np.ndarray     # (nx, ny) W/m^2 on the exterior top face
    flux_bottom: np.ndarray  # (nx, ny) W/m^2 on the exterior bottom face
    shape: ChannelShape | None = None
    # film coefficient of the exterior bottom face, W/(m^2*K), convecting
    # to fluid held at the flow inlet temperature (slab cases)
    h_bottom: float | None = None

    @property
    def cell_count(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def total_power(self) -> float:
        area = self.dx * self.dy
        return float((self.flux_top.sum() + self.flux_bottom.sum()) * area)


@dataclass(eq=False)  # compared by identity: its fields are arrays
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

    channel_id = np.full((ny, nz), -1, dtype=np.int32)

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
        channel_id[mask] = channel

    if (channel_id[:, [0, -1]] >= 0).any():
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
                channel_id=np.full((ny, nz), -1, dtype=np.int32),
                n_channels=0, flux_top=top, flux_bottom=np.zeros((nx, ny)),
                h_bottom=h_bottom)


# --------------------------------------------------------------------------
# solver

def _film(d: float, k: float, h):
    """Half-cell conduction in series with the film, W/(m^2*K)."""
    return 1.0 / (d / (2.0 * k) + 1.0 / h)


def _shifted(axis: int):
    """Slices of a plane picking the low and high cell of every interior
    face across one axis (0 for y, 1 for z)."""
    lo, hi = [slice(None)] * 2, [slice(None)] * 2
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    return tuple(lo), tuple(hi)


@dataclass
class _Operator:
    """The conduction matrix A = g_x T_x (x) I + I (x) K, applied without
    forming it (see the module docstring): K on every x plane, plus the
    conduction across each x face."""
    plane: object       # K, a symmetric csr_matrix on a plane's m solid cells
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
    heated: np.ndarray   # plane cells that take imposed heat, ascending
    heat: np.ndarray     # (nx, heated) imposed heat of each x plane, W
    walls: np.ndarray    # plane cells with a convective face, ascending
    ua: np.ndarray       # (n_channels + 1, walls) U*A from wall to sink row

    def rhs(self, t_sink: np.ndarray) -> np.ndarray:
        """The right-hand side against the sink temperatures t_sink."""
        nx = self.operator.nx
        out = np.zeros((nx, self.operator.plane.shape[0]))
        out[:, self.heated] = self.heat
        out[:, self.walls] += np.einsum("xr,rj->xj", t_sink[:, :nx].T,
                                        self.ua)
        return out.reshape(-1)


def _neighbour(values: np.ndarray, solid: np.ndarray, slot: int):
    """For every solid cell of a plane, the value of the plane-shaped
    `values` at its neighbour through one stencil slot (-y, -z, self, +z,
    +y), or -1 where that neighbour is off the plane."""
    if slot == 2:
        return values[solid]
    lo, hi = _shifted(min(slot, 4 - slot))
    cell, other = (lo, hi) if slot > 2 else (hi, lo)
    out = np.full(values.shape, -1, dtype=values.dtype)
    out[cell] = values[other]
    return out[solid]


def _assemble(grid: Grid, material: SolidMaterial, h: float) -> _System:
    """Build the conduction operator, the imposed heat and the wall U*A
    table, whose rows index a (n_channels + 1, nx + 1) fluid-temperature
    array; h is the channel film coefficient.

    K and the walls come from the grid's plane map: one `_neighbour`
    lookup of its index map per stencil slot gives K's columns, compressed
    past the -1 entries, and one of the map itself per slot gives that
    slot's wall faces. K's per-slot conductances, compressed as its
    columns are, give its values, into whose self slots its diagonal goes:
    for y and z in turn, conduction to a solid + neighbour, to a solid -
    neighbour, the film of a + wall face, of a - wall face; then the
    exterior bottom face's film (slab cases). Each wall's U*A to a sink
    row sums its faces in that order."""
    plane = grid.channel_id
    solid = plane < 0
    m = int(solid.sum())
    k = material.thermal_conductivity
    spacing = (grid.dy, grid.dz)
    face_area = (grid.dx * grid.dz, grid.dx * grid.dy)

    # each slot's wall faces: the plane cell and the channel beyond it
    faces = [[], []]
    voxel_area = np.zeros(grid.n_channels)
    for axis in (0, 1):
        for slot in (4 - axis, axis):
            channel = _neighbour(plane, solid, slot)
            cell = np.flatnonzero(channel >= 0).astype(np.int32)
            ids = channel[cell]
            faces[axis].append((cell, ids))
            np.add.at(voxel_area, ids, face_area[axis] * grid.nx)
    # rescale h so h * (voxel wetted area) equals h * (analytic area)
    analytic = (wetted_perimeter(grid.shape) * grid.nx * grid.dx
                if grid.n_channels else 0.0)
    h_corr = h * analytic / voxel_area

    index = np.full(solid.shape, -1, dtype=np.int32)
    index[solid] = np.arange(m, dtype=np.int32)
    # C-order numbering makes each row's columns ascend in slot order
    columns = np.stack([_neighbour(index, solid, slot) for slot in range(5)],
                       axis=1)
    present = columns >= 0

    diag = np.zeros(m)
    stencil = np.zeros(5)  # off-diagonal value per slot
    ua = np.zeros((grid.n_channels + 1, m))  # U*A from cell to sink row
    wall = np.zeros(m, dtype=bool)
    for axis in (0, 1):
        g = k * face_area[axis] / spacing[axis]
        stencil[[axis, 4 - axis]] = -g
        for slot in (4 - axis, axis):
            np.add(diag, g, out=diag, where=present[:, slot])
        for cell, channel in faces[axis]:
            film = _film(spacing[axis], k, h_corr[channel]) * face_area[axis]
            diag[cell] += film
            ua[channel, cell] += film
            wall[cell] = True
    # optional convective bottom face (slab cases), last sink row
    if grid.h_bottom is not None:
        cell = index[:, 0][solid[:, 0]]
        film = _film(grid.dz, k, grid.h_bottom) * face_area[1]
        diag[cell] += film
        ua[-1, cell] += film
        wall[cell] = True
    walls = np.flatnonzero(wall)
    if m and not walls.size:
        raise ValueError("grid has no convective faces; the steady problem "
                         "is singular")

    # exterior top/bottom heat flux, added: a plane one cell thick takes
    # the heat of both faces
    heat = np.zeros((grid.nx, m))
    for layer, flux in ((grid.nz - 1, grid.flux_top), (0, grid.flux_bottom)):
        on = solid[:, layer]
        heat[:, index[on, layer]] += flux[:, on] * face_area[1]
    heated = np.flatnonzero(heat.any(axis=0))

    data = np.broadcast_to(stencil, present.shape)[present]
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1, dtype=np.int32), out=indptr[1:])
    # the diagonal's slot follows a row's minus neighbours
    data[indptr[:-1] + present[:, :2].sum(axis=1, dtype=np.int32)] = diag
    csr_matrix = scipy_routines()[2]
    matrix = csr_matrix((data, columns[present], indptr), shape=(m, m))
    return _System(operator=_Operator(matrix, k * (grid.dy * grid.dz)
                                      / grid.dx, grid.nx),
                   heated=heated, heat=heat[:, heated], walls=walls,
                   # C order: the rounding of einsum's sums follows
                   # the layout
                   ua=np.ascontiguousarray(ua[:, walls]))


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
    # in place, so that no more than one spectrum-sized temporary lives
    upper = spec[n - half:0:-1].conj()
    upper *= w[half:]
    out[half:] = upper.real
    del upper
    spec *= w[:half]
    out[:half] = spec.real
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
    del spec  # before out: a solve's memory peaks in these transforms
    out = np.empty(v.shape)
    out[::2] = v[:(n + 1) // 2]
    out[1::2] = v[(n + 1) // 2:][::-1]
    return out


@dataclass(eq=False)
class _Inverse:
    """A^-1 by the fast diagonalization of the module docstring; called on
    r, it returns A^-1 r."""
    factor: np.ndarray   # Cholesky factor of every mode's band, upper form
    nx: int

    def solve_modes(self, b: np.ndarray) -> np.ndarray:
        """Overwrite b, the DCT along x of a right-hand side, mode after
        mode, with the DCT of its solution; returns b."""
        cho_solve_banded = scipy_routines()[1]
        return cho_solve_banded((self.factor, False), b, overwrite_b=True,
                                check_finite=False)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        y = self.solve_modes(_dct(r.reshape(self.nx, -1)).reshape(-1))
        return _idct(y.reshape(self.nx, -1)).reshape(-1)


def _inverse(system: _System) -> _Inverse:
    """Factor A for `_Inverse`.

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
    cholesky_banded = scipy_routines()[0]
    try:
        factor = cholesky_banded(band, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"the FV system's band factorization failed "
                               f"({exc})") from None
    return _Inverse(factor, nx)


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
    inverse = _inverse(system)
    nx = grid.nx
    inlet = flow.inlet_temperature
    t_sink = np.full((n_ch + 1, nx + 1), inlet)
    walls, ua = system.walls, system.ua
    ua_row = ua.sum(axis=1)[:, None]

    def sink_heat(wall_temp, sinks):
        """Heat into each row of the sink temperatures `sinks` at each x
        plane, W, from the walls' (nx, walls) temperatures."""
        return (np.einsum("xj,rj->rx", wall_temp, ua)
                - ua_row * sinks[:, :nx])

    # the imposed heat in the modes; from the inlet field the first pass's
    # residual is that heat, whose norm the orthonormal DCT keeps
    heat = _dct(system.heat)
    if not math.isfinite(_norm(heat.reshape(-1))):
        raise ConvergenceError("the first pass's residual is not finite: "
                               "the imposed heat overflows")
    modes = np.empty((nx, op.plane.shape[0]))
    for outer in range(1, _MAX_OUTER + 1):
        modes.fill(0.0)
        modes[:, system.heated] = heat
        modes[:, walls] += np.einsum("kr,rj->kj", _dct(t_sink[:, :nx].T), ua)
        solved = inverse.solve_modes(modes.reshape(-1)).reshape(nx, -1)
        q_sink = sink_heat(_idct(solved[:, walls]), t_sink)
        # sink temperatures re-marched from the walls' heat; a flow too
        # weak to carry it gives non-finite ones, refused below
        t_new = t_sink.copy()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t_new[:n_ch, 1:] = inlet + np.cumsum(
                q_sink[:n_ch] / (m_dot * coolant.specific_heat), axis=1)
        change = float(np.max(np.abs(t_new - t_sink)))
        if not math.isfinite(change):
            raise ConvergenceError(f"coolant pass {outer} stopped: the sink "
                                   f"temperatures are not finite")
        t_solved, t_sink = t_sink, t_new
        if change < _FLUID_TOL:
            break
    else:
        raise ConvergenceError(
            f"coolant march did not converge in {_MAX_OUTER} outer "
            f"iterations (last change {change:.3e} K)")

    # the field against the sinks the last pass solved with; the passes
    # transformed back only the walls' columns, so CG starts from the inlet
    del heat, modes, solved
    rhs = system.rhs(t_solved)
    temp, info = cg(op, rhs, x0=np.full(op.shape[0], inlet), rtol=tol,
                    M=inverse, maxiter=max_iters)
    if info < 0:
        raise ConvergenceError("linear solve stopped: the residual is not "
                               "finite")
    bnorm = _norm(rhs)
    rel = _norm(op @ temp - rhs) / bnorm if bnorm > 0 else 0.0
    if info > 0:
        raise ConvergenceError(
            f"linear solve did not reach tol {tol:g} in {max_iters} "
            f"iterations (residual {rel:.3e})")
    if not rel <= _RESIDUAL_SLACK * tol:
        raise ConvergenceError(
            f"the field's recomputed residual {rel:.3e} exceeds "
            f"{_RESIDUAL_SLACK:g} x tol {tol:g}: rounding in the conduction "
            f"system swamps the solve")

    imbalance = grid.total_power - float(np.sum(sink_heat(
        temp.reshape(nx, -1)[:, walls], t_sink)))

    # field with the sink temperature of each void cell's station
    void = grid.channel_id >= 0
    solid = ~void
    field = np.empty((nx, grid.ny, grid.nz))
    field[:, solid] = temp.reshape(nx, -1)
    field[:, void] = t_sink[grid.channel_id[void], :nx].T

    # surface extrapolation under imposed flux
    k = material.thermal_conductivity
    t_max = float(np.max(temp))
    for layer, flux in ((grid.nz - 1, grid.flux_top), (0, grid.flux_bottom)):
        m = solid[:, layer] & (flux > 0.0)
        if m.any():
            surf = field[:, :, layer][m] + flux[m] * grid.dz / (2.0 * k)
            t_max = max(t_max, float(surf.max()))

    return FvSolution(
        temperature=field,
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
    give the same cell counts are refused before any solve.
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
    for grid in grids:
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
