"""Independent finite-difference eigensolvers for reference ground energies.

These share no code with the local-energy machinery: the 1D path discretizes
``-(1/2) d^2/dq^2 + V`` on a uniform grid and finds the lowest eigenvalue of
the symmetric tridiagonal matrix by bisection on its Sturm-sequence negative
count; the 2D path finds the lowest eigenpair of the 5-point Dirichlet
Laplacian on a masked grid by block-size-1 LOBPCG (Knyazev, SIAM J. Sci.
Comput. 23, 2001), preconditioned with a symmetric geometric-multigrid V-cycle
(the operator is symmetric positive definite).  Both Richardson-extrapolate
over a grid pair (the 1D scheme is second order; the masked 2D boundary is
staircase-limited, so its pair difference is treated as first order).  The
results are what the bound inequalities are validated against.

A bisection step asks only whether one eigenvalue lies below its midpoint,
so its Sturm count stops at the first negative pivot, or where every later
row is strictly diagonally dominant and no later pivot can turn negative
(see :func:`sturm_count_below`).  Either stop returns the count the whole
recurrence gives, capped at one, so the bisection takes the steps it would
take on full counts and ends on the same float.  The ground vector of the
edge-decay test comes from two inverse-iteration solves at a shift within
``1e-10 max(1, |e0|)`` of the eigenvalue: each damps every other component
by the spectral gap over that distance, a factor of at least about 1e6.
A ground vector that over- or underflows to a non-finite value fails the
solve with ``FloatingPointError`` rather than passing that test.

Node layout of the 2D path: a vector on a grid holds the mask's interior
nodes only, in row-major order of the box array, plus one trailing zero
slot that stands in for every neighbour off the mask.  The neighbours along
axis 0 come from int32 index tables, those along axis 1 from the vector
shifted by one slot, zeroed at the ends of each run of interior nodes; the
grid transfers are int32 gather tables with one scalar weight per parity
class.  Every table and buffer is built once per grid level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Domain

__all__ = [
    "Grid1D",
    "Grid2D",
    "OracleResult",
    "BoxTooSmallError",
    "ConvergenceError",
    "solve_1d_ground_state",
    "solve_2d_dirichlet_ground_state",
    "sturm_count_below",
]

EDGE_DECAY_FRACTION = 1e-8
BOX_RETRIES = 3

# 1D eigensolver: Sturm-count bisection
TAIL_MARGIN = 16.0 * np.finfo(float).eps  # of max|d| + |x| + 1, for the dominant-tail stop
INVERSE_ITERATIONS = 2  # solves behind the ground vector of the edge-decay test

# 2D eigensolver: LOBPCG with a geometric-multigrid V-cycle preconditioner
LOBPCG_RTOL = 1e-9
LOBPCG_MAX_ITER = 200
JACOBI_OMEGA = 0.8
SMOOTHING_SWEEPS = 2
COARSEST_NODES = 28
MASK_BLOCK_ROWS = 32  # rows of the box array per domain evaluation


class BoxTooSmallError(RuntimeError):
    """The eigenfunction does not decay at the truncation edges."""


class ConvergenceError(RuntimeError):
    """An iterative eigensolve exhausted its budget."""


def _check_axis(lo: float, hi: float) -> None:
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ValueError(f"empty or infinite interval [{lo}, {hi}]")


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [x_min, x_max] with n points (edges included)."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 100:
            raise ValueError("use at least 100 grid points")
        _check_axis(self.x_min, self.x_max)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


@dataclass(frozen=True)
class Grid2D:
    """Axis-aligned box with n points per axis; the domain mask comes from
    the Domain's constraint (interior where b < 0)."""

    box: tuple[tuple[float, float], tuple[float, float]]
    n: int

    def __post_init__(self) -> None:
        if self.n < 32:
            raise ValueError("use at least 32 points per axis")
        for lo, hi in self.box:
            _check_axis(lo, hi)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        (x0, x1), (y0, y1) = self.box
        return np.linspace(x0, x1, self.n), np.linspace(y0, y1, self.n)

    @property
    def spacings(self) -> tuple[float, float]:
        (x0, x1), (y0, y1) = self.box
        return (x1 - x0) / (self.n - 1), (y1 - y0) / (self.n - 1)


@dataclass(frozen=True)
class OracleResult:
    """Extrapolated eigenvalue estimate with a self-consistency error bar."""

    energy: float
    error_bar: float
    coarse_value: float
    fine_value: float
    detail: str = ""


# ---------------------------------------------------------------------------
# 1D: Sturm-sequence bisection on the tridiagonal discretization


def sturm_count_below(diag: np.ndarray, off: np.ndarray, x: float, limit: int | None = None) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix below x,
    or ``limit`` (at least 1) if there are at least that many.

    The count is the number of negative pivots of the recurrence
    q_i = (d_i - x) - e_{i-1}^2 / q_{i-1}, with a tiny floor guarding exact
    zeros.  The loop runs on Python floats, which do the same IEEE
    operations as numpy scalars at a fraction of the cost; it iterates
    memoryviews, so a row becomes a float only when the loop reaches it.
    It stops as soon as the count is decided:

    - at the ``limit``-th negative pivot, since no later row can take a
      negative pivot back;
    - at row i once every later row is strictly diagonally dominant at x,
      its Gershgorin lower edge ``d_j - |e_{j-1}| - |e_j|`` above x by
      ``TAIL_MARGIN * (max|d| + |x| + 1)``, and ``q_i >= |e_i|``.  Then
      ``e_i^2 / q_i <= |e_i|``, so ``q_{i+1} >= d_{i+1} - x - |e_i|``, which
      exceeds ``|e_{i+1}|``: by induction no later pivot is negative or
      zero.  The margin is several times the rounding of one recurrence
      step and of the dominance test, a few ulps of ``max|d| + |x|`` (a
      dominant row's off-diagonals are below ``d_j - x``), so the computed
      pivots keep the exact ones' inequalities while the squares
      ``e_j^2`` stay finite.

    The rows the loop visits see the full recurrence's operations, so the
    count it returns is the full count, capped at ``limit``, exactly.
    """
    tiny = 1e-300
    x = float(x)
    n = diag.shape[0]
    stop = n + 1 if limit is None else limit
    if stop < 1:
        raise ValueError("limit must be at least 1")
    d = np.asarray(diag, dtype=float)
    # the last row that is not strictly dominant at x (0 if none is)
    absoff = np.abs(off)
    lower = d.copy()
    lower[:-1] -= absoff
    lower[1:] -= absoff
    margin = TAIL_MARGIN * (float(np.max(np.abs(d))) + abs(x) + 1.0)
    loose = np.flatnonzero(lower <= x + margin)
    last = int(loose[-1]) if loose.size else 0
    # rows become Python floats only as the loop reaches them; row 0 reads
    # e2 = 0 over q = 1, which leaves its pivot d_0 - x as it is
    a, e2 = memoryview(d - x), memoryview(np.concatenate(([0.0], off * off)))
    count, q = 0, 1.0
    for ai, ei in zip(a[: last + 1], e2):  # rows 0 .. last: the full recurrence
        q = ai - ei / q
        if q <= 0.0:
            if q == 0.0:
                q = tiny
            else:
                count += 1
                if count == stop:
                    return count
    # each row after last: stop once the pivot reaches its off-diagonal
    for abs_e, ai, ei in zip(memoryview(absoff)[last:], a[last + 1 :], e2[last + 1 :]):
        if q >= abs_e:
            return count
        q = ai - ei / q
        if q <= 0.0:
            if q == 0.0:
                q = tiny
            else:
                count += 1
                if count == stop:
                    return count
    return count


def _lowest_eigenvalue_tridiag(diag: np.ndarray, off: np.ndarray) -> float:
    absoff = np.abs(off)
    radius = np.zeros_like(diag)
    radius[:-1] += absoff
    radius[1:] += absoff
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    # bisection on the Sturm count: lowest eigenvalue = inf{x : count(x) >= 1},
    # each step asking only whether there is one eigenvalue below mid
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sturm_count_below(diag, off, mid, limit=1) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _tridiag_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm, looping on Python floats like ``sturm_count_below``."""
    dg, e, r = diag.tolist(), off.tolist(), rhs.tolist()
    c, d = e[0] / dg[0], r[0] / dg[0]
    cs, ds = [c], [d]
    # the last row's c (over a zero off-diagonal) is never used
    for dgi, e_in, e_out, ri in zip(dg[1:], e, e[1:] + [0.0], r[1:]):
        denom = dgi - e_in * c
        c = e_out / denom
        d = (ri - e_in * d) / denom
        cs.append(c)
        ds.append(d)
    out = [d]
    for c, di in zip(reversed(cs[:-1]), reversed(ds[:-1])):
        d = di - c * d
        out.append(d)
    out.reverse()
    return np.array(out)


def _ground_vector(diag: np.ndarray, off: np.ndarray, e0: float) -> np.ndarray:
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(diag.shape[0])
    v /= np.linalg.norm(v)
    shift = e0 - 1e-10 * max(1.0, abs(e0))
    for _ in range(INVERSE_ITERATIONS):
        v = _tridiag_solve(diag - shift, off, v)
        v /= np.linalg.norm(v)
    return v


def _solve_1d_once(
    potential: Callable[[np.ndarray], np.ndarray],
    grid: Grid1D,
    dirichlet_edges: tuple[bool, bool],
) -> tuple[float, np.ndarray]:
    x = grid.points()[1:-1]  # unknowns at interior nodes, psi = 0 at edges
    h = grid.spacing
    v = np.asarray(potential(x), dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential must be finite on the interior grid")
    diag = 1.0 / (h * h) + v
    off = np.full(x.shape[0] - 1, -0.5 / (h * h))
    e0 = _lowest_eigenvalue_tridiag(diag, off)
    # a vector that over- or underflows is refused below, without a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vec = _ground_vector(diag, off, e0)
    if not np.all(np.isfinite(vec)):
        raise FloatingPointError(
            f"the ground vector at eigenvalue {e0:.6g} is not finite, so its "
            f"edge decay cannot be tested"
        )
    peak = float(np.max(np.abs(vec)))
    for side, hard in enumerate(dirichlet_edges):
        if hard:
            continue  # a physical wall, no decay requirement
        edge_amp = abs(vec[0] if side == 0 else vec[-1])
        if edge_amp > EDGE_DECAY_FRACTION * peak:
            raise BoxTooSmallError(
                f"eigenfunction amplitude {edge_amp/peak:.2e} of peak at "
                f"{'left' if side == 0 else 'right'} edge; enlarge the box"
            )
    return e0, vec


def solve_1d_ground_state(
    potential: Callable[[np.ndarray], np.ndarray],
    grid: Grid1D,
    dirichlet_edges: tuple[bool, bool] = (False, False),
) -> OracleResult:
    """Lowest eigenvalue of ``-(1/2) d^2/dq^2 + V`` on the truncated line.

    Solves on the given grid and on its nested refinement (doubled
    resolution), Richardson-extrapolates the O(h^2) scheme, and reports
    ``|fine - coarse| / 3`` as the error bar.  Soft edges must show the
    eigenfunction decayed below 1e-8 of its peak; otherwise the box grows by
    half (a bounded number of times) and the solve retries.
    """
    g = grid
    for attempt in range(BOX_RETRIES + 1):
        try:
            coarse, _ = _solve_1d_once(potential, g, dirichlet_edges)
            fine_grid = Grid1D(g.x_min, g.x_max, 2 * g.n - 1)
            fine, _ = _solve_1d_once(potential, fine_grid, dirichlet_edges)
            value = (4.0 * fine - coarse) / 3.0
            return OracleResult(
                energy=value,
                error_bar=abs(fine - coarse) / 3.0,
                coarse_value=coarse,
                fine_value=fine,
                detail=f"box [{g.x_min}, {g.x_max}], n = {g.n}/{fine_grid.n}",
            )
        except BoxTooSmallError:
            if attempt == BOX_RETRIES:
                raise
            width = g.x_max - g.x_min
            grow_lo = 0.0 if dirichlet_edges[0] else 0.25 * width
            grow_hi = 0.0 if dirichlet_edges[1] else 0.25 * width
            g = Grid1D(g.x_min - grow_lo, g.x_max + grow_hi, g.n)
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# 2D: masked 5-point Laplacian, LOBPCG with a multigrid V-cycle


def _mask_from_domain(domain: Domain, grid: Grid2D) -> np.ndarray:
    """Interior nodes of the box array, node (i, j) at (xs[i], ys[j]); the
    domain is evaluated ``MASK_BLOCK_ROWS`` rows at a time, so the point
    array and the constraint's temporaries stay small on fine grids."""
    xs, ys = grid.axes()
    n = grid.n
    mask = np.empty((n, n), dtype=bool)
    pts = np.empty((MASK_BLOCK_ROWS, n, 2))
    pts[:, :, 1] = ys[None, :]
    for start in range(0, n, MASK_BLOCK_ROWS):
        rows = min(MASK_BLOCK_ROWS, n - start)
        pts[:rows, :, 0] = xs[start : start + rows, None]
        mask[start : start + rows] = domain.interior_mask(pts[:rows].reshape(-1, 2)).reshape(rows, n)
    # Dirichlet ring: never let mask touch the array border
    mask[0, :] = mask[-1, :] = False
    mask[:, 0] = mask[:, -1] = False
    return mask


def _row_runs(mask: np.ndarray) -> np.ndarray:
    """Label each maximal run of masked nodes along axis 1 (labels from 1;
    values off the mask are meaningless)."""
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    return np.cumsum(starts, dtype=np.int32).reshape(mask.shape)


def _assert_connected(mask: np.ndarray) -> None:
    """Every masked node must be 4-connected to the first one.

    A dilation restricted to the mask that spreads the reached set along
    whole runs of masked nodes, alternating rows and columns until it stops
    growing: each pass costs a few array operations, and the number of
    passes follows the turns of the domain, not its size in nodes.
    """
    if not mask.any():
        raise ValueError("empty interior mask")
    runs = (_row_runs(mask), _row_runs(mask.T).T)
    seen = np.zeros_like(mask)
    seen.flat[np.argmax(mask)] = True  # the first masked node
    count, before = 1, 0
    while count != before:
        before = count
        for labels in runs:
            hit = np.zeros(int(labels[-1, -1]) + 1, dtype=bool)  # the last label is the largest
            hit[labels[seen]] = True
            seen = mask & hit[labels]
        count = int(seen.sum())
    if count != int(mask.sum()):
        raise ValueError("interior mask is not connected")


def _node_index(mask: np.ndarray) -> np.ndarray:
    """Each masked node's slot in row-major order, as an int32 array over the
    box padded by one line on every side (node (i, j) at [1 + i, 1 + j]);
    off the mask it holds the node count, the slot of the trailing zero."""
    size = int(np.count_nonzero(mask))
    index = np.full((mask.shape[0] + 2, mask.shape[1] + 2), size, dtype=np.int32)
    index[1:-1, 1:-1][mask] = np.arange(size, dtype=np.int32)
    return index


class _Level:
    """One grid of the V-cycle: its stencil tables, weights and work buffers.

    A vector on the level holds its ``size`` masked nodes in row-major order
    and one trailing zero slot, which stands in for every neighbour off the
    mask.  ``up`` and ``down`` are the slots of the neighbours along axis 0.
    Along axis 1 a node's neighbours are the next and the previous slot,
    except at the ``ends`` and ``starts`` of its run of masked nodes.
    """

    def __init__(self, mask: np.ndarray, hx: float, hy: float, finest: bool) -> None:
        self.mask, self.hx, self.hy = mask, hx, hy
        self.size = size = int(np.count_nonzero(mask))
        index = _node_index(mask)
        self.up = index[2:, 1:-1][mask]
        self.down = index[:-2, 1:-1][mask]
        self.ends = np.flatnonzero(~mask[:, 1:][mask[:, :-1]])
        self.starts = np.flatnonzero(~mask[:, :-1][mask[:, 1:]])
        self.jacobi = JACOBI_OMEGA / (1.0 / (hx * hx) + 1.0 / (hy * hy))  # omega / diagonal of H
        # the finest level works on the caller's residual and output vectors
        self.r = None if finest else np.zeros(size + 1)
        self.z = None if finest else np.zeros(size + 1)
        self.t = np.zeros(size + 1)
        self.g = np.empty(size)  # gathered neighbours
        self.inverse = None

    def make_coarsest(self) -> None:
        """Factor the level exactly: the inverse of its dense matrix."""
        size = self.size
        ax, ay = 0.5 / (self.hx * self.hx), 0.5 / (self.hy * self.hy)
        dense = np.diag(np.full(size, 2.0 * (ax + ay)))
        rows = np.arange(size)
        for nb in (self.up, self.down):
            inside = nb < size
            dense[rows[inside], nb[inside]] = -ax
        left = np.delete(rows, self.ends)  # nodes with a right neighbour
        dense[left, left + 1] = dense[left + 1, left] = -ay
        self.inverse = np.linalg.inv(dense)


def _apply_h(u: np.ndarray, level: _Level, out: np.ndarray) -> np.ndarray:
    """out = H u for H = -(1/2) Laplacian with Dirichlet conditions off the
    mask, on the vectors of ``level``, as
    ``((c u + up + down) (ax/ay) + right + left) (-ay)``."""
    ax, ay = 0.5 / (level.hx * level.hx), 0.5 / (level.hy * level.hy)
    size, g = level.size, level.g
    nodes = out[:size]
    np.multiply(u, -2.0 * (ax + ay) / ax, out=out)
    # every table holds valid slots; mode "clip" lets take write straight into g
    nodes += u.take(level.up, out=g, mode="clip")
    nodes += u.take(level.down, out=g, mode="clip")
    out *= ax / ay
    g[:] = u[1:]
    g[level.ends] = 0.0
    nodes += g
    g[1:] = u[: size - 1]
    g[level.starts] = 0.0
    nodes += g
    out *= -ay
    return out


class _Transfer:
    """Grid transfers between a level and the next coarser one, as gathers.

    Coarse node (i, j) sits on fine node (2i, 2j).  Prolongation is bilinear:
    the fine nodes fall into four parity classes, and a class interpolates
    from one, two or four coarse nodes with one weight.  Restriction is its
    transpose over 4 (full weighting): each coarse node gathers the fine
    nodes of each class about it.  Each class is an int32 table per
    neighbour and a scalar weight; a neighbour off the mask reads the zero
    slot.
    """

    def __init__(self, fine: _Level, coarse: _Level) -> None:
        self.fine, self.coarse = fine, coarse
        m0, m1 = coarse.mask.shape
        findex, cindex = _node_index(fine.mask), _node_index(coarse.mask)
        self.prolong, self.restrict_from = [], []
        # prolongation lays its values out class by class; ``order`` gathers
        # them back into row-major order
        self.order = np.empty(fine.size, dtype=np.int32)
        start = 0
        for pi in (0, 1):
            for pj in (0, 1):
                weight = 0.5 ** (pi + pj)
                # fine node (2s + pi, 2t + pj) reads coarse (s + a, t + b), with
                # a in {0} on a coarse line (pi = 0) and in {0, 1} between two
                ours = findex[1 + pi :: 2, 1 + pj :: 2][:m0, :m1]
                on = ours < fine.size
                self.prolong.append((weight, np.stack([
                    cindex[1 + a : 1 + a + m0, 1 + b : 1 + b + m1][on]
                    for a in ((0,), (0, 1))[pi] for b in ((0,), (0, 1))[pj]
                ])))
                members = ours[on]
                self.order[members] = np.arange(start, start + members.size, dtype=np.int32)
                start += members.size
                # and coarse node (i, j) reads fine (2i + a, 2j + b) of the class
                self.restrict_from.append((0.25 * weight, np.stack([
                    findex[1 + a :: 2, 1 + b :: 2][:m0, :m1][coarse.mask]
                    for a in ((0,), (-1, 1))[pi] for b in ((0,), (-1, 1))[pj]
                ])))

    def prolong_add(self, coarse: np.ndarray, fine: np.ndarray) -> None:
        """fine += P coarse, using the fine level's ``t`` and ``g`` as work buffers."""
        by_class, g = self.fine.t, self.fine.g
        start = 0
        for weight, tables in self.prolong:
            part = by_class[start : start + tables.shape[1]]
            coarse.take(tables[0], out=part, mode="clip")
            for table in tables[1:]:
                part += coarse.take(table, out=g[: part.size], mode="clip")
            part *= weight
            start += part.size
        fine[:-1] += by_class.take(self.order, out=g, mode="clip")

    def restrict(self, fine: np.ndarray, coarse: np.ndarray) -> None:
        """coarse = P^T fine / 4, using the coarse level's ``t`` and ``g`` as work buffers."""
        nodes, part, g = coarse[:-1], self.coarse.t[:-1], self.coarse.g
        nodes.fill(0.0)
        for weight, tables in self.restrict_from:
            fine.take(tables[0], out=part, mode="clip")
            for table in tables[1:]:
                part += fine.take(table, out=g, mode="clip")
            part *= weight
            nodes += part


class _VCycle:
    """Symmetric geometric-multigrid V-cycle, an SPD approximation of H^-1.

    Each coarser grid keeps every other node (``mask[::2, ::2]`` with a
    false border) and rediscretizes the same stencil at twice the spacing;
    prolongation is bilinear and restriction its transpose over 4.  Each
    level runs ``SMOOTHING_SWEEPS`` damped-Jacobi sweeps before and after
    its coarse correction, so the cycle is symmetric; the coarsest level
    (at most ``COARSEST_NODES`` per axis) is solved exactly.  Every buffer
    is allocated here, once.
    """

    def __init__(self, mask: np.ndarray, hx: float, hy: float) -> None:
        self.levels = [_Level(mask, hx, hy, finest=True)]
        while max(mask.shape) > COARSEST_NODES:
            mask = mask[::2, ::2].copy()
            mask[0, :] = mask[-1, :] = False
            mask[:, 0] = mask[:, -1] = False
            hx, hy = 2.0 * hx, 2.0 * hy
            self.levels.append(_Level(mask, hx, hy, finest=False))
        self.levels[-1].make_coarsest()
        self.transfers = [_Transfer(fine, coarse) for fine, coarse in zip(self.levels, self.levels[1:])]

    def __call__(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = B r for a vector of the finest level."""
        self._cycle(0, r, out)
        return out

    def _smooth(self, level: _Level, r: np.ndarray, z: np.ndarray) -> None:
        t = _apply_h(z, level, level.t)
        np.subtract(r, t, out=t)
        t *= level.jacobi
        z += t

    def _cycle(self, k: int, r: np.ndarray, z: np.ndarray) -> None:
        level = self.levels[k]
        if level.inverse is not None:
            np.dot(level.inverse, r[:-1], out=z[:-1])
            return
        np.multiply(r, level.jacobi, out=z)  # the first sweep, from zero
        for _ in range(SMOOTHING_SWEEPS - 1):
            self._smooth(level, r, z)
        t = _apply_h(z, level, level.t)
        np.subtract(r, t, out=t)
        coarse = self.levels[k + 1]
        self.transfers[k].restrict(t, coarse.r)
        self._cycle(k + 1, coarse.r, coarse.z)
        self.transfers[k].prolong_add(coarse.z, z)
        for _ in range(SMOOTHING_SWEEPS):
            self._smooth(level, r, z)


def _ritz(lam: float, basis: tuple[np.ndarray, ...], images: tuple[np.ndarray, ...]) -> np.ndarray:
    """Basis coefficients of the lowest Ritz vector of H on ``span(basis)``.

    ``basis[0]`` has Rayleigh quotient ``lam`` and ``images`` is H applied
    to ``basis[1:]``.  Raises LinAlgError when the basis Gram matrix is not
    positive definite.
    """
    size = len(basis)
    gram_h = np.empty((size, size))
    gram_m = np.empty((size, size))
    for i in range(size):
        for j in range(i, size):
            gram_h[i, j] = gram_h[j, i] = lam if j == 0 else np.vdot(basis[i], images[j - 1])
            gram_m[i, j] = gram_m[j, i] = np.vdot(basis[i], basis[j])
    inv_l = np.linalg.inv(np.linalg.cholesky(gram_m))
    vecs = np.linalg.eigh(inv_l @ gram_h @ inv_l.T)[1]
    return inv_l.T @ vecs[:, 0]


def _lobpcg(
    x: np.ndarray,
    apply_h: Callable[[np.ndarray, np.ndarray], np.ndarray],
    precondition: Callable[[np.ndarray, np.ndarray], np.ndarray],
    max_iter: int,
) -> float:
    """Lowest eigenvalue of SPD H by block-size-1 LOBPCG (Knyazev 2001).

    Each step runs Rayleigh-Ritz on ``[x, w, p]``: the iterate, the
    preconditioned residual ``w = B (H x - lam x)`` and the previous step
    ``p``.  ``apply_h(u, out)`` and ``precondition(r, out)`` write into
    ``out``.  ``x`` (the start) is overwritten with the unit eigenvector.
    Stops at ``|H x - lam x| <= LOBPCG_RTOL |lam|``.  H x is applied afresh
    each step rather than kept, which saves a full-grid array.
    """
    w, hw, p, hp = (np.empty_like(x) for _ in range(4))
    size = 2  # basis [x, w] until a previous step p exists
    for _ in range(max_iter):
        x /= np.linalg.norm(x)
        r = apply_h(x, hw)  # H x, then the residual, in the buffer of H w
        lam = float(np.vdot(x, r))
        r -= np.multiply(x, lam, out=w)  # w is free until the preconditioner fills it
        if np.linalg.norm(r) <= LOBPCG_RTOL * abs(lam):
            return lam
        precondition(r, w)
        w /= np.linalg.norm(w)
        apply_h(w, hw)
        try:
            coef = _ritz(lam, (x, w, p)[:size], (hw, hp)[: size - 1])
        except np.linalg.LinAlgError:  # the Gram matrix of [x, w, p] is not positive definite
            size = 2
            coef = _ritz(lam, (x, w), (hw,))
        # p <- c_w w + c_p p (and H p alike), x <- c_x x + p
        w *= coef[1]
        hw *= coef[1]
        if size == 3:
            p *= coef[2]
            hp *= coef[2]
            p += w
            hp += hw
        else:
            p, w, hp, hw = w, p, hw, hp
        x *= coef[0]
        x += p
        scale = np.linalg.norm(p)
        p /= scale
        hp /= scale
        size = 3
    raise ConvergenceError(f"LOBPCG exhausted {max_iter} iterations")


def _solve_2d_once(domain: Domain, grid: Grid2D, x0: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Lowest eigenpair on one grid.  The start ``x0`` and the returned
    eigenvector are arrays over the whole box, zero off the mask; a given
    start is overwritten with the eigenvector."""
    mask = _mask_from_domain(domain, grid)
    _assert_connected(mask)
    vcycle = _VCycle(mask, *grid.spacings)
    finest = vcycle.levels[0]
    x = np.zeros(finest.size + 1)
    x[:-1] = 1.0 if x0 is None else x0[mask]

    def apply_h(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        return _apply_h(v, finest, out)

    lam = _lobpcg(x, apply_h, vcycle, LOBPCG_MAX_ITER)
    u = np.empty(mask.shape) if x0 is None else x0
    u.fill(0.0)
    u[mask] = x[:-1]
    return lam, u


def _interp_double(u: np.ndarray, n_fine: int) -> np.ndarray:
    """Bilinear warm start for the doubled grid."""
    n = u.shape[0]
    xi = np.linspace(0, n - 1, n_fine)
    i0 = np.clip(xi.astype(int), 0, n - 2)
    t = xi - i0
    rows = u[i0, :] * (1 - t)[:, None] + u[i0 + 1, :] * t[:, None]
    # written into a C-ordered array: the eigensolver takes it over, and
    # np.vdot would copy an F-ordered one on every call
    cols = np.multiply(rows[:, i0], (1 - t)[None, :], out=np.empty((n_fine, n_fine)))
    cols += rows[:, i0 + 1] * t[None, :]
    return cols


def solve_2d_dirichlet_ground_state(domain: Domain, grid: Grid2D) -> OracleResult:
    """Lowest Dirichlet eigenvalue of ``-(1/2) Laplacian`` on ``b < 0``.

    Solves on ``n`` points per axis from a flat start, then on ``2n`` from
    the bilinear interpolation of that eigenvector.  The staircase mask
    makes the leading eigenvalue error O(h), so the pair is extrapolated
    linearly and ``|fine - coarse|`` is reported as the error bar.

    Each solve is one LOBPCG run: Rayleigh-Ritz on the iterate, the
    V-cycle-preconditioned residual and the previous step, until
    ``|H x - lam x| <= 1e-9 |lam|`` (``ConvergenceError`` after
    ``LOBPCG_MAX_ITER`` steps).  The V-cycle coarsens to every other node,
    smooths with damped Jacobi and solves its coarsest grid exactly.
    """
    if domain.kind != "bounded":
        raise ValueError("the 2D oracle needs a bounded domain")
    coarse, u = _solve_2d_once(domain, grid)
    fine_grid = Grid2D(grid.box, 2 * grid.n)
    fine, _ = _solve_2d_once(domain, fine_grid, x0=_interp_double(u, fine_grid.n))
    value = 2.0 * fine - coarse
    return OracleResult(
        energy=value,
        error_bar=abs(fine - coarse),
        coarse_value=coarse,
        fine_value=fine,
        detail=f"box {grid.box}, n = {grid.n}/{fine_grid.n} per axis",
    )
