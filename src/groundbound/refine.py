"""Iterative lower-bound refinement by localized Gaussian perturbations of S.

One step adds ``dS(q) = s * exp(-(q-a)^2 / sigma^2)`` to the running log-trial
and optimizes the single amplitude ``s`` to maximize the global infimum of the
local energy.  Growing ``s`` too far creates side minima that undercut the
original one (a bifurcation of the minimizer), so candidates pass a censor:
amplitudes whose certified bound regresses are clipped toward zero, and a
regression paired with a minimizer jump beyond the bump's influence radius is
rejected outright.  A step commits only when the certified bound did not
decrease, which makes the recorded bound history non-decreasing by
construction.  Bumps share a center and width only once: committing at a
``(a, sigma)`` already carried adds the amplitude to that entry, so the bump
sum has one term per distinct center however often the schedule revisits it.

Selection is cheap because the local energy is exactly quadratic in one
amplitude: with the kinetic coefficient ``c`` of ``H = -c d^2/dq^2 + V``
(``1/2`` for the shipped systems), unit-bump derivatives ``g1, g2`` and the
committed trial's ``grad S0, lap S0``,

    E_loc(q; s) = [V - c (lap S0 + (grad S0)^2)]
                  - s c (g2 + 2 g1 grad S0)  -  s^2 c g1^2

so a dense amplitude scan costs a few small broadcasts over a fixed grid.  The
committed trial's part of it (the grid, ``grad S0`` and the ``alpha`` term) is
kept with the state and rebuilt only after a commit.  The rebuild reuses what
did not change: the potential and the base trial's derivatives on the grid,
and each bump's ``(q - a)/sigma`` and ``exp(-t^2)`` column, so a commit costs a
new column at most and a few products and sums over the bumps.  The scan
scores only the grid columns that can hold the minimum over the amplitude
range: each column is concave in s (its ``s^2`` term is ``-c g1^2``), so its
least value sits at an end of the range, and a column whose least value lies
above another column's largest, rounding included, never holds it.  The
minimum of the rest is the same float.  The amplitude that wins the scan
(golden-refined to 1e-4) is then certified by the ordinary polished global
search before it may commit.

Everything here is one-dimensional, matching the systems it refines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    AsymptoticLimit,
    Hamiltonian,
    LocalEnergyField,
    LogTrialFunction,
    coordinate_1d,
    declared_limits,
    make_log_field,
)
from .search import SearchConfig, global_min

__all__ = [
    "GaussianBump",
    "RefinementState",
    "new_refinement_state",
    "perturbed_trial",
    "perturbed_field",
    "optimize_bump_amplitude",
    "censor_guard",
    "default_centers",
    "DEFAULT_AMPLITUDE_RANGE",
]

DEFAULT_AMPLITUDE_RANGE = (-2.0, 2.0)
AMPLITUDE_RESOLUTION = 1e-4
JUMP_FACTOR = 3.0  # minimizer jump beyond this many sigma flags a bifurcation
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SELECTION_GRID_MIN = 4001
# Plateau tie-break: when distant structure pins the global bound, a whole
# interval of amplitudes scores the same.  A tiny preference for lifting the
# field inside the bump's own window makes the choice deterministic and
# productive without measurably biasing the bound.
LOCAL_TIEBREAK_WEIGHT = 1e-6
LOCAL_WINDOW_SIGMAS = 3.0
# Grid values scored per broadcast: a block of about 8 x 4001 doubles stays
# in cache, however many grid columns the scan keeps.
SCAN_BLOCK_CELLS = 8 * 4001
# Bounds on the rounding of a computed amplitude-scan energy: a relative part
# (8 unit roundoffs of |alpha| + S|beta| + S^2|gamma|, S the largest |s|), and
# an absolute part that covers products rounded below the normal range.
SCAN_ROUNDING = 8.0 * 2.0**-52
SCAN_ROUNDING_FLOOR = 2.0**-1022
# Bound changes below this are search-resolution noise, not regressions; the
# commit rule itself stays strict so the recorded history never decreases.
CENSOR_TOL = 1e-9
# The default schedule's centers: [-4, 4] at spacing 0.5.
CENTER_SPAN = (-4.0, 4.0)
CENTER_SPACING = 0.5


@dataclass(frozen=True)
class GaussianBump:
    """Additive perturbation of S: amplitude, center, width (all bounded)."""

    s: float
    a: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("bump width sigma must be positive")


def _bump_terms(q: np.ndarray, s, a, sigma) -> tuple[np.ndarray, np.ndarray]:
    """``t = (q - a_k)/sigma_k`` and each bump's value ``s_k exp(-t^2)``, one
    column per bump, at the points ``q`` of shape ``(n,)``.

    ``s``, ``a`` and ``sigma`` are per-bump arrays, or scalars for one bump.
    """
    t = (q[:, None] - a) / sigma
    return t, np.exp(-t * t) * s


def _summed_derivs(t: np.ndarray, e: np.ndarray, sigma, sigma2) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative of the bump sum from its terms ``t`` and
    ``e`` (see :func:`_bump_terms`), given each ``sigma`` and its square.

    Each derivative is summed over the bumps as soon as it is built, which
    keeps the peak memory of a long bump list down.  Both are built in one
    work array, since a large temporary costs more to allocate than to fill;
    each element is ``e * (-2 t / sigma)`` and ``e * (4 t t - 2) / sigma2``
    all the same.
    """
    w = np.multiply(t, -2.0)
    w /= sigma
    w *= e
    d1 = w.sum(axis=1)
    np.multiply(t, 4.0, out=w)
    w *= t
    w -= 2.0
    w *= e
    w /= sigma2
    return d1, w.sum(axis=1)


def _bump_derivs(q: np.ndarray, s, a, sigma) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative of the bump sum at the points ``q``."""
    return _summed_derivs(*_bump_terms(q, s, a, sigma), sigma, sigma**2)


def _with_bump(bumps: tuple[GaussianBump, ...], bump: GaussianBump) -> tuple[GaussianBump, ...]:
    """``bumps`` plus ``bump``, added into the entry at the same ``(a, sigma)``
    in place when there is one, appended otherwise."""
    for i, b in enumerate(bumps):
        if b.a == bump.a and b.sigma == bump.sigma:
            return bumps[:i] + (GaussianBump(b.s + bump.s, b.a, b.sigma),) + bumps[i + 1 :]
    return bumps + (bump,)


@dataclass(frozen=True)
class _SelectionGrid:
    """The committed trial on the amplitude scan's fixed grid.

    ``grid`` holds the valid grid points, ``grad0`` the trial's gradient and
    ``alpha`` the local energy there.  The rest is what a later build reuses:
    ``v``, ``s1`` and ``s2`` are the potential and the base trial's ``S0'``
    and ``S0''`` on the grid, and ``t`` and ``ex`` hold each bump's
    ``(q - a)/sigma`` and ``exp(-t^2)``, one column per bump in bump order
    (C-ordered ``(n, K)`` arrays).  The other fields say what it was built
    from; it is reused only while all of them still match the state.
    """

    hamiltonian: Hamiltonian
    base: LogTrialFunction
    bumps: tuple[GaussianBump, ...]
    box: tuple[float, float]
    n: int
    grid: np.ndarray
    grad0: np.ndarray
    alpha: np.ndarray
    v: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    t: np.ndarray
    ex: np.ndarray

    def shares_base(self, state: "RefinementState", box: tuple[float, float], n: int) -> bool:
        """Whether the base trial's parts on the grid serve ``state``."""
        return (
            self.hamiltonian is state.hamiltonian
            and self.base is state.base
            and self.box == box
            and self.n == n
        )

    def fits(self, state: "RefinementState", box: tuple[float, float], n: int) -> bool:
        return self.shares_base(state, box, n) and self.bumps == state.bumps


@dataclass(frozen=True)
class RefinementState:
    """Base trial plus committed bumps and the bound trajectory so far.

    ``selection`` caches the committed trial on the amplitude scan's grid; it
    is rebuilt whenever it no longer fits the bumps, box or grid size, so a
    state built without it (or copied with ``replace``) stays correct.
    """

    hamiltonian: Hamiltonian
    base: LogTrialFunction
    asymptotic_limits: tuple[AsymptoticLimit, ...]
    bumps: tuple[GaussianBump, ...]
    current_lower: float
    bound_history: tuple[tuple[int, float], ...]
    selection: _SelectionGrid | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        lows = [v for _, v in self.bound_history]
        if any(later < earlier - 1e-12 for earlier, later in zip(lows, lows[1:])):
            raise ValueError("bound history must be non-decreasing")


def perturbed_trial(state: RefinementState) -> LogTrialFunction:
    """The derivatives of S = S_base + sum of bumps, assembled analytically.

    The bump sum is evaluated as one broadcast over the stacked (s, a, sigma)
    arrays, so hundreds of bumps stay cheap.  Repeated centers are allowed and
    simply add, although refinement itself commits one bump per center.  The
    base trial's ``derivs`` must return a Laplacian, not a Hessian.
    """
    base, bumps = state.base, state.bumps
    if not bumps:
        return base
    s_arr = np.array([b.s for b in bumps])
    a_arr = np.array([b.a for b in bumps])
    sig_arr = np.array([b.sigma for b in bumps])
    sig2 = sig_arr**2

    def derivs(qs):
        g0, lap0 = base.derivs(qs)
        t, e = _bump_terms(coordinate_1d(qs), s_arr, a_arr, sig_arr)
        d1, d2 = _summed_derivs(t, e, sig_arr, sig2)
        grad = np.asarray(g0, dtype=float)[:, 0] + d1
        return grad[:, None], np.asarray(lap0, dtype=float) + d2

    return LogTrialFunction(derivs=derivs, normalizable=base.normalizable)


def perturbed_field(state: RefinementState) -> LocalEnergyField:
    # bumps and their derivatives vanish at infinity, so the base trial's
    # asymptotic limits carry over unchanged
    return make_log_field(
        state.hamiltonian,
        perturbed_trial(state),
        asymptotic_limits=state.asymptotic_limits,
    )


def new_refinement_state(
    h: Hamiltonian,
    base: LogTrialFunction,
    asymptotic_limits: Sequence[AsymptoticLimit],
    cfg: SearchConfig | None = None,
) -> RefinementState:
    """Initial state: no bumps, bound from a fresh search of the base field."""
    if h.domain.dimension != 1:
        raise ValueError("refinement handles one-dimensional systems only")
    cfg = cfg or SearchConfig()
    state = RefinementState(h, base, tuple(asymptotic_limits), (), -math.inf, ())
    lower = global_min(perturbed_field(state), cfg=cfg).value
    return replace(state, current_lower=lower, bound_history=((0, lower),))


def censor_guard(
    state: RefinementState,
    candidate: GaussianBump,
    cfg: SearchConfig | None = None,
) -> str:
    """Classify a candidate bump: ``accept``, ``clip`` or ``reject``.

    A decreased bound whose minimizer also jumped more than ``3 sigma`` means
    the bump pushed the field through a bifurcation and grew a distant
    competing minimum: reject.  A decreased bound without the jump means the
    amplitude merely overshot locally: clip it back toward zero.  Anything
    that keeps the bound is acceptable.
    """
    cfg = cfg or SearchConfig()
    after = global_min(
        perturbed_field(replace(state, bumps=_with_bump(state.bumps, candidate))), cfg=cfg
    )
    if after.value >= state.current_lower - CENSOR_TOL:
        return "accept"
    before = global_min(perturbed_field(state), cfg=cfg)
    jumped = (
        before.location is not None
        and after.location is not None
        and abs(float(after.location[0]) - float(before.location[0]))
        > JUMP_FACTOR * candidate.sigma
    )
    return "reject" if jumped else "clip"


def _selection_grid(state: RefinementState, cfg: SearchConfig) -> _SelectionGrid:
    """The state's cached selection grid, or a fresh one if it no longer fits.

    A fresh grid reuses what the cached one shares with the state: the base
    trial's parts while the Hamiltonian, base, box and grid size match, and
    the bump columns while the cached bumps' centers and widths lead the
    state's, so after a commit (:func:`_with_bump` appends a center or merges
    into one) only an appended center's column is new.  Each element is built by the same operations, on
    arrays of the same layout, as :func:`perturbed_trial`'s ``derivs`` on
    the grid, so ``grad0`` and ``alpha`` are the same bit for bit.
    """
    h = state.hamiltonian
    box = cfg.box_for(h.domain)[0]
    n = max(SELECTION_GRID_MIN, 10 * cfg.grid_points_per_axis + 1)
    old = state.selection
    if old is not None and old.fits(state, box, n):
        return old
    if old is not None and old.shares_base(state, box, n):
        grid, v, s1, s2 = old.grid, old.v, old.s1, old.s2
        t, ex = old.t, old.ex
        if [(b.a, b.sigma) for b in old.bumps] != [(b.a, b.sigma) for b in state.bumps[: len(old.bumps)]]:
            t, ex = np.empty((grid.size, 0)), np.empty((grid.size, 0))
    else:
        qs = np.linspace(box[0], box[1], n)[:, None]
        qs = qs[h.domain.valid_mask(qs)]
        v = np.asarray(h.potential(qs), dtype=float)
        g0, lap0 = state.base.derivs(qs)
        grid, s1, s2 = qs[:, 0], np.asarray(g0, dtype=float)[:, 0], np.asarray(lap0, dtype=float)
        t, ex = np.empty((grid.size, 0)), np.empty((grid.size, 0))
    bumps = state.bumps
    shared = t.shape[1]
    if len(bumps) > shared:
        a_new = np.array([b.a for b in bumps[shared:]])
        sig_new = np.array([b.sigma for b in bumps[shared:]])
        t_new = (grid[:, None] - a_new) / sig_new
        t = np.concatenate([t, t_new], axis=1)
        ex = np.concatenate([ex, np.exp(-t_new * t_new)], axis=1)
    grad0, lap = s1, s2
    if bumps:
        s_arr = np.array([b.s for b in bumps])
        sig_arr = np.array([b.sigma for b in bumps])
        d1, d2 = _summed_derivs(t, ex * s_arr, sig_arr, sig_arr**2)
        grad0, lap = s1 + d1, s2 + d2
    alpha = v - h.isotropic_coefficient * (lap + grad0 * grad0)
    return _SelectionGrid(h, state.base, bumps, box, n, grid, grad0, alpha, v, s1, s2, t, ex)


def _scan_energies(svals, alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """E_loc on the grid columns given, one row per amplitude ``s``:
    ``alpha + s beta + s^2 gamma``."""
    svals = np.atleast_1d(np.asarray(svals, dtype=float))
    e = np.multiply.outer(svals, beta)
    e += alpha
    e += np.multiply.outer(svals * svals, gamma)
    return e


def _may_win(alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray, s_lo: float, s_hi: float) -> np.ndarray:
    """Whether each column can hold the least of the columns' computed
    energies (:func:`_scan_energies`) at some amplitude in ``[s_lo, s_hi]``.

    Every ``gamma`` is at most zero (it is ``-c g1^2``), so each column's
    energy is concave in s and its least value over the range sits at an
    end, while ``alpha + s beta`` bounds it above at every s and is largest
    at an end.  ``delta`` covers the rounding of both against the computed
    energies.  A column whose least value lies above the smallest of the
    columns' upper bounds never holds the minimum, so dropping it leaves the
    minimum, one of the remaining floats, unchanged bit for bit.  Every
    comparison with a NaN is false, so a NaN keeps every column.
    """
    scale = max(abs(s_lo), abs(s_hi))
    delta = SCAN_ROUNDING * (np.abs(alpha) + scale * np.abs(beta) + scale * scale * np.abs(gamma))
    delta += SCAN_ROUNDING_FLOOR
    least = _scan_energies((s_lo, s_hi), alpha, beta, gamma).min(axis=0) - delta
    most = alpha + np.maximum(s_lo * beta, s_hi * beta) + delta
    return ~(least > most.min())


class _Columns(NamedTuple):
    """Grid columns of an amplitude curve, and the slice of them inside the
    bump's window (``None`` when the window holds no grid point)."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    window: slice | None

    def narrowed(self, s_lo: float, s_hi: float) -> "_Columns":
        """The columns that can hold the least energy of these columns, or
        of their window, at some amplitude in ``[s_lo, s_hi]``, in order, so
        that those in the window are still one slice of them."""
        keep = _may_win(self.alpha, self.beta, self.gamma, s_lo, s_hi)
        w = self.window
        if w is not None:
            keep[w] |= _may_win(self.alpha[w], self.beta[w], self.gamma[w], s_lo, s_hi)
        cols = np.flatnonzero(keep)
        if w is not None:
            w = slice(*np.searchsorted(cols, [w.start, w.stop]).tolist())
        return _Columns(self.alpha[cols], self.beta[cols], self.gamma[cols], w)


class _AmplitudeCurve:
    """Grid estimates of s -> inf_q E_loc for one candidate center.

    Exact in s (the field is quadratic in the amplitude), approximate in q
    (fixed grid, no polish); the winning amplitude is re-certified by the full
    search before committing.

    ``kept`` holds the grid columns that can hold a minimum at an amplitude
    in ``s_range`` (see :func:`_may_win`).  Amplitudes in that range are
    scored on them, and any other on the whole grid, with the same bits.
    """

    def __init__(
        self,
        state: RefinementState,
        a: float,
        sigma: float,
        cfg: SearchConfig,
        s_range: tuple[float, float],
    ):
        self.selection = sel = _selection_grid(state, cfg)
        self.grid, self.alpha = sel.grid, sel.alpha
        c = state.hamiltonian.isotropic_coefficient
        g1, g2 = _bump_derivs(self.grid, 1.0, a, sigma)
        self.beta = -c * (g2 + 2.0 * sel.grad0 * g1)
        self.gamma = -c * g1 * g1
        # |q - a| is monotone on either side of a, so the window is one slice
        inside = np.flatnonzero(np.abs(self.grid - a) <= LOCAL_WINDOW_SIGMAS * sigma)
        self.window = slice(inside[0], inside[-1] + 1) if inside.size else None
        limits = declared_limits(state.hamiltonian.domain, state.asymptotic_limits, "min")
        self.limit_floor = min((lim for _, lim in limits), default=math.inf)
        self.full = _Columns(self.alpha, self.beta, self.gamma, self.window)
        self.s_range = (float(s_range[0]), float(s_range[1]))
        self.kept = self.full.narrowed(*self.s_range)

    def score(self, svals) -> np.ndarray:
        """The grid bound at each amplitude plus the local tie-break, scored
        a block of about ``SCAN_BLOCK_CELLS`` grid values at a time."""
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        s_lo, s_hi = self.s_range
        cols = self.kept if ((svals >= s_lo) & (svals <= s_hi)).all() else self.full
        block = max(1, SCAN_BLOCK_CELLS // max(1, cols.alpha.size))
        out = np.empty(svals.shape[0])
        for k in range(0, svals.shape[0], block):
            e = _scan_energies(svals[k : k + block], cols.alpha, cols.beta, cols.gamma)
            bound = np.minimum(e.min(axis=1), self.limit_floor)
            if cols.window is not None:  # else the bump window is outside the box
                bound += LOCAL_TIEBREAK_WEIGHT * e[:, cols.window].min(axis=1)
            out[k : k + block] = bound
        return out


def optimize_bump_amplitude(
    state: RefinementState,
    a: float,
    sigma: float,
    s_range: tuple[float, float] = DEFAULT_AMPLITUDE_RANGE,
    cfg: SearchConfig | None = None,
) -> tuple[float, RefinementState]:
    """Pick the amplitude at center ``a`` maximizing the global lower bound.

    The grid estimate is concave in s: every ``E_loc(q; s)`` is a quadratic
    with ``s^2`` coefficient ``-g1^2/2 <= 0``, and a minimum of concave
    functions is concave.  A dense scan still comes first because the curve
    can be flat over a whole plateau of amplitudes (when distant structure
    pins the bound) and only the local tie-break then separates them.  Golden
    section refines the scan's winner to 1e-4, the full search certifies it,
    and the censor clips or rejects any certified regression.  Committing at
    a center and width the state already carries adds the amplitude to that
    bump.  If every usable amplitude regresses, ``s* = 0`` is returned with
    the state unchanged (the center is exhausted).
    """
    cfg = cfg or SearchConfig()
    if not math.isfinite(state.current_lower):
        raise ValueError("refinement needs a finite starting lower bound")
    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if s_hi < s_lo:
        raise ValueError("empty amplitude range")

    step_no = state.bound_history[-1][0] + 1

    def unchanged() -> tuple[float, RefinementState]:
        return 0.0, replace(
            state, bound_history=state.bound_history + ((step_no, state.current_lower),)
        )

    curve = _AmplitudeCurve(state, a, sigma, cfg, (s_lo, s_hi))
    # keep the selection grid for the next step, which reuses it unless this one commits
    state = replace(state, selection=curve.selection)
    coarse = np.linspace(s_lo, s_hi, 161)
    scores = curve.score(coarse)
    i = int(np.argmax(scores))
    lo_b = float(coarse[max(0, i - 1)])
    hi_b = float(coarse[min(len(coarse) - 1, i + 1)])

    def score1(s: float) -> float:
        return float(curve.score(s)[0])

    s_star = _golden_max(score1, lo_b, hi_b, AMPLITUDE_RESOLUTION)
    # ties across the coarse plateau: prefer the best local lift among them
    # (each amplitude is scored on its own, so the scan's scores serve)
    plateau = np.flatnonzero(np.abs(scores - scores[i]) <= 1e-12)
    if plateau.size > 1 and scores[plateau[-1]] >= score1(s_star) - 1e-12:
        s_star = float(coarse[plateau[np.argmax(scores[plateau])]])
    if abs(s_star) < AMPLITUDE_RESOLUTION:
        s_star = 0.0
    if s_star == 0.0:
        return unchanged()

    # certify with the full polished search; clip or reject regressions
    def certified(s: float) -> float:
        bumped = replace(state, bumps=_with_bump(state.bumps, GaussianBump(s, a, sigma)))
        return global_min(perturbed_field(bumped), cfg=cfg).value

    best = certified(s_star)
    if best < state.current_lower:
        if censor_guard(state, GaussianBump(s_star, a, sigma), cfg) == "reject":
            return unchanged()
        while s_star != 0.0 and best < state.current_lower:
            s_star = s_star / 2.0 if abs(s_star) > AMPLITUDE_RESOLUTION else 0.0
            best = certified(s_star) if s_star != 0.0 else state.current_lower
        if s_star == 0.0:
            return unchanged()

    new_state = replace(
        state,
        bumps=_with_bump(state.bumps, GaussianBump(s_star, a, sigma)),
        current_lower=best,
        bound_history=state.bound_history + ((step_no, best),),
    )
    return s_star, new_state


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return c if fc >= fd else d


def default_centers(sweeps: int = 12) -> list[float]:
    """``CENTER_SPAN`` at ``CENTER_SPACING``, ordered inside-out, swept
    ``sweeps`` times.

    The first center sits where the committed trial's log-derivative is small
    (between symmetric wells a bump there lifts both minima at once, so the
    very first step already improves the bound strictly).  One pass cannot
    finish the job: a bump on one side only helps until the mirror minimum
    pins the bound, so the schedule revisits every center and lets the two
    sides leapfrog.
    """
    lo, hi = CENTER_SPAN
    n = int(round((hi - lo) / CENTER_SPACING))
    one = sorted((lo + CENTER_SPACING * i for i in range(n + 1)), key=lambda a: (abs(a), -a))
    return one * max(1, sweeps)
