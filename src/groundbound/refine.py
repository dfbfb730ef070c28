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
kept with the state and rebuilt only after a commit.  The amplitude that wins
the scan (golden-refined to 1e-4) is then certified by the ordinary polished
global search before it may commit.

Everything here is one-dimensional, matching the systems it refines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

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
    "refine_schedule",
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
# Amplitudes scored per broadcast: an 8 x 4001 block of doubles stays in cache.
SCAN_BLOCK = 8
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


def _bump_value(q: np.ndarray, s, a, sigma) -> np.ndarray:
    """``sum_k s_k exp(-(q-a_k)^2/sigma_k^2)`` at the points ``q``."""
    return _bump_terms(q, s, a, sigma)[1].sum(axis=1)


def _bump_derivs(q: np.ndarray, s, a, sigma) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative of :func:`_bump_value` at the points ``q``.

    Each derivative is summed over the bumps as soon as it is built, which
    keeps the peak memory of a long bump list down.
    """
    t, e = _bump_terms(q, s, a, sigma)
    d1 = (e * (-2.0 * t / sigma)).sum(axis=1)
    d2 = (e * (4.0 * t * t - 2.0) / sigma**2).sum(axis=1)
    return d1, d2


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
    ``alpha`` the local energy there.  The other fields say what it was built
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

    def fits(self, state: "RefinementState", box: tuple[float, float], n: int) -> bool:
        return (
            self.hamiltonian is state.hamiltonian
            and self.base is state.base
            and self.bumps == state.bumps
            and self.box == box
            and self.n == n
        )


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
    """S = S_base + sum of bumps, with derivatives assembled analytically.

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

    def s(qs):
        return np.asarray(base.s(qs), dtype=float) + _bump_value(coordinate_1d(qs), s_arr, a_arr, sig_arr)

    def derivs(qs):
        g0, lap0 = base.derivs(qs)
        d1, d2 = _bump_derivs(coordinate_1d(qs), s_arr, a_arr, sig_arr)
        grad = np.array(g0, dtype=float)
        grad[:, 0] += d1
        return grad, np.asarray(lap0, dtype=float) + d2

    return LogTrialFunction(
        s=s,
        derivs=derivs,
        normalizable=base.normalizable,
        label=base.label + f" + {len(bumps)} bump(s)",
    )


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
    """The state's cached selection grid, or a fresh one if it no longer fits."""
    h = state.hamiltonian
    box = cfg.box_for(h.domain)[0]
    n = max(SELECTION_GRID_MIN, 10 * cfg.grid_points_per_axis + 1)
    if state.selection is not None and state.selection.fits(state, box, n):
        return state.selection
    qs = np.linspace(box[0], box[1], n)[:, None]
    qs = qs[h.domain.valid_mask(qs)]
    v = np.asarray(h.potential(qs), dtype=float)
    grad, lap0 = perturbed_trial(state).derivs(qs)
    grad0 = np.asarray(grad, dtype=float)[:, 0]
    lap0 = np.asarray(lap0, dtype=float)
    alpha = v - h.isotropic_coefficient * (lap0 + grad0 * grad0)
    return _SelectionGrid(h, state.base, state.bumps, box, n, qs[:, 0], grad0, alpha)


class _AmplitudeCurve:
    """Grid estimates of s -> inf_q E_loc for one candidate center.

    Exact in s (the field is quadratic in the amplitude), approximate in q
    (fixed grid, no polish); the winning amplitude is re-certified by the full
    search before committing.
    """

    def __init__(self, state: RefinementState, a: float, sigma: float, cfg: SearchConfig):
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

    def _energies(self, svals) -> np.ndarray:
        """E_loc on the grid, one row per amplitude: ``alpha + s beta + s^2 gamma``."""
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        e = np.multiply.outer(svals, self.beta)
        e += self.alpha
        e += np.multiply.outer(svals * svals, self.gamma)
        return e

    def score(self, svals) -> np.ndarray:
        """The grid bound at each amplitude plus the local tie-break, scored
        ``SCAN_BLOCK`` amplitudes at a time."""
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        out = np.empty(svals.shape[0])
        for k in range(0, svals.shape[0], SCAN_BLOCK):
            e = self._energies(svals[k : k + SCAN_BLOCK])
            bound = np.minimum(e.min(axis=1), self.limit_floor)
            if self.window is not None:  # else the bump window is outside the box
                bound += LOCAL_TIEBREAK_WEIGHT * e[:, self.window].min(axis=1)
            out[k : k + SCAN_BLOCK] = bound
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

    if s_hi == s_lo:
        s_star = s_lo
        if s_star == 0.0:
            return unchanged()
    else:
        curve = _AmplitudeCurve(state, a, sigma, cfg)
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
        plateau = np.abs(scores - scores[i]) <= 1e-12
        if plateau.sum() > 1 and score1(float(coarse[plateau][-1])) >= score1(s_star) - 1e-12:
            s_star = float(coarse[plateau][np.argmax(curve.score(coarse[plateau]))])
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


def refine_schedule(
    h: Hamiltonian,
    base: LogTrialFunction,
    asymptotic_limits: Sequence[AsymptoticLimit],
    centers: Sequence[float],
    sigma: float = 1.0,
    s_range: tuple[float, float] = DEFAULT_AMPLITUDE_RANGE,
    cfg: SearchConfig | None = None,
) -> RefinementState:
    """Run the one-amplitude-at-a-time schedule over ``centers`` in order.

    Exhausted centers simply stop improving; the returned state carries the
    full bound history (non-decreasing by the commit rule).
    """
    cfg = cfg or SearchConfig()
    state = new_refinement_state(h, base, asymptotic_limits, cfg=cfg)
    for a in centers:
        _, state = optimize_bump_amplitude(state, float(a), sigma, s_range, cfg)
    return state


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
