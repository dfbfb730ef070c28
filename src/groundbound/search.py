"""Global extremum location and control-parameter optimization.

``global_min`` / ``global_max`` certify extrema only up to the declared grid
resolution plus a derivative-free polish; the winning candidate is compared
against every declared singular-set limit and asymptotic limit, so a search
box on an unbounded domain is legitimate exactly when those limits are
supplied.  The polish runs the grid winner and every multistart in lockstep:
each coordinate sends the ``+step`` and ``-step`` candidates of every running
start to a single batched field call, with a small follow-up call for the
few starts whose ``-step`` from an accepted ``+step`` misses their old point,
and each start keeps its own greedy acceptance and step halving, so the
result is the same as polishing the starts one by one.
One search covers a stack of fields that share a dimension and a box, each
member asking for its own kinds among ``"min"`` and ``"max"`` (the magnetic
trivial sandwich asks each lower trial for its minimum and each upper trial
for its maximum): each member's level-0 grid scan serves all its kinds, one
lockstep polish serves the whole stack, its rows tagged ``(member, kind)``
and carrying their own sign, and each ``(member, kind)`` keeps its own zoomed
levels, history and winner.  Every report equals the one a search of that
field for that kind alone would give, bit for bit.  ``global_min`` and
``global_max`` search a stack of one field.  ``_stacked_bounds`` turns any
list of fields into bounds, one per ``(lower, upper)`` pair of field indices
(each field with itself by default: both kinds from about 40% fewer field
calls than two searches); ``bounds_of_field``, the CLI's ``bounds`` and
``sweep``, the magnetic trivial sandwich and the optimizer all go through it.
``optimize_parameters`` runs the outer sup/inf over a trial family's control
vector with a full inner extremum search per probe: the initial probes form
one stack, and so does each call of the same lockstep polish on the outer
starts, both step directions at once.  A family that supplies
``evaluate_rows`` has a whole stack evaluated in one call per probe batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .core import (
    BoundsResult,
    Domain,
    Hamiltonian,
    LocalEnergyField,
    ResolutionCaveat,
    SingularEvaluationError,
    declared_limits,
    evaluate_masked,
    sample_interior,
)

__all__ = [
    "SearchConfig",
    "ExtremumReport",
    "EmptySearchRegionError",
    "FamilyCannotBoundError",
    "TrialFamily",
    "global_min",
    "global_max",
    "grid_points",
    "bounds_of_field",
    "optimize_parameters",
]

POLISH_STEP_STOP = 1e-9
POLISH_VALUE_STOP = 1e-12
RANDOM_PROBE_COUNT = 20  # probes recorded by optimize_parameters for dominance


class EmptySearchRegionError(RuntimeError):
    """No grid point survived the interior/singularity masks."""


class FamilyCannotBoundError(RuntimeError):
    """Every probed control vector produced an infinite objective."""


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs for the extremum searches."""

    grid_points_per_axis: int = 101
    refinement_levels: int = 3
    multistart_count: int = 8
    box: tuple[tuple[float, float], ...] | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.grid_points_per_axis < 8:
            raise ValueError("grid_points_per_axis must be at least 8")
        if self.refinement_levels < 1:
            raise ValueError("refinement_levels must be at least 1")
        if self.multistart_count < 1:
            raise ValueError("multistart_count must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")

    def box_for(self, domain: Domain) -> tuple[tuple[float, float], ...]:
        """The search box over ``domain``: this config's box, else the
        domain's, as float pairs."""
        box = self.box or domain.box
        if box is None:
            raise ValueError("no search box: neither the domain nor the config supplies one")
        return tuple((float(lo), float(hi)) for lo, hi in box)


@dataclass(frozen=True)
class ExtremumReport:
    """A certified-to-resolution global extremum of a local-energy field.

    ``attained`` is ``"interior"`` or names the declared limit that won
    (``"singular:<name>"`` / ``"asymptotic:<name>"``), in which case
    ``boundary_or_asymptotic`` is set and ``location`` may be ``None``.
    ``history`` is the best value seen after each refinement level and is
    monotone by construction.
    """

    kind: str  # "min" | "max"
    location: np.ndarray | None
    value: float
    gradient_norm_at_location: float | None
    boundary_or_asymptotic: bool
    attained: str
    history: tuple[float, ...]


def grid_points(box: Sequence[tuple[float, float]], n_per_axis: int) -> np.ndarray:
    """The ``n_per_axis ** dim`` tensor-grid points of ``box``, last axis fastest."""
    axes = [np.linspace(lo, hi, n_per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _field_values(field: LocalEnergyField, qs: np.ndarray) -> np.ndarray:
    """Raw field values, NaN where a point is exterior or inside a singular tube."""
    return evaluate_masked(field.domain.valid_mask(qs), field.evaluate, qs)


def _stack_values(
    fields: Sequence[LocalEnergyField],
    rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
    members: np.ndarray,
    qs: np.ndarray,
) -> np.ndarray:
    """Raw values of member ``members[j]`` of a stack at ``qs[j]``, NaN where
    that member's field may not be evaluated.  ``members`` is nondecreasing.

    ``rows(members, qs)`` evaluates every member at its own points in one
    call; its members share one valid mask, so one mask covers the batch.
    Without it each member present evaluates its own run of points, a slice
    of ``qs``; a stack of one field evaluates ``qs`` as it is.
    """
    if rows is not None:
        return evaluate_masked(fields[0].domain.valid_mask(qs), rows, members, qs)
    if len(fields) == 1:
        return _field_values(fields[0], qs)
    vals = np.empty(qs.shape[0])
    ends = np.searchsorted(members, np.arange(len(fields) + 1)).tolist()
    for m, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
        if a < b:
            vals[a:b] = _field_values(fields[m], qs[a:b])
    return vals


def _signed(vals: np.ndarray, sign: float | np.ndarray) -> np.ndarray:
    """``sign * vals`` with every non-finite result set to +inf, so a minimizer
    of the result never picks an invalid point."""
    out = sign * vals
    out[~np.isfinite(out)] = np.inf
    return out


def _polish(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    starts: np.ndarray,
    box: Sequence[tuple[float, float]],
    initial_step: np.ndarray,
    signs: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Derivative-free coordinate descent with shrinking steps, run in lockstep.

    ``objective(rows, points)`` maps a ``(k, dim)`` batch of points, the
    candidates of the starts ``rows`` (nondecreasing indices into
    ``starts``), to a new array of ``k`` raw values; it must not write into
    either argument, which may be views of the polish's own arrays.  Row
    ``j`` of ``starts`` minimizes ``signs[j] * objective`` (every sign is +1
    by default), a non-finite product counting as +inf, so one call polishes
    minima and maxima together.  Starts are clipped into ``box`` and ``initial_step`` is
    non-negative, so every point stays inside.
    Each start keeps its own point, value and step vector, and probes each
    coordinate at ``+step``, then at ``-step`` from wherever the ``+`` probe
    left it, taking a candidate when it is strictly better.  One call
    carries both probes: each start's ``+`` candidate and its ``-`` candidate
    from the point before the ``+`` probe, rows ``np.repeat(rows, 2)``.  A
    start whose ``+`` candidate wins then owes a ``-`` probe from its new
    point.  Where that lands bitwise on its old coordinate, its value is the
    old one, which loses; the rest (after rounding, or after an up step
    clipped to the box) go to one follow-up call of just those starts.  Only
    these paired calls repeat rows; the first call is of the starts.
    A sweep that improves a start by less than ``POLISH_VALUE_STOP`` counts
    as stalled, so that start's steps keep halving until they drop below
    ``POLISH_STEP_STOP``, where it stops; this drives each location in to
    step resolution rather than quitting on the first flat sweep.  When
    ``objective`` is batch invariant (a row's value does not depend on the
    other rows) and deterministic, every start follows exactly the
    trajectory it would follow alone.  Returns the polished points and their
    signed values.
    """
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    x = np.clip(np.asarray(starts, dtype=float), lo, hi)
    sign = np.ones(x.shape[0]) if signs is None else np.asarray(signs, dtype=float)
    rows = np.arange(x.shape[0])  # output row of each running start
    fx = _signed(objective(rows, x), sign)
    dim = x.shape[1]
    step = np.tile(np.asarray(initial_step, dtype=float), (x.shape[0], 1))
    out_x, out_f = x.copy(), fx.copy()
    running = step.max(axis=1) >= POLISH_STEP_STOP

    def probe(sel: np.ndarray, i: int, col: np.ndarray, sel_rows: np.ndarray, sel_sign: np.ndarray) -> np.ndarray:
        """Signed values of the running starts ``sel`` (output rows
        ``sel_rows``, signs ``sel_sign``) with coordinate ``i`` set to ``col``.
        This and the two step helpers read the running arrays as they are at
        the call."""
        if dim == 1:
            cand = col[:, None]
        else:
            cand = x[sel]
            cand[:, i] = col
        return _signed(objective(sel_rows, cand), sel_sign)

    # x stays in the box, so a step up can pass only hi and a step down only
    # lo; this is then exactly min(max(c, lo), hi), which np.clip is not: it
    # may flip the sign of a zero
    def up(col: np.ndarray, i: int) -> np.ndarray:
        col = col + step[:, i]
        return np.where(col > hi[i], hi[i], col)

    def down(col: np.ndarray, i: int) -> np.ndarray:
        col = col - step[:, i]
        return np.where(col < lo[i], lo[i], col)

    # a start stuck at +inf gives inf - inf in the stall test; it stalls either way
    with np.errstate(invalid="ignore"):
        both = None
        while True:
            if not running.all():
                out_x[rows[~running]] = x[~running]
                out_f[rows[~running]] = fx[~running]
                rows, x, fx, step, sign = (a[running] for a in (rows, x, fx, step, sign))
                if rows.size == 0:
                    return out_x, out_f
                both = None
            if both is None:  # the running starts changed: pair them anew
                both = np.repeat(np.arange(rows.size), 2)
                both_rows, both_sign = rows[both], sign[both]
            start = fx.copy()
            for i in range(dim):
                xi = x[:, i]  # a view: accepted moves land in x
                col = up(xi, i)
                # rows 2j and 2j + 1: start j's + candidate and its - candidate
                # from the point it holds before the + probe
                pair = np.repeat(col, 2)
                pair[1::2] = down(xi, i)
                f = probe(both, i, pair, both_rows, both_sign)
                f_up, f_down = f[0::2], f[1::2]
                took = f_up < fx
                # a start that takes its + candidate probes - from there; back
                # on its old coordinate bit for bit, that is its old point,
                # whose value loses to the new one, so only the rest are redone
                f_down[took] = np.inf
                back = down(col, i)
                redo = took & (back.view(np.int64) != xi.view(np.int64))
                np.copyto(xi, col, where=took)
                np.copyto(fx, f_up, where=took)
                # each start's - candidate from the point it now holds
                col = np.where(took, back, pair[1::2])
                if redo.any():
                    again = np.flatnonzero(redo)
                    f_down[again] = probe(again, i, col[again], rows[again], sign[again])
                better = f_down < fx
                np.copyto(xi, col, where=better)
                np.copyto(fx, f_down, where=better)
            # acceptance is strict, so a start improved exactly when fx < start
            step[~(fx < start) | ((start - fx) < POLISH_VALUE_STOP)] *= 0.5
            running = step.max(axis=1) >= POLISH_STEP_STOP


def _fd_gradient_norm(field: LocalEnergyField, x: np.ndarray) -> float | None:
    h = 1e-6
    dim = x.shape[0]
    e = h * np.eye(dim)
    # rows x + h e_0, x - h e_0, x + h e_1, ...
    pts = np.stack([x + e, x - e], axis=1).reshape(2 * dim, dim)
    if not field.domain.valid_mask(pts).all():
        return None
    v = field.evaluate(pts)
    g = (v[0::2] - v[1::2]) / (2 * h)
    return float(np.linalg.norm(g))


def _search_extrema(
    fields: Sequence[LocalEnergyField],
    cfg: SearchConfig,
    kinds: Sequence[tuple[str, ...]],
    rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> list[list[ExtremumReport]]:
    """For each field of a stack, one report per entry of its own tuple of
    ``kinds`` (``"min"`` or ``"max"``), in order.

    The fields share a dimension and a search box.  A member's kinds share
    its level-0 grid scan, one field call per member, and every
    ``(member, kind)`` shares one lockstep polish, whose rows are the member's
    grid winner for that kind and the member's multistarts; each keeps its own
    zoomed levels, history and winner.  ``rows`` optionally evaluates the
    stack in one call per polish probe (see :func:`_stack_values`).  Fields
    are batch invariant, so each report is the one a search of its field for
    its kind alone would give.
    """
    if len(kinds) != len(fields):
        raise ValueError("a stack needs one tuple of kinds per field")
    box = cfg.box_for(fields[0].domain)
    for field in fields:
        if field.domain.kind == "unbounded" and not field.asymptotic_limits:
            raise ValueError(
                "refusing to truncate an unbounded domain without declared asymptotic limits"
            )
        if cfg.box is None and field.domain.box != fields[0].domain.box:
            raise ValueError("a stack of fields must share one search box")

    # level 0: one full-box scan per member, shared by that member's kinds;
    # one call per member, so no call holds every member's temporaries
    grid0 = grid_points(box, cfg.grid_points_per_axis)
    raw0 = [_field_values(field, grid0) for field in fields]
    if not all(np.isfinite(raw).any() for raw in raw0):
        raise EmptySearchRegionError("every grid point is exterior, singular, or non-finite")

    # then each (member, kind) re-grids a zoomed window around its own running
    # best, one field call per level: a stacked zoom call would hold every
    # group's temporaries at once
    spacing = np.array([(hi - lo) / (cfg.grid_points_per_axis - 1) for lo, hi in box])
    histories: list[list[float]] = []
    starts: list[np.ndarray] = []
    group_member: list[int] = []
    group_sign: list[float] = []
    for m, (field, member_kinds) in enumerate(zip(fields, kinds)):
        rng = np.random.default_rng(cfg.rng_seed)
        try:
            multistarts = sample_interior(replace(field.domain, box=box), cfg.multistart_count, rng)
        except SingularEvaluationError:
            # a sliver domain can defeat rejection sampling; the grid scan
            # already covered it, so multistarts are merely skipped
            multistarts = np.empty((0, len(box)))
        for kind in member_kinds:
            sign = 1.0 if kind == "min" else -1.0
            history: list[float] = []
            best_x: np.ndarray  # level 0 has a finite value, so it sets best_x
            best_v = np.inf
            window = box
            for level in range(cfg.refinement_levels):
                pts = grid0 if level == 0 else grid_points(window, cfg.grid_points_per_axis)
                vals = _signed(raw0[m] if level == 0 else _field_values(field, pts), sign)
                if np.isfinite(vals).any():
                    i = int(np.argmin(vals))
                    if vals[i] < best_v:
                        best_v = float(vals[i])
                        best_x = pts[i].copy()
                history.append(best_v)
                widths = np.array([hi - lo for lo, hi in window]) * 0.25
                window = tuple(
                    (max(box[d][0], best_x[d] - widths[d] / 2), min(box[d][1], best_x[d] + widths[d] / 2))
                    for d in range(len(box))
                )
            histories.append(history)
            starts.append(np.concatenate([best_x[None, :], multistarts]))
            group_member.append(m)
            group_sign.append(sign)

    # polish every (member, kind)'s grid winner and multistarts together
    sizes = [len(s) for s in starts]
    row_member = np.repeat(group_member, sizes)

    def objective(polished: np.ndarray, qs: np.ndarray) -> np.ndarray:
        return _stack_values(fields, rows, row_member[polished], qs)

    xs, vs = _polish(objective, np.concatenate(starts), box, spacing, np.repeat(group_sign, sizes))
    ends = np.cumsum(sizes)[:-1]
    groups = iter(zip(histories, np.split(xs, ends), np.split(vs, ends)))
    return [
        [_extremum_report(field, kind, *next(groups)) for kind in member_kinds]
        for field, member_kinds in zip(fields, kinds)
    ]


def _extremum_report(
    field: LocalEnergyField, kind: str, history: list[float], xs: np.ndarray, vs: np.ndarray
) -> ExtremumReport:
    """The report of one kind from its polished points and signed values,
    with the declared limits folded in; ``history`` is signed too."""
    sign = 1.0 if kind == "min" else -1.0
    # ties on the value broken by lexicographically smallest location
    interior_x, interior_v = None, np.inf
    for x, v in zip(xs, vs.tolist()):
        if v < interior_v or (v == interior_v and interior_x is not None and tuple(x) < tuple(interior_x)):
            interior_x, interior_v = x, v
    if interior_x is not None and np.isfinite(interior_v):
        history.append(min(history[-1], interior_v))

    winner_value = interior_v
    winner_attained = "interior"
    for attained, lim in declared_limits(field.domain, field.asymptotic_limits, kind):
        if sign * lim < winner_value:
            winner_value = sign * lim
            winner_attained = attained

    at_limit = winner_attained != "interior"
    if at_limit:
        location = None
        grad_norm = None
        value = sign * winner_value
    else:
        location = interior_x
        grad_norm = _fd_gradient_norm(field, interior_x)
        value = sign * interior_v
    hist = tuple(sign * h for h in history)
    if at_limit:
        hist = hist + (value,)
    return ExtremumReport(
        kind=kind,
        location=location,
        value=value,
        gradient_norm_at_location=grad_norm,
        boundary_or_asymptotic=at_limit,
        attained=winner_attained,
        history=hist,
    )


def global_min(field: LocalEnergyField, cfg: SearchConfig | None = None) -> ExtremumReport:
    """Global minimum of the field over its domain, including declared limits."""
    return _search_extrema([field], cfg or SearchConfig(), [("min",)])[0][0]


def global_max(field: LocalEnergyField, cfg: SearchConfig | None = None) -> ExtremumReport:
    """Mirror of :func:`global_min`."""
    return _search_extrema([field], cfg or SearchConfig(), [("max",)])[0][0]


def _caveat(field: LocalEnergyField, cfg: SearchConfig) -> ResolutionCaveat:
    box = cfg.box_for(field.domain)
    # the polish refines far below the final grid, but the grid is what
    # certifies globality, so the caveat reports the level-0 spacing
    return ResolutionCaveat(
        grid_points_per_axis=cfg.grid_points_per_axis,
        refinement_levels=cfg.refinement_levels,
        multistart_count=cfg.multistart_count,
        box=box,
        final_grid_spacing=max((hi - lo) / (cfg.grid_points_per_axis - 1) for lo, hi in box),
    )


def bounds_of_field(field: LocalEnergyField, cfg: SearchConfig | None = None) -> BoundsResult:
    """Lower/upper energy bounds as the global min/max of one field."""
    return _stacked_bounds([field], cfg or SearchConfig())[0]


def _stacked_bounds(
    fields: Sequence[LocalEnergyField],
    cfg: SearchConfig,
    rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> list[BoundsResult]:
    """One :class:`BoundsResult` per ``(lower, upper)`` pair of indices into
    ``fields``: the lower bound is the global minimum of ``fields[lower]``,
    the upper the global maximum of ``fields[upper]``.  By default each field
    is paired with itself.

    Each field is searched only for the kinds its pairs ask of it, and the
    fields that share a search box are searched as one stack.
    ``rows(members, qs)``, when given, evaluates ``fields[members[j]]`` at
    ``qs[j]`` (see :func:`_stack_values`).
    """
    pairs = [(i, i) for i in range(len(fields))] if pairs is None else pairs
    lows, highs = {lo for lo, _ in pairs}, {hi for _, hi in pairs}
    by_box: dict[tuple, list[int]] = {}
    for i, field in enumerate(fields):
        if i in lows or i in highs:
            by_box.setdefault(cfg.box_for(field.domain), []).append(i)
    reports: dict[tuple[int, str], ExtremumReport] = {}
    for members in by_box.values():
        kinds = [("min",) * (i in lows) + ("max",) * (i in highs) for i in members]
        stack_rows = rows
        if rows is not None and len(members) < len(fields):
            index = np.array(members)  # the stack's member j is field index[j]
            stack_rows = lambda stacked, qs, index=index: rows(index[stacked], qs)
        found = _search_extrema([fields[i] for i in members], cfg, kinds, stack_rows)
        for i, member_kinds, member_reports in zip(members, kinds, found):
            reports.update(zip([(i, kind) for kind in member_kinds], member_reports))
    results = []
    for lo, hi in pairs:
        lower, upper = reports[lo, "min"], reports[hi, "max"]
        results.append(BoundsResult(lower.value, upper.value, lower, upper, _caveat(fields[lo], cfg)))
    return results


# ---------------------------------------------------------------------------
# control-parameter optimization


@dataclass(frozen=True)
class TrialFamily:
    """A parameterized trial: a control box and a field builder.

    ``build(lam)`` must return the annotated local-energy field of the family
    member ``lam``.  An empty ``control_box`` denotes a frozen family.

    ``evaluate_rows(controls, qs)``, when given, evaluates member
    ``controls[j]`` at point ``qs[j]`` for every row ``j`` in one call, so a
    stack of members is searched with one call per probe batch instead of
    one per member.  Its contract: each value equals
    ``build(controls[j]).evaluate(qs[j:j+1])`` bit for bit, it is only asked
    for points where the members' fields are valid, and every member's
    domain has the same ``valid_mask`` and box.
    """

    control_box: tuple[tuple[float, float], ...]
    build: Callable[[np.ndarray], LocalEnergyField]
    label: str = ""
    evaluate_rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class ParameterSearchResult:
    best_params: np.ndarray
    bounds: BoundsResult
    probes: tuple[tuple[tuple[float, ...], float], ...]


def optimize_parameters(
    family: TrialFamily,
    h: Hamiltonian | None,
    objective: str,
    cfg: SearchConfig | None = None,
) -> ParameterSearchResult:
    """sup (or inf) over the control box of the inner extremum search.

    ``objective`` is ``"maximize-lower"`` or ``"minimize-upper"``.  Control
    spaces here are tiny, so each probe runs the full inner search; the probe
    record always contains ``RANDOM_PROBE_COUNT`` seeded random draws, which is
    what makes the dominance property checkable.  ``h`` is not used: the
    family's builder owns the Hamiltonian.

    The initial probes are searched as one stack, and the outer starts are
    polished in lockstep by :func:`_polish`, each call's new control vectors
    (every start's ``+step`` and ``-step`` candidates) searched as one stack.
    Each start follows the trajectory it would follow alone, so the record
    lists the initial probes and then each start's visits in start order:
    the order a one-start-at-a-time polish meets them.
    """
    if objective not in ("maximize-lower", "minimize-upper"):
        raise ValueError(f"unknown objective {objective!r}")
    cfg = cfg or SearchConfig()
    want_lower = objective == "maximize-lower"
    inner_cfg = replace(cfg, box=None)

    def value(b: BoundsResult) -> float:
        return b.lower if want_lower else b.upper

    if not family.control_box:
        b = bounds_of_field(family.build(np.empty(0)), inner_cfg)
        return ParameterSearchResult(np.empty(0), b, (((), value(b)),))

    lo = np.array([c[0] for c in family.control_box])
    hi = np.array([c[1] for c in family.control_box])
    sign = -1.0 if want_lower else 1.0  # minimize sign*val
    rng = np.random.default_rng(cfg.rng_seed)

    cache: dict[tuple[float, ...], BoundsResult] = {}

    def key_of(lam: np.ndarray) -> tuple[float, ...]:
        return tuple(float(v) for v in lam)

    def signed_value(key: tuple[float, ...]) -> float:
        v = value(cache[key])
        return np.inf if not np.isfinite(v) else sign * v

    def search(keys: list[tuple[float, ...]]) -> np.ndarray:
        """Signed objective of each key, searching the new ones as stacks."""
        new = [key for key in dict.fromkeys(keys) if key not in cache]
        if new:
            controls = np.array(new)
            rows = None if family.evaluate_rows is None else (
                lambda members, qs: family.evaluate_rows(controls[members], qs))
            fields = [family.build(np.array(key)) for key in new]
            cache.update(zip(new, _stacked_bounds(fields, inner_cfg, rows)))
        return np.array([signed_value(key) for key in keys])

    random_probes = rng.uniform(lo, hi, size=(RANDOM_PROBE_COUNT, lo.shape[0]))
    initial = [key_of(lam) for lam in [*random_probes, lo, hi, (lo + hi) / 2]]
    start_vals = sorted(zip(search(initial).tolist(), initial))
    if not np.isfinite(start_vals[0][0]):
        raise FamilyCannotBoundError(
            f"objective is infinite at every probed control vector of {family.label or 'family'}"
        )

    n_starts = min(cfg.multistart_count, len(start_vals))
    starts = np.array([key for _, key in start_vals[:n_starts]])
    visits: list[list[tuple[float, ...]]] = [[] for _ in starts]  # each start's probes, in order
    held = np.full(n_starts, np.inf)  # each start's signed value, as the polish holds it

    def search_rows(rows: np.ndarray, lams: np.ndarray) -> np.ndarray:
        # in a paired call (rows repeat) a start that takes its + candidate
        # never visits its - candidate from the old point: searched, not recorded
        keys = [key_of(lam) for lam in lams]
        f = search(keys)
        seen = np.ones(rows.size, dtype=bool)
        if (np.diff(rows) == 0).any():
            pair = rows[0::2]
            took = f[0::2] < held[pair]
            seen[1::2] = ~took
            held[pair] = np.where(took, f[0::2], np.minimum(held[pair], f[1::2]))
        else:
            held[rows] = np.minimum(held[rows], f)
        for row, key in compress(zip(rows.tolist(), keys), seen.tolist()):
            visits[row].append(key)
        return f

    xs, fs = _polish(search_rows, starts, family.control_box, (hi - lo) / 8.0)
    best_x, best_f = None, np.inf
    for x, f in zip(xs, fs):
        if f < best_f:
            best_x, best_f = x, f
    record = dict.fromkeys(initial + [key for keys in visits for key in keys])
    return ParameterSearchResult(
        best_params=best_x,
        bounds=cache[key_of(best_x)],
        probes=tuple((key, value(cache[key])) for key in record),
    )
