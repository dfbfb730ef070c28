"""Global extremum location and control-parameter optimization.

``global_min`` / ``global_max`` certify extrema only up to the declared grid
resolution plus a derivative-free polish; the winning candidate is compared
against every declared singular-set limit and asymptotic limit, so a search
box on an unbounded domain is legitimate exactly when those limits are
supplied.  The polish walks the grid winner and every multistart as its own
sequential coordinate descent, held in Python floats, and sends every running
start's probes of a round to one batched field call: the rest of its
coordinate (its ``+step`` and ``-step`` candidates, or the ``-step`` it owes
after taking a ``+step``) and, while a round holds few points, the probes it
would make next if none of those wins, on through the halving tail.  Each
start uses its values up to its first acceptance and drops the rest, so the
result is the same as polishing the starts one by one, bit for bit.
One search covers a stack of fields that share a dimension and a box, each
member asking for its own kinds among ``"min"`` and ``"max"`` (the magnetic
trivial sandwich asks each lower trial for its minimum and each upper trial
for its maximum): each member's level-0 grid scan serves all its kinds, one
polish serves the whole stack, its rows tagged ``(member, kind)``
and carrying their own sign, and each ``(member, kind)`` keeps its own zoomed
levels, history and winner.  Every report equals the one a search of that
field for that kind alone would give, bit for bit.  ``global_min`` and
``global_max`` search a stack of one field.  ``_stacked_bounds`` turns any
list of fields into bounds, one per ``(lower, upper)`` pair of field indices
(each field with itself by default: both kinds from about 40% fewer field
calls than two searches); ``bounds_of_field``, the optimizer and the
CLI's one path for ``bounds`` and ``sweep``, which serves every searched
system and trial (the magnetic trivial sandwich among them), go through it.
``optimize_parameters`` runs the outer sup/inf over a trial family's control
vector with a full inner extremum search per probe: the initial probes form
one stack, and so does each call of the same polish on the outer starts, run
without look-ahead (a probe there is a whole inner search).  A stack whose
members share a row form (``LocalEnergyField.row_form``: the magnetic lower
and upper trials over ``B``, the hydrogen exponent over ``lam``) is
evaluated in one call per polish round; any other stack calls each member's
field in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
POLISH_ROUND_POINTS = 32  # a round's points up to which each start looks ahead
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


def _stack_values(fields: Sequence[LocalEnergyField]) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``values(members, qs)``: the raw value of member ``members[j]`` of a
    stack at ``qs[j]``, NaN where that member's field may not be evaluated.
    ``members`` is nondecreasing.

    A stack of one field evaluates ``qs`` with its own ``evaluate``.  When
    every member declares a row form with one ``formula``, the stack is one
    call of it under the first member's valid mask, each row given its
    member's params; the row-form contract makes each value that member's
    own.  Any other stack evaluates each member present at its own run of
    points, a slice of ``qs``.
    """
    if len(fields) == 1:
        return lambda members, qs: _field_values(fields[0], qs)
    forms = [field.row_form for field in fields]
    if all(form is not None and form[0] is forms[0][0] for form in forms):
        formula, valid_mask = forms[0][0], fields[0].domain.valid_mask
        params = np.array([form[1] for form in forms], dtype=float).T  # one row per param
        return lambda members, qs: evaluate_masked(valid_mask(qs), formula, qs, *params[:, members])

    def each(members: np.ndarray, qs: np.ndarray) -> np.ndarray:
        vals = np.empty(qs.shape[0])
        ends = np.searchsorted(members, np.arange(len(fields) + 1)).tolist()
        for m, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
            if a < b:
                vals[a:b] = _field_values(fields[m], qs[a:b])
        return vals

    return each


def _signed(vals: np.ndarray, sign: float | np.ndarray) -> np.ndarray:
    """``sign * vals`` with every non-finite result set to +inf, so a minimizer
    of the result never picks an invalid point."""
    out = sign * vals
    out[~np.isfinite(out)] = np.inf
    return out


class _Walk:
    """One start of :func:`_polish`: its point ``x`` (a list, mirrored in
    the array row ``row``), signed value ``f``, step list and its largest
    entry ``top``, next coordinate ``i``, whether that coordinate's
    ``-step`` probe is next (``minus``) and the value it held when its sweep
    began, all Python floats.  ``step`` is replaced, never written into, so
    walks may share their first one."""

    __slots__ = ("x", "row", "f", "step", "top", "i", "minus", "sweep_start")

    def __init__(self, row: np.ndarray, f: float, step: list[float]) -> None:
        self.x, self.row, self.f, self.step, self.top = row.tolist(), row, f, step, max(step)
        self.i, self.minus, self.sweep_start = 0, False, f

    def plan(self, count: int, lo: list[float], hi: list[float], coords: list[int], values: list[float]) -> int:
        """Append the coordinates and values of the probes this walk makes
        next if none of them wins, and return how many: the rest of its
        current coordinate, then whole coordinates, across sweep ends, until
        there are at least ``count`` or the walk would stop.  A sweep without
        an acceptance always halves the steps."""
        x, step, i = self.x, self.step, self.i
        # x stays in the box, so a step up can pass only hi and a step down
        # only lo; this is exactly min(max(c, lo), hi)
        down = x[i] - step[i]
        down = lo[i] if down < lo[i] else down
        if self.minus:
            coords.append(i)
            values.append(down)
            planned = 1
        else:
            up = x[i] + step[i]
            coords += (i, i)
            values += (hi[i] if up > hi[i] else up, down)
            planned = 2
        if planned >= count:
            return planned
        top, dim = self.top, len(x)
        halve = not self.f < self.sweep_start or self.sweep_start - self.f < POLISH_VALUE_STOP
        while planned < count:
            i += 1
            if i == dim:
                i = 0
                if halve:
                    step, top = [s * 0.5 for s in step], top * 0.5
                if top < POLISH_STEP_STOP:
                    break
                halve = True
            up, down = x[i] + step[i], x[i] - step[i]
            coords += (i, i)
            values += (hi[i] if up > hi[i] else up, lo[i] if down < lo[i] else down)
            planned += 2
        return planned

    def take(self, values: list[float], fs: list[float], start: int, stop: int, lo: list[float]) -> int:
        """Walk through the probes ``values[start:stop]`` it planned and
        their signed values ``fs[start:stop]`` in order, up to the first that
        wins; return how many it used.  The rest were planned on the premise
        that this one loses, so they are dropped."""
        f, won = self.f, None
        for k in range(start, stop):
            if fs[k] < f:  # strictly better
                won = k
                break
        # pass the probes that lost: counted from the current coordinate's
        # + probe, each two end a coordinate, and one more leaves the - probe
        # next
        passed = (stop if won is None else won) - start + self.minus
        self.minus = passed % 2 == 1
        for _ in range(passed // 2):
            self._next_coordinate()
        if won is None:
            return stop - start
        self._accept(values[won], fs[won], lo)
        return won + 1 - start

    def _accept(self, c: float, fc: float, lo: list[float]) -> None:
        """Move coordinate ``i`` to ``c``, of signed value ``fc``."""
        i = self.i
        old, self.x[i], self.f = self.x[i], c, fc
        self.row[i] = c
        if not self.minus:
            # a won + step owes a - step from the new point; back on the old
            # point bit for bit, that is a point whose value loses
            back = c - self.step[i]
            back = lo[i] if back < lo[i] else back
            if back != old or math.copysign(1.0, back) != math.copysign(1.0, old):
                self.minus = True
                return
        self.minus = False
        self._next_coordinate()

    def _next_coordinate(self) -> None:
        self.i += 1
        if self.i == len(self.x):
            self.i = 0
            # acceptance is strict, so the sweep improved exactly when f < sweep_start;
            # a walk stuck at +inf gives inf - inf = nan here and halves either way
            if not self.f < self.sweep_start or self.sweep_start - self.f < POLISH_VALUE_STOP:
                self.step, self.top = [s * 0.5 for s in self.step], self.top * 0.5
            self.sweep_start = self.f


def _polish(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    starts: np.ndarray,
    box: Sequence[tuple[float, float]],
    initial_step: np.ndarray,
    signs: np.ndarray | None = None,
    look_ahead: bool = True,
    visits: list[list[tuple[float, ...]]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Derivative-free coordinate descent with shrinking steps from every
    start, each start's probes of a round sent to one batched call.

    ``objective(rows, points)`` maps a ``(k, dim)`` batch of points, the
    candidates of the starts ``rows`` (nondecreasing indices into
    ``starts``), to a new array of ``k`` raw values; it must not write into
    either argument, which may be the polish's own arrays.  Row ``j`` of
    ``starts`` minimizes ``signs[j] * objective`` (every sign is +1 by
    default), a non-finite product counting as +inf, so one call polishes
    minima and maxima together.  Starts are clipped into ``box`` and
    ``initial_step`` is non-negative, so every point stays inside.

    Each start walks on its own (:class:`_Walk`): it probes each coordinate
    at ``+step``, then at ``-step`` from wherever the ``+`` probe left it,
    taking a candidate when it is strictly better.  A ``-`` probe owed after
    a won ``+`` probe that lands bit for bit on the old point is skipped:
    that point's value is known to lose.  A sweep that improves a start by
    less than ``POLISH_VALUE_STOP`` counts as stalled, so that start's steps
    keep halving until they drop below ``POLISH_STEP_STOP``, where it stops;
    this drives each location in to step resolution rather than quitting on
    the first flat sweep.

    A round is one objective call, and every running start is in it.  Each
    sends the rest of its current coordinate: its ``+`` and ``-`` probes from
    the point it holds, or the one ``-`` probe it owes.  With
    ``look_ahead``, each start also sends the probes it would make next if
    none of its earlier ones wins, whole coordinates across sweep ends at
    halved steps, until it holds ``POLISH_ROUND_POINTS // running starts``
    probes or would stop; so the halving tail of a few starts costs a few
    calls, while a round of many starts holds only their current
    coordinates.  Each start then uses its values in order up to its first
    acceptance and drops the rest, the ``-`` probe beside a ``+`` probe that
    won among them.  When ``objective`` is batch invariant (a row's value
    does not depend on the other rows) and deterministic, every start
    follows exactly the trajectory it would follow alone, whatever the
    rounds hold.  ``visits``, when given, gets each used candidate of start
    ``j`` appended to ``visits[j]`` as a tuple, in the order the start met
    it.  Returns the polished points and their signed values.
    """
    lo = [float(b[0]) for b in box]
    hi = [float(b[1]) for b in box]
    x = np.clip(np.asarray(starts, dtype=float), np.array(lo), np.array(hi))
    sign = np.ones(x.shape[0]) if signs is None else np.asarray(signs, dtype=float)
    fx = _signed(objective(np.arange(x.shape[0]), x), sign)
    first_step = [float(s) for s in initial_step]
    walks = [_Walk(row, f, first_step) for row, f in zip(x, fx.tolist())]
    live = [j for j, w in enumerate(walks) if w.top >= POLISH_STEP_STOP]
    while live:
        count = POLISH_ROUND_POINTS // len(live) if look_ahead else 0
        coords: list[int] = []
        values: list[float] = []
        sizes = [walks[j].plan(count, lo, hi, coords, values) for j in live]
        rows = np.repeat(live, sizes)
        if len(lo) == 1:
            batch = np.array(values)[:, None]
        else:
            # each probe is its start's point with one coordinate replaced
            batch = x[rows]
            batch[np.arange(len(values)), coords] = values
        fs = _signed(objective(rows, batch), sign[rows]).tolist()
        at = 0
        for j, size in zip(live, sizes):
            used = walks[j].take(values, fs, at, at + size, lo)
            if visits is not None:
                visits[j].extend(map(tuple, batch[at : at + used].tolist()))
            at += size
        live = [j for j in live if walks[j].top >= POLISH_STEP_STOP]
    return x, np.array([w.f for w in walks])


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
) -> list[list[ExtremumReport]]:
    """For each field of a stack, one report per entry of its own tuple of
    ``kinds`` (``"min"`` or ``"max"``), in order.

    The fields share a dimension and a search box.  A member's kinds share
    its level-0 grid scan, one field call per member, and every
    ``(member, kind)`` shares one polish, whose rows are the member's grid
    winner for that kind and the member's multistarts; each keeps its own
    zoomed levels, history and winner; the polish evaluates the stack as
    :func:`_stack_values` says.  Fields are batch invariant, so each report
    is the one a search of its field for its kind alone would give.
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
    row_member, values = np.repeat(group_member, sizes), _stack_values(fields)
    objective = lambda polished, qs: values(row_member[polished], qs)
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
    pairs: Sequence[tuple[int, int]] | None = None,
) -> list[BoundsResult]:
    """One :class:`BoundsResult` per ``(lower, upper)`` pair of indices into
    ``fields``: the lower bound is the global minimum of ``fields[lower]``,
    the upper the global maximum of ``fields[upper]``.  By default each field
    is paired with itself.

    Each field is searched only for the kinds its pairs ask of it, and the
    fields that share a search box are searched as one stack.
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
        found = _search_extrema([fields[i] for i in members], cfg, kinds)
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
    Members whose fields declare one row form (``LocalEnergyField.row_form``)
    are searched with one call per probe batch instead of one per member.
    """

    control_box: tuple[tuple[float, float], ...]
    build: Callable[[np.ndarray], LocalEnergyField]
    label: str = ""


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
    polished by :func:`_polish` without look-ahead, each call's new control
    vectors (every start's ``+step`` and ``-step`` candidates of one
    coordinate, or the ``-step`` it owes) searched as one stack.  Each start
    follows the trajectory it would follow alone, and the polish reports
    the candidates it visited, so the record lists the initial probes and
    then each start's visits in start order: the order a
    one-start-at-a-time polish meets them.  A ``-step`` candidate searched
    beside a ``+step`` that won is not visited, so not recorded.
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
            fields = [family.build(np.array(key)) for key in new]
            cache.update(zip(new, _stacked_bounds(fields, inner_cfg)))
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

    def search_rows(rows: np.ndarray, lams: np.ndarray) -> np.ndarray:
        return search([key_of(lam) for lam in lams])

    xs, fs = _polish(search_rows, starts, family.control_box, (hi - lo) / 8.0, look_ahead=False, visits=visits)
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
