"""The batched polish against a one-start reference and a model of its
rounds, the batch invariance of every shipped field that lets batched rounds
reproduce single-start trajectories, a stacked search against one search per
field, and the batched parameter optimizer against a sequential reference."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbound.core import sample_interior
from groundbound.refine import GaussianBump, RefinementState, perturbed_field
from groundbound import cli, search
from groundbound.systems import hydrogen, magnetic
from groundbound.search import (
    POLISH_ROUND_POINTS,
    POLISH_STEP_STOP,
    POLISH_VALUE_STOP,
    RANDOM_PROBE_COUNT,
    SearchConfig,
    TrialFamily,
    _fd_gradient_norm,
    _polish,
    _search_extrema,
    bounds_of_field,
    optimize_parameters,
)
from groundbound.systems import (
    AnnularBilliard,
    MagneticHydrogen,
    QuarticOscillator,
    billiard_local_energy_field,
    helium_search_field,
    hydrogen_exponent_family,
    hydrogen_radial_field,
    magnetic_hydrogen_field,
    quartic_field,
    quartic_system,
)

BOX = ((-2.0, 2.0), (-1.5, 1.5))


def reference_polish(objective, x0, box, initial_step):
    """Greedy coordinate descent from one start, one point per call.

    Returns the polished point, its value, the number of sweeps taken and
    the start's probes as the polish makes them, in order, as ``(plus,
    wins)`` pairs: whether the probe is a ``+`` step, and whether it was
    taken.  A ``-`` step owed after a won ``+`` step that lands bit for bit
    on the old point is evaluated here but not listed: the polish skips it.
    """
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    x = np.clip(np.asarray(x0, dtype=float).copy(), lo, hi)
    fx = objective(x)
    step = np.asarray(initial_step, dtype=float).copy()
    sweeps = 0
    probes = []
    while np.max(step) >= POLISH_STEP_STOP:
        sweeps += 1
        start = fx
        improved = False
        for i in range(x.shape[0]):
            old, took_up = x[i], False
            for up, s in ((True, +step[i]), (False, -step[i])):
                cand = x.copy()
                cand[i] = min(max(cand[i] + s, lo[i]), hi[i])
                skipped = took_up and cand[i].tobytes() == old.tobytes()
                fc = objective(cand)
                wins = fc < fx
                if wins:
                    x, fx = cand, fc
                    improved = True
                    took_up = up
                if not skipped:
                    probes.append((up, wins))
        if not improved or (start - fx) < POLISH_VALUE_STOP:
            step *= 0.5
    return x, fx, sweeps, probes


def owed_probes(probes):
    """How many of a start's probes are ``-`` steps owed after a won ``+``."""
    return sum(plus and wins and not next_plus for (plus, wins), (next_plus, _) in zip(probes, probes[1:]))


def polish_calls(traces, look_ahead):
    """The objective calls :func:`_polish` makes for starts whose probes are
    ``traces`` (as :func:`reference_polish` lists them).

    One call holds the start values.  Then each round is one call, and every
    start with probes left is in it: it plans the rest of its coordinate (2
    probes, or 1 when it owes a ``-`` step), then, with look-ahead, whole
    coordinates until it has ``POLISH_ROUND_POINTS // starts`` or more, and
    uses them up to its first win.
    """
    at = [0] * len(traces)
    calls = 1
    while True:
        live = [j for j, probes in enumerate(traces) if at[j] < len(probes)]
        if not live:
            return calls
        calls += 1
        count = POLISH_ROUND_POINTS // len(live) if look_ahead else 0
        for j in live:
            probes, p = traces[j], at[j]
            planned = 2 if probes[p][0] else 1
            while planned < count:
                planned += 2
            chunk = probes[p : p + planned]
            wins = [k for k, (_, won) in enumerate(chunk) if won]
            at[j] = p + (wins[0] + 1 if wins else len(chunk))


def wells(qs):
    """Three Gaussian wells on a shallow bowl; +inf on a masked disk."""
    x, y = qs[:, 0], qs[:, 1]
    v = 0.05 * (x * x + y * y)
    for cx, cy, depth, width in ((-1.0, 0.5, 1.0, 0.3), (1.2, -0.4, 0.7, 0.5), (0.1, -1.0, 0.4, 0.2)):
        v = v - depth * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / width)
    return np.where(in_masked_disk(qs), np.inf, v)


def in_masked_disk(qs):
    return (qs[:, 0] - 1.6) ** 2 + (qs[:, 1] - 1.0) ** 2 < 0.3


def wells_nan(qs):
    """:func:`wells` as a raw field: NaN, not +inf, on the masked disk."""
    return np.where(in_masked_disk(qs), np.nan, wells(qs))


BOX_1D = ((-2.0, 2.0),)


def wells_1d(qs):
    """Two Gaussian wells on a shallow bowl, NaN on a masked interval."""
    x = qs[:, 0]
    v = 0.05 * x * x - np.exp(-((x + 1.0) ** 2) / 0.3) - 0.7 * np.exp(-((x - 0.4) ** 2) / 0.2)
    return np.where(np.abs(x - 1.5) < 0.55, np.nan, v)


def counted(fn):
    """``fn`` as a polish objective, recording each batch size; the rows
    named with a batch are nondecreasing, one per point."""
    calls = []

    def wrapper(rows, qs):
        assert rows.shape == (qs.shape[0],) and np.all(np.diff(rows) >= 0)
        calls.append(qs.shape[0])
        return fn(qs)

    return wrapper, calls


def assert_matches_reference(starts, step, signs=None, fn=wells, box=BOX, look_ahead=True):
    """The polish of ``fn`` against one reference polish per start of
    ``sign * fn``, a non-finite value counting as +inf, and its objective
    calls against :func:`polish_calls`.

    Returns the signed values, each start's sweep count and each start's
    probes.
    """
    signs = np.ones(len(starts)) if signs is None else np.asarray(signs, dtype=float)
    objective, calls = counted(fn)
    xs, fs = _polish(objective, starts, box, step, signs, look_ahead=look_ahead)
    sweeps, traces = [], []
    for j, x0 in enumerate(starts):

        def one(q, sign=signs[j]):
            v = sign * fn(q[None, :])[0]
            return v if math.isfinite(v) else math.inf

        x, f, n, probes = reference_polish(one, x0, box, step)
        assert xs[j].tobytes() == x.tobytes()
        assert np.float64(fs[j]).tobytes() == np.float64(f).tobytes()
        sweeps.append(n)
        traces.append(probes)
    assert calls[0] == len(starts)
    assert len(calls) == polish_calls(traces, look_ahead)
    if not look_ahead:
        # a round per coordinate of each sweep, and one more per owed - step,
        # of the longest-running start
        assert len(calls) == 1 + max(len(box) * n + owed_probes(p) for n, p in zip(sweeps, traces))
    return fs, sweeps, traces


MIXED_STARTS = np.array([
    [-1.0, 0.5],   # at a well bottom: a short run
    [0.4, 0.1],    # between wells
    [3.0, -2.5],   # outside the box: clipped to the corner
    [1.6, 1.0],    # inside the masked disk: starts at +inf
    [-2.0, 1.5],   # on the box corner
])


def test_lockstep_matches_reference_with_unequal_sweeps_clipping_and_masked_starts():
    for look_ahead in (True, False):
        _, sweeps, _ = assert_matches_reference(MIXED_STARTS, np.array([0.04, 0.03]), look_ahead=look_ahead)
        assert len(set(sweeps)) > 1
    assert wells(MIXED_STARTS[3:4])[0] == math.inf


def test_paired_polish_evaluates_a_minus_step_that_misses_the_old_point():
    # a slope that rewards every step up, with a pit at each point the - step
    # from an accepted + step reaches instead of the start: the owed - step
    # is the only way to find the pits
    s = 0.3
    pits = [
        (0.1 + s) - s,   # rounding: 0.10000000000000003, not 0.1
        2.0 - s,         # the + step from 1.9 clips to hi = 2
        0.0,             # +0.0, back from -0.0 + s; the start -0.0 itself is no pit
    ]
    assert pits[0] != 0.1

    def pitted(qs):
        x = qs[:, 0]
        pit = np.zeros(x.shape)
        for p in pits:
            pit[(x == p) & (np.signbit(x) == np.signbit(p))] = -10.0
        return -x - qs[:, 1] + pit

    starts = np.array([[0.1, 0.0], [1.9, -1.0], [-0.0, 0.5], [0.0, -0.5], [-1.0, 0.2]])
    assert np.signbit(np.clip(starts[2], -2.0, 2.0)[0])
    for look_ahead in (True, False):
        fs, _, traces = assert_matches_reference(starts, np.array([s, s]), fn=pitted, look_ahead=look_ahead)
        assert sum(map(owed_probes, traces)) > 0
        # every start ends in a pit; the one at +0.0 begins in one
        assert np.all(fs < -9.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    starts=st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-2.5, 2.5)), min_size=1, max_size=6
    ),
    step=st.tuples(st.floats(0.02, 1.0), st.floats(0.02, 1.0)),
)
def test_lockstep_matches_reference_polish(starts, step):
    assert_matches_reference(np.array(starts), np.array(step))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    starts=st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-2.5, 2.5), st.sampled_from([1.0, -1.0])),
        min_size=1,
        max_size=6,
    ),
    stuck_signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=2),
    step=st.tuples(st.floats(0.02, 0.5), st.floats(0.02, 0.5)),
)
def test_lockstep_with_mixed_signs_matches_reference_polish(starts, stuck_signs, step):
    # rows at the masked disk's centre never leave it at these steps: they stay at +inf
    rows = starts + [(1.6, 1.0, s) for s in stuck_signs]
    points = np.array([r[:2] for r in rows])
    signs = np.array([r[2] for r in rows])
    fs, _, _ = assert_matches_reference(points, np.array(step), signs, wells_nan)
    assert np.all(fs[len(starts):] == math.inf)


@pytest.mark.parametrize("look_ahead", [True, False])
@pytest.mark.parametrize("stack", [(1, 4), (40, 48)], ids=["few", "many"])
@pytest.mark.parametrize("dim", [1, 2])
@settings(derandomize=True, max_examples=5, deadline=None)
@given(data=st.data())
def test_look_ahead_on_both_sides_of_the_point_budget_matches_reference(look_ahead, stack, dim, data):
    # 1 to 4 starts look ahead several coordinates a round; 40 or more send
    # only the rest of their coordinate until most of them have stopped
    box, fn = (BOX_1D, wells_1d) if dim == 1 else (BOX, wells_nan)
    n = data.draw(st.integers(*stack), label="starts")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-2.5, 2.5, (n, dim))
    stuck = (1.5,) if dim == 1 else (1.6, 1.0)  # inside the masked set: +inf for good
    starts[rng.random(n) < 0.1] = stuck
    signs = rng.choice([1.0, -1.0], n)
    step = rng.uniform(0.02, 0.5, dim)
    fs, _, _ = assert_matches_reference(starts, step, signs, fn, box, look_ahead)
    assert np.all(fs[(starts == stuck).all(axis=1)] == math.inf)


def test_look_ahead_halves_through_the_tail_in_few_calls():
    # from a polished well bottom no probe wins, so one start only halves its
    # step from 0.04 to below 1e-9: 26 sweeps of one coordinate, a call each
    # without look-ahead, and POLISH_ROUND_POINTS probes (16 sweeps) a call
    # with it
    bottom, _ = _polish(lambda rows, qs: wells_1d(qs), np.array([[-0.5]]), BOX_1D, np.array([0.04]))
    objective, alone = counted(wells_1d)
    _polish(objective, bottom, BOX_1D, np.array([0.04]), look_ahead=False)
    assert alone == [1] + [2] * 26
    objective, ahead = counted(wells_1d)
    _polish(objective, bottom, BOX_1D, np.array([0.04]))
    assert ahead == [1, POLISH_ROUND_POINTS, 2 * 26 - POLISH_ROUND_POINTS]


def _bumped_quartic():
    qo = QuarticOscillator(1.0 / math.sqrt(2.0), -1, 8.0)
    h, base = quartic_system(qo)
    bumps = (GaussianBump(0.3, -2.0, 1.0), GaussianBump(-0.2, 1.5, 1.0), GaussianBump(0.1, 0.4, 1.0))
    return perturbed_field(RefinementState(h, base, quartic_field(qo).asymptotic_limits, bumps, math.nan, ()))


SHIPPED_FIELDS = {
    "billiard": lambda: billiard_local_energy_field(AnnularBilliard(0.75, 0.1)),
    "quartic": lambda: quartic_field(QuarticOscillator(1.0 / math.sqrt(2.0), -1, 8.0)),
    "magnetic-lower": lambda: magnetic_hydrogen_field(MagneticHydrogen(2.0), "lower"),
    "magnetic-upper": lambda: magnetic_hydrogen_field(MagneticHydrogen(2.0), "upper"),
    "magnetic-improved": lambda: magnetic_hydrogen_field(MagneticHydrogen(2.0), "improved"),
    "hydrogen-radial": lambda: hydrogen_radial_field(1.0),
    "helium": lambda: helium_search_field(2.0),
    "quartic-bumped": _bumped_quartic,
}


@pytest.mark.parametrize("name", sorted(SHIPPED_FIELDS))
def test_field_rows_do_not_depend_on_the_batch(name):
    field = SHIPPED_FIELDS[name]()
    qs = sample_interior(field.domain, 64, np.random.default_rng(7), extra_mask=lambda q: ~field.singular_mask(q))
    batch = field.evaluate(qs)
    rows = np.concatenate([field.evaluate(qs[j:j + 1]) for j in range(qs.shape[0])])
    assert batch.tobytes() == rows.tobytes()


def reference_gradient_norm(field, x):
    """Central differences one axis at a time, two points per call."""
    h = 1e-6
    g = np.zeros(x.shape[0])
    for i in range(x.shape[0]):
        e = np.zeros(x.shape[0])
        e[i] = h
        pair = np.stack([x + e, x - e])
        if not field.domain.valid_mask(pair).all():
            return None
        vp, vm = field.evaluate(pair)
        g[i] = (vp - vm) / (2 * h)
    return float(np.linalg.norm(g))


@pytest.mark.parametrize("name", ["billiard", "magnetic-improved", "helium", "quartic"])
def test_batched_gradient_norm_matches_pairwise_differences(name):
    field = SHIPPED_FIELDS[name]()
    qs = sample_interior(field.domain, 8, np.random.default_rng(3), extra_mask=lambda q: ~field.singular_mask(q))
    for x in qs:
        assert _fd_gradient_norm(field, x) == reference_gradient_norm(field, x)


# ---------------------------------------------------------------------------
# a stack of fields searched at once against one search per field


def _member_loop(build):
    """``build`` with each member's row form dropped, so a stack of its
    members evaluates member by member."""
    return lambda p: replace(build(p), row_form=None)


# family -> (member parameters, member builder); the members of a family
# share a search box.  The magnetic and hydrogen members declare a row form,
# so their stacks evaluate in one call per polish round; the families built
# through _member_loop keep the member loop covered for the same fields
STACKED_FAMILIES = {
    "billiard": ((0.3, 0.45, 0.6, 0.75, 0.85), lambda r: billiard_local_energy_field(AnnularBilliard(r, 0.1))),
    "quartic": ((2.0, 4.0, 8.0, 12.0), lambda d2: quartic_field(QuarticOscillator(1.0 / math.sqrt(2.0), -1, d2))),
    "magnetic-lower": ((0.5, 1.0, 2.0, 4.0, 8.0),
                       _member_loop(lambda b: magnetic_hydrogen_field(MagneticHydrogen(b), "lower"))),
    "magnetic-upper": ((0.5, 1.0, 2.0, 4.0, 8.0),
                       _member_loop(lambda b: magnetic_hydrogen_field(MagneticHydrogen(b), "upper"))),
    "magnetic-improved": ((0.5, 1.0, 2.0, 4.0, 8.0),
                          lambda b: magnetic_hydrogen_field(MagneticHydrogen(b), "improved")),
    "magnetic-trivial-rows": (tuple((b, v) for b in (0.0, 0.5, 2.0, 8.0) for v in ("lower", "upper")),
                              lambda p: magnetic_hydrogen_field(MagneticHydrogen(p[0]), p[1])),
    "hydrogen-radial": ((0.5, 0.8, 1.0, 1.25, 2.0), _member_loop(hydrogen_radial_field)),
    "hydrogen-radial-rows": ((0.5, 0.8, 1.0, 1.25, 2.0), hydrogen_radial_field),
}


def assert_same_report(got, want):
    """Equal reports, floats compared bit for bit."""
    def bits(v):
        return None if v is None else np.float64(v).tobytes()

    def tags(report):
        return report.kind, report.attained, report.boundary_or_asymptotic

    assert tags(got) == tags(want)
    assert bits(got.value) == bits(want.value)
    assert bits(got.gradient_norm_at_location) == bits(want.gradient_norm_at_location)
    assert [bits(h) for h in got.history] == [bits(h) for h in want.history]
    if want.location is None:
        assert got.location is None
    else:
        assert got.location.tobytes() == want.location.tobytes()


@pytest.mark.parametrize("family", sorted(STACKED_FAMILIES))
@settings(derandomize=True, max_examples=10, deadline=None)
@given(data=st.data())
def test_stacked_search_equals_one_search_per_field(family, data):
    choices, build = STACKED_FAMILIES[family]
    params = data.draw(st.lists(st.sampled_from(choices), min_size=1, max_size=4), label="members")
    kinds = [
        data.draw(st.sampled_from([("min",), ("max",), ("min", "max"), ("max", "min")]), label="kinds")
        for _ in params
    ]
    cfg = SearchConfig(
        grid_points_per_axis=data.draw(st.integers(8, 24), label="grid"),
        refinement_levels=data.draw(st.integers(1, 3), label="levels"),
        multistart_count=data.draw(st.integers(1, 4), label="multistarts"),
        rng_seed=data.draw(st.integers(0, 2**32 - 1), label="rng_seed"),
    )
    fields = [build(p) for p in params]
    stacked = _search_extrema(fields, cfg, kinds)
    assert len(stacked) == len(fields)
    for field, member_kinds, reports in zip(fields, kinds, stacked):
        solo = _search_extrema([field], cfg, [member_kinds])
        assert len(solo) == 1 and len(reports) == len(member_kinds)
        for got, want in zip(reports, solo[0]):
            assert_same_report(got, want)


def test_stacked_search_rejects_fields_with_different_boxes():
    fields = [billiard_local_energy_field(AnnularBilliard(0.5, d)) for d in (0.0, 0.1)]
    with pytest.raises(ValueError, match="share one search box"):
        _search_extrema(fields, SearchConfig(grid_points_per_axis=8), [("min",)] * len(fields))


def _hydrogen_radial_over_two_boxes():
    lams = (0.5, 0.8, 1.0, 1.25, 2.0)
    fields = [hydrogen_radial_field(lam) for lam in lams]
    boxes = [((0.0, 40.0 if i % 2 else 20.0),) for i in range(len(lams))]
    return [replace(f, domain=replace(f.domain, box=box)) for f, box in zip(fields, boxes)]


# stack -> fields over two search boxes; the hydrogen fields share a row form,
# so each box's stack evaluates in one call per polish round
PAIRED_STACKS = {
    "billiard": lambda: [billiard_local_energy_field(AnnularBilliard(r, d))
                         for r, d in ((0.3, 0.0), (0.5, 0.1), (0.6, 0.0), (0.4, 0.2))],
    "hydrogen-radial-rows": _hydrogen_radial_over_two_boxes,
}


@pytest.mark.parametrize("stack", sorted(PAIRED_STACKS))
@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=st.data())
def test_stacked_bounds_pairs_equal_global_min_and_max(stack, data):
    # each pair's lower is its first field's minimum and its upper its second
    # field's maximum, bit for bit, whichever box group each field falls in
    fields = PAIRED_STACKS[stack]()
    index = st.integers(0, len(fields) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=4), label="pairs")
    cfg = SearchConfig(
        grid_points_per_axis=data.draw(st.integers(8, 24), label="grid"),
        refinement_levels=data.draw(st.integers(1, 3), label="levels"),
        multistart_count=data.draw(st.integers(1, 3), label="multistarts"),
        rng_seed=data.draw(st.integers(0, 2**32 - 1), label="rng_seed"),
    )
    results = search._stacked_bounds(fields, cfg, pairs)
    assert len(results) == len(pairs)
    for (lo, hi), got in zip(pairs, results):
        assert_same_report(got.lower_witness, search.global_min(fields[lo], cfg))
        assert_same_report(got.upper_witness, search.global_max(fields[hi], cfg))
        assert (got.lower, got.upper) == (got.lower_witness.value, got.upper_witness.value)
        assert got.resolution_caveat.box == cfg.box_for(fields[lo].domain)


# ---------------------------------------------------------------------------
# row forms: a stack of fields that share one evaluates in one call


_TUBE = magnetic.ORIGIN_TUBE
_EDGE = magnetic.BOX_HALF_WIDTH
_rho_z = st.floats(0.0, _EDGE)
_outside = st.floats(-_EDGE, -1e-11)
# generic points, the axis rho = 0, the plane z = 0, inside the origin tube
# and just past its rim, the corners, and exterior points
_MAGNETIC_POINTS = st.one_of(
    st.tuples(_rho_z, _rho_z),
    st.tuples(st.just(0.0), _rho_z),
    st.tuples(_rho_z, st.just(0.0)),
    st.builds(lambda a, t: (t * math.cos(a), t * math.sin(a)),
              st.floats(0.0, math.pi / 2), st.floats(0.0, 1.01 * _TUBE)),
    st.sampled_from([(0.0, 0.0), (0.0, _EDGE), (_EDGE, 0.0), (_EDGE, _EDGE)]),
    st.tuples(_outside, _rho_z),
    st.tuples(_rho_z, _outside),
)
# radii across the box, inside the origin tube and past it, its ends, and
# exterior radii
_RADIAL_POINTS = st.one_of(
    st.floats(0.0, 40.0),
    st.floats(0.0, 2.0 * hydrogen.ORIGIN_TUBE),
    st.sampled_from([0.0, 40.0]),
    st.floats(-40.0, -1e-300),
).map(lambda r: (r,))

# every shipped row form -> (one member's field from a drawn parameter, the
# parameter, points)
ROW_FORMS = {
    "magnetic": (lambda p: magnetic_hydrogen_field(MagneticHydrogen(p[0]), p[1]),
                 st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 8.0)), st.sampled_from(["lower", "upper"])),
                 _MAGNETIC_POINTS),
    "hydrogen-radial": (hydrogen_radial_field, st.floats(0.5, 2.0), _RADIAL_POINTS),
}


def _never(qs):
    raise AssertionError("a stack with one row form called a member's evaluate")


def _one_by_one(fields, members, qs):
    """Each row's value from its own member's field alone."""
    return np.concatenate([search._field_values(fields[m], qs[j:j + 1]) for j, m in enumerate(members.tolist())])


@pytest.mark.parametrize("form", sorted(ROW_FORMS))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_a_row_form_stack_equals_each_member_bit_for_bit(form, data):
    build, param, points = ROW_FORMS[form]
    fields = [build(p) for p in data.draw(st.lists(param, min_size=2, max_size=6), label="members")]
    rows = data.draw(st.lists(st.tuples(st.integers(0, len(fields) - 1), points), min_size=1, max_size=12),
                     label="rows")
    rows.sort(key=lambda row: row[0])
    members = np.array([m for m, _ in rows])
    qs = np.array([q for _, q in rows], dtype=float)
    for field in fields[1:]:
        assert field.row_form[0] is fields[0].row_form[0]
        assert np.array_equal(field.domain.valid_mask(qs), fields[0].domain.valid_mask(qs))
        assert field.domain.box == fields[0].domain.box
    # the stack evaluates through the shared formula alone
    stack = [replace(field, evaluate=_never) for field in fields]
    got = search._stack_values(stack)(members, qs)
    assert got.tobytes() == _one_by_one(fields, members, qs).tobytes()


@pytest.mark.parametrize("other", ["improved-member", "two-formulas"])
def test_a_stack_without_one_row_form_takes_the_member_loop(other):
    lower = magnetic_hydrogen_field(MagneticHydrogen(1.0), "lower")
    if other == "improved-member":
        second = magnetic_hydrogen_field(MagneticHydrogen(2.0), "improved")
    else:
        # the same values from another formula: nothing tells the search they agree
        upper = magnetic_hydrogen_field(MagneticHydrogen(2.0), "upper")
        formula, params = upper.row_form
        second = replace(upper, row_form=(lambda qs, *p: formula(qs, *p), params))
    calls = []

    def watched(m, field):
        def evaluate(qs):
            calls.append((m, qs.shape[0]))
            return field.evaluate(qs)
        return replace(field, evaluate=evaluate)

    members = np.array([0, 0, 0, 1, 1])
    qs = np.array([[0.5, 0.5], [1.0, 2.0], [3.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    got = search._stack_values([watched(0, lower), watched(1, second)])(members, qs)
    assert calls == [(0, 3), (1, 2)]
    assert got.tobytes() == _one_by_one([lower, second], members, qs).tobytes()


def _optimize_hydrogen(tmp_path):
    optimize_parameters(hydrogen_exponent_family((0.5, 2.0)), None, "maximize-lower",
                        SearchConfig(multistart_count=2, rng_seed=0))
    return 0


# the three runs whose stacks share a row form -> their evaluation calls at
# seed 0 (570, 2,608 and 12,943 when each stack loops over its members)
ROW_STACK_RUNS = {
    "bounds-magnetic-trivial": (lambda tmp_path: cli.main(
        ["bounds", "--system", "magnetic-hydrogen", "--B", "2", "--variant", "trivial",
         "--out", str(tmp_path / "bounds.json")]), 289),
    "sweep-magnetic-B": (lambda tmp_path: cli.main(
        ["sweep", "--system", "magnetic-hydrogen", "--param", "B", "--values", "0.5,1,2,4",
         "--out", str(tmp_path / "sweep.csv")]), 347),
    "optimize-hydrogen": (_optimize_hydrogen, 4318),
}


@pytest.mark.parametrize("case", sorted(ROW_STACK_RUNS))
def test_row_form_stacks_evaluate_in_one_call_per_round(tmp_path, monkeypatch, case):
    # every grid scan and polish round of a search is one search.evaluate_masked call
    run, want = ROW_STACK_RUNS[case]
    calls = []
    evaluate_masked = search.evaluate_masked

    def counted(*args):
        calls.append(None)
        return evaluate_masked(*args)

    monkeypatch.setattr(search, "evaluate_masked", counted)
    assert run(tmp_path) == 0
    assert len(calls) == want


# ---------------------------------------------------------------------------
# the batched parameter optimizer against a sequential reference


def reference_optimize(family, objective, cfg):
    """One inner ``bounds_of_field`` per new control vector and one polished
    start at a time, recording each probe when first met.

    Returns the best control vector, its bounds and the probe record.
    """
    want_lower = objective == "maximize-lower"
    inner = replace(cfg, box=None)
    lo = np.array([c[0] for c in family.control_box])
    hi = np.array([c[1] for c in family.control_box])
    sign = -1.0 if want_lower else 1.0
    cache, probes = {}, []

    def key_of(lam):
        return tuple(float(v) for v in lam)

    def value(lam):
        key = key_of(lam)
        if key not in cache:
            b = bounds_of_field(family.build(np.array(key)), inner)
            cache[key] = b
            probes.append((key, b.lower if want_lower else b.upper))
        v = cache[key].lower if want_lower else cache[key].upper
        return sign * v if math.isfinite(v) else math.inf

    rng = np.random.default_rng(cfg.rng_seed)
    initial = list(rng.uniform(lo, hi, size=(RANDOM_PROBE_COUNT, lo.shape[0]))) + [lo, hi, (lo + hi) / 2]
    start_vals = sorted([(value(lam), tuple(lam)) for lam in initial])
    best_x, best_f = None, math.inf
    for _, key in start_vals[:cfg.multistart_count]:
        x, f, _, _ = reference_polish(value, np.array(key), family.control_box, (hi - lo) / 8.0)
        if f < best_f:
            best_x, best_f = x, f
    return best_x, cache[key_of(best_x)], probes


def assert_optimizer_matches_reference(family, objective, cfg):
    res = optimize_parameters(family, None, objective, cfg)
    best, b, probes = reference_optimize(family, objective, cfg)
    assert repr(res.probes) == repr(tuple(probes))
    assert res.best_params.tobytes() == best.tobytes()
    assert_same_report(res.bounds.lower_witness, b.lower_witness)
    assert_same_report(res.bounds.upper_witness, b.upper_witness)
    assert (repr(res.bounds.lower), repr(res.bounds.upper)) == (repr(b.lower), repr(b.upper))


@pytest.mark.parametrize("objective", ["maximize-lower", "minimize-upper"])
@pytest.mark.parametrize("multistarts", [1, 2, 3, 4])
@pytest.mark.parametrize("row_form", [True, False], ids=["row-form", "member-loop"])
def test_lockstep_optimizer_matches_sequential_reference(objective, multistarts, row_form):
    family = hydrogen_exponent_family((0.5, 2.0))
    if not row_form:
        family = replace(family, build=_member_loop(family.build))
    cfg = SearchConfig(grid_points_per_axis=41, multistart_count=multistarts, rng_seed=multistarts)
    assert_optimizer_matches_reference(family, objective, cfg)


def test_lockstep_optimizer_matches_reference_when_member_boxes_differ():
    # the control is the box half-width, so no two members share a box
    qo = QuarticOscillator(1.0 / math.sqrt(2.0), -1, 8.0)
    base = quartic_field(qo)

    def build(lam):
        return replace(base, domain=replace(base.domain, box=((-lam[0], lam[0]),)))

    family = hydrogen_exponent_family()
    family = replace(family, control_box=((1.0, 6.0),), build=build)
    cfg = SearchConfig(grid_points_per_axis=24, refinement_levels=2, multistart_count=3, rng_seed=5)
    assert_optimizer_matches_reference(family, "maximize-lower", cfg)


def test_lockstep_optimizer_matches_reference_over_a_2d_control_box():
    # the quartic's stiffness and offset: each sweep probes two coordinates
    def build(lam):
        return quartic_field(QuarticOscillator(float(lam[0]), -1, float(lam[1])))

    family = TrialFamily(control_box=((0.5, 1.0), (2.0, 8.0)), build=build, label="quartic (r, delta2)")
    cfg = SearchConfig(grid_points_per_axis=10, refinement_levels=2, multistart_count=2, rng_seed=3)
    assert_optimizer_matches_reference(family, "maximize-lower", cfg)


def watch_outer_polish(monkeypatch, control_box):
    """Record ``(rows, control vectors)`` of each objective call of the
    optimizer's polish over ``control_box``."""
    outer = []
    polish = search._polish

    def watched(objective, starts, box, *args, **kwargs):
        if box != control_box:  # an inner search's polish
            return polish(objective, starts, box, *args, **kwargs)

        def seen(rows, lams):
            outer.append((rows.copy(), lams.copy()))
            return objective(rows, lams)

        return polish(seen, starts, box, *args, **kwargs)

    monkeypatch.setattr(search, "_polish", watched)
    return outer


def test_lockstep_optimizer_follow_up_after_a_step_clipped_to_the_box(monkeypatch):
    # below lam = 1 the exponent family's upper bound is -lam^2 / 2, least at
    # the top of this control box: a + step that clips there wins, and the -
    # step from it misses the start's old point, so that start owes a - step
    # in the next call
    family = hydrogen_exponent_family((0.3, 1.0))
    outer = watch_outer_polish(monkeypatch, family.control_box)
    cfg = SearchConfig(grid_points_per_axis=24, refinement_levels=2, multistart_count=2, rng_seed=0)
    assert_optimizer_matches_reference(family, "minimize-upper", cfg)
    # without look-ahead a start sends its + and - candidates of a coordinate
    # together, or the one - candidate it owes: a row named once in a call
    # owes, and its + candidate in the call before is the one it took
    clipped = 0
    for (before, lams), (rows, _) in zip(outer[1:], outer[2:]):
        plus = {}
        for row, lam in zip(before.tolist(), lams[:, 0].tolist()):
            plus.setdefault(row, lam)  # a row's first candidate in a call
        owing = [row for row in set(rows.tolist()) if rows.tolist().count(row) == 1]
        assert all(row in plus for row in owing)
        clipped += sum(plus[row] == 1.0 for row in owing)
    assert clipped > 0


def test_optimizer_searches_each_sweep_coordinate_as_one_stack(monkeypatch):
    # the optimize-hydrogen benchmark case: one stack of initial probes, then
    # one per call of the outer polish that has uncached candidates; a call
    # holds each running start's + and - candidates of one coordinate, or
    # the - candidate it owes (a polish probing one direction per call made 83)
    stacks = []
    extrema = search._search_extrema

    def stacked(*args):
        stacks.append(None)
        return extrema(*args)

    family = hydrogen_exponent_family((0.5, 2.0))
    outer = watch_outer_polish(monkeypatch, family.control_box)
    monkeypatch.setattr(search, "_search_extrema", stacked)
    cfg = SearchConfig(multistart_count=2, rng_seed=0)
    res = optimize_parameters(family, None, "maximize-lower", cfg)
    assert len(res.probes) == 136
    seen = {key for key, _ in res.probes[:RANDOM_PROBE_COUNT + 3]}  # the initial probes
    fresh = 0
    for _, lams in outer:
        keys = {tuple(lam) for lam in lams.tolist()}
        fresh += not keys <= seen
        seen |= keys
    assert len(outer) == 48
    assert len(stacks) == 1 + fresh == 42
