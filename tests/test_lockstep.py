"""The lockstep polish against a one-start reference, the batch invariance of
every shipped field that lets lockstep reproduce single-start trajectories, a
stacked search against one search per field, and the lockstep parameter
optimizer against a sequential reference."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbound.core import sample_interior
from groundbound.refine import GaussianBump, RefinementState, perturbed_field
from groundbound import search
from groundbound.systems import magnetic
from groundbound.search import (
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
    the ``(sweep, coordinate)`` probes at which the lockstep polish owes this
    start a follow-up call: the ``+`` step won and the ``-`` step from the
    new point does not land on the old coordinate bit for bit.
    """
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    x = np.clip(np.asarray(x0, dtype=float).copy(), lo, hi)
    fx = objective(x)
    step = np.asarray(initial_step, dtype=float).copy()
    sweeps = 0
    redo = set()
    while np.max(step) >= POLISH_STEP_STOP:
        sweeps += 1
        start = fx
        improved = False
        for i in range(x.shape[0]):
            old, took_up = x[i], False
            for up, s in ((True, +step[i]), (False, -step[i])):
                cand = x.copy()
                cand[i] = min(max(cand[i] + s, lo[i]), hi[i])
                if took_up and cand[i].tobytes() != old.tobytes():
                    redo.add((sweeps, i))
                fc = objective(cand)
                if fc < fx:
                    x, fx = cand, fc
                    improved = True
                    took_up = up
        if not improved or (start - fx) < POLISH_VALUE_STOP:
            step *= 0.5
    return x, fx, sweeps, redo


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


def counted(fn):
    """``fn`` as a polish objective, recording each batch size; the rows
    named with a batch are nondecreasing, one per point."""
    calls = []

    def wrapper(rows, qs):
        assert rows.shape == (qs.shape[0],) and np.all(np.diff(rows) >= 0)
        calls.append(qs.shape[0])
        return fn(qs)

    return wrapper, calls


def assert_matches_reference(starts, step, signs=None, fn=wells):
    """The lockstep polish of ``fn`` against one reference polish per start
    of ``sign * fn``, a non-finite value counting as +inf.

    Returns the signed values, each start's sweep count and the number of
    follow-up calls the polish made.
    """
    signs = np.ones(len(starts)) if signs is None else np.asarray(signs, dtype=float)
    objective, calls = counted(fn)
    xs, fs = _polish(objective, starts, BOX, step, signs)
    sweeps, redo = [], set()
    for j, x0 in enumerate(starts):

        def one(q, sign=signs[j]):
            v = sign * fn(q[None, :])[0]
            return v if math.isfinite(v) else math.inf

        x, f, n, owed = reference_polish(one, x0, BOX, step)
        assert xs[j].tobytes() == x.tobytes()
        assert np.float64(fs[j]).tobytes() == np.float64(f).tobytes()
        sweeps.append(n)
        redo |= owed
    # one batched call for the start values, then per coordinate of each sweep
    # of the longest run: one call for both directions plus one follow-up
    # call when any start owes one
    assert len(calls) == 1 + len(BOX) * max(sweeps) + len(redo)
    return fs, sweeps, len(redo)


MIXED_STARTS = np.array([
    [-1.0, 0.5],   # at a well bottom: a short run
    [0.4, 0.1],    # between wells
    [3.0, -2.5],   # outside the box: clipped to the corner
    [1.6, 1.0],    # inside the masked disk: starts at +inf
    [-2.0, 1.5],   # on the box corner
])


def test_lockstep_matches_reference_with_unequal_sweeps_clipping_and_masked_starts():
    _, sweeps, _ = assert_matches_reference(MIXED_STARTS, np.array([0.04, 0.03]))
    assert len(set(sweeps)) > 1
    assert wells(MIXED_STARTS[3:4])[0] == math.inf


def test_paired_polish_evaluates_a_minus_step_that_misses_the_old_point():
    # a slope that rewards every step up, with a pit at each point the - step
    # from an accepted + step reaches instead of the start: the follow-up
    # call is the only way to find the pits
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
    fs, _, redo = assert_matches_reference(starts, np.array([s, s]), fn=pitted)
    assert redo > 0
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


def _hydrogen_rows(lams):
    controls = np.array([[lam] for lam in lams])
    family = hydrogen_exponent_family()
    return lambda members, qs: family.evaluate_rows(controls[members], qs)


def _magnetic_trivial_rows(members):
    return magnetic._trivial_rows([(MagneticHydrogen(b), variant) for b, variant in members])


# family -> (member parameters, member builder, stacked evaluator or None);
# the members of a family share a search box
STACKED_FAMILIES = {
    "billiard": ((0.3, 0.45, 0.6, 0.75, 0.85),
                 lambda r: billiard_local_energy_field(AnnularBilliard(r, 0.1)), None),
    "quartic": ((2.0, 4.0, 8.0, 12.0),
                lambda d2: quartic_field(QuarticOscillator(1.0 / math.sqrt(2.0), -1, d2)), None),
    "magnetic-lower": ((0.5, 1.0, 2.0, 4.0, 8.0),
                       lambda b: magnetic_hydrogen_field(MagneticHydrogen(b), "lower"), None),
    "magnetic-upper": ((0.5, 1.0, 2.0, 4.0, 8.0),
                       lambda b: magnetic_hydrogen_field(MagneticHydrogen(b), "upper"), None),
    "magnetic-improved": ((0.5, 1.0, 2.0, 4.0, 8.0),
                          lambda b: magnetic_hydrogen_field(MagneticHydrogen(b), "improved"), None),
    "magnetic-trivial-rows": (tuple((b, v) for b in (0.0, 0.5, 2.0, 8.0) for v in ("lower", "upper")),
                              lambda p: magnetic_hydrogen_field(MagneticHydrogen(p[0]), p[1]),
                              _magnetic_trivial_rows),
    "hydrogen-radial": ((0.5, 0.8, 1.0, 1.25, 2.0), hydrogen_radial_field, None),
    "hydrogen-radial-rows": ((0.5, 0.8, 1.0, 1.25, 2.0), hydrogen_radial_field, _hydrogen_rows),
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
    choices, build, stacked_rows = STACKED_FAMILIES[family]
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
    rows = None if stacked_rows is None else stacked_rows(params)
    stacked = _search_extrema(fields, cfg, kinds, rows)
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
    return [replace(f, domain=replace(f.domain, box=box)) for f, box in zip(fields, boxes)], _hydrogen_rows(lams)


# stack -> (fields over two search boxes, stacked evaluator or None)
PAIRED_STACKS = {
    "billiard": lambda: ([billiard_local_energy_field(AnnularBilliard(r, d))
                          for r, d in ((0.3, 0.0), (0.5, 0.1), (0.6, 0.0), (0.4, 0.2))], None),
    "hydrogen-radial-rows": _hydrogen_radial_over_two_boxes,
}


@pytest.mark.parametrize("stack", sorted(PAIRED_STACKS))
@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=st.data())
def test_stacked_bounds_pairs_equal_global_min_and_max(stack, data):
    # each pair's lower is its first field's minimum and its upper its second
    # field's maximum, bit for bit, whichever box group each field falls in
    fields, rows = PAIRED_STACKS[stack]()
    index = st.integers(0, len(fields) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=4), label="pairs")
    cfg = SearchConfig(
        grid_points_per_axis=data.draw(st.integers(8, 24), label="grid"),
        refinement_levels=data.draw(st.integers(1, 3), label="levels"),
        multistart_count=data.draw(st.integers(1, 3), label="multistarts"),
        rng_seed=data.draw(st.integers(0, 2**32 - 1), label="rng_seed"),
    )
    results = search._stacked_bounds(fields, cfg, rows, pairs)
    assert len(results) == len(pairs)
    for (lo, hi), got in zip(pairs, results):
        assert_same_report(got.lower_witness, search.global_min(fields[lo], cfg))
        assert_same_report(got.upper_witness, search.global_max(fields[hi], cfg))
        assert (got.lower, got.upper) == (got.lower_witness.value, got.upper_witness.value)
        assert got.resolution_caveat.box == cfg.box_for(fields[lo].domain)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    lams=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_hydrogen_evaluate_rows_equals_each_member_field(lams, seed):
    family = hydrogen_exponent_family()
    rng = np.random.default_rng(seed)
    # radii across the box, some inside the origin tube and some exterior
    qs = np.concatenate([rng.uniform(0.0, 40.0, 48), rng.uniform(-1e-6, 2e-6, 8), [0.0, -1.0, 40.0]])[:, None]
    fields = [family.build(np.array([lam])) for lam in lams]
    ok = fields[0].domain.valid_mask(qs)
    for field in fields[1:]:
        assert np.array_equal(field.domain.valid_mask(qs), ok)
        assert field.domain.box == fields[0].domain.box
    valid = qs[ok]
    controls = np.repeat(np.array(lams)[:, None], valid.shape[0], axis=0)
    got = family.evaluate_rows(controls, np.tile(valid, (len(lams), 1)))
    want = np.concatenate([field.evaluate(valid) for field in fields])
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the lockstep parameter optimizer against a sequential reference


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
@pytest.mark.parametrize("stacked_rows", [True, False], ids=["evaluate-rows", "member-loop"])
def test_lockstep_optimizer_matches_sequential_reference(objective, multistarts, stacked_rows):
    family = hydrogen_exponent_family((0.5, 2.0))
    if not stacked_rows:
        family = replace(family, evaluate_rows=None)
    cfg = SearchConfig(grid_points_per_axis=41, multistart_count=multistarts, rng_seed=multistarts)
    assert_optimizer_matches_reference(family, objective, cfg)


def test_lockstep_optimizer_matches_reference_when_member_boxes_differ():
    # the control is the box half-width, so no two members share a box
    qo = QuarticOscillator(1.0 / math.sqrt(2.0), -1, 8.0)
    base = quartic_field(qo)

    def build(lam):
        return replace(base, domain=replace(base.domain, box=((-lam[0], lam[0]),)))

    family = hydrogen_exponent_family()
    family = replace(family, control_box=((1.0, 6.0),), build=build, evaluate_rows=None)
    cfg = SearchConfig(grid_points_per_axis=24, refinement_levels=2, multistart_count=3, rng_seed=5)
    assert_optimizer_matches_reference(family, "maximize-lower", cfg)


def test_lockstep_optimizer_matches_reference_over_a_2d_control_box():
    # the quartic's stiffness and offset: each sweep probes two coordinates
    def build(lam):
        return quartic_field(QuarticOscillator(float(lam[0]), -1, float(lam[1])))

    family = TrialFamily(control_box=((0.5, 1.0), (2.0, 8.0)), build=build, label="quartic (r, delta2)")
    cfg = SearchConfig(grid_points_per_axis=10, refinement_levels=2, multistart_count=2, rng_seed=3)
    assert_optimizer_matches_reference(family, "maximize-lower", cfg)


def test_lockstep_optimizer_follow_up_after_a_step_clipped_to_the_box(monkeypatch):
    # below lam = 1 the exponent family's upper bound is -lam^2 / 2, least at
    # the top of this control box: a + step that clips there wins, and the -
    # step from it misses the start's old point, so that start owes a
    # follow-up call
    family = hydrogen_exponent_family((0.3, 1.0))
    outer = []  # (rows, control vectors) of each objective call of the optimizer's polish
    polish = search._polish

    def watched(objective, starts, box, *args):
        if box != family.control_box:  # an inner search's polish
            return polish(objective, starts, box, *args)

        def seen(rows, lams):
            outer.append((rows.copy(), lams.copy()))
            return objective(rows, lams)

        return polish(seen, starts, box, *args)

    monkeypatch.setattr(search, "_polish", watched)
    cfg = SearchConfig(grid_points_per_axis=24, refinement_levels=2, multistart_count=2, rng_seed=0)
    assert_optimizer_matches_reference(family, "minimize-upper", cfg)
    # a call whose rows repeat is paired; one with distinct rows right after
    # it is its follow-up, of the starts that took their + candidate there
    clipped = 0
    for (rows, lams), (after, _) in zip(outer, outer[1:]):
        if (np.diff(rows) == 0).any() and not (np.diff(after) == 0).any():
            plus = dict(zip(rows[0::2].tolist(), lams[0::2, 0].tolist()))
            clipped += sum(plus[row] == 1.0 for row in after.tolist())
    assert clipped > 0


def test_optimizer_searches_each_sweep_coordinate_as_one_stack(monkeypatch):
    # the optimize-hydrogen benchmark case: one stack of initial probes, then
    # one per paired call of the outer polish and per follow-up call that
    # has uncached candidates (a polish probing one direction per call made 83)
    stacks = []
    extrema = search._search_extrema

    def stacked(*args):
        stacks.append(None)
        return extrema(*args)

    monkeypatch.setattr(search, "_search_extrema", stacked)
    cfg = SearchConfig(multistart_count=2, rng_seed=0)
    res = optimize_parameters(hydrogen_exponent_family((0.5, 2.0)), None, "maximize-lower", cfg)
    assert len(res.probes) == 136
    assert len(stacks) == 42
