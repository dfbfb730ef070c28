import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbound import cli, refine, search
from groundbound.core import coordinate_1d
from groundbound.refine import (
    DEFAULT_AMPLITUDE_RANGE,
    LOCAL_TIEBREAK_WEIGHT,
    LOCAL_WINDOW_SIGMAS,
    SELECTION_GRID_MIN,
    GaussianBump,
    _AmplitudeCurve,
    _bump_derivs,
    _scan_energies,
    _selection_grid,
    _with_bump,
    censor_guard,
    default_centers,
    new_refinement_state,
    optimize_bump_amplitude,
    perturbed_field,
    perturbed_trial,
)
from groundbound.search import SearchConfig, global_min
from groundbound.systems import QuarticOscillator, quartic_field, quartic_system
from reference import bump_sum, derivative_consistency, quartic_s, refine_schedule

CFG = SearchConfig(grid_points_per_axis=401, refinement_levels=2, multistart_count=1, rng_seed=0)
QUARTIC = QuarticOscillator(r=1.0 / math.sqrt(2.0), eta=-1, delta2=8.0)


@pytest.fixture(scope="module")
def quartic_state():
    h, base = quartic_system(QUARTIC)
    asym = quartic_field(QUARTIC).asymptotic_limits
    return new_refinement_state(h, base, asym, cfg=CFG)


def test_bump_validation_and_derivatives():
    with pytest.raises(ValueError):
        GaussianBump(1.0, 0.0, 0.0)
    b = GaussianBump(0.7, 1.0, 2.0)

    def parts(q):
        return (bump_sum(q, [b]), *_bump_derivs(q, b.s, b.a, b.sigma))

    q = np.linspace(-5, 7, 101)
    h = 1e-6
    value, d1, d2 = parts(q)
    d1_fd = (parts(q + h)[0] - parts(q - h)[0]) / (2 * h)
    d2_fd = (parts(q + h)[1] - parts(q - h)[1]) / (2 * h)
    assert np.max(np.abs(d1 - d1_fd)) < 1e-7
    assert np.max(np.abs(d2 - d2_fd)) < 1e-6
    # the bump and its first two derivatives are bounded everywhere
    wide = np.linspace(-100, 100, 100001)
    assert all(np.all(np.isfinite(f)) for f in parts(wide))


@pytest.mark.parametrize("sigma", [1.0, 0.7])
def test_amplitude_curve_matches_the_bumped_field(quartic_state, sigma):
    state = replace(quartic_state, bumps=(GaussianBump(0.3, -1.0, 1.0), GaussianBump(-0.2, 1.5, 0.7)))
    curve = _AmplitudeCurve(state, 0.5, sigma, CFG, DEFAULT_AMPLITUDE_RANGE)
    qs = curve.grid[:, None]
    for s in (-1.3, -0.4, 0.25, 1.1):
        bumped = replace(state, bumps=state.bumps + (GaussianBump(s, 0.5, sigma),))
        want = perturbed_field(bumped).evaluate(qs)
        got = _scan_energies([s], curve.alpha, curve.beta, curve.gamma)[0]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def _full_broadcast_score(curve, a, sigma, svals):
    """Reference: the amplitude scan scored in one broadcast with a boolean window."""
    svals = np.atleast_1d(np.asarray(svals, dtype=float))
    e = (
        curve.alpha[None, :]
        + svals[:, None] * curve.beta[None, :]
        + (svals * svals)[:, None] * curve.gamma[None, :]
    )
    bound = np.minimum(e.min(axis=1), curve.limit_floor)
    window = np.abs(curve.grid - a) <= LOCAL_WINDOW_SIGMAS * sigma
    if not window.any():
        return bound
    return bound + LOCAL_TIEBREAK_WEIGHT * e[:, window].min(axis=1)


_CENTERS = (-3.0, -1.0, 0.5, 1.5, 4.0)
# bump lists with repeated centers, which merge into the bump already there
_bump_lists = st.lists(
    st.builds(GaussianBump, st.floats(-1.0, 1.0), st.sampled_from(_CENTERS), st.sampled_from([0.7, 1.0])),
    max_size=6,
)
# the candidate center inside the search box, at its edge (window half
# outside) and beyond it (no window)
_candidate_centers = {
    "inside": st.floats(-7.5, 7.5),
    "box-edge": st.sampled_from([-8.0, 8.0]),
    "outside": st.one_of(st.floats(-40.0, -20.0), st.floats(20.0, 40.0)),
}


@pytest.mark.parametrize("where", list(_candidate_centers))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_blocked_score_equals_the_full_broadcast(quartic_state, where, data):
    bumps = ()
    for b in data.draw(_bump_lists, label="bumps"):
        bumps = _with_bump(bumps, b)
    a = data.draw(_candidate_centers[where], label="a")
    sigma = data.draw(st.floats(0.3, 2.0), label="sigma")
    s_lo = data.draw(st.floats(-3.0, 1.0), label="s_lo")
    s_hi = s_lo + data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), label="width")
    state = replace(quartic_state, bumps=bumps)
    curve = _AmplitudeCurve(state, a, sigma, CFG, (s_lo, s_hi))
    window = np.flatnonzero(np.abs(curve.grid - a) <= LOCAL_WINDOW_SIGMAS * sigma)
    if where == "outside":
        assert curve.window is None and window.size == 0
    else:
        assert np.array_equal(np.arange(curve.grid.size)[curve.window], window)

    outside = s_hi + data.draw(st.floats(1e-3, 2.0), label="beyond")
    inner = np.linspace(s_lo, s_hi, data.draw(st.integers(1, 200), label="count"))
    for svals in (inner, np.array([s_lo, s_hi]), np.array([s_lo, outside]), outside, s_hi):
        assert np.array_equal(curve.score(svals), _full_broadcast_score(curve, a, sigma, svals))


def test_a_schedule_scored_on_the_full_grid_is_the_same(quartic_state, monkeypatch):
    def run():
        return refine_schedule(
            quartic_state.hamiltonian, quartic_state.base, quartic_state.asymptotic_limits,
            default_centers(sweeps=2), sigma=1.0, cfg=CFG,
        )

    pruned = run()

    class FullGrid(_AmplitudeCurve):
        def __init__(self, state, a, sigma, cfg, s_range):
            super().__init__(state, a, sigma, cfg, s_range)
            self.a, self.sigma = a, sigma

        def score(self, svals):
            return _full_broadcast_score(self, self.a, self.sigma, svals)

    monkeypatch.setattr(refine, "_AmplitudeCurve", FullGrid)
    full = run()
    assert np.array(pruned.bound_history).tobytes() == np.array(full.bound_history).tobytes()
    assert pruned.bumps == full.bumps
    assert len(pruned.bumps) > 1


def test_amplitude_scan_is_concave(quartic_state):
    # each E_loc(q; s) has s^2 coefficient -g1^2/2 <= 0, so both the grid
    # bound and the score (plus a minimum over the window) are concave in s
    state = replace(quartic_state, bumps=(GaussianBump(0.3, -1.0, 1.0), GaussianBump(-0.2, 1.5, 0.7)))
    coarse = np.linspace(*DEFAULT_AMPLITUDE_RANGE, 161)
    for a in (0.0, 0.5, -2.5):
        curve = _AmplitudeCurve(state, a, 1.0, CFG, DEFAULT_AMPLITUDE_RANGE)
        e = _scan_energies(coarse, curve.alpha, curve.beta, curve.gamma)
        bound = np.minimum(e.min(axis=1), curve.limit_floor)
        for y in (bound, curve.score(coarse)):
            second = y[:-2] - 2.0 * y[1:-1] + y[2:]
            assert np.all(second <= 1e-12 * np.max(np.abs(y)))


def test_bumps_at_one_center_merge_into_the_same_field(quartic_state):
    repeated = (
        GaussianBump(0.3, -1.0, 1.0),
        GaussianBump(0.2, 0.5, 1.0),
        GaussianBump(-0.1, -1.0, 1.0),
        GaussianBump(0.4, 0.5, 0.7),
        GaussianBump(0.25, 0.5, 1.0),
    )
    merged = ()
    for b in repeated:
        merged = _with_bump(merged, b)
    assert merged == (
        GaussianBump(0.3 + -0.1, -1.0, 1.0),
        GaussianBump(0.2 + 0.25, 0.5, 1.0),
        GaussianBump(0.4, 0.5, 0.7),
    )
    qs = np.linspace(-8.0, 8.0, 2001)[:, None]
    want = perturbed_field(replace(quartic_state, bumps=repeated)).evaluate(qs)
    got = perturbed_field(replace(quartic_state, bumps=merged)).evaluate(qs)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def reference_derivs(state, qs):
    """The bumped trial's gradient and Laplacian, each bump term broadcast
    over all bumps at once: the formula the cached selection grid and
    :func:`perturbed_trial` must match bit for bit."""
    g0, lap0 = state.base.derivs(qs)
    grad = np.array(g0, dtype=float)
    lap = np.asarray(lap0, dtype=float)
    if state.bumps:
        s = np.array([b.s for b in state.bumps])
        a = np.array([b.a for b in state.bumps])
        sigma = np.array([b.sigma for b in state.bumps])
        t = (qs[:, 0][:, None] - a) / sigma
        e = np.exp(-t * t) * s
        grad[:, 0] += (e * (-2.0 * t / sigma)).sum(axis=1)
        lap = lap + (e * (4.0 * t * t - 2.0) / sigma**2).sum(axis=1)
    return grad, lap


def reference_selection(state, cfg):
    """``(grid, grad0, alpha)`` of the selection grid, built from scratch."""
    h = state.hamiltonian
    box = cfg.box_for(h.domain)[0]
    qs = np.linspace(box[0], box[1], max(SELECTION_GRID_MIN, 10 * cfg.grid_points_per_axis + 1))[:, None]
    qs = qs[h.domain.valid_mask(qs)]
    v = np.asarray(h.potential(qs), dtype=float)
    grad, lap = reference_derivs(state, qs)
    grad0 = grad[:, 0]
    return qs[:, 0], grad0, v - 0.5 * (lap + grad0 * grad0)


def assert_selection_is_the_reference(sel, state, cfg=CFG):
    for name, want in zip(("grid", "grad0", "alpha"), reference_selection(state, cfg)):
        assert getattr(sel, name).tobytes() == want.tobytes(), name


def test_selection_grid_is_reused_until_a_commit_and_matches_a_fresh_build(quartic_state):
    # two sweeps: the first appends centers, the second merges into them
    state, kinds, merged = quartic_state, set(), False
    for a in default_centers(sweeps=2):
        s_star, after = optimize_bump_amplitude(state, a, 1.0, cfg=CFG)
        assert_selection_is_the_reference(after.selection, state)  # built for the step's input state
        reused = _selection_grid(after, CFG)
        if s_star == 0.0:
            assert reused is after.selection
        else:
            assert reused is not after.selection
            assert_selection_is_the_reference(reused, after)
            merged |= len(after.bumps) == len(state.bumps)
        kinds.add(s_star == 0.0)
        state = after
    assert kinds == {True, False}
    assert merged
    assert state.selection.t.shape == state.selection.ex.shape == (state.selection.grid.size, len(state.bumps))
    assert state.selection.t.flags.c_contiguous and state.selection.ex.flags.c_contiguous

    # a new box or grid size rebuilds it, and a state whose bumps dropped,
    # moved or changed width rebuilds its bump columns
    for cfg in (replace(CFG, box=((-6.0, 5.0),)), replace(CFG, grid_points_per_axis=501)):
        assert_selection_is_the_reference(_selection_grid(state, cfg), state, cfg)
    fresh = _selection_grid(state, CFG)
    rewidened = state.bumps[:2] + tuple(replace(b, sigma=0.7) for b in state.bumps[2:])
    for bumps in (state.bumps[:-1], state.bumps[1:], state.bumps[::-1], rewidened, ()):
        changed = replace(state, bumps=bumps, selection=fresh)
        rebuilt = _selection_grid(changed, CFG)
        assert_selection_is_the_reference(rebuilt, changed)
        assert rebuilt.t.flags.c_contiguous and rebuilt.ex.flags.c_contiguous


def test_perturbed_trial_derivs_match_the_reference(quartic_state):
    bumps = tuple(GaussianBump(0.1 * i - 0.4, a, sigma)
                  for i, (a, sigma) in enumerate([(-3.0, 1.0), (-1.0, 0.7), (0.5, 1.3), (1.5, 1.0)] * 3))
    for n in (1, 2, 4, 401, 4001):
        qs = np.linspace(-8.0, 8.0, n)[:, None]
        for k in (1, 2, 9, 12):
            state = replace(quartic_state, bumps=bumps[:k])
            got, want = perturbed_trial(state).derivs(qs), reference_derivs(state, qs)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_empty_bump_list_is_identity(quartic_state):
    assert perturbed_trial(quartic_state) is quartic_state.base


def test_assembled_derivatives_match_finite_differences(quartic_state):
    bumped = replace(
        quartic_state,
        bumps=(GaussianBump(0.3, -1.0, 1.0), GaussianBump(-0.5, 2.0, 0.7)),
    )

    def s(qs):
        return quartic_s(QUARTIC, qs) + bump_sum(coordinate_1d(qs), bumped.bumps)

    pts = np.random.default_rng(0).uniform(-6, 6, size=(200, 1))
    grad_err, lap_err = derivative_consistency(perturbed_trial(bumped).derivs, s, pts)
    assert grad_err <= 1e-6
    assert lap_err <= 1e-5


def test_perturbed_field_calls_base_derivs_once(quartic_state):
    calls = []
    base = quartic_state.base

    def counted(qs):
        calls.append(qs.shape[0])
        return base.derivs(qs)

    state = replace(
        quartic_state,
        base=replace(base, derivs=counted),
        bumps=(GaussianBump(0.3, -1.0, 1.0), GaussianBump(-0.5, 2.0, 0.7)),
    )
    qs = np.linspace(-3.0, 3.0, 7)[:, None]
    perturbed_field(state).evaluate(qs)
    assert calls == [7]


def test_history_must_be_non_decreasing(quartic_state):
    with pytest.raises(ValueError):
        replace(quartic_state, bound_history=((0, -3.0), (1, -3.5)))


def test_locality_far_bump_leaves_bound_unchanged(quartic_state):
    # center 10 sigma away from both minimizers, |s| <= 0.1
    bumped = replace(quartic_state, bumps=(GaussianBump(0.1, -12.427, 1.0),))
    lower = global_min(perturbed_field(bumped), cfg=CFG).value
    assert abs(lower - quartic_state.current_lower) < 1e-6


def test_censor_accepts_tiny_amplitudes(quartic_state):
    argmin = float(global_min(perturbed_field(quartic_state), cfg=CFG).location[0])
    assert censor_guard(quartic_state, GaussianBump(1e-4, argmin, 1.0), CFG) == "accept"


def test_censor_far_moderate_bump_is_accepted(quartic_state):
    assert censor_guard(quartic_state, GaussianBump(0.5, 30.0, 1.0), CFG) == "accept"


def test_censor_flags_oversized_amplitude(quartic_state):
    argmin = float(global_min(perturbed_field(quartic_state), cfg=CFG).location[0])
    verdict = censor_guard(quartic_state, GaussianBump(5.0, argmin, 1.0), CFG)
    assert verdict in ("clip", "reject")
    # the optimizer never commits it: post-state bound >= pre-state bound
    s_star, after = optimize_bump_amplitude(quartic_state, argmin, 1.0, cfg=CFG)
    assert after.current_lower >= quartic_state.current_lower


def test_censor_rejects_distant_bifurcation(quartic_state):
    # a strong negative bump far from the minimizer digs a new distant
    # minimum: bound drops and the minimizer jumps by much more than 3 sigma
    verdict = censor_guard(quartic_state, GaussianBump(-2.0, 4.0, 1.0), CFG)
    assert verdict == "reject"


def test_censor_handed_the_bumped_search_makes_only_the_committed_one(quartic_state, monkeypatch):
    candidate = GaussianBump(-2.0, 4.0, 1.0)
    after = global_min(perturbed_field(replace(quartic_state, bumps=_with_bump(quartic_state.bumps, candidate))), CFG)
    searched = []
    monkeypatch.setattr(refine, "global_min", lambda field, cfg: searched.append(field) or global_min(field, cfg))
    assert censor_guard(quartic_state, candidate, CFG, after) == "reject"
    assert len(searched) == 1  # ``before``, the committed field's minimum
    assert censor_guard(quartic_state, candidate, CFG) == "reject"
    assert len(searched) == 3


def test_default_refine_polishes_in_pinned_calls_and_each_censor_searches_once(monkeypatch, capsys):
    # the default quartic run: the 122 searches' polishes make 2,241
    # objective calls (126 searches made 4,992 when each call held one
    # coordinate's probes and the censor searched the bumped field again),
    # and each censor call that does not accept searches only the committed
    # field, since its caller hands it the bumped field's search
    calls, censored = [], []
    polish, censor = search._polish, refine.censor_guard

    def counted(objective, *args, **kwargs):
        return polish(lambda rows, qs: calls.append(None) or objective(rows, qs), *args, **kwargs)

    def watched(*args):
        before = len(calls)
        verdict = censor(*args)
        censored.append((verdict, len(calls) > before))
        return verdict

    monkeypatch.setattr(search, "_polish", counted)
    monkeypatch.setattr(refine, "censor_guard", watched)
    assert cli.main(["refine", "--system", "quartic"]) == 0
    capsys.readouterr()
    assert len(calls) == 2241
    assert len(censored) == 4
    assert all(searched == (verdict != "accept") for verdict, searched in censored)


def test_amplitude_turnover_exists_at_the_saddle(quartic_state):
    # raising the saddle lifts both wells until a bifurcation undercuts it:
    # the bound as a function of amplitude rises and then falls
    svals = np.linspace(0.0, -5.0, 26)
    bounds = []
    for s in svals:
        if s == 0.0:
            bounds.append(quartic_state.current_lower)
            continue
        bumped = replace(quartic_state, bumps=(GaussianBump(float(s), 0.0, 1.0),))
        bounds.append(global_min(perturbed_field(bumped), cfg=CFG).value)
    top = int(np.argmax(bounds))
    assert 0 < top < len(bounds) - 1
    assert bounds[top] > bounds[0] > bounds[-1]


def test_degenerate_amplitude_range_is_identity(quartic_state):
    s_star, after = optimize_bump_amplitude(quartic_state, 0.0, 1.0, s_range=(0.0, 0.0), cfg=CFG)
    assert s_star == 0.0
    assert after.bumps == quartic_state.bumps
    assert after.current_lower == quartic_state.current_lower
    assert after.bound_history[-1][1] == quartic_state.current_lower


def test_first_default_center_improves_strictly(quartic_state):
    s_star, after = optimize_bump_amplitude(quartic_state, default_centers()[0], 1.0, cfg=CFG)
    assert s_star != 0.0
    assert after.current_lower > quartic_state.current_lower


def test_center_at_one_minimizer_is_exhausted_by_the_mirror_well(quartic_state):
    # with symmetric wells, a bump near one minimizer cannot raise the global
    # bound (the untouched mirror well pins it); the amplitude scan confirms
    # no strictly improving amplitude exists and the step must not regress
    argmin = float(global_min(perturbed_field(quartic_state), cfg=CFG).location[0])
    for s in np.linspace(*DEFAULT_AMPLITUDE_RANGE, 41):
        if s == 0.0:
            continue
        bumped = replace(quartic_state, bumps=(GaussianBump(float(s), argmin, 1.0),))
        val = global_min(perturbed_field(bumped), cfg=CFG).value
        assert val <= quartic_state.current_lower + 1e-12
    _, after = optimize_bump_amplitude(quartic_state, argmin, 1.0, cfg=CFG)
    assert after.current_lower >= quartic_state.current_lower


def test_schedule_monotone_and_reproducible(quartic_state):
    centers = default_centers(sweeps=2)
    st1 = refine_schedule(
        quartic_state.hamiltonian, quartic_state.base, quartic_state.asymptotic_limits,
        centers, sigma=1.0, cfg=CFG,
    )
    lows = [v for _, v in st1.bound_history]
    assert all(b >= a for a, b in zip(lows, lows[1:]))
    assert st1.current_lower > quartic_state.current_lower
    st2 = refine_schedule(
        quartic_state.hamiltonian, quartic_state.base, quartic_state.asymptotic_limits,
        centers, sigma=1.0, cfg=CFG,
    )
    assert st1.bound_history == st2.bound_history
    assert [b.s for b in st1.bumps] == [b.s for b in st2.bumps]
    # revisits add into the bump already at that center: one bump per (a, sigma)
    assert len({(b.a, b.sigma) for b in st1.bumps}) == len(st1.bumps) <= len(set(centers))


def test_empty_schedule_returns_base_state(quartic_state):
    st = refine_schedule(
        quartic_state.hamiltonian, quartic_state.base, quartic_state.asymptotic_limits,
        [], sigma=1.0, cfg=CFG,
    )
    assert st.bumps == ()
    assert st.current_lower == pytest.approx(-3.27, abs=0.01)


def test_local_schedule_far_from_minimizers_changes_nothing(quartic_state):
    # every center at least 10 sigma from both minimizers
    st = refine_schedule(
        quartic_state.hamiltonian, quartic_state.base, quartic_state.asymptotic_limits,
        [-14.0, 13.5, 15.0], sigma=0.25, s_range=(-0.1, 0.1),
        cfg=replace(CFG, box=((-16.0, 16.0),)),
    )
    assert abs(st.current_lower - quartic_state.current_lower) < 1e-6
