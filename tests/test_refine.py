import math
from dataclasses import replace

import numpy as np
import pytest

from groundbound.core import derivative_consistency
from groundbound.refine import (
    DEFAULT_AMPLITUDE_RANGE,
    LOCAL_TIEBREAK_WEIGHT,
    LOCAL_WINDOW_SIGMAS,
    GaussianBump,
    _AmplitudeCurve,
    _bump_derivs,
    _bump_value,
    _selection_grid,
    _with_bump,
    censor_guard,
    default_centers,
    new_refinement_state,
    optimize_bump_amplitude,
    perturbed_field,
    perturbed_trial,
    refine_schedule,
)
from groundbound.search import SearchConfig, global_min
from groundbound.systems import QuarticOscillator, quartic_field, quartic_system

CFG = SearchConfig(grid_points_per_axis=401, refinement_levels=2, multistart_count=1, rng_seed=0)


@pytest.fixture(scope="module")
def quartic_state():
    qo = QuarticOscillator(r=1.0 / math.sqrt(2.0), eta=-1, delta2=8.0)
    h, base = quartic_system(qo)
    asym = quartic_field(qo).asymptotic_limits
    return new_refinement_state(h, base, asym, cfg=CFG)


def test_bump_validation_and_derivatives():
    with pytest.raises(ValueError):
        GaussianBump(1.0, 0.0, 0.0)
    b = GaussianBump(0.7, 1.0, 2.0)

    def parts(q):
        return (_bump_value(q, b.s, b.a, b.sigma), *_bump_derivs(q, b.s, b.a, b.sigma))

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
    state = replace(
        quartic_state, bumps=(GaussianBump(0.3, -1.0, 1.0), GaussianBump(-0.2, 1.5, 0.7))
    )
    curve = _AmplitudeCurve(state, 0.5, sigma, CFG)
    qs = curve.grid[:, None]
    for s in (-1.3, -0.4, 0.25, 1.1):
        bumped = replace(state, bumps=state.bumps + (GaussianBump(s, 0.5, sigma),))
        want = perturbed_field(bumped).evaluate(qs)
        np.testing.assert_allclose(curve._energies([s])[0], want, rtol=1e-10, atol=0.0)


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


@pytest.mark.parametrize("a", [0.5, 8.0, 30.0], ids=["inside", "box-edge", "outside"])
def test_blocked_score_equals_the_full_broadcast(quartic_state, a):
    state = replace(quartic_state, bumps=(GaussianBump(0.3, -1.0, 1.0), GaussianBump(-0.2, 1.5, 0.7)))
    curve = _AmplitudeCurve(state, a, 1.0, CFG)
    window = np.flatnonzero(np.abs(curve.grid - a) <= LOCAL_WINDOW_SIGMAS * 1.0)
    if a == 30.0:
        assert curve.window is None and window.size == 0
    else:
        assert np.array_equal(np.arange(curve.grid.size)[curve.window], window)
    for svals in (np.linspace(*DEFAULT_AMPLITUDE_RANGE, 161), np.array([0.37]), 0.37):
        assert np.array_equal(curve.score(svals), _full_broadcast_score(curve, a, 1.0, svals))


def test_amplitude_scan_is_concave(quartic_state):
    # each E_loc(q; s) has s^2 coefficient -g1^2/2 <= 0, so both the grid
    # bound and the score (plus a minimum over the window) are concave in s
    state = replace(quartic_state, bumps=(GaussianBump(0.3, -1.0, 1.0), GaussianBump(-0.2, 1.5, 0.7)))
    coarse = np.linspace(*DEFAULT_AMPLITUDE_RANGE, 161)
    for a in (0.0, 0.5, -2.5):
        curve = _AmplitudeCurve(state, a, 1.0, CFG)
        bound = np.minimum(curve._energies(coarse).min(axis=1), curve.limit_floor)
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


def test_selection_grid_is_reused_until_a_commit_and_matches_a_fresh_build(quartic_state):
    def assert_fresh(sel, state):
        fresh = _selection_grid(replace(state, selection=None), CFG)
        for name in ("grid", "grad0", "alpha"):
            assert np.array_equal(getattr(sel, name), getattr(fresh, name))

    state, kinds = quartic_state, set()
    for a in default_centers(sweeps=1):
        s_star, after = optimize_bump_amplitude(state, a, 1.0, cfg=CFG)
        assert_fresh(after.selection, state)  # built for the step's input state
        reused = _selection_grid(after, CFG)
        if s_star == 0.0:
            assert reused is after.selection
        else:
            assert reused is not after.selection
            assert_fresh(reused, after)
        kinds.add(s_star == 0.0)
        state = after
    assert kinds == {True, False}


def test_empty_bump_list_is_identity(quartic_state):
    assert perturbed_trial(quartic_state) is quartic_state.base


def test_single_bump_shifts_s_at_center(quartic_state):
    bumped = replace(quartic_state, bumps=(GaussianBump(0.1, 0.0, 1.0),))
    t0 = quartic_state.base
    t1 = perturbed_trial(bumped)
    q0 = np.array([[0.0]])
    assert t1.s(q0)[0] == pytest.approx(t0.s(q0)[0] + 0.1, abs=1e-14)


def test_assembled_derivatives_match_finite_differences(quartic_state):
    bumped = replace(
        quartic_state,
        bumps=(GaussianBump(0.3, -1.0, 1.0), GaussianBump(-0.5, 2.0, 0.7)),
    )
    trial = perturbed_trial(bumped)
    pts = np.random.default_rng(0).uniform(-6, 6, size=(200, 1))
    grad_err, lap_err = derivative_consistency(trial, pts)
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
