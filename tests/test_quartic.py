import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbound.search import SearchConfig, global_max, global_min
from groundbound.systems import QuarticOscillator, quartic_field, quartic_system
from reference import quartic_s

PAPER_PARAMS = dict(r=1.0 / math.sqrt(2.0), eta=-1, delta2=8.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        QuarticOscillator(r=0.0, eta=-1, delta2=8.0)
    with pytest.raises(ValueError):
        QuarticOscillator(r=1.0, eta=2, delta2=8.0)
    with pytest.raises(ValueError):
        QuarticOscillator(r=1.0, eta=-1, delta2=0.0)


def test_potential_minimum():
    qo = QuarticOscillator(**PAPER_PARAMS)
    # oracle: dense scan of the quartic polynomial
    q = np.linspace(-6, 6, 200001)
    assert qo.potential(q).min() == pytest.approx(qo.min_potential(), abs=1e-8)
    assert qo.min_potential() == pytest.approx(-4.0, abs=1e-12)
    assert QuarticOscillator(r=1.0, eta=+1, delta2=2.0).min_potential() == 0.0


def test_infimum_beats_the_trivial_potential_bound():
    qo = QuarticOscillator(**PAPER_PARAMS)
    rep = global_min(quartic_field(qo), cfg=SearchConfig(grid_points_per_axis=401))
    assert rep.value == pytest.approx(-3.27, abs=0.01)
    assert rep.value > qo.min_potential()
    assert abs(rep.location[0]) == pytest.approx(2.427, abs=0.01)


def test_supremum_is_the_asymptotic_limit():
    qo = QuarticOscillator(**PAPER_PARAMS)
    f = quartic_field(qo)
    rep = global_max(f, cfg=SearchConfig(grid_points_per_axis=401))
    assert rep.value == qo.asymptotic_local_energy() == 0.0
    assert rep.boundary_or_asymptotic


def test_asymptotic_limit_formula_against_symbolic_oracle():
    # oracle: sympy limit of the full local energy for symbolic r, d2
    import sympy as sp

    q = sp.Symbol("q", positive=True)
    r, d2 = sp.symbols("r d2", positive=True)
    for eta in (-1, +1):
        w = q * q + d2
        s_expr = (
            -(r / 3) * w ** sp.Rational(3, 2)
            + (r * d2 * (1 - eta) / 2) * sp.sqrt(w)
            - sp.log(w) / 2
            - (r * d2**2 / 2) / sp.sqrt(w)
        )
        v_expr = r**2 * q**2 * (q**2 + eta * d2) / 2
        e_expr = v_expr - (sp.diff(s_expr, q, 2) + sp.diff(s_expr, q) ** 2) / 2
        lim = sp.limit(e_expr, q, sp.oo)
        claimed = (r**2 * d2**2 / 2) * (1 - sp.Rational((1 - eta) ** 2, 4))
        assert sp.simplify(lim - claimed) == 0, eta


def test_asymptotic_limit_approached_from_moderate_distances():
    # direct evaluation converges like 1/q; stay below q ~ 1e3 where the
    # V - S'^2/2 cancellation still leaves plenty of float headroom
    for eta, d2 in [(-1, 8.0), (+1, 8.0), (-1, 2.0)]:
        qo = QuarticOscillator(r=0.9, eta=eta, delta2=d2)
        f = quartic_field(qo)
        devs = [abs(float(f.evaluate(np.array([[q]]))[0]) - qo.asymptotic_local_energy())
                for q in (100.0, 300.0, 1000.0)]
        assert devs[2] < devs[1] < devs[0], (eta, d2, devs)
        assert devs[2] < 0.05


def test_tail_patrol_never_undercuts_reported_infimum():
    qo = QuarticOscillator(**PAPER_PARAMS)
    f = quartic_field(qo)
    rep = global_min(f, cfg=SearchConfig(grid_points_per_axis=401))
    tail = np.concatenate([np.linspace(8, 1000, 5000), -np.linspace(8, 1000, 5000)])
    assert f.evaluate(tail[:, None]).min() >= rep.value - 1e-9


def test_trial_decays_fast_enough_for_normalization():
    qo = QuarticOscillator(**PAPER_PARAMS)
    q = np.linspace(0.0, 30.0, 3001)[:, None]
    s0 = quartic_s(qo, q)
    below = s0 <= -q[:, 0]
    assert below.any()
    q_star = q[np.argmax(below), 0]
    assert np.all(s0[q[:, 0] >= q_star] <= -q[q[:, 0] >= q_star, 0])
    assert q_star < 5.0


def test_pure_quartic_regularization_limit():
    # eta = +1 with shrinking offset: the field stays finite pointwise away
    # from a vanishing neighborhood of the origin and the tail constant -> 0
    grid = np.linspace(-6, 6, 1001)[:, None]
    for d2 in (1e-2, 1e-4):
        qo = QuarticOscillator(r=1.0 / math.sqrt(2.0), eta=+1, delta2=d2)
        vals = quartic_field(qo).evaluate(grid)
        assert np.all(np.isfinite(vals))
        assert qo.asymptotic_local_energy() == pytest.approx(0.0, abs=1e-4)
        v = qo.potential(grid)
        pure = 0.5 * qo.r**2 * grid[:, 0] ** 4
        # slack covers rounding of the large cancelled quartic terms
        assert np.max(np.abs(v - pure)) <= 0.5 * qo.r**2 * d2 * np.max(grid**2) + 1e-10


def test_system_returns_consistent_pair():
    qo = QuarticOscillator(**PAPER_PARAMS)
    h, trial = quartic_system(qo)
    assert h.domain.dimension == 1
    qs = np.array([[1.3]])
    assert h.potential(qs)[0] == pytest.approx(qo.potential(np.array([1.3]))[0])


def reference_s_derivs(qo, q):
    """S0' and S0'' as first written, one power of w at a time."""
    r, d2, eta = qo.r, qo.delta2, qo.eta
    w = q * q + d2
    sw = np.sqrt(w)
    bracket = (
        -r * sw
        + (r * d2 * (1.0 - eta) / 2.0) / sw
        - 1.0 / w
        + (r * d2 * d2 / 2.0) / (w * sw)
    )
    s1 = q * bracket
    q2 = q * q
    s2 = (
        -r * sw
        - r * q2 / sw
        + (r * d2 * (1.0 - eta) / 2.0) * (1.0 / sw - q2 / (w * sw))
        - 1.0 / w
        + 2.0 * q2 / (w * w)
        + (r * d2 * d2 / 2.0) * (1.0 / (w * sw) - 3.0 * q2 / (w * w * sw))
    )
    return s1, s2


def _same_bits_or_both_nan(got, want):
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


# r and delta2 cover the paper's range, the extremes near 1e300, and delta2
# down to the least subnormal, where w*w (and, lower, w*sw) at q = 0 is 0.0
# and a term is 0/0: both forms must then give NaN, which the search reads as
# +inf.
_WIDE = st.one_of(st.floats(1e-3, 1e3), st.floats(1e290, 1e300))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    q=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 8.0, -8.0]), st.floats(-8.0, 8.0)), min_size=1, max_size=40),
    r=_WIDE,
    eta=st.sampled_from([-1, 1]),
    delta2=st.one_of(_WIDE, st.floats(5e-324, 1e-150), st.sampled_from([5e-324, 1e-300, 1e-200])),
)
def test_s_derivs_match_the_reference_bit_for_bit(q, r, eta, delta2):
    qo = QuarticOscillator(r, eta, delta2)
    pts = np.array(q)
    with np.errstate(all="ignore"):
        got, want = qo._s_derivs(pts), reference_s_derivs(qo, pts)
    for g, w in zip(got, want, strict=True):
        assert _same_bits_or_both_nan(g, w)


def test_s_derivs_at_a_tiny_delta2_are_nan_at_zero():
    qo = QuarticOscillator(1.0, -1, 1e-200)
    with np.errstate(all="ignore"):
        s1, s2 = qo._s_derivs(np.array([0.0, 1.0]))
    assert np.isnan(s2[0]) and np.isfinite(s2[1])
    # a field evaluation there is NaN too, which the search reads as +inf
    with np.errstate(all="ignore"):
        assert np.isnan(quartic_field(qo).evaluate(np.array([[0.0]]))[0])
