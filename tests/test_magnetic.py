import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbound.search import SearchConfig, global_max, global_min
from groundbound.systems import magnetic
from groundbound.systems import (
    VARIANTS,
    MagneticHydrogen,
    cusp_defects,
    improved_directional_limit,
    improved_parabolic_limit,
    magnetic_hydrogen_field,
    magnetic_trivial_bounds,
)
from reference import (
    CROSS_CHECK_TOLERANCE,
    cross_check,
    magnetic_cancelled_local_energy,
    magnetic_plain_local_energy,
    magnetic_u_parts,
)

CUSP_TOL = 1e-10


def test_field_strength_validation():
    with pytest.raises(ValueError):
        MagneticHydrogen(-1.0)
    with pytest.raises(ValueError):
        magnetic_hydrogen_field(MagneticHydrogen(0.0), "improved")
    with pytest.raises(ValueError):
        magnetic_hydrogen_field(MagneticHydrogen(1.0), "landau")


@pytest.mark.parametrize("B", [0.5, 1.0, 2.3, 4.0])
@pytest.mark.parametrize("variant", VARIANTS)
def test_cusp_conditions(B, variant):
    radial, axis = cusp_defects(MagneticHydrogen(B), variant)
    assert radial <= CUSP_TOL
    assert axis <= CUSP_TOL


# field strengths log-uniform over twelve decades, and zero
_field_strengths = st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(B=_field_strengths)
def test_every_variant_builds_its_field_at_any_field_strength(B):
    mh = MagneticHydrogen(B)
    for variant in VARIANTS:
        if variant == "improved" and B == 0.0:
            with pytest.raises(ValueError):
                magnetic_hydrogen_field(mh, variant)
            continue
        magnetic_hydrogen_field(mh, variant)  # checks the cusp conditions
        assert max(cusp_defects(mh, variant)) <= CUSP_TOL


def test_trivial_bounds():
    Bs = [0.5, 1.0, 2.0]
    results = magnetic_trivial_bounds([MagneticHydrogen(B) for B in Bs])
    assert len(results) == len(Bs)
    for B, res in zip(Bs, results):
        assert res.lower == pytest.approx(-0.5, abs=1e-6)
        assert res.upper == pytest.approx(-0.5 + B / 2.0, abs=1e-6)


def test_trivial_bounds_of_no_entries():
    assert magnetic_trivial_bounds([]) == []


_TUBE = magnetic.ORIGIN_TUBE
_EDGE = magnetic.BOX_HALF_WIDTH
_coord = st.floats(0.0, _EDGE)
# generic points, the axis rho = 0, the plane z = 0, just outside the origin
# tube (and on its rim, which rounding may put on either side) and the corners
_points = st.one_of(
    st.tuples(_coord, _coord),
    st.tuples(st.just(0.0), _coord),
    st.tuples(_coord, st.just(0.0)),
    st.builds(
        lambda a, t: (t * math.cos(a), t * math.sin(a)),
        st.floats(0.0, math.pi / 2),
        st.floats(_TUBE, 1.01 * _TUBE),
    ),
    st.sampled_from([(0.0, 0.0), (0.0, _EDGE), (_EDGE, 0.0), (_EDGE, _EDGE)]),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    Bs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0)), min_size=1, max_size=4),
    rows=st.lists(st.tuples(st.integers(0, 7), _points), min_size=1, max_size=12),
)
def test_trivial_rows_equal_each_member_field(Bs, rows):
    members = [(MagneticHydrogen(B), variant) for B in Bs for variant in ("lower", "upper")]
    fields = [magnetic_hydrogen_field(mh, variant) for mh, variant in members]
    stacked = np.array(sorted(m % len(members) for m, _ in rows))
    qs = np.array([q for _, q in rows], dtype=float)
    for field in fields[1:]:
        assert np.array_equal(field.domain.valid_mask(qs), fields[0].domain.valid_mask(qs))
    with np.errstate(all="ignore"):  # the origin corner is 0/0 in both
        got = magnetic._trivial_rows(members)(stacked, qs)
        want = np.concatenate([fields[m].evaluate(qs[j:j + 1]) for j, m in enumerate(stacked)])
    assert got.tobytes() == want.tobytes()


def test_lower_variant_infimum_and_off_axis_divergence():
    f = magnetic_hydrogen_field(MagneticHydrogen(1.0), "lower")
    rep = global_min(f, cfg=SearchConfig())
    assert rep.value == pytest.approx(-0.5, abs=1e-9)
    hi = global_max(f, cfg=SearchConfig())
    assert hi.value == math.inf
    assert hi.boundary_or_asymptotic


def test_upper_variant_supremum_and_divergent_lower_side():
    f = magnetic_hydrogen_field(MagneticHydrogen(1.0), "upper")
    hi = global_max(f, cfg=SearchConfig())
    assert hi.value == pytest.approx(0.0, abs=1e-9)
    lo = global_min(f, cfg=SearchConfig())
    assert lo.value == -math.inf


def test_improved_variant_lifts_the_lower_bound_at_b4():
    f = magnetic_hydrogen_field(MagneticHydrogen(4.0), "improved")
    rep = global_min(f, cfg=SearchConfig(grid_points_per_axis=161))
    assert rep.value > -0.5
    # the even extension kinks on z = 0, so only the lower bound is usable
    hi = global_max(f, cfg=SearchConfig())
    assert hi.value == math.inf
    assert hi.attained.startswith("singular:even-extension ridge")


@pytest.mark.parametrize("variant", VARIANTS)
def test_cancelled_and_plain_representations_agree(variant):
    mh = MagneticHydrogen(2.0)
    plain = lambda qs: magnetic_plain_local_energy(mh, variant, qs)
    worst = cross_check(magnetic_hydrogen_field(mh, variant), [plain], 300, seed=9)
    assert worst <= CROSS_CHECK_TOLERANCE, worst


def test_improved_fixed_angle_limit_formula():
    # oracle: direct evaluation far out along fixed directions; the deviation
    # decays like 1/r, and beyond r ~ 1e6 the B^2 rho^2/8 cancellation noise
    # takes over, so check the trend on a float-safe radius pair
    mh = MagneticHydrogen(4.0)
    f = magnetic_hydrogen_field(mh, "improved")
    alphas = np.linspace(0.3, math.pi / 2, 25)
    formula = improved_directional_limit(mh, alphas)
    devs = []
    for big_r in (1e4, 1e5):
        qs = np.stack([big_r * np.sin(alphas), big_r * np.cos(alphas)], axis=1)
        devs.append(np.max(np.abs(f.evaluate(qs) - formula)))
    assert devs[1] < 2e-3
    assert devs[1] < 0.2 * devs[0]  # consistent with the 1/r approach


def test_improved_fixed_angle_limit_symbolic():
    # oracle: sympy limit along a fixed direction for symbolic B
    import sympy as sp

    rho, z, B, t = sp.symbols("rho z B t", positive=True)
    a = sp.Symbol("alpha", positive=True)
    r = sp.sqrt(rho**2 + z**2)
    s_expr = -r - B * rho**2 / 4 + rho**2 * (r - z) / (rho**2 + 5 * r / sp.sqrt(B))
    lap = sp.diff(s_expr, rho, 2) + sp.diff(s_expr, rho) / rho + sp.diff(s_expr, z, 2)
    e_expr = B**2 * rho**2 / 8 - 1 / r - (lap + sp.diff(s_expr, rho) ** 2 + sp.diff(s_expr, z) ** 2) / 2
    e_dir = e_expr.subs([(rho, t * sp.sin(a)), (z, t * sp.cos(a))])
    lim = sp.limit(sp.simplify(e_dir.rewrite(sp.sqrt)), t, sp.oo)
    claimed = (B - 1) / 2 - (5 * sp.sqrt(B) / 2) * sp.sin(a) ** 2 * sp.cos(a) / (1 + sp.cos(a)) ** 2
    assert sp.simplify(lim - claimed) == 0


def test_improved_parabolic_layer_limit_formula():
    # the near-axis layer rho^2 = u k r dips below every fixed-angle limit;
    # oracle: direct evaluation on the layer at large r
    mh = MagneticHydrogen(4.0)
    f = magnetic_hydrogen_field(mh, "improved")
    k = 5.0 / math.sqrt(mh.B)
    big_r = 1e8
    u = np.linspace(0.05, 20.0, 400)
    rho = np.sqrt(u * k * big_r)
    z = np.sqrt(big_r**2 - rho**2)
    direct = f.evaluate(np.stack([rho, z], axis=1))
    formula = improved_parabolic_limit(mh, u)
    assert np.max(np.abs(direct - formula)) < 1e-4
    # minimum over the layer sits at u = 1 and is the declared tail floor
    floor = min(a.value for a in f.asymptotic_limits)
    assert floor == pytest.approx((mh.B - 1) / 2.0 - 5.0 * math.sqrt(mh.B) / 8.0, rel=1e-14)
    assert formula.min() == pytest.approx(floor, abs=1e-6)


def test_far_field_never_undercuts_the_reported_bound():
    # patrol shells between the search box and the asymptotic regime
    mh = MagneticHydrogen(4.0)
    f = magnetic_hydrogen_field(mh, "improved")
    rep = global_min(f, cfg=SearchConfig(grid_points_per_axis=161))
    alphas = np.linspace(0.0, math.pi / 2, 721)
    for radius in (8.0, 12.0, 20.0, 50.0, 200.0, 1000.0):
        qs = np.stack([radius * np.sin(alphas), radius * np.cos(alphas)], axis=1)
        assert f.evaluate(qs).min() >= rep.value - 1e-9


def test_on_axis_values():
    # U vanishes on the axis for every variant, so E_loc(0, z) is exact there
    for variant, expected in [("lower", -0.5), ("upper", 1.5 - 0.5 - 0.0)]:
        f = magnetic_hydrogen_field(MagneticHydrogen(3.0), variant)
        qs = np.stack([np.zeros(5), np.linspace(0.5, 8.0, 5)], axis=1)
        vals = f.evaluate(qs)
        if variant == "lower":
            assert np.all(vals == -0.5)
        else:
            assert np.allclose(vals, 3.0 / 2.0 - 0.5, atol=1e-12)


# ---------------------------------------------------------------------------
# the regular part U, by its derivatives alone


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_same_values(got, want):
    """Bit for bit, except that +0.0 and -0.0 count as equal and a float may
    stand for an array of its value."""
    got = np.broadcast_to(np.asarray(got, dtype=float), np.shape(want))
    both_zero = (got == 0.0) & (want == 0.0)
    assert np.array_equal(np.where(both_zero, 0.0, got).view(np.int64),
                          np.where(both_zero, 0.0, want).view(np.int64))


# a tensor grid with the axis, the plane z = 0, the origin and tiny radii
_AXIS = np.concatenate([[0.0, 1e-12, 1e-6], np.linspace(0.01, 10.0, 37)])
_GRID = np.stack([g.ravel() for g in np.meshgrid(_AXIS, _AXIS)], axis=1)
# B = 3 is the one whose B^2 is not a power of two, so that a reordered
# product shows in the last bit
_BS = (0.0, 0.5, 2.0, 3.0, 4.0)
_B_VARIANTS = [pytest.param(B, variant, id=f"{variant}-{B}")
               for B in _BS for variant in VARIANTS if not (variant == "improved" and B == 0.0)]


@pytest.mark.parametrize("B, variant", _B_VARIANTS)
def test_u_derivs_match_the_joint_formula_bit_for_bit(B, variant):
    # one formula in (beta, k) for every variant: its lower intermediates are
    # -0.0 where the joint formula had +0.0, and its constant upper second
    # derivatives are floats, so those compare by value with +-0 equal; every
    # local energy built from them is bit-identical
    mh = MagneticHydrogen(B)
    params = magnetic._trial_params(mh, variant)
    rho, z = _GRID[:, 0], _GRID[:, 1]
    r = np.hypot(rho, z)
    same = assert_same_bits if variant == "improved" else assert_same_values
    with np.errstate(divide="ignore", invalid="ignore"):
        want = magnetic_u_parts(mh, variant, rho, z)
        for got, ref in zip(magnetic._u_derivs(*params, rho, z, r), want[1:], strict=True):
            same(got, ref)
        assert_same_bits(magnetic._cancelled_local_energy(mh.B**2, *params, _GRID),
                         magnetic_cancelled_local_energy(mh, variant, _GRID))


@pytest.mark.parametrize("B, variant", _B_VARIANTS)
def test_field_matches_the_joint_formula_bit_for_bit(B, variant):
    mh = MagneticHydrogen(B)
    field = magnetic_hydrogen_field(mh, variant)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert_same_bits(field.evaluate(_GRID), magnetic_cancelled_local_energy(mh, variant, _GRID))


def test_trivial_rows_match_the_joint_formula_bit_for_bit():
    members = [(MagneticHydrogen(B), variant) for B in _BS for variant in ("lower", "upper")]
    stacked = np.arange(_GRID.shape[0]) % len(members)
    order = np.argsort(stacked, kind="stable")
    stacked, qs = stacked[order], _GRID[order]
    with np.errstate(divide="ignore", invalid="ignore"):
        got = magnetic._trivial_rows(members)(stacked, qs)
        want = np.concatenate([magnetic_cancelled_local_energy(*members[m], qs[j:j + 1])
                               for j, m in enumerate(stacked)])
    assert_same_bits(got, want)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.floats(-3.0, 50.0).map(lambda e: 10.0**e))
def test_scaled_improved_derivs_match_the_plain_form(k):
    rho, z = _GRID[:, 0], _GRID[:, 1]
    r = np.hypot(rho, z)
    away = r >= _TUBE
    rho, z, r = rho[away], z[away], r[away]
    assert k <= magnetic.K_SCALED
    plain = magnetic._improved_derivs(k, rho, z, r)
    with mock.patch.object(magnetic, "K_SCALED", 0.0):
        scaled = magnetic._improved_derivs(k, rho, z, r)
    for p, s in zip(plain, scaled, strict=True):
        np.testing.assert_allclose(s, p, rtol=0.0, atol=4e-15 * np.abs(p).max())


@pytest.mark.parametrize("B", [1e-120, 1e-300, 5e-324])
def test_improved_field_at_a_tiny_field_strength(B):
    # below B = 2.5e-99 the improved term is formed scaled; it vanishes as
    # B -> 0, leaving the lower trial's -1/2
    qs = _GRID[np.hypot(_GRID[:, 0], _GRID[:, 1]) >= _TUBE]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mh = MagneticHydrogen(B)
        field = magnetic_hydrogen_field(mh, "improved")  # checks the cusps
        vals = field.evaluate(qs)
        alternate = magnetic_plain_local_energy(mh, "improved", qs)
    np.testing.assert_allclose(vals, -0.5, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(alternate, -0.5, rtol=0.0, atol=1e-9)
