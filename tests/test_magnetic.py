import math

import numpy as np
import pytest

from groundbound.core import cross_check_field
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


@pytest.mark.parametrize("B", [0.5, 1.0, 2.0])
def test_trivial_bounds(B):
    res = magnetic_trivial_bounds(MagneticHydrogen(B))
    assert res.lower == pytest.approx(-0.5, abs=1e-6)
    assert res.upper == pytest.approx(-0.5 + B / 2.0, abs=1e-6)


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
    f = magnetic_hydrogen_field(MagneticHydrogen(2.0), variant)
    rep = cross_check_field(f, 300, seed=9)
    assert rep.passed, rep


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
# the regular part U, split into value and derivatives


def reference_u_parts(mh, variant, rho, z):
    """U and its derivatives as one function that builds both (the form the
    split replaced): (u, u_rho, u_z, u_rr, u_r_over_rho, u_zz)."""
    b = mh.B
    zeros = np.zeros_like(rho)
    if variant == "lower":
        return (zeros,) * 6
    if variant == "upper":
        return (-b * rho * rho / 4.0, -b * rho / 2.0, zeros,
                np.full_like(rho, -b / 2.0), np.full_like(rho, -b / 2.0), zeros)
    k = 5.0 / math.sqrt(b)
    r = np.hypot(rho, z)
    m = r - z
    n = rho * rho * m
    d = rho * rho + k * r
    n_r = 2.0 * rho * m + rho**3 / r
    n_z = rho * rho * (z / r - 1.0)
    n_rr = 2.0 * m + 5.0 * rho * rho / r - rho**4 / r**3
    n_zz = rho**4 / r**3
    d_r = rho * (2.0 + k / r)
    d_z = k * z / r
    d_rr = 2.0 + k * z * z / r**3
    d_zz = k * rho * rho / r**3
    t_r = n_r / d - n * d_r / d**2
    t_z = n_z / d - n * d_z / d**2
    t_rr = n_rr / d - 2.0 * n_r * d_r / d**2 - n * d_rr / d**2 + 2.0 * n * d_r**2 / d**3
    t_zz = n_zz / d - 2.0 * n_z * d_z / d**2 - n * d_zz / d**2 + 2.0 * n * d_z**2 / d**3
    t_r_over_rho = (2.0 * m + rho * rho / r) / d - rho * rho * m * (2.0 + k / r) / d**2
    return (-b * rho * rho / 4.0 + n / d, -b * rho / 2.0 + t_r, t_z,
            -b / 2.0 + t_rr, -b / 2.0 + t_r_over_rho, t_zz)


def reference_cancelled_local_energy(mh, variant, qs):
    rho, z = qs[:, 0], qs[:, 1]
    r = np.hypot(rho, z)
    _, u_r, u_z, u_rr, u_ror, u_zz = reference_u_parts(mh, variant, rho, z)
    lap_u = u_rr + u_ror + u_zz
    grad2 = u_r * u_r + u_z * u_z
    radial = (rho * u_r + z * u_z) / r
    return mh.B**2 * rho * rho / 8.0 - 0.5 * (1.0 + lap_u + grad2) + radial


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("B", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("variant", VARIANTS)
def test_u_value_and_derivs_match_the_joint_formula_bit_for_bit(B, variant):
    mh = MagneticHydrogen(B)
    # a tensor grid with the axis, the plane z = 0, the origin and tiny radii
    axis = np.concatenate([[0.0, 1e-12, 1e-6], np.linspace(0.01, 10.0, 37)])
    rho, z = (g.ravel() for g in np.meshgrid(axis, axis))
    r = np.hypot(rho, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = reference_u_parts(mh, variant, rho, z)
        assert_same_bits(magnetic._u_value(mh, variant, rho, z, r), want[0])
        for got, ref in zip(magnetic._u_derivs(mh, variant, rho, z, r), want[1:], strict=True):
            assert_same_bits(got, ref)
        qs = np.stack([rho, z], axis=1)
        assert_same_bits(magnetic._cancelled_local_energy(mh, variant, qs),
                         reference_cancelled_local_energy(mh, variant, qs))
