import math

import numpy as np
import pytest

from groundbound.core import AsymptoticLimit, Domain, LocalEnergyField, SingularEvaluationError, sample_interior
from groundbound.search import (
    EmptySearchRegionError,
    FamilyCannotBoundError,
    SearchConfig,
    TrialFamily,
    bounds_of_field,
    global_max,
    global_min,
    grid_points,
    optimize_parameters,
)
from groundbound.systems import (
    AnnularBilliard,
    MagneticHydrogen,
    QuarticOscillator,
    billiard_local_energy_field,
    hydrogen_exponent_family,
    hydrogen_radial_field,
    magnetic_hydrogen_field,
    quartic_field,
    quartic_system,
    unit_disk_field,
)
from groundbound.refine import GaussianBump, new_refinement_state, perturbed_field
from dataclasses import replace


def box_domain(*ranges):
    return Domain(dimension=len(ranges), kind="unbounded", box=tuple(ranges))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(grid_points_per_axis=4)
    with pytest.raises(ValueError):
        SearchConfig(refinement_levels=0)
    with pytest.raises(ValueError):
        SearchConfig(multistart_count=0)


def test_constant_field():
    dom = box_domain((-1.0, 1.0), (-1.0, 1.0))
    f = LocalEnergyField(
        domain=dom,
        evaluate=lambda qs: np.full(qs.shape[0], 3.25),
        asymptotic_limits=(AsymptoticLimit("everywhere", 3.25),),
    )
    lo = global_min(f, cfg=SearchConfig())
    hi = global_max(f, cfg=SearchConfig())
    assert lo.value == 3.25 and hi.value == 3.25


def test_billiard_minimum_location_and_value():
    f = billiard_local_energy_field(AnnularBilliard(r=0.75, delta=0.1))
    rep = global_min(f, cfg=SearchConfig())
    assert rep.value == pytest.approx(28.390, abs=0.01)
    assert rep.location[0] == pytest.approx(0.86, abs=0.01)
    assert rep.location[1] == pytest.approx(0.0, abs=0.01)
    assert rep.attained == "interior"
    assert rep.gradient_norm_at_location <= 1e-6


def test_billiard_maximum_is_the_boundary_limit():
    f = billiard_local_energy_field(AnnularBilliard(r=0.75, delta=0.1))
    rep = global_max(f, cfg=SearchConfig())
    assert rep.value == math.inf
    assert rep.boundary_or_asymptotic
    assert rep.attained == "singular:boundary"


def test_history_is_monotone():
    f = billiard_local_energy_field(AnnularBilliard(r=0.75, delta=0.1))
    lo = global_min(f, cfg=SearchConfig(refinement_levels=4))
    assert all(b <= a for a, b in zip(lo.history, lo.history[1:]))
    hi = global_max(f, cfg=SearchConfig(refinement_levels=4))
    assert all(b >= a for a, b in zip(hi.history, hi.history[1:]))


def test_determinism_bit_for_bit():
    f = billiard_local_energy_field(AnnularBilliard(r=0.75, delta=0.1))
    cfg = SearchConfig(rng_seed=123)
    a = global_min(f, cfg=cfg)
    b_ = global_min(f, cfg=cfg)
    assert a.value == b_.value
    assert np.array_equal(a.location, b_.location)
    assert a.history == b_.history


def test_empty_search_region():
    dom = Domain(
        1,
        "bounded",
        constraint=lambda qs: np.ones(qs.shape[0]),  # nothing is interior
        box=((-1.0, 1.0),),
    )
    f = LocalEnergyField(domain=dom, evaluate=lambda qs: qs[:, 0])
    with pytest.raises(EmptySearchRegionError):
        global_min(f, cfg=SearchConfig())


def test_unbounded_domain_needs_asymptotics():
    f = LocalEnergyField(domain=box_domain((-1.0, 1.0)), evaluate=lambda qs: qs[:, 0] ** 2)
    with pytest.raises(ValueError):
        global_min(f, cfg=SearchConfig())


def test_tie_break_is_lexicographic():
    # two equal minima at (+-1, 0); report the smaller location
    dom = Domain(
        2,
        "unbounded",
        box=((-2.0, 2.0), (-2.0, 2.0)),
    )
    f = LocalEnergyField(
        domain=dom,
        evaluate=lambda qs: ((qs[:, 0] ** 2 - 1.0) ** 2 + qs[:, 1] ** 2),
        asymptotic_limits=(AsymptoticLimit("far", math.inf),),
    )
    rep = global_min(f, cfg=SearchConfig(grid_points_per_axis=41))
    assert rep.location[0] == pytest.approx(-1.0, abs=1e-6)


def test_hydrogen_flat_bounds():
    res = bounds_of_field(hydrogen_radial_field(1.0), SearchConfig())
    assert res.lower == pytest.approx(-0.5, abs=1e-9)
    assert res.upper == pytest.approx(-0.5, abs=1e-9)


def test_bounds_builds_field_from_trial():
    from groundbound.core import make_log_field
    from reference import hydrogen_hamiltonian_3d, hydrogen_trial_3d

    h = hydrogen_hamiltonian_3d()
    t = hydrogen_trial_3d(1.0)
    cfg = SearchConfig(grid_points_per_axis=21, box=((-5, 5),) * 3)
    # a truncated search over the unbounded domain needs declared tails
    annotated = make_log_field(h, t, asymptotic_limits=(AsymptoticLimit("r -> inf", -0.5),))
    res = bounds_of_field(annotated, cfg)
    assert res.lower == pytest.approx(-0.5, abs=1e-9)
    assert res.upper == pytest.approx(-0.5, abs=1e-9)
    assert res.lower <= res.upper


def test_quartic_bounds_upper_is_asymptotic():
    qo = QuarticOscillator(r=1.0 / math.sqrt(2.0), eta=-1, delta2=8.0)
    res = bounds_of_field(quartic_field(qo), SearchConfig(grid_points_per_axis=401))
    assert res.lower == pytest.approx(-3.27, abs=0.01)
    assert res.upper == 0.0
    assert res.upper_witness.boundary_or_asymptotic
    assert res.resolution_caveat.grid_points_per_axis == 401


# ---------------------------------------------------------------------------
# both extrema in one search


def witness_key(rep):
    """Every field of a report, floats and locations as bytes."""
    loc = None if rep.location is None else rep.location.tobytes()
    grad = rep.gradient_norm_at_location
    return (
        rep.kind,
        np.float64(rep.value).tobytes(),
        loc,
        None if grad is None else np.float64(grad).tobytes(),
        rep.boundary_or_asymptotic,
        rep.attained,
        np.array(rep.history).tobytes(),
    )


def assert_bounds_match_single_searches(field, cfg):
    res = bounds_of_field(field, cfg)
    assert witness_key(res.lower_witness) == witness_key(global_min(field, cfg))
    assert witness_key(res.upper_witness) == witness_key(global_max(field, cfg))
    assert (res.lower, res.upper) == (res.lower_witness.value, res.upper_witness.value)
    return res


# hydrogen-radial below, at and above the exact exponent: the origin limit
# wins the minimum at 0.7 and the maximum at 1.3, the tail the other side
BOTH_KIND_FIELDS = {
    "billiard": lambda: billiard_local_energy_field(AnnularBilliard(0.75, 0.1)),
    "unit-disk": unit_disk_field,
    "quartic": lambda: quartic_field(QuarticOscillator(1.0 / math.sqrt(2.0), -1, 8.0)),
    "magnetic-lower": lambda: magnetic_hydrogen_field(MagneticHydrogen(2.0), "lower"),
    "magnetic-upper": lambda: magnetic_hydrogen_field(MagneticHydrogen(2.0), "upper"),
    "magnetic-improved": lambda: magnetic_hydrogen_field(MagneticHydrogen(2.0), "improved"),
    "hydrogen-radial-0.7": lambda: hydrogen_radial_field(0.7),
    "hydrogen-radial-1.0": lambda: hydrogen_radial_field(1.0),
    "hydrogen-radial-1.3": lambda: hydrogen_radial_field(1.3),
}


@pytest.mark.parametrize("levels", [1, 3])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", sorted(BOTH_KIND_FIELDS))
def test_bounds_of_field_witnesses_equal_the_single_kind_searches(name, seed, levels):
    cfg = SearchConfig(grid_points_per_axis=41, refinement_levels=levels, rng_seed=seed)
    assert_bounds_match_single_searches(BOTH_KIND_FIELDS[name](), cfg)


def test_limits_win_both_sides_of_the_hydrogen_radial_fields():
    cfg = SearchConfig(grid_points_per_axis=41)
    below = bounds_of_field(hydrogen_radial_field(0.7), cfg)
    above = bounds_of_field(hydrogen_radial_field(1.3), cfg)
    assert below.lower_witness.attained.startswith("singular:")
    assert below.upper_witness.attained.startswith("asymptotic:")
    assert above.lower_witness.attained.startswith("asymptotic:")
    assert above.upper_witness.attained.startswith("singular:")


def test_bounds_of_field_on_a_sliver_without_multistarts():
    # interior only within 1e-9 of q = 0: the grid hits it, rejection sampling cannot
    dom = Domain(1, "bounded", constraint=lambda qs: np.abs(qs[:, 0]) - 1e-9, box=((-1.0, 1.0),))
    with pytest.raises(SingularEvaluationError):
        sample_interior(dom, SearchConfig().multistart_count, np.random.default_rng(0))
    f = LocalEnergyField(domain=dom, evaluate=lambda qs: 1.0 + qs[:, 0] ** 2)
    res = assert_bounds_match_single_searches(f, SearchConfig())
    assert res.lower == res.upper == 1.0


def test_bounds_of_field_raises_the_empty_region_error_of_global_min():
    dom = Domain(1, "bounded", constraint=lambda qs: np.ones(qs.shape[0]), box=((-1.0, 1.0),))
    f = LocalEnergyField(domain=dom, evaluate=lambda qs: qs[:, 0])
    with pytest.raises(EmptySearchRegionError) as single:
        global_min(f, cfg=SearchConfig())
    with pytest.raises(EmptySearchRegionError) as both:
        bounds_of_field(f, cfg=SearchConfig())
    assert str(both.value) == str(single.value)


def counting_field(field):
    """``field`` with every batch it is asked to evaluate recorded."""
    batches = []

    def evaluate(qs):
        batches.append(qs.copy())
        return field.evaluate(qs)

    return replace(field, evaluate=evaluate), batches


def test_bounds_of_field_scans_level_zero_once_and_calls_the_field_less():
    cfg = SearchConfig()
    field, batches = counting_field(billiard_local_energy_field(AnnularBilliard(0.75, 0.1)))
    grid = grid_points(field.domain.box, cfg.grid_points_per_axis)
    level0 = grid[field.domain.valid_mask(grid)].tobytes()

    def level0_scans():
        return sum(b.tobytes() == level0 for b in batches)

    global_min(field, cfg)
    global_max(field, cfg)
    separate_calls, separate_scans = len(batches), level0_scans()
    batches.clear()
    bounds_of_field(field, cfg)
    assert (separate_scans, level0_scans()) == (2, 1)
    assert len(batches) < separate_calls


# ---------------------------------------------------------------------------
# parameter optimization


def test_hydrogen_family_optimum_is_the_exact_exponent():
    fam = hydrogen_exponent_family((0.5, 2.0))
    res = optimize_parameters(fam, None, "maximize-lower", SearchConfig(multistart_count=4))
    assert res.best_params[0] == pytest.approx(1.0, abs=1e-3)
    assert res.bounds.lower == pytest.approx(-0.5, abs=1e-3)
    assert res.bounds.lower <= -0.5  # sup over the family never exceeds the flat value
    # dominance over the recorded random probes
    finite = [v for _, v in res.probes if math.isfinite(v)]
    assert len(res.probes) >= 20
    assert res.bounds.lower >= max(finite) - 1e-12


def test_family_that_cannot_bound_is_reported():
    fam = hydrogen_exponent_family((0.5, 0.9))  # every member has a -inf infimum
    with pytest.raises(FamilyCannotBoundError):
        optimize_parameters(fam, None, "maximize-lower", SearchConfig())


def test_frozen_family_returns_input_bounds():
    qo = QuarticOscillator(r=1.0 / math.sqrt(2.0), eta=-1, delta2=8.0)
    base_bounds = bounds_of_field(quartic_field(qo), SearchConfig(grid_points_per_axis=401))
    fam = TrialFamily(control_box=(), build=lambda lam: quartic_field(qo))
    res = optimize_parameters(fam, None, "maximize-lower", SearchConfig(grid_points_per_axis=401))
    assert res.bounds.lower == base_bounds.lower
    assert res.bounds.upper == base_bounds.upper
    assert res.best_params.size == 0


def test_single_bump_amplitude_family_improves_quartic_lower_bound():
    # one Gaussian at the saddle, amplitude as the only control parameter
    qo = QuarticOscillator(r=1.0 / math.sqrt(2.0), eta=-1, delta2=8.0)
    h, base = quartic_system(qo)
    asym = quartic_field(qo).asymptotic_limits
    cfg = SearchConfig(grid_points_per_axis=401, refinement_levels=2, multistart_count=1)
    state = new_refinement_state(h, base, asym, cfg=cfg)

    def build(lam):
        bumped = replace(state, bumps=(GaussianBump(float(lam[0]), 0.0, 1.0),))
        return perturbed_field(bumped)

    fam = TrialFamily(control_box=((-2.0, 2.0),), build=build)
    res = optimize_parameters(fam, h, "maximize-lower", cfg)
    assert res.bounds.lower > -3.27


def test_optimum_reuses_the_probed_inner_bounds():
    fam = hydrogen_exponent_family((0.5, 2.0))
    built = []

    def build(lam):
        built.append(tuple(lam))
        return fam.build(lam)

    cfg = SearchConfig(grid_points_per_axis=16, refinement_levels=1, multistart_count=1)
    res = optimize_parameters(replace(fam, build=build), None, "maximize-lower", cfg)
    assert len(built) == len(res.probes)  # no inner search repeated for the optimum
    fresh = bounds_of_field(fam.build(res.best_params), replace(cfg, box=None))
    assert (res.bounds.lower, res.bounds.upper) == (fresh.lower, fresh.upper)


def test_minimize_upper_objective():
    # upper(lam) is +inf for lam > 1 (origin blow-up) and -lam^2/2 below, so
    # the best upper bound also sits at the exact exponent
    fam = hydrogen_exponent_family((0.5, 2.0))
    res = optimize_parameters(fam, None, "minimize-upper", SearchConfig(multistart_count=4))
    assert res.best_params[0] == pytest.approx(1.0, abs=1e-3)
    assert res.bounds.upper == pytest.approx(-0.5, abs=1e-3)


def test_unknown_objective_rejected():
    fam = hydrogen_exponent_family()
    with pytest.raises(ValueError):
        optimize_parameters(fam, None, "background-check", SearchConfig())
