"""Properties over whole parameter ranges, drawn with Hypothesis."""

import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundbound.cli import SYSTEMS, main
from groundbound.oracle import Grid1D, solve_1d_ground_state
from groundbound.search import SearchConfig, bounds_of_field
from groundbound.systems import QuarticOscillator, quartic_field
from groundbound.systems.magnetic import SYSTEM_VARIANTS


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    rr=st.floats(0.5, 1.5),
    delta2=st.floats(1.0, 10.0),
    eta=st.sampled_from([-1, 1]),
)
def test_quartic_bounds_sandwich_the_reference_energy(rr, delta2, eta):
    qo = QuarticOscillator(rr, eta, delta2)
    b = bounds_of_field(quartic_field(qo), SearchConfig(grid_points_per_axis=401))
    ref = solve_1d_ground_state(qo.potential, Grid1D(-8.0, 8.0, 2000))
    assert b.lower <= ref.energy + ref.error_bar
    assert ref.energy - ref.error_bar <= b.upper


def _float_keys(system):
    return [key for key, (default, _) in system.params.items() if isinstance(default, float)]


def _float_param_cases():
    """(command, system, parameter) for every float parameter a command accepts."""
    commands = {"bounds": "bounds", "sweep": "bounds", "field": "field",
                "oracle": "oracle", "refine": "refine"}
    for name, system in SYSTEMS.items():
        for command, builder in commands.items():
            if getattr(system, builder) is None:
                continue
            for key in _float_keys(system):
                yield command, name, key


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    case=st.sampled_from(list(_float_param_cases())),
    bad=st.sampled_from(["nan", "inf", "-inf"]),
    via_config=st.booleans(),
)
def test_non_finite_parameters_exit_2(case, bad, via_config):
    command, name, key = case
    argv = [command, "--system", name]
    with tempfile.TemporaryDirectory() as tmp:
        if command == "sweep":
            # every float parameter sweeps: the bad value is the swept one
            argv += ["--param", key, f"--values={bad}"]
        if command == "refine":
            argv += ["--centers", "0"]
        if command != "sweep":
            if via_config:
                conf = Path(tmp, "run.conf")
                conf.write_text(f"{key} = {bad}\n")
                argv += ["--config", str(conf)]
            else:
                argv.append(f"--{key}={bad}")
        out = Path(tmp, "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()


# finite values over the whole float range, with twelve decades of either
# sign and zero drawn often
_wide_floats = st.one_of(
    st.just(0.0),
    st.floats(-1e6, 1e6),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 6.0)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@pytest.mark.parametrize("command, name", [
    (command, name) for name, system in SYSTEMS.items() for command in ("bounds", "field")
    if getattr(system, command) is not None and _float_keys(system)
])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_no_cli_run_ends_in_a_traceback(command, name, data):
    system = SYSTEMS[name]
    argv = [command, "--system", name, "--grid-n", "16", "--levels", "1", "--multistarts", "1"]
    argv += [f"--{key}={data.draw(_wide_floats, label=key)!r}" for key in _float_keys(system)]
    argv += [f"--seed={data.draw(st.integers(-2**70, 2**70), label='seed')}"]
    if "variant" in system.params:
        argv += ["--variant", data.draw(st.sampled_from(SYSTEM_VARIANTS), label="variant")]
    with tempfile.TemporaryDirectory() as tmp:
        assert main([*argv, "--out", str(Path(tmp, "out"))]) in (0, 2, 3, 4)
