"""Properties over whole parameter ranges, drawn with Hypothesis."""

import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from groundbound.cli import SYSTEMS, main
from groundbound.oracle import Grid1D, solve_1d_ground_state
from groundbound.search import SearchConfig, bounds_of_field
from groundbound.systems import QuarticOscillator, quartic_field


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


def _float_param_cases():
    """(command, system, parameter) for every float parameter a command accepts."""
    commands = {"bounds": "bounds", "sweep": "bounds", "field": "field",
                "oracle": "oracle", "refine": "refine"}
    for name, system in SYSTEMS.items():
        for command, builder in commands.items():
            if getattr(system, builder) is None or (command == "sweep" and not system.sweepable):
                continue
            for key, (default, _) in system.params.items():
                if isinstance(default, float):
                    yield command, name, key


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    case=st.sampled_from(list(_float_param_cases())),
    bad=st.sampled_from(["nan", "inf", "-inf"]),
    via_config=st.booleans(),
)
def test_non_finite_parameters_exit_2(case, bad, via_config):
    command, name, key = case
    system = SYSTEMS[name]
    argv = [command, "--system", name]
    with tempfile.TemporaryDirectory() as tmp:
        if command == "sweep":
            swept = key if key in system.sweepable else system.sweepable[0]
            value = bad if swept == key else str(system.params[swept][0])
            argv += ["--param", swept, f"--values={value}"]
        if command == "refine":
            argv += ["--centers", "0"]
        if not (command == "sweep" and swept == key):
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
