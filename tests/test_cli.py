import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import pytest

from groundbound import cli, search
from groundbound.cli import main
from groundbound.output import from_jsonable
from groundbound.search import SearchConfig, global_max, global_min
from groundbound.systems import MagneticHydrogen, magnetic_hydrogen_field


@pytest.fixture(scope="module")
def schema():
    text = resources.files("groundbound").joinpath("schemas/result-v1.json").read_text()
    return json.loads(text)


def run(tmp_path, *argv, name="out"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else None


def validate(schema, text):
    doc = json.loads(text)
    jsonschema.validate(doc, schema)
    return doc


# ---------------------------------------------------------------------------
# documents and schema


def test_bounds_helium_document(tmp_path, schema):
    code, text = run(tmp_path, "bounds", "--system", "helium", "--Z", "2")
    assert code == 0
    doc = validate(schema, text)
    assert doc["result"]["lower"] == -4.25
    assert doc["result"]["upper"] == -2.25


def test_bounds_billiard_unbounded_exit_code(tmp_path, schema):
    code, text = run(tmp_path, "bounds", "--system", "annular-billiard", "--r", "0.75", "--delta", "0.1")
    assert code == 3  # upper side diverges at the boundary
    doc = validate(schema, text)
    assert doc["result"]["lower"] == pytest.approx(28.390, abs=0.01)
    assert doc["result"]["upper"] == "+inf"  # JSON has no infinity literal
    assert from_jsonable(doc["result"])["upper"] == math.inf


# a box that cuts a bounded domain would report the numbers of the part
# inside it: a false "lower bound" of 158.78 for the billiard (E0 is near
# 42.9), the square's 9.87 for the unit disk (2.89)
@pytest.mark.parametrize("argv", [
    ["bounds", "--system", "annular-billiard", "--box=-0.9:-0.5,-0.3:0.3"],
    ["sweep", "--system", "annular-billiard", "--param", "r", "--values", "0.7,0.75", "--box=-0.9:1.1,-1:0.9"],
    ["oracle", "--system", "disk", "--grid-n", "64", "--box=-0.5:0.5,-0.5:0.5"],
])
def test_a_box_that_cuts_a_bounded_domain_is_refused(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv)
    assert code == 2 and text is None
    assert "cuts the bounded domain" in capsys.readouterr().err


def test_a_box_that_holds_a_bounded_domain_is_accepted(tmp_path):
    code, text = run(tmp_path, "bounds", "--system", "annular-billiard", "--box=-3:3,-3:3", "--format", "json")
    assert code == 3  # as on the domain's own box: the upper side diverges at the boundary
    assert 20.0 < json.loads(text)["result"]["lower"] <= 42.9
    code, text = run(tmp_path, "oracle", "--system", "disk", "--grid-n", "64", "--box=-1.5:1.5,-1.5:1.5")
    assert code == 0
    assert json.loads(text)["result"]["energy"] == pytest.approx(2.8916, abs=0.1)


# the hydrogen oracle puts its hard wall at the box's lower end, so a box off
# the nucleus solved another problem: -0.24453 at 0.5:40, -0.00179 at -1:40
# and -32.145 at -2:40, each with an error bar below 1e-5
@pytest.mark.parametrize("box", ["-1:40", "0.5:40"])
def test_a_hydrogen_oracle_box_off_the_nucleus_is_refused(tmp_path, capsys, box):
    assert run(tmp_path, "oracle", "--system", "hydrogen-radial", f"--box={box}") == (2, None)
    assert "box must start at the nucleus" in capsys.readouterr().err


def test_a_hydrogen_oracle_box_from_the_nucleus_is_accepted(tmp_path):
    code, text = run(tmp_path, "oracle", "--system", "hydrogen-radial", "--box=0:60")
    assert code == 0
    result = json.loads(text)["result"]
    assert abs(result["energy"] + 0.5) <= result["error_bar"]


def test_bounds_magnetic_upper_variant(tmp_path, schema):
    code, text = run(tmp_path, "bounds", "--system", "magnetic-hydrogen", "--B", "1", "--variant", "upper")
    assert code == 3  # the lower side of this trial is useless (-inf)
    doc = validate(schema, text)
    assert doc["result"]["upper"] == pytest.approx(0.0, abs=1e-9)
    assert doc["result"]["lower"] == "-inf"


def test_bounds_quartic_finite(tmp_path, schema):
    code, text = run(tmp_path, "bounds", "--system", "quartic")
    assert code == 0
    doc = validate(schema, text)
    assert doc["result"]["lower"] == pytest.approx(-3.27, abs=0.01)
    assert doc["result"]["upper"] == 0.0
    assert doc["result"]["upper_witness"]["boundary_or_asymptotic"] is True


def test_oracle_document(tmp_path, schema):
    code, text = run(tmp_path, "oracle", "--system", "harmonic")
    assert code == 0
    doc = validate(schema, text)
    assert doc["result"]["energy"] == pytest.approx(0.5, abs=1e-6)


def test_refine_document_json(tmp_path, schema):
    code, text = run(
        tmp_path, "refine", "--system", "quartic", "--centers", "0.0,0.5,-0.5",
        "--format", "json",
    )
    assert code == 0
    doc = validate(schema, text)
    hist = doc["result"]["history"]
    assert hist[0]["step"] == 0
    lows = [h["lower_bound"] for h in hist]
    assert all(b >= a for a, b in zip(lows, lows[1:]))


def test_sweep_document_json(tmp_path, schema):
    code, text = run(
        tmp_path, "sweep", "--system", "magnetic-hydrogen", "--param", "B",
        "--values", "0.5,1,2", "--format", "json",
    )
    assert code == 0
    doc = validate(schema, text)
    rows = doc["result"]["rows"]
    assert [r["value"] for r in rows] == [0.5, 1.0, 2.0]
    for r in rows:
        assert r["lower"] == pytest.approx(-0.5, abs=1e-6)
        assert r["upper"] == pytest.approx(-0.5 + r["value"] / 2.0, abs=1e-6)


def test_sweep_improved_variant_lifts_lower_column(tmp_path, schema):
    code, text = run(
        tmp_path, "sweep", "--system", "magnetic-hydrogen", "--param", "B",
        "--values", "4", "--variant", "improved", "--format", "json",
    )
    assert code == 3  # an infinite upper in any row is an unbounded result
    doc = validate(schema, text)
    row = doc["result"]["rows"][0]
    assert row["lower"] > -0.5
    assert row["upper"] == "+inf"  # the improved trial only certifies below


def test_oracle_quartic_document(tmp_path, schema):
    code, text = run(tmp_path, "oracle", "--system", "quartic")
    assert code == 0
    doc = validate(schema, text)
    assert doc["result"]["energy"] == pytest.approx(-2.66, abs=0.01)
    assert doc["result"]["error_bar"] < 0.01


def test_field_document_json(tmp_path, schema):
    code, text = run(
        tmp_path, "field", "--system", "quartic", "--grid-n", "101", "--box=-6:6",
        "--format", "json",
    )
    assert code == 0
    doc = validate(schema, text)
    assert len(doc["result"]["rows"]) == 101


# ---------------------------------------------------------------------------
# CSV shapes


def test_refine_csv_empty_centers(tmp_path):
    code, text = run(tmp_path, "refine", "--system", "quartic", "--centers", "")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "step,center,s_star,lower_bound"
    assert len(lines) == 2
    assert float(lines[1].split(",")[-1]) == pytest.approx(-3.27, abs=0.01)


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("values", ["", ","])
def test_sweep_rejects_an_empty_list(tmp_path, capsys, how, values):
    argv = ["sweep", "--system", "magnetic-hydrogen", "--param", "B"]
    if how == "flag":
        argv += ["--values", values]
    else:
        conf = tmp_path / "run.conf"
        conf.write_text(f"values = {values}\n")
        argv += ["--config", str(conf)]
    assert run(tmp_path, *argv) == (2, None)
    assert "--values" in capsys.readouterr().err


def test_sweep_values_from_a_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("values = 0.5,1\n")
    sweep = ["sweep", "--system", "magnetic-hydrogen", "--param", "B"]
    _, from_config = run(tmp_path, *sweep, "--config", str(conf), name="config")
    _, from_flag = run(tmp_path, *sweep, "--values", "0.5,1", name="flag")
    assert from_config == from_flag
    assert len(from_flag.strip().splitlines()) == 3


@pytest.mark.parametrize("argv, stacks", [
    # every value's lower and upper field share one search (one per field before)
    (["--system", "magnetic-hydrogen", "--param", "B", "--values", "0.5,1,2,4"], [8]),
    (["--system", "quartic", "--param", "delta2", "--values", "2,4,8"], [3]),
], ids=["magnetic-trivial", "quartic"])
def test_a_sweep_is_one_stacked_search(tmp_path, monkeypatch, argv, stacks):
    calls = []
    extrema = search._search_extrema

    def counted(*args):
        calls.append(len(args[0]))
        return extrema(*args)

    monkeypatch.setattr(search, "_search_extrema", counted)
    code, _ = run(tmp_path, "sweep", *argv)
    assert code == 0
    assert calls == stacks


# name -> (system, swept parameter, values, fixed flags): every float parameter
# of every system (the billiard's box moves with delta, so its delta sweep is
# two stacks), and B for every magnetic variant: from 0 for the trivial
# sandwich and the lower and upper trials, from 1 for the improved trial
SWEEPS = {
    f"{name}-{key}": (name, key, [0.9 * default, default], [])
    for name, system in cli.SYSTEMS.items() if system.field or system.bounds
    for key, (default, _) in system.params.items() if isinstance(default, float)
}
SWEEPS["magnetic-hydrogen-B"] = ("magnetic-hydrogen", "B", [0.0, 0.5, 1.0, 2.0, 4.0], [])
SWEEPS["magnetic-improved-B"] = ("magnetic-hydrogen", "B", [1.0, 4.0], ["--variant", "improved"])
SWEEPS["magnetic-lower-B"] = ("magnetic-hydrogen", "B", [0.0, 1.0, 4.0], ["--variant", "lower"])
SWEEPS["magnetic-upper-B"] = ("magnetic-hydrogen", "B", [0.0, 1.0, 4.0], ["--variant", "upper"])


@pytest.mark.parametrize("case", SWEEPS)
def test_sweep_rows_equal_separate_bounds_runs(tmp_path, case):
    name, key, values, fixed = SWEEPS[case]
    common = ["--system", name, *fixed, "--format", "json"]
    _, text = run(tmp_path, "sweep", *common, "--param", key, "--values", ",".join(map(repr, values)),
                  name="sweep")
    rows = json.loads(text)["result"]["rows"]
    assert [row["value"] for row in rows] == values
    for row in rows:
        _, one = run(tmp_path, "bounds", *common, f"--{key}", repr(row["value"]), name="bounds")
        result = json.loads(one)["result"]
        assert (row["lower"], row["upper"]) == (result["lower"], result["upper"])


def test_field_csv_quartic_row_count(tmp_path):
    code, text = run(tmp_path, "field", "--system", "quartic", "--grid-n", "1201", "--box=-6:6")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "q,e_loc"
    assert len(lines) == 1 + 1201


def test_field_csv_billiard_masked(tmp_path):
    code, text = run(tmp_path, "field", "--system", "annular-billiard", "--grid-n", "50")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,e_loc"
    assert 0 < len(lines) - 1 < 50 * 50  # interior rows only


def test_field_csv_hydrogen_radial_is_flat(tmp_path):
    code, text = run(tmp_path, "field", "--system", "hydrogen-radial", "--grid-n", "200")
    assert code == 0
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    vals = {row[1] for row in rows if row[1] != "nan"}
    assert vals == {"-0.5"}


def test_field_dump_runs_the_interior_test_once(tmp_path, monkeypatch):
    # the dump filters its grid to the interior; evaluating the filtered rows
    # must not run the domain's constraint again
    calls = []
    build = cli.billiard_local_energy_field

    def counted(ab):
        field = build(ab)
        constraint = field.domain.constraint

        def counting(qs):
            calls.append(qs.shape[0])
            return constraint(qs)

        return dataclasses.replace(field, domain=dataclasses.replace(field.domain, constraint=counting))

    monkeypatch.setattr(cli, "billiard_local_energy_field", counted)
    code, text = run(tmp_path, "field", "--system", "annular-billiard", "--grid-n", "50")
    assert code == 0
    assert calls == [50 * 50]
    assert 0 < len(text.strip().splitlines()) - 1 < 50 * 50


def test_field_singular_nan_flag(tmp_path):
    # a grid whose first node sits inside the declared nucleus tube (r <= 1e-6)
    box = "0.0000005:40"
    _, with_limit = run(tmp_path, "field", "--system", "hydrogen-radial", "--grid-n", "200",
                        "--box", box, name="a.csv")
    _, with_nan = run(tmp_path, "field", "--system", "hydrogen-radial", "--grid-n", "200",
                      "--box", box, "--singular", "nan", name="b.csv")
    first_limit = with_limit.strip().splitlines()[1]
    first_nan = with_nan.strip().splitlines()[1]
    assert first_limit.split(",")[1] == "-0.5"  # the declared limit
    assert first_nan.split(",")[1] == "nan"
    # outside the tube the two files agree
    assert with_limit.strip().splitlines()[2:] == with_nan.strip().splitlines()[2:]


# ---------------------------------------------------------------------------
# the trial axis: each --variant names the fields its two bounds come from

TINY = ["--grid-n", "11", "--levels", "1", "--multistarts", "1", "--format", "json"]
TRIALS = [
    (name, variant) for name, system in cli.SYSTEMS.items() if system.field
    for variant in (system.trials or [None])
]


@pytest.mark.parametrize("command", ["bounds", "field"])
@pytest.mark.parametrize("name, variant", TRIALS, ids=[f"{n}-{v}" if v else n for n, v in TRIALS])
def test_every_declared_trial_runs(tmp_path, command, name, variant):
    trial = [] if variant is None else ["--variant", variant]
    code, text = run(tmp_path, command, "--system", name, *trial, *TINY)
    assert code in (0, 3)  # 3: a trial whose supremum diverges
    system = json.loads(text)["system"]
    if variant is not None and command == "field":
        # the trial's lower field is dumped, under its own variant
        assert system["variant"] == cli.SYSTEMS[name].trials[variant][0]


@pytest.mark.parametrize("Bs", [[2.0], [0.0, 0.5, 4.0]])
def test_the_trivial_trial_takes_each_bound_from_its_own_field(Bs):
    cfg = SearchConfig(grid_points_per_axis=41)
    system = cli.SYSTEMS["magnetic-hydrogen"]
    results = cli._bounds(system, [{"B": B, "variant": "trivial"} for B in Bs], cfg)
    for B, b in zip(Bs, results):
        lower = global_min(magnetic_hydrogen_field(MagneticHydrogen(B), "lower"), cfg)
        upper = global_max(magnetic_hydrogen_field(MagneticHydrogen(B), "upper"), cfg)
        assert (b.lower, b.upper) == (lower.value, upper.value)
        assert b.lower_witness.location.tobytes() == lower.location.tobytes()
        assert b.upper_witness.location.tobytes() == upper.location.tobytes()


def test_a_declared_trial_needs_no_other_change(tmp_path, monkeypatch, capsys):
    # the improved trial's lower bound with the upper trial's upper bound
    system = cli.SYSTEMS["magnetic-hydrogen"]
    trials = {**system.trials, "sandwich": ("improved", "upper")}
    monkeypatch.setitem(cli.SYSTEMS, "magnetic-hydrogen", dataclasses.replace(system, trials=trials))
    common = ["--system", "magnetic-hydrogen", "--grid-n", "41", "--levels", "2", "--multistarts", "2",
              "--format", "json"]

    def result(*argv, name):
        code, text = run(tmp_path, *argv, *common, name=name)
        return code, json.loads(text)

    code, doc = result("bounds", "--variant", "sandwich", "--B", "2", name="sandwich")
    assert code == 0
    _, improved = result("bounds", "--variant", "improved", "--B", "2", name="improved")
    _, upper = result("bounds", "--variant", "upper", "--B", "2", name="upper")
    assert doc["result"]["lower"] == improved["result"]["lower"]
    assert doc["result"]["upper"] == upper["result"]["upper"]

    conf = tmp_path / "run.conf"
    conf.write_text("variant = sandwich\nB = 2\n")
    assert result("bounds", "--config", str(conf), name="config") == (code, doc)

    _, sweep = result("sweep", "--variant", "sandwich", "--param", "B", "--values", "1,2", name="sweep")
    rows = sweep["result"]["rows"]
    _, one = result("bounds", "--variant", "sandwich", "--B", "1", name="one")
    assert [(row["lower"], row["upper"]) for row in rows] == [
        (one["result"]["lower"], one["result"]["upper"]), (doc["result"]["lower"], doc["result"]["upper"])
    ]

    _, field = result("field", "--variant", "sandwich", "--B", "2", name="field")
    _, improved_field = result("field", "--variant", "improved", "--B", "2", name="improved-field")
    assert field == improved_field

    capsys.readouterr()
    assert run(tmp_path, "bounds", "--variant", "landau", *common) == (2, None)
    assert "'sandwich'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes, determinism, configuration


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_an_unwritable_out_path_exits_2_before_the_run(tmp_path, monkeypatch, capsys, how, where):
    out = tmp_path / "no" / "such" / "x.json" if where == "missing-directory" else tmp_path / "dir"
    if where == "a-directory":
        out.mkdir()
    ran = []
    command = cli._COMMANDS["bounds"]
    monkeypatch.setitem(cli._COMMANDS, "bounds", dataclasses.replace(
        command, run=lambda spec: ran.append(spec) or command.run(spec)))
    argv = ["bounds", "--system", "hydrogen", "--grid-n", "11", "--levels", "1"]
    if how == "flag":
        argv += ["--out", str(out)]
    else:
        conf = tmp_path / "run.conf"
        conf.write_text(f"out = {out}\n")
        argv += ["--config", str(conf)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write --out {out}")
    assert ran == []
    assert list(tmp_path.rglob(".groundbound-*.tmp")) == []


def test_a_failed_write_exits_2(tmp_path, monkeypatch, capsys):
    def refuse(path, text):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "write_text_atomic", refuse)
    out = tmp_path / "x.json"
    assert main(["bounds", "--system", "helium", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write --out {out}: ")
    assert not out.exists()


# a run that asks for more memory than there is: its size comes from its
# inputs, so it is a spec error.  The disk oracle at --grid-n 20000 runs out
# the same way, after about 13 s of building its grid; 40000 runs out at once
MEMORY_CAP = 1 << 30  # bytes of address space
OUT_OF_MEMORY = {
    "field-billiard": ["field", "--system", "annular-billiard", "--grid-n", "100000"],
    "oracle-disk": ["oracle", "--system", "disk", "--grid-n", "40000"],
}


def _run_capped(tmp_path, argv):
    """``main(argv)`` in a child process whose address space is capped at
    ``MEMORY_CAP``, with one BLAS thread so the cap does not depend on the
    core count; returns the exit code, stderr and the ``--out`` text."""
    out = tmp_path / "capped.out"
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
            "from groundbound.cli import main; sys.exit(main(sys.argv[1:]))" % (MEMORY_CAP, MEMORY_CAP))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    return done.returncode, done.stderr, out.read_text() if out.exists() else None


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps the address space on Linux")
@pytest.mark.parametrize("case", sorted(OUT_OF_MEMORY))
def test_running_out_of_memory_exits_2_without_a_traceback(tmp_path, case):
    code, err, text = _run_capped(tmp_path, OUT_OF_MEMORY[case])
    assert (code, text) == (2, None), err
    assert "error: out of memory: " in err
    assert "Traceback" not in err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps the address space on Linux")
def test_a_default_run_fits_under_the_memory_cap(tmp_path):
    code, err, text = _run_capped(tmp_path, ["bounds", "--system", "quartic"])
    assert code == 0, err
    assert json.loads(text)["result"]["lower"] < 0.0


def test_exit_codes_for_bad_specs(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("B = nan\nvariant = bogus\n")
    seed_conf = tmp_path / "seed.conf"
    seed_conf.write_text("seed = -1\n")
    out = tmp_path / "out"
    bad_specs = [
        "bounds --system nonsense",
        "bounds --system annular-billiard --r 1.5",
        "bounds --system helium --Z 0.5",
        "refine --system annular-billiard",
        "field --system helium",
        "sweep --system helium --param Q --values 1",
        "oracle --system helium",
        "bounds --system magnetic-hydrogen --B nan",
        "bounds --system quartic --rr nan",
        "bounds --system quartic --delta2 inf",
        "bounds --system helium --Z nan",
        f"bounds --system magnetic-hydrogen --config {conf}",
        "refine --system quartic --sigma nan --centers 0",
        "refine --system quartic --sweeps -3",
        "refine --system quartic --sweeps 0",
        "sweep --system annular-billiard --param r --values 2",
        "sweep --system helium --param Z --values 0.5",
        "sweep --system magnetic-hydrogen --param B --values -1",
        "sweep --system magnetic-hydrogen --variant improved --param B --values 0",
        "field --system quartic --timing",
        "bounds --system helium --format csv --timing",
        "bounds --system quartic --seed -1",
        f"bounds --system quartic --config {seed_conf}",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in bad_specs:
            assert main([*argv.split(), "--out", str(out)]) == 2, argv
            assert not out.exists(), argv
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["bounds", "field", "oracle"])
def test_hydrogen_and_hydrogen_radial_are_one_system(tmp_path, command):
    _, radial = run(tmp_path, command, "--system", "hydrogen-radial", "--format", "json", name="radial")
    code, plain = run(tmp_path, command, "--system", "hydrogen", "--format", "json", name="plain")
    assert code == 0
    assert json.loads(radial)["system"]["name"] == "hydrogen-radial"
    assert json.loads(plain)["system"]["name"] == "hydrogen"
    assert radial.count('"hydrogen-radial"') == 1
    assert radial.replace('"hydrogen-radial"', '"hydrogen"') == plain


# each bad value, as a flag, a config key and a sweep value, with the texts
# the system's own check names it by; an unknown variant's message names
# every variant the CLI accepts
BAD_PARAMS = {
    "improved-at-B-0": ("magnetic-hydrogen", {"variant": "improved", "B": "0"}, "B", ("B = 0.0",)),
    "unknown-variant": ("magnetic-hydrogen", {"variant": "landau"}, "B", ("'landau'", "'trivial'")),
    "Z-below-1": ("helium", {"Z": "0.5"}, "Z", ("Z = 0.5",)),
}


@pytest.mark.parametrize("how", ["flags", "config", "sweep"])
@pytest.mark.parametrize("case", BAD_PARAMS)
def test_systems_check_their_own_parameters(tmp_path, capsys, case, how):
    system, params, swept, named = BAD_PARAMS[case]
    if how == "flags":
        argv = ["bounds", "--system", system, *(a for k, v in params.items() for a in (f"--{k}", v))]
    elif how == "config":
        conf = tmp_path / "run.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in params.items()))
        argv = ["bounds", "--system", system, "--config", str(conf)]
    else:
        fixed = {k: v for k, v in params.items() if k != swept}
        values = f"1,{params[swept]}" if swept in params else "1"
        argv = ["sweep", "--system", system, "--param", swept, "--values", values,
                *(a for k, v in fixed.items() for a in (f"--{k}", v))]
    code, text = run(tmp_path, *argv)
    assert (code, text) == (2, None)
    err = capsys.readouterr().err
    assert all(text in err for text in named)


# run -> the builds it makes, one per field it uses: the field builders and
# helium's closed form, counted through the names the commands reach them by
FEW = ["--grid-n", "11", "--levels", "1", "--multistarts", "1"]
BUILDS = {
    "bounds-billiard": (["bounds", "--system", "annular-billiard", *FEW], {"billiard_local_energy_field": 1}),
    "bounds-quartic": (["bounds", "--system", "quartic", *FEW], {"quartic_field": 1}),
    "bounds-hydrogen": (["bounds", "--system", "hydrogen", *FEW], {"hydrogen_radial_field": 1}),
    "bounds-magnetic-improved": (["bounds", "--system", "magnetic-hydrogen", "--B", "2", "--variant", "improved",
                                  *FEW], {"magnetic_hydrogen_field": 1}),
    "bounds-magnetic-trivial": (["bounds", "--system", "magnetic-hydrogen", "--B", "2", *FEW],
                                {"magnetic_hydrogen_field": 2}),
    "sweep-magnetic-B": (["sweep", "--system", "magnetic-hydrogen", "--param", "B", "--values", "0.5,1,2,4", *FEW],
                         {"magnetic_hydrogen_field": 8}),
    "bounds-helium": (["bounds", "--system", "helium"], {"helium_bounds": 1}),
    "field-billiard": (["field", "--system", "annular-billiard", "--grid-n", "11"], {"billiard_local_energy_field": 1}),
    "field-quartic": (["field", "--system", "quartic", "--grid-n", "11"], {"quartic_field": 1}),
    "field-hydrogen-radial": (["field", "--system", "hydrogen-radial", "--grid-n", "11"], {"hydrogen_radial_field": 1}),
    "field-magnetic-trivial": (["field", "--system", "magnetic-hydrogen", "--grid-n", "11"],
                               {"magnetic_hydrogen_field": 1}),
    "refine-quartic": (["refine", "--system", "quartic", "--centers", "0", "--grid-n", "101"], {"quartic_field": 1}),
    "oracle-billiard": (["oracle", "--system", "annular-billiard", "--grid-n", "40"],
                        {"billiard_local_energy_field": 1}),
    "oracle-disk": (["oracle", "--system", "disk", "--grid-n", "40"], {"unit_disk_field": 1}),
    "oracle-hydrogen-radial": (["oracle", "--system", "hydrogen-radial", "--grid-n", "400"],
                               {"hydrogen_radial_field": 1}),
    "oracle-quartic": (["oracle", "--system", "quartic", "--grid-n", "200"], {}),
}


@pytest.mark.parametrize("case", BUILDS)
def test_a_run_builds_each_field_once(tmp_path, monkeypatch, case):
    argv, want = BUILDS[case]
    builds = {}
    for name in ("billiard_local_energy_field", "magnetic_hydrogen_field", "quartic_field",
                 "hydrogen_radial_field", "unit_disk_field", "helium_bounds"):
        def counted(*args, _name=name, _build=getattr(cli, name)):
            builds[_name] = builds.get(_name, 0) + 1
            return _build(*args)

        monkeypatch.setattr(cli, name, counted)
    assert run(tmp_path, *argv)[0] in (0, 3)
    assert builds == want


# the swept value replaces the base value, which the sweep never runs
@pytest.mark.parametrize("base, param, values", [
    (["--system", "annular-billiard", "--r", "0.95"], "delta", ["0.0", "0.01"]),
    (["--system", "magnetic-hydrogen", "--variant", "improved", "--B", "0"], "B", ["1.0", "2.0"]),
])
def test_a_sweep_checks_only_the_sets_it_runs(tmp_path, base, param, values):
    argv = [*base, "--grid-n", "41", "--levels", "1", "--multistarts", "1", "--format", "json"]
    code, text = run(tmp_path, "sweep", *argv, "--param", param, "--values", ",".join(values), name="sweep")
    assert code == 3  # each trial's supremum diverges
    rows = json.loads(text)["result"]["rows"]
    assert [row["value"] for row in rows] == [float(v) for v in values]
    for row, value in zip(rows, values):
        _, one = run(tmp_path, "bounds", *argv, f"--{param}", value, name="bounds")
        result = json.loads(one)["result"]
        assert (row["lower"], row["upper"]) == (result["lower"], result["upper"])


def _searched(*args, **kwargs):
    raise AssertionError("searched a sweep with a bad value")


def test_a_bad_swept_value_exits_2_before_the_search(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_stacked_bounds", _searched)
    argv = ["sweep", "--system", "annular-billiard", "--param", "delta", "--values", "0.1,0.3"]
    assert run(tmp_path, *argv) == (2, None)
    assert "need delta + r < 1 for a nondegenerate annulus" in capsys.readouterr().err


def test_trivial_magnetic_bounds_accept_B_0(tmp_path):
    code, text = run(tmp_path, "bounds", "--system", "magnetic-hydrogen", "--variant", "trivial", "--B", "0")
    assert code == 0
    assert json.loads(text)["result"]["lower"] == pytest.approx(-0.5, abs=1e-9)


@pytest.mark.parametrize("variant", ["lower", "upper"])
def test_single_magnetic_trials_at_B_0(tmp_path, variant):
    # at B = 0 both trials give E_loc = -1/2 everywhere, off the axis too
    code, text = run(tmp_path, "bounds", "--system", "magnetic-hydrogen", "--variant", variant, "--B", "0")
    assert code == 0
    result = json.loads(text)["result"]
    assert (result["lower"], result["upper"]) == (-0.5, -0.5)


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("key, value", [("r", "0.5"), ("variant", "improved")])
def test_another_systems_parameter_exits_2(tmp_path, capsys, how, key, value):
    argv = ["bounds", "--system", "quartic"]
    if how == "flag":
        argv += [f"--{key}", value]
    else:
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {value}\n")
        argv += ["--config", str(conf)]
    assert run(tmp_path, *argv) == (2, None)
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "bounds --system magnetic-hydrogen --B 1e200",
    "field --system magnetic-hydrogen --B 1e200 --variant improved",
    "bounds --system quartic --rr 1e300",
    "bounds --system quartic --delta2 1e300",
    "bounds --system helium --Z 1e300",
])
def test_an_overflowing_parameter_exits_4(tmp_path, argv):
    assert run(tmp_path, *argv.split(), "--grid-n", "16")[0] == 4


@pytest.mark.parametrize("argv", [
    "bounds --system quartic --delta2 1e-300",
    "bounds --system quartic --box=-1e300:1e300",
    "refine --system quartic --centers 1e300",
    "refine --system quartic --sigma 1e-300 --centers 0",
])
def test_a_floating_point_fault_exits_4_without_a_warning(tmp_path, argv, capsys):
    # a run raises on overflow, division by zero and invalid operations; the
    # two bounds runs exited 0 with RuntimeWarnings on stderr (the first with
    # a lower bound of -2.03e31 from the points that stayed finite), and the
    # two refine runs exited 4 after printing RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, *argv.split())[0] == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "Warning" not in err


@pytest.mark.parametrize("variant, want", [("trivial", 0), ("lower", 3), ("upper", 3), ("improved", 3)])
def test_magnetic_bounds_at_a_strong_field(tmp_path, variant, want):
    # the radial cusp probe shrinks with B; at a fixed radius the quadratic
    # part of U failed the cusp tolerance for B above about 200
    code, text = run(tmp_path, "bounds", "--system", "magnetic-hydrogen", "--variant", variant, "--B", "500")
    assert code == want
    if variant == "trivial":
        result = json.loads(text)["result"]
        assert result["lower"] == pytest.approx(-0.5, abs=1e-9)
        assert result["upper"] == pytest.approx(249.5, abs=1e-9)


@pytest.mark.parametrize("B", ["1e-300", "5e-324"])
def test_improved_magnetic_bounds_at_a_tiny_field(tmp_path, B, capsys):
    # k = 5/sqrt(B) is huge: the cube of the improved term's denominator
    # overflowed and printed numpy warnings before the document
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, "bounds", "--system", "magnetic-hydrogen", "--variant", "improved",
                         "--B", B, "--format", "json")
    assert code == 3
    assert json.loads(text)["result"]["lower"] == -0.5
    assert "Warning" not in capsys.readouterr().err


def test_sweep_over_a_strong_field(tmp_path):
    code, text = run(tmp_path, "sweep", "--system", "magnetic-hydrogen", "--param", "B", "--values", "1,300",
                     "--format", "json")
    assert code == 0
    assert [row["upper"] for row in json.loads(text)["result"]["rows"]] == pytest.approx([0.0, 149.5], abs=1e-9)


def test_trivial_magnetic_caveat_echoes_box(tmp_path):
    box = ["--box", "0.01:6,-6:6", "--grid-n", "41"]
    _, trivial = run(tmp_path, "bounds", "--system", "magnetic-hydrogen", *box, name="trivial")
    _, lower = run(tmp_path, "bounds", "--system", "magnetic-hydrogen", "--variant", "lower", *box,
                   name="lower")
    caveat = json.loads(trivial)["result"]["resolution_caveat"]
    assert caveat["box"] == [[0.01, 6.0], [-6.0, 6.0]]
    assert caveat == json.loads(lower)["result"]["resolution_caveat"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--system", "annular-billiard", "--seed", "7"],
        ["bounds", "--system", "quartic", "--seed", "3", "--format", "csv"],
        ["refine", "--system", "quartic", "--centers", "0.0,2.0", "--seed", "5"],
        ["sweep", "--system", "magnetic-hydrogen", "--param", "B", "--values", "1,2"],
        ["field", "--system", "quartic", "--grid-n", "101"],
    ],
)
def test_documents_are_byte_identical_across_reruns(tmp_path, argv):
    _, first = run(tmp_path, *argv, name="first")
    _, second = run(tmp_path, *argv, name="second")
    assert first == second


def test_config_file_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("# comment\ngrid-n = 128\nseed = 9\n")
    _, text = run(tmp_path, "bounds", "--system", "hydrogen", "--config", str(conf),
                  "--format", "json")
    doc = json.loads(text)
    assert doc["config"]["grid_points_per_axis"] == 128
    assert doc["config"]["seed"] == 9
    # CLI flag beats the file
    _, text2 = run(tmp_path, "bounds", "--system", "hydrogen", "--config", str(conf),
                   "--grid-n", "256", "--format", "json", name="out2")
    assert json.loads(text2)["config"]["grid_points_per_axis"] == 256
    # unknown keys are spec errors
    bad = tmp_path / "bad.conf"
    bad.write_text("gridn = 1\n")
    assert main(["bounds", "--system", "hydrogen", "--config", str(bad)]) == 2


def test_timing_flag_adds_wall_time(tmp_path, schema):
    _, text = run(tmp_path, "bounds", "--system", "helium", "--timing")
    doc = validate(schema, text)
    assert "wall_time_s" in doc
    _, text2 = run(tmp_path, "bounds", "--system", "helium", name="no-timing")
    assert "wall_time_s" not in json.loads(text2)


def test_sweep_exits_3_on_an_infinite_row(tmp_path):
    argv = ["--system", "annular-billiard", "--grid-n", "41", "--levels", "1", "--multistarts", "1"]
    code, text = run(tmp_path, "sweep", *argv, "--param", "r", "--values", "0.7")
    assert code == 3  # the billiard trial's supremum diverges at the boundary
    assert text.splitlines()[1].split(",")[3] == "+inf"  # the document is still written
    assert run(tmp_path, "bounds", *argv, "--r", "0.7", name="bounds")[0] == 3


# ---------------------------------------------------------------------------
# one result, two formats

SMALL_RUNS = {
    "bounds": ["bounds", "--system", "quartic", "--grid-n", "101", "--levels", "1", "--multistarts", "2"],
    "refine": ["refine", "--system", "quartic", "--centers", "0,0.5", "--grid-n", "101"],
    "sweep": ["sweep", "--system", "magnetic-hydrogen", "--param", "B", "--values", "0.5,1",
              "--grid-n", "41", "--levels", "1", "--multistarts", "1"],
    "field": ["field", "--system", "annular-billiard", "--grid-n", "21"],
    "oracle": ["oracle", "--system", "harmonic", "--grid-n", "200"],
}


def _forbidden(*args, **kwargs):
    raise AssertionError("built a format that was not requested")


@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_only_the_requested_format_is_built(tmp_path, monkeypatch, command):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "envelope", _forbidden)
        patch.setattr(cli, "render_json", _forbidden)
        assert run(tmp_path, *SMALL_RUNS[command], "--format", "csv", name="csv")[0] == 0
    with monkeypatch.context() as patch:
        patch.setattr(cli, "render_csv", _forbidden)
        assert run(tmp_path, *SMALL_RUNS[command], "--format", "json", name="json")[0] == 0


def _cell(value) -> str:
    """A JSON result value as the CSV cell that carries it."""
    if value is None:
        return ""
    if isinstance(value, list):  # a witness location
        return " ".join(map(_cell, value))
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_json_and_csv_carry_the_same_values(tmp_path, command):
    _, text = run(tmp_path, *SMALL_RUNS[command], "--format", "json", name="json")
    result = json.loads(text)["result"]
    _, text = run(tmp_path, *SMALL_RUNS[command], "--format", "csv", name="csv")
    header, *rows = list(csv.reader(io.StringIO(text)))
    if command == "bounds":
        assert header == ["key", "value"]
        want = {key: _cell(result[key]) for key in ("lower", "upper")}
        for side in ("lower", "upper"):
            want[f"{side}_attained"] = _cell(result[f"{side}_witness"]["attained"])
            want[f"{side}_location"] = _cell(result[f"{side}_witness"]["location"])
        assert dict(rows) == want
    elif command == "oracle":
        assert header == ["key", "value"]
        assert dict(rows) == {key: _cell(value) for key, value in result.items()}
    elif command == "field":
        assert header == result["columns"]
        assert rows == [[_cell(v) for v in row] for row in result["rows"]]
    else:
        table = result["history" if command == "refine" else "rows"]
        assert rows == [[_cell(row[key]) for key in header] for row in table]
        assert len(rows) == (3 if command == "refine" else 2)


# a grid near the billiard's outer boundary whose last x column lies inside the
# boundary tube, declared with the limit +inf
TUBE_FIELD = ["field", "--system", "annular-billiard", "--grid-n", "8",
              "--box=1.0999:1.0999995,-0.0000001:0.0000001"]


@pytest.mark.parametrize("singular, spelled", [("limit", "+inf"), ("nan", "nan")])
def test_field_non_finite_cells_carry_the_same_values(tmp_path, singular, spelled):
    argv = [*TUBE_FIELD, "--singular", singular]
    _, text = run(tmp_path, *argv, "--format", "json", name="json")
    result = json.loads(text)["result"]
    _, text = run(tmp_path, *argv, "--format", "csv", name="csv")
    header, *rows = list(csv.reader(io.StringIO(text)))
    assert header == result["columns"]
    assert rows == [[_cell(v) for v in row] for row in result["rows"]]
    e_loc = [row[-1] for row in rows]
    assert len(e_loc) == 64 and e_loc.count(spelled) == 8
    assert all(math.isfinite(float(v)) for v in e_loc if v != spelled)


def test_field_box_without_interior_points_is_an_empty_table(tmp_path):
    argv = ["field", "--system", "annular-billiard", "--box=-0.01:0.01"]  # inside the inner disk
    assert run(tmp_path, *argv, "--format", "csv", name="csv")[0] == 0
    assert (tmp_path / "csv").read_bytes() == b"x,y,e_loc\r\n"
    _, text = run(tmp_path, *argv, "--format", "json", name="json")
    assert json.loads(text)["result"]["rows"] == []
    assert '"rows": []' in text
