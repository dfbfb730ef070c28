"""Command-line surface: bounds, refine, sweep, field, oracle.

Configuration precedence is CLI flag > config file (``--config``, flat
``key = value`` lines) > built-in default.  Every command honors ``--seed``
and builds only the requested format: schema-versioned JSON or fixed-header
CSV; infinities become the strings "+inf"/"-inf".  Wall time goes to stderr
(and into a JSON document only under ``--timing``, which CSV refuses) so that
documents are byte-identical across reruns.

Exit codes: 0 success, 2 usage or spec error (out of memory among them: a
run's size comes from its inputs), 3 unbounded result (an infinite
``lower`` or ``upper`` from ``bounds`` or in any ``sweep`` row; the document
is still written), 4 internal numerical failure, which includes any
floating-point overflow, division by zero or invalid operation during the run
(underflow is quiet).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from . import __version__
from .core import BoundsResult, Domain, LocalEnergyField, SingularEvaluationError
from .oracle import (
    BoxTooSmallError,
    ConvergenceError,
    Grid1D,
    Grid2D,
    OracleResult,
    solve_1d_ground_state,
    solve_2d_dirichlet_ground_state,
)
from .output import envelope, render_csv, render_json, write_text_atomic
from .refine import default_centers, new_refinement_state, optimize_bump_amplitude
from .search import EmptySearchRegionError, SearchConfig, _stacked_bounds, grid_points
from .systems import (
    AnnularBilliard,
    MagneticHydrogen,
    QuarticOscillator,
    billiard_local_energy_field,
    helium_bounds,
    hydrogen_radial_field,
    magnetic_hydrogen_field,
    quartic_field,
    quartic_system,
    unit_disk_field,
)
from .systems.magnetic import TRIALS

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_UNBOUNDED = 3
EXIT_NUMERICAL = 4


class SpecError(ValueError):
    """Invalid run specification (maps to exit code 2)."""


@dataclass
class RunSpec:
    """Validated, merged (CLI > config file > defaults) run parameters."""

    command: str
    system: str
    params: dict
    search: SearchConfig
    extras: dict
    format: str
    out: str | None
    timing: bool


# ---------------------------------------------------------------------------
# the shipped systems


@dataclass(frozen=True)
class System:
    """Everything the commands know about one system.

    ``params`` maps each parameter to ``(default, help)``; the default's type
    parses the flag and config values.  A command whose builders are all
    ``None`` does not support the system:

    - ``field(params)`` builds one parameter set's field.  A run builds each
      set it uses once, before any search or solve, and that build is the
      set's check (non-finite floats are refused for every system), so a
      ``sweep`` checks its swept sets, not the base value they replace.
      ``trials`` maps each ``variant`` to the ``(lower, upper)`` variants
      its two bounds come from; without it a system has one trial of one
      field.  ``bounds`` and ``sweep`` search every set's fields as one
      stack (see ``search._stacked_bounds``), in one call per polish round
      where the fields declare one row form; ``field`` dumps the lower field
      under ``columns``;
    - ``bounds(param_sets, cfg)`` is the closed form of a system with no
      searched field, one :class:`BoundsResult` per parameter set;
    - ``oracle(params, cfg)`` returns an :class:`OracleResult` on a grid of
      ``cfg.grid_points_per_axis`` points per axis over ``cfg.box_for`` the
      system's domain;
    - ``refine(params)`` returns the Hamiltonian, the base log-trial and the
      asymptotic limits of a one-dimensional system.
    """

    dim: int
    params: dict[str, tuple[Any, str]]
    grid_n: int | None = None
    oracle_grid_n: int | None = None  # reference solves want finer grids
    field: Callable[[dict], LocalEnergyField] | None = None
    trials: dict[str, tuple[str, str]] | None = None
    bounds: Callable[[list[dict], SearchConfig], list[BoundsResult]] | None = None
    columns: tuple[str, ...] = ()
    oracle: Callable[[dict, SearchConfig], OracleResult] | None = None
    refine: Callable[[dict], tuple] | None = None


# Builders reach the system constructors through this module's globals, so
# replacing e.g. ``cli.quartic_field`` affects every field the commands build.


def _billiard(p: dict) -> LocalEnergyField:
    return billiard_local_energy_field(AnnularBilliard(p["r"], p["delta"]))


def _quartic(p: dict) -> QuarticOscillator:
    return QuarticOscillator(p["rr"], p["eta"], p["delta2"])


def _quartic_oracle(p: dict, cfg: SearchConfig) -> OracleResult:
    qo = _quartic(p)
    return solve_1d_ground_state(qo.potential, _line(qo.domain(), cfg))


def _quartic_refine(p: dict) -> tuple:
    qo = _quartic(p)
    return (*quartic_system(qo), quartic_field(qo).asymptotic_limits)


def _line(domain: Domain, cfg: SearchConfig) -> Grid1D:
    return Grid1D(*cfg.box_for(domain)[0], cfg.grid_points_per_axis)


def _whole(field: LocalEnergyField, cfg: SearchConfig) -> LocalEnergyField:
    """``field``, if ``cfg``'s box holds the whole of its bounded domain.

    A box that cuts a bounded domain gives the numbers of the part inside
    it, a local extremum or the eigenvalue of a smaller region, with nothing
    to tell them from the domain's; so ``bounds``, ``sweep`` and ``oracle``
    refuse it, while ``field`` dumps any box.
    """
    box, whole = cfg.box, field.domain.box
    if field.domain.kind == "bounded" and box is not None and any(
        lo > w_lo or hi < w_hi for (lo, hi), (w_lo, w_hi) in zip(box, whole)
    ):
        raise SpecError(f"--box {box} cuts the bounded domain; give a box that contains {whole}")
    return field


def _dirichlet_2d(field: LocalEnergyField, cfg: SearchConfig) -> OracleResult:
    grid = Grid2D(cfg.box_for(_whole(field, cfg).domain), cfg.grid_points_per_axis)
    return solve_2d_dirichlet_ground_state(field.domain, grid)


# the harmonic oscillator has no field; its oracle's default box
_HARMONIC_DOMAIN = Domain(dimension=1, kind="unbounded", box=((-10.0, 10.0),))


def _hydrogen_oracle(p: dict, cfg: SearchConfig) -> OracleResult:
    """The radial problem ``-u''/2 - u/r`` with its hard wall at the nucleus.

    A box starting anywhere else would move that wall and spread ``-1/r``
    over another region, an eigenvalue of a different problem, so it is
    refused.
    """
    line = _line(hydrogen_radial_field(1.0).domain, cfg)
    if line.x_min != 0.0:
        raise ValueError(f"the hydrogen oracle's box must start at the nucleus r = 0, got {line.x_min!r}")
    return solve_1d_ground_state(lambda r: -1.0 / r, line, dirichlet_edges=(True, False))


# the radial profile of hydrogen's exact trial, under two names
_HYDROGEN = System(
    dim=1,
    params={},
    grid_n=401,
    oracle_grid_n=4000,
    field=lambda p: hydrogen_radial_field(1.0),
    columns=("r", "e_loc"),
    oracle=_hydrogen_oracle,
)

SYSTEMS: dict[str, System] = {
    "annular-billiard": System(
        dim=2,
        params={"r": (0.75, "billiard inner radius"), "delta": (0.1, "billiard center offset")},
        grid_n=101,
        oracle_grid_n=400,
        field=_billiard,
        columns=("x", "y", "e_loc"),
        oracle=lambda p, cfg: _dirichlet_2d(_billiard(p), cfg),
    ),
    "helium": System(
        dim=3,
        params={"Z": (2.0, "helium-like nuclear charge")},
        grid_n=61,
        bounds=lambda ps, cfg: [helium_bounds(p["Z"]) for p in ps],
    ),
    "magnetic-hydrogen": System(
        dim=2,
        params={
            "B": (1.0, "magnetic field strength"),
            "variant": ("trivial", f"magnetic trial: {', '.join(TRIALS)}"),
        },
        grid_n=161,
        field=lambda p: magnetic_hydrogen_field(MagneticHydrogen(p["B"]), p["variant"]),
        trials=TRIALS,
        columns=("rho", "z", "e_loc"),
    ),
    "quartic": System(
        dim=1,
        params={
            "rr": (1.0 / math.sqrt(2.0), "quartic stiffness"),
            "eta": (-1, "quartic potential sign (+1 or -1)"),
            "delta2": (8.0, "quartic well offset (delta^2)"),
        },
        grid_n=401,
        oracle_grid_n=2000,
        field=lambda p: quartic_field(_quartic(p)),
        columns=("q", "e_loc"),
        oracle=_quartic_oracle,
        refine=_quartic_refine,
    ),
    "hydrogen": _HYDROGEN,
    "hydrogen-radial": _HYDROGEN,
    "harmonic": System(
        dim=1,
        params={},
        oracle_grid_n=2000,
        oracle=lambda p, cfg: solve_1d_ground_state(lambda x: 0.5 * x * x, _line(_HARMONIC_DOMAIN, cfg)),
    ),
    "disk": System(
        dim=2,
        params={},
        oracle_grid_n=200,
        oracle=lambda p, cfg: _dirichlet_2d(unit_disk_field(), cfg),
    ),
}


def _trial(system: System, params: dict) -> list[dict]:
    """The parameter sets of the fields of ``params``' trial: its lower
    field's, then its upper field's where that is another field."""
    if system.trials is None:
        return [params]
    if params["variant"] not in system.trials:
        raise SpecError(f"unknown variant {params['variant']!r}; pick one of {tuple(system.trials)}")
    return [{**params, "variant": v} for v in dict.fromkeys(system.trials[params["variant"]])]


def _bounds(system: System, param_sets: list[dict], cfg: SearchConfig) -> list[BoundsResult]:
    """One :class:`BoundsResult` per parameter set, from one stacked search
    of every set's trial fields."""
    if system.field is None:
        return _built(system.bounds, param_sets, cfg)
    members, pairs = [], []
    for params in param_sets:
        sets = _trial(system, params)
        pairs.append((len(members), len(members) + len(sets) - 1))
        members += sets
    fields = [_whole(_built(system.field, p), cfg) for p in members]
    return _stacked_bounds(fields, cfg, pairs)


def _built(build: Callable, *args, **kwargs):
    """``build(*args, **kwargs)``, a system builder or ``SearchConfig``: the
    build checks its parameters, so its ``ValueError`` is a :class:`SpecError`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _checked(params: dict) -> dict:
    """``params``, if every float is finite; the run's own build checks the rest."""
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise SpecError(f"parameter {key} must be finite, got {value!r}")
    return params


# ---------------------------------------------------------------------------
# input parsing


def _parse_box(text: str, dim: int) -> tuple[tuple[float, float], ...]:
    axes = [t for t in text.split(",") if t.strip()]
    if len(axes) == 1 and dim > 1:
        axes = axes * dim
    if len(axes) != dim:
        raise SpecError(f"--box needs {dim} lo:hi ranges, got {text!r}")
    out = []
    for axis in axes:
        try:
            lo, hi = (float(v) for v in axis.split(":"))
        except ValueError as exc:
            raise SpecError(f"bad --box component {axis!r} (want lo:hi)") from exc
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise SpecError(f"empty or infinite --box range {axis!r}")
        out.append((lo, hi))
    return tuple(out)


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise SpecError(f"bad numeric list {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise SpecError(f"non-finite value in {text!r}")
    return values


def _one_of(*choices: str) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(text)
        return text

    return convert


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SpecError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise SpecError(f"cannot read config file {path}: {exc}") from exc
    return out


class _Merger:
    """CLI > config file > defaults, with type conversion and key checking."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.config = _read_config_file(args.config) if args.config else {}
        self.used: set[str] = set()

    def get(self, key: str, default, convert: Callable[[str], Any] | None = None):
        self.used.add(key)
        cli_val = self.args.get(key.replace("-", "_"))
        if cli_val is not None:
            return cli_val
        if key in self.config:
            raw = self.config[key]
            try:
                return convert(raw) if convert else raw
            except (TypeError, ValueError) as exc:
                raise SpecError(f"config key {key}: bad value {raw!r}") from exc
        return default

    def check_unknown(self) -> None:
        unknown = set(self.config) - self.used
        if unknown:
            raise SpecError(f"unknown config keys: {', '.join(sorted(unknown))}")


def _search_config(m: _Merger, system: System, command: Command) -> SearchConfig:
    box_text = m.get("box", None)
    box = _parse_box(box_text, system.dim) if box_text else None
    return _built(
        SearchConfig,
        grid_points_per_axis=m.get("grid-n", getattr(system, command.grid), int),
        refinement_levels=m.get("levels", command.levels, int),
        multistart_count=m.get("multistarts", command.multistarts, int),
        box=box,
        rng_seed=m.get("seed", 0, int),
    )


# ---------------------------------------------------------------------------
# commands


@dataclass(frozen=True)
class Command:
    """Everything the CLI knows about one command.

    ``run(spec)`` computes the result once and returns ``(meta, result)``:
    the system metadata beyond the name and parameters, and the dict a JSON
    document carries under ``result``.  ``csv(result)`` is the CSV view of
    that same dict, ``(header, rows)``: rows are lists, or the float array a
    ``field`` dump keeps its table in.  ``unbounded(result)`` selects
    exit 3.  Only :func:`_run` reads the clock, renders and writes.

    ``builders`` names the :class:`System` builders that serve the command
    (any one will do) and ``grid`` the field holding its default ``--grid-n``.
    ``flags`` lists the command's own ``(flag, add_argument keywords)``, and
    ``extras(m, system)`` reads them into ``RunSpec.extras``.
    """

    help: str
    run: Callable[[RunSpec], tuple[dict, dict]]
    csv: Callable[[dict], tuple[list[str], list[list] | np.ndarray]]
    builders: tuple[str, ...]
    format: str = "csv"
    grid: str = "grid_n"
    levels: int = 3
    multistarts: int = 8
    flags: tuple[tuple[str, dict], ...] = ()
    extras: Callable[[_Merger, System], dict] = lambda m, system: {}
    unbounded: Callable[[dict], bool] = lambda result: False


def _finite(bounds: dict) -> bool:
    return math.isfinite(bounds["lower"]) and math.isfinite(bounds["upper"])


def cmd_bounds(spec: RunSpec) -> tuple[dict, dict]:
    # the bounds, both witness reports and the caveat, field by field
    [bounds] = _bounds(SYSTEMS[spec.system], [spec.params], spec.search)
    return {}, asdict(bounds)


def _table(key: str, header: list[str]) -> Callable[[dict], tuple[list[str], list[list]]]:
    """CSV view of the dicts listed under ``result[key]``; ``None`` (refine's
    step 0 has no bump) becomes an empty cell."""
    return lambda result: (header, [["" if row[k] is None else row[k] for k in header]
                                    for row in result[key]])


def _loc_str(location) -> str:
    if location is None:
        return ""
    return " ".join(repr(float(v)) for v in location)


def _bounds_csv(result: dict) -> tuple[list[str], list[list]]:
    lower, upper = result["lower_witness"], result["upper_witness"]
    return ["key", "value"], [
        ["lower", result["lower"]],
        ["upper", result["upper"]],
        ["lower_attained", lower["attained"]],
        ["upper_attained", upper["attained"]],
        ["lower_location", _loc_str(lower["location"])],
        ["upper_location", _loc_str(upper["location"])],
    ]


def cmd_refine(spec: RunSpec) -> tuple[dict, dict]:
    h, base, asym = _built(SYSTEMS[spec.system].refine, spec.params)
    centers, sigma = spec.extras["centers"], spec.extras["sigma"]
    state = new_refinement_state(h, base, asym, cfg=spec.search)
    history = [{"step": 0, "center": None, "s_star": None, "lower_bound": state.current_lower}]
    for step, center in enumerate(centers, start=1):
        s_star, state = optimize_bump_amplitude(state, center, sigma, cfg=spec.search)
        history.append({"step": step, "center": center, "s_star": s_star, "lower_bound": state.current_lower})
    return {"sigma": sigma, "n_centers": len(centers)}, {"history": history}


def cmd_sweep(spec: RunSpec) -> tuple[dict, dict]:
    param, values = spec.extras["param"], spec.extras["values"]
    results = _bounds(SYSTEMS[spec.system], [{**spec.params, param: v} for v in values], spec.search)
    rows = [{"param": param, "value": v, "lower": b.lower, "upper": b.upper}
            for v, b in zip(values, results)]
    return {"swept": param}, {"rows": rows}


def cmd_field(spec: RunSpec) -> tuple[dict, dict]:
    system = SYSTEMS[spec.system]
    params = _trial(system, spec.params)[0]  # the lower field, under its own variant
    field = _built(system.field, params)
    qs = grid_points(spec.search.box_for(field.domain), spec.search.grid_points_per_axis)
    qs = qs[field.domain.interior_mask(qs)]
    vals = field.evaluate_with_limits(qs, singular_as_nan=spec.extras["singular"] == "nan")
    # the rows stay one float array; both renderers write it column by column
    return params, {"columns": system.columns, "rows": np.column_stack([qs, vals])}


def cmd_oracle(spec: RunSpec) -> tuple[dict, dict]:
    res = _built(SYSTEMS[spec.system].oracle, spec.params, spec.search)  # the builder also checks its grid
    return {}, asdict(res)  # energy, error_bar, coarse_value, fine_value, detail


def _config_dict(spec: RunSpec) -> dict:
    return {
        "grid_points_per_axis": spec.search.grid_points_per_axis,
        "refinement_levels": spec.search.refinement_levels,
        "multistart_count": spec.search.multistart_count,
        "box": spec.search.box,
        "seed": spec.search.rng_seed,
    }


def _run(spec: RunSpec) -> int:
    """Run ``spec``'s command, then render and write the requested format only."""
    command = _COMMANDS[spec.command]
    started = time.perf_counter()
    meta, result = command.run(spec)
    wall = time.perf_counter() - started
    if spec.format == "json":
        system = {"name": spec.system, **spec.params, **meta}
        document = envelope(spec.command, system, _config_dict(spec), result)
        if spec.timing:
            document["wall_time_s"] = round(wall, 6)
        text = render_json(document)
    else:
        text = render_csv(*command.csv(result))
    if spec.out:
        try:
            write_text_atomic(spec.out, text)
        except OSError as exc:
            raise SpecError(f"cannot write --out {spec.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    print(f"wall_time_s={wall:.3f}", file=sys.stderr)
    return EXIT_UNBOUNDED if command.unbounded(result) else EXIT_OK


def _refine_extras(m: _Merger, system: System) -> dict:
    centers = m.get("centers", None)
    centers = None if centers is None else _parse_float_list(centers)
    sigma = m.get("sigma", 1.0, float)
    sweeps = m.get("sweeps", 12, int)
    if not (math.isfinite(sigma) and sigma > 0):
        raise SpecError("--sigma must be positive and finite")
    if sweeps < 1:
        raise SpecError("--sweeps must be at least 1")
    # --sweeps only shapes the default schedule, which explicit --centers replace
    return {"centers": default_centers(sweeps=sweeps) if centers is None else centers, "sigma": sigma}


def _sweep_extras(m: _Merger, system: System) -> dict:
    param = m.args["param"]
    # every float parameter sweeps
    sweepable = [key for key, (default, _) in system.params.items() if isinstance(default, float)]
    if param not in sweepable:
        raise SpecError(
            f"system {m.args['system']!r} has no sweepable parameter {param!r} "
            f"(allowed: {', '.join(sweepable) or 'none'})"
        )
    values = _parse_float_list(m.get("values", ""))
    if not values:
        raise SpecError("--values needs at least one value")
    return {"param": param, "values": values}


_COMMANDS: dict[str, Command] = {
    "bounds": Command(
        help="two-sided energy bounds for a shipped system",
        run=cmd_bounds,
        csv=_bounds_csv,
        builders=("field", "bounds"),
        format="json",
        unbounded=lambda result: not _finite(result),
    ),
    "refine": Command(
        help="iterative Gaussian-bump refinement of the lower bound",
        run=cmd_refine,
        csv=_table("history", ["step", "center", "s_star", "lower_bound"]),
        builders=("refine",),
        levels=2,
        multistarts=1,
        flags=(
            ("--centers", {"help": "comma list of bump centers; empty for none"}),
            ("--sigma", {"type": float, "help": "bump width (default 1.0)"}),
            ("--sweeps", {"type": int, "help": "passes of the default schedule"}),
        ),
        extras=_refine_extras,
    ),
    "sweep": Command(
        help="bounds over a range of one system parameter",
        run=cmd_sweep,
        csv=_table("rows", ["param", "value", "lower", "upper"]),
        builders=("field", "bounds"),
        flags=(
            ("--param", {"required": True, "help": "parameter to sweep"}),
            ("--values", {"help": "comma list of values"}),
        ),
        extras=_sweep_extras,
        unbounded=lambda result: not all(map(_finite, result["rows"])),
    ),
    "field": Command(
        help="dump the local-energy field on a grid",
        run=cmd_field,
        csv=lambda result: (result["columns"], result["rows"]),
        builders=("field",),
        flags=(("--singular", {"choices": ["limit", "nan"],
                               "help": "emit declared limits or nan inside singular tubes"}),),
        extras=lambda m, system: {"singular": m.get("singular", "limit", _one_of("limit", "nan"))},
    ),
    "oracle": Command(
        help="independent finite-difference reference energy",
        run=cmd_oracle,
        csv=lambda result: (["key", "value"], [[k, v] for k, v in result.items()]),
        builders=("oracle",),
        format="json",
        grid="oracle_grid_n",
    ),
}


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--system", required=True, help=", ".join(SYSTEMS))
    params = {key: spec for system in SYSTEMS.values() for key, spec in system.params.items()}
    for key, (default, helptext) in params.items():
        sub.add_argument(f"--{key}", type=type(default), help=helptext)
    sub.add_argument("--grid-n", type=int, help="grid points per axis")
    sub.add_argument("--levels", type=int, help="refinement levels of the search")
    sub.add_argument("--multistarts", type=int, help="random polish starts")
    sub.add_argument("--box", help="per-axis lo:hi, comma separated")
    sub.add_argument("--seed", type=int, help="RNG seed (bit-exact reruns)")
    sub.add_argument("--format", choices=["json", "csv"])
    sub.add_argument("--out", help="output path (atomic write); default stdout")
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--timing", action="store_true",
                     help="embed wall time in a JSON document (an error with --format csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundbound",
        description="Two-sided ground-state energy bounds from local-energy extrema.",
    )
    parser.add_argument("--version", action="version", version=f"groundbound {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        _add_common(sub)
        for flag, kwargs in command.flags:
            sub.add_argument(flag, **kwargs)
    return parser


def _writable(path: str | None) -> str | None:
    """``path``, if a file can go there: checked before the run."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path)))):
        raise SpecError(f"cannot write --out {path}: not a file in an existing directory")
    return path


def _build_spec(args: argparse.Namespace) -> RunSpec:
    m = _Merger(args)
    command = _COMMANDS[args.command]
    system = SYSTEMS.get(args.system)
    if system is None:
        raise SpecError(f"unknown system {args.system!r}")
    if all(getattr(system, builder) is None for builder in command.builders):
        raise SpecError(f"{args.command} does not support system {args.system!r}")
    foreign = {key for other in SYSTEMS.values() for key in other.params} - set(system.params)
    given = sorted(key for key in foreign if m.args[key] is not None)
    if given:
        raise SpecError(f"system {args.system!r} has no parameter {', '.join('--' + key for key in given)}")
    params = _checked({
        key: m.get(key, default, type(default)) for key, (default, _) in system.params.items()
    })
    spec = RunSpec(
        command=args.command,
        system=args.system,
        params=params,
        search=_search_config(m, system, command),
        extras=command.extras(m, system),
        format=m.get("format", command.format, _one_of("json", "csv")),
        out=_writable(m.get("out", None)),
        timing=bool(args.timing),
    )
    if spec.timing and spec.format == "csv":
        raise SpecError("--timing needs --format json: a CSV document has no place for wall time")
    m.check_unknown()
    return spec


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a floating-point fault (overflow, division by zero, an invalid
        # operation) is a numerical failure, not a warning beside a number
        # built from the points that stayed finite; inner errstate blocks
        # keep their own settings, and underflow stays quiet
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            return _run(_build_spec(args))
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except MemoryError as exc:
        # the run's size comes from its inputs (a grid, a box), so asking
        # for more memory than there is is a spec error
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (BoxTooSmallError, ConvergenceError, EmptySearchRegionError,
            SingularEvaluationError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
