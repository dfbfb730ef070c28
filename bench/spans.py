"""Traced run: spans around groundbound's public entry points.

The tracer replaces module attributes with timing wrappers, so the program
itself is unchanged and untraced runs pay nothing.  Field builders are
wrapped to return ``replace(field, evaluate=timed(field.evaluate))``.  Each
span is ``[name, start, end, parent, case, info]``: ``parent`` is the index of
the enclosing span (-1 at top level), ``case`` the case id, and ``info`` a
small result summary (points evaluated, limit that won, censor verdict...).
Spans stay in memory until :meth:`Tracer.write`.

Work behind private names (CG matvecs, polish sweeps, golden-section
iterations) is not visible from outside and is not traced here.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

from groundbound import cli, oracle, refine, search
from groundbound.systems import hydrogen, magnetic


def _points(args, result) -> int:
    return int(np.shape(args[0])[0])


def _attained(args, result) -> str:
    return result.attained


# (module, attribute, span name, info) for every wrapped entry point
ENTRY_POINTS = (
    (cli, "main", "cli.main", None),
    (cli, "envelope", "output.envelope", None),
    (cli, "render_json", "output.render_json", None),
    (cli, "render_csv", "output.render_csv", None),
    (cli, "write_text_atomic", "output.write", lambda args, result: len(args[1].encode())),
    (search, "global_min", "search.global_min", _attained),
    (search, "global_max", "search.global_max", _attained),
    (refine, "global_min", "search.global_min", _attained),
    (search, "optimize_parameters", "search.optimize", lambda args, result: len(result.probes)),
    (cli, "optimize_bump_amplitude", "refine.step", lambda args, result: result[0] != 0.0),
    (refine, "censor_guard", "refine.censor", lambda args, result: result),
    (oracle, "sturm_count_below", "oracle.sturm", None),
    (cli, "solve_1d_ground_state", "oracle.solve_1d", None),
    (cli, "solve_2d_dirichlet_ground_state", "oracle.solve_2d", None),
)

# field builders whose fields get a timed ``evaluate``
FIELD_BUILDERS = (
    (cli, "billiard_local_energy_field"),
    (cli, "magnetic_hydrogen_field"),
    (cli, "quartic_field"),
    (cli, "hydrogen_radial_field"),
    (cli, "unit_disk_field"),
    (magnetic, "magnetic_hydrogen_field"),
    (hydrogen, "hydrogen_radial_field"),
    (refine, "make_log_field"),
)


class Tracer:
    """Process-local span recorder; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.case: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def timed(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.case, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if info is not None:
                rec[5] = info(args, result)
            return result

        return wrapper

    def _builder(self, build):
        def wrapper(*args, **kwargs):
            field = build(*args, **kwargs)
            return replace(field, evaluate=self.timed("core.eval", field.evaluate, _points))

        return wrapper

    def _patch(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        for module, attr, name, info in ENTRY_POINTS:
            self._patch(module, attr, self.timed(name, getattr(module, attr), info))
        for module, attr in FIELD_BUILDERS:
            self._patch(module, attr, self._builder(getattr(module, attr)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per-layer totals of one traced pass, whose spans start at index ``first``
    of the tracer's list (``trace.*`` and ``output.doc_*`` excluded)."""
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] - first if s[3] >= 0 else -1 for s in spans]
    covered = [0.0] * len(spans)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    own = [d - c for d, c in zip(dur, covered)]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def total(*names: str) -> float:
        return sum(dur[i] for name in names for i in by_name[name])

    def under(i: int, targets: set[int]) -> bool:
        p = parent[i]
        while p >= 0:
            if p in targets:
                return True
            p = parent[p]
        return False

    evals = by_name["core.eval"]
    points = [spans[i][5] for i in evals]
    extrema = by_name["search.global_min"] + by_name["search.global_max"]
    extremum_set = set(extrema)
    steps = by_name["refine.step"]
    step_set = set(steps)
    certify = [i for i in extrema if under(i, step_set)]
    verdicts = [spans[i][5] for i in by_name["refine.censor"]]
    step_ms = [1e3 * dur[i] for i in steps]
    commits = sum(1 for i in steps if spans[i][5])
    return {
        "core.eval_calls": len(evals),
        "core.eval_points": sum(points),
        "core.eval_s": total("core.eval"),
        "core.points_per_call": sum(points) / len(evals) if evals else 0.0,
        "core.calls_b1": sum(1 for p in points if p == 1),
        "search.extremum_calls": len(extrema),
        "search.extremum_s": sum(dur[i] for i in extrema),
        "search.self_s": sum(own[i] for i in extrema),
        "search.evals_per_extremum": (
            sum(1 for i in evals if parent[i] in extremum_set) / len(extrema) if extrema else 0.0
        ),
        "search.limit_wins": sum(1 for i in extrema if spans[i][5] != "interior"),
        "search.optimize_s": total("search.optimize"),
        "search.optimize_probes": sum(spans[i][5] for i in by_name["search.optimize"]),
        "refine.steps": len(steps),
        "refine.step_s": total("refine.step"),
        "refine.step_p50_ms": float(np.percentile(step_ms, 50)) if steps else 0.0,
        "refine.step_p95_ms": float(np.percentile(step_ms, 95)) if steps else 0.0,
        "refine.certify_calls": len(certify),
        "refine.certify_s": sum(dur[i] for i in certify),
        "refine.select_s": total("refine.step") - sum(dur[i] for i in certify),
        "refine.censor_calls": len(verdicts),
        "refine.censor_clip": verdicts.count("clip"),
        "refine.censor_reject": verdicts.count("reject"),
        "refine.commits": commits,
        "refine.commit_ratio": commits / len(steps) if steps else 0.0,
        "oracle.solve_2d_s": total("oracle.solve_2d"),
        "oracle.solve_1d_s": total("oracle.solve_1d"),
        "oracle.sturm_calls": len(by_name["oracle.sturm"]),
        "oracle.sturm_s": total("oracle.sturm"),
        "output.envelope_s": total("output.envelope"),
        "output.render_s": total("output.render_json", "output.render_csv"),
        "output.write_s": total("output.write"),
        "output.bytes": sum(spans[i][5] for i in by_name["output.write"]),
        "cli.case_s": sum(own[i] for i in by_name["cli.main"]),
    }
