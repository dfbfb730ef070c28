"""groundbound benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload {bounds,refine,oracle,field} --seed N \
        --seconds S --trace {0,1}

Run from the checkout root.  Each case starts after the previous one returns;
no threads or processes are added while timing.  A pass is the workload's
whole case list; passes repeat while another one fits in ``--seconds``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` (median of fresh-process start-ups through importing groundbound
and building the case list), ``peak_rss_mb``, ``pass_frac``,
``refine_lower`` and ``oracle_err_bar``.  ``--trace 1`` spends half the
budget untraced and half traced, then prints the per-layer metrics.  The
last line of stdout is the JSON result.  The first pass at each workload seed
is checked against its acceptance numbers and its seed-commit golden copy;
later passes at that seed must write the same bytes.
"""

from __future__ import annotations

import bootstrap

bootstrap.prepare()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from groundbound.output import from_jsonable  # noqa: E402

import cases  # noqa: E402

SETUP_PROBES = 7


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@dataclass
class Pass:
    wseed: int
    out_dir: str
    seconds: float = 0.0
    codes: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)  # case id -> message
    digests: dict = field(default_factory=dict)  # case id -> sha256 of the written bytes
    spans: tuple[int, int] = (0, 0)  # index range of this pass's spans


def _file_digest(path: str) -> str | None:
    try:
        with open(path, "rb") as handle:
            return hashlib.file_digest(handle, "sha256").hexdigest()
    except OSError:
        return None


def out_path(out_dir: str, case: cases.Case) -> str:
    return os.path.join(out_dir, f"{case.id}.{case.fmt}")


def run_pass(workload: str, wseed: int, out_dir: str, tracer=None) -> Pass:
    """The workload's case list once, in order, writing documents to ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    p = Pass(wseed, out_dir)
    if tracer is not None:
        first = len(tracer.spans)
    for case in cases.WORKLOADS[workload]:
        if tracer is not None:
            tracer.case = case.id
        try:
            code, seconds, err = cases.run_case(case, out_path(out_dir, case), wseed)
        except Exception:  # a failing case is counted, and the loop goes on
            p.errors[case.id] = traceback.format_exc(limit=3)
            continue
        p.seconds += seconds
        p.codes[case.id] = code
        if code not in (0, 3):
            p.errors[case.id] = f"exit {code}: {err.strip()}"
    if tracer is not None:
        p.spans = (first, len(tracer.spans))
    for case in cases.WORKLOADS[workload]:
        p.digests[case.id] = _file_digest(out_path(out_dir, case))
    return p


def run_passes(workload: str, seed: int, out_dir: str, budget_s: float, label: str,
               tracer=None) -> list[Pass]:
    """At least one pass; more while the next one is expected to fit the budget."""
    started = time.perf_counter()
    passes: list[Pass] = []
    while not passes or time.perf_counter() - started + passes[-1].seconds <= budget_s:
        i = len(passes)
        passes.append(run_pass(workload, cases.pass_seed(workload, seed, i),
                               os.path.join(out_dir, f"{label}-{i}"), tracer))
    return passes


def _check_pass(workload: str, p: Pass) -> tuple[dict, float, int]:
    """Acceptance and golden checks of one pass's documents."""
    import checks
    import golden

    gold = golden.load(workload, p.wseed)
    failures, max_dev, changed = {}, 0.0, 0
    for case in cases.WORKLOADS[workload]:
        if case.id in p.errors:
            failures[case.id] = [p.errors[case.id]]
            continue
        try:
            doc = cases.parse_doc(out_path(p.out_dir, case), case.fmt)
            problems = checks.check_case(case.id, doc, p.codes[case.id])
            dev, differs = golden.compare(doc, p.codes[case.id], gold[case.id])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            max_dev, changed = max(max_dev, dev), changed + differs
        if problems:
            failures[case.id] = problems
    return failures, max_dev, changed


def check_outputs(workload: str, passes: list[Pass]) -> dict:
    """Check every pass.  The first pass at each workload seed is parsed and
    checked in full; later passes at that seed must match it byte for byte
    (this is also how a traced pass is held to its untraced twin)."""
    failures: dict[str, list[str]] = {}
    max_dev, changed, failed = 0.0, 0, 0
    reference: dict[int, Pass] = {}
    for p in passes:
        ref = reference.get(p.wseed)
        if ref is None:
            reference[p.wseed] = p
            found, dev, differs = _check_pass(workload, p)
            max_dev, changed = max(max_dev, dev), max(changed, differs)
        else:
            found = {c: [f"bytes differ from the earlier pass at seed {p.wseed}"]
                     for c, d in p.digests.items() if d is None or d != ref.digests[c]}
            found.update({c: [e] for c, e in p.errors.items()})
        failed += len(found)
        for case_id, problems in found.items():
            failures.setdefault(case_id, []).extend(problems)
    return {
        "attempted": len(passes) * len(cases.WORKLOADS[workload]),
        "failed": failed,
        "failures": failures,
        "doc_max_dev": max_dev,
        "doc_changed": changed,
    }


def _certified_doc(workload: str, first: Pass, case_id: str, golden_workload: str):
    """The run's own document for ``case_id`` when the workload runs it and it
    parses, else the seed commit's (a workload that never runs the case
    cannot move the number)."""
    import golden

    case = next((c for c in cases.WORKLOADS[workload] if c.id == case_id), None)
    if case is not None and case_id not in first.errors:
        try:
            return cases.parse_doc(out_path(first.out_dir, case), case.fmt)
        except (OSError, ValueError):
            pass  # already counted as a failure by check_outputs
    return golden.load(golden_workload, first.wseed)[case_id]["doc"]


def certified_numbers(workload: str, first: Pass) -> tuple[float, float]:
    """refine_lower and oracle_err_bar at the run's own seed (its first pass)."""
    refine_doc = _certified_doc(workload, first, "refine-quartic", "refine")
    oracle_doc = _certified_doc(workload, first, "oracle-billiard", "oracle")
    return refine_doc["rows"][-1][3], from_jsonable(oracle_doc["result"])["error_bar"]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh interpreters, each timed until it reports its inputs ready."""
    times = []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        times.append(elapsed)
    return times


def _report(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = args.workload
    if args.setup_probe:  # groundbound is imported and the case list built
        print("ready", flush=True)
        return 0

    import envinfo

    print("env " + json.dumps(envinfo.environment(), sort_keys=True))
    print(f"workload {workload}: {len(cases.WORKLOADS[workload])} cases, seed {args.seed}, "
          f"budget {args.seconds} s, trace {args.trace}")
    out_dir = os.path.join(bootstrap.OUT_DIR, f"run-{os.getpid()}")
    try:
        if args.trace:
            result = traced_run(workload, out_dir, args)
        else:
            result = untraced_run(workload, out_dir, args)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result, allow_nan=False))
    return 0


def _summary(passes: list[Pass], label: str) -> None:
    times = ", ".join(f"{p.seconds:.3f} (seed {p.wseed})" for p in passes)
    print(f"{label}: {len(passes)} passes: {times} s")


def _result(workload: str, checked: dict, metrics: dict, units: dict) -> dict:
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(metrics.keys() ^ units.keys())}")
    for case_id, problems in checked["failures"].items():
        print(f"FAIL {workload}/{case_id}: {' | '.join(problems)}")
    _report(metrics, units)
    return {
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def untraced_run(workload: str, out_dir: str, args) -> dict:
    setup = measure_setup(workload, args.seed)
    passes = run_passes(workload, args.seed, out_dir, args.seconds, "pass")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checked = check_outputs(workload, passes)
    _summary(passes, "untraced")
    print("setup probes: " + ", ".join(f"{t:.3f}" for t in setup) + " s")
    refine_lower, err_bar = certified_numbers(workload, passes[0])
    metrics = {
        "wall_s": statistics.median(p.seconds for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kib / 1024.0,
        "pass_frac": 1.0 - checked["failed"] / checked["attempted"],
        "refine_lower": refine_lower,
        "oracle_err_bar": err_bar,
    }
    return _result(workload, checked, metrics, metric_units("end_to_end"))


def traced_run(workload: str, out_dir: str, args) -> dict:
    """Half the budget untraced, half traced over the same pass seeds."""
    import microbench
    import spans

    plain = run_passes(workload, args.seed, out_dir, args.seconds / 2, "plain")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, args.seed, out_dir, args.seconds / 2, "traced", tracer)
    finally:
        tracer.uninstall()
    checked = check_outputs(workload, plain + traced)
    _summary(plain, "untraced")
    _summary(traced, "traced")
    per_pass = [spans.layer_metrics(tracer.spans[p.spans[0]:p.spans[1]], p.spans[0]) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["output.doc_max_dev"] = min(checked["doc_max_dev"], sys.float_info.max)  # JSON has no inf
    metrics["output.doc_changed"] = checked["doc_changed"]
    # pair passes at equal seeds, so seed-dependent work cancels
    metrics["trace.overhead_s"] = statistics.median(t.seconds - u.seconds for t, u in zip(traced, plain))
    metrics.update(microbench.ns_per_point(plain[0].wseed))
    trace_path = os.path.join(bootstrap.OUT_DIR, f"trace-{workload}-seed{args.seed}.jsonl.gz")
    tracer.write(trace_path)
    print(f"trace: {len(tracer.spans)} spans written to {os.path.relpath(trace_path, bootstrap.ROOT)}")
    return _result(workload, checked, metrics, metric_units("per_layer"))


if __name__ == "__main__":
    raise SystemExit(main())
