"""Harness self-checks.

    python3 bench/selfcheck.py [workload ...]

1. Replaying the golden documents of the ``bounds`` and ``refine`` workloads
   through the checker passes with zero deviation, and every known-wrong
   variant of them (a moved certified number, a changed string, a changed
   integer, a decreasing refine history) counts as a failure.  A 1e-12 float
   perturbation passes but shows as ``doc_max_dev`` and a changed document.
2. For each named workload (default: all), one traced pass writes documents
   byte-identical to one untraced pass: tracing observes and must not alter.
"""

from __future__ import annotations

import bootstrap

bootstrap.prepare()

import copy  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import cases  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _write(path: str, fmt: str, doc) -> None:
    with open(path, "w", newline="") as handle:
        if fmt == "json":
            json.dump(doc, handle)
            return
        writer = csv.writer(handle)
        writer.writerow(doc["header"])
        writer.writerows([repr(c) if isinstance(c, float) else c for c in row] for row in doc["rows"])


def _replay(workload: str, out_dir: str, mutate=None) -> dict:
    """check_outputs over the golden documents, one of them optionally mutated."""
    gold = golden.load(workload, 0)
    p = run.Pass(0, out_dir)
    for case in cases.WORKLOADS[workload]:
        doc = copy.deepcopy(gold[case.id]["doc"])
        if mutate is not None and mutate[0] == case.id:
            mutate[1](doc)
        _write(run.out_path(out_dir, case), case.fmt, doc)
        p.codes[case.id] = gold[case.id]["exit"]
    return run.check_outputs(workload, [p])


def _set(keys, value):
    def mutate(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value(node[keys[-1]])
    return mutate


WRONG = {
    "moved certified number": ("bounds", "bounds-billiard", _set(("result", "lower"), lambda v: v + 0.5)),
    "changed string": ("bounds", "bounds-quartic", _set(("system", "name"), lambda v: "quartic2")),
    "changed integer": ("refine", "refine-quartic", _set(("rows", 5, 0), lambda v: v + 1)),
    "decreasing history": ("refine", "refine-quartic", _set(("rows", -1, 3), lambda v: v - 0.05)),
    "wrong sweep upper": ("bounds", "sweep-magnetic-B", _set(("rows", 2, 3), lambda v: v + 1e-3)),
}


def check_replays(out_dir: str) -> list[str]:
    problems = []
    for workload in ("bounds", "refine"):
        clean = _replay(workload, out_dir)
        if clean["failed"] or clean["doc_max_dev"] or clean["doc_changed"]:
            problems.append(f"golden replay of {workload} does not pass cleanly: {clean['failures']}")
    for label, (workload, case_id, mutate) in WRONG.items():
        if _replay(workload, out_dir, (case_id, mutate))["failed"] == 0:
            problems.append(f"known-wrong document ({label}) was not counted as a failure")
    tiny = _replay("bounds", out_dir, ("bounds-quartic", _set(("result", "upper"), lambda v: v + 1e-12)))
    if tiny["failed"] or not 0 < tiny["doc_max_dev"] < 1e-11 or tiny["doc_changed"] != 1:
        problems.append(f"1e-12 perturbation misreported: {tiny['doc_max_dev']!r}, {tiny['doc_changed']}")
    return problems


def check_trace_identity(workload: str, out_dir: str) -> list[str]:
    plain = run.run_pass(workload, 0, os.path.join(out_dir, "plain"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.run_pass(workload, 0, os.path.join(out_dir, "traced"), tracer)
    finally:
        tracer.uninstall()
    problems = [f"{workload}/{c}: {e}" for c, e in {**plain.errors, **traced.errors}.items()]
    for case_id, digest in plain.digests.items():
        if digest is None or traced.digests[case_id] != digest:
            problems.append(f"{workload}/{case_id}: traced document differs from untraced")
    if not tracer.spans:
        problems.append(f"{workload}: traced pass recorded no spans")
    return problems


def main(argv: list[str]) -> int:
    out_dir = os.path.join(bootstrap.OUT_DIR, f"selfcheck-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        problems = check_replays(out_dir)
        for workload in argv or list(cases.WORKLOADS):
            problems += check_trace_identity(workload, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
