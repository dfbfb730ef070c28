"""Record the golden documents of the current source tree.

Run from the checkout root at the commit whose documents are the reference:

    python3 bench/make_golden.py [workload ...]

Each case runs once per seed of ``cases.golden_seeds`` (seed-free workloads
at seeds 0 and 1, which must agree), must pass its acceptance check, and is
stored under ``bench/golden/<workload>/``.  Order matters:
``refine`` and ``field`` checks read the ``oracle`` and ``bounds`` goldens.
"""

from __future__ import annotations

import bootstrap

bootstrap.prepare()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import cases  # noqa: E402
import checks  # noqa: E402
import golden  # noqa: E402

ORDER = ("oracle", "bounds", "refine", "field")


def record(workload: str, wseed: int) -> dict:
    out_dir = os.path.join(bootstrap.OUT_DIR, "golden")
    os.makedirs(out_dir, exist_ok=True)
    entries = {}
    for case in cases.WORKLOADS[workload]:
        path = os.path.join(out_dir, f"{case.id}.{case.fmt}")
        code, seconds, err = cases.run_case(case, path, wseed)
        doc = cases.parse_doc(path, case.fmt)
        fails = checks.check_case(case.id, doc, code)
        print(f"{workload} seed {wseed:2d} {case.id:26s} exit {code} {seconds:7.3f} s", file=sys.stderr)
        if fails:
            raise SystemExit(f"{case.id} at seed {wseed} fails its check: {fails} {err}")
        entries[case.id] = golden.entry(doc, code)
        os.unlink(path)
    return entries


def write(workload: str, wseed: int | None, entries: dict) -> None:
    path = golden.golden_path(workload, 0 if wseed is None else wseed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": wseed, "cases": entries}, handle, sort_keys=True)
        handle.write("\n")


def main(argv: list[str]) -> int:
    for workload in [w for w in ORDER if w in argv] or ORDER:
        recorded = {wseed: record(workload, wseed) for wseed in cases.golden_seeds(workload)}
        if workload in cases.SEED_FREE:
            digests = [{k: v["digest"] for k, v in e.items()} for e in recorded.values()]
            if any(d != digests[0] for d in digests):
                raise SystemExit(f"{workload} documents depend on the seed")
        if not cases.seeded(workload):
            recorded = {None: recorded[cases.golden_seeds(workload)[0]]}
        for wseed, entries in recorded.items():
            write(workload, wseed, entries)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
