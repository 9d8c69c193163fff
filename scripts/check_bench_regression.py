#!/usr/bin/env python3
"""Gate a fresh benchmark run against its committed BENCH_*.json baseline.

Usage:
    check_bench_regression.py presolve   BENCH_presolve.json   <fresh-output>
    check_bench_regression.py parametric BENCH_parametric.json <fresh-output>

<fresh-output> is the captured stdout of the corresponding bench binary
(human table + JSON lines mixed); the checker extracts every line that
parses as a JSON object.

Two kinds of gates:
  - deterministic fields (bounds, pivot counts, piece counts,
    bit-identity flags) must match the baseline exactly — any drift is a
    solver/engine change that needs a deliberate baseline update;
  - wall-clock fields only gate at a generous multiple (x25) of the
    baseline, because CI machines are slow and noisy.  They catch
    order-of-magnitude regressions, not percent-level ones.

Exits 0 when every gate passes, 1 with one line per violation.
"""

import json
import sys

WALL_CLOCK_TOLERANCE = 25.0
PARAMETRIC_MIN_SPEEDUP = 10.0

failures = []


def fail(message):
    failures.append(message)


def check_eq(name, fresh, baseline):
    if fresh != baseline:
        fail(f"{name}: expected {baseline!r}, got {fresh!r}")


def check_wall(name, fresh, baseline):
    limit = max(baseline, 1) * WALL_CLOCK_TOLERANCE
    if fresh > limit:
        fail(f"{name}: {fresh} us exceeds x{WALL_CLOCK_TOLERANCE:g} "
             f"baseline ({baseline} us, limit {limit:.0f} us)")


def extract_json_objects(path):
    """Every line of `path` that parses as a JSON object."""
    objects = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(doc, dict):
                objects.append(doc)
    return objects


def check_presolve(baseline, fresh_objects):
    fresh = {doc["name"]: doc for doc in fresh_objects
             if doc.get("bench") == "presolve" and "name" in doc}
    if not fresh:
        fail("presolve: no per-benchmark JSON lines in the fresh output")
        return
    for base in baseline["benchmarks"]:
        name = base["name"]
        doc = fresh.get(name)
        if doc is None:
            fail(f"presolve/{name}: missing from the fresh run")
            continue
        check_eq(f"presolve/{name}.boundsIdentical",
                 doc.get("boundsIdentical"), True)
        check_eq(f"presolve/{name}.bound", doc.get("bound"), base["bound"])
        check_eq(f"presolve/{name}.constraintSets",
                 doc.get("constraintSets"), base["constraintSets"])
        for side in ("on", "off"):
            for field in ("simplexPivots", "ilpPivots", "probePivots",
                          "lpCalls", "rowsRemoved",
                          "colsFixed", "substitutions", "rounds"):
                check_eq(f"presolve/{name}.{side}.{field}",
                         doc[side].get(field), base[side][field])
            check_wall(f"presolve/{name}.{side}.wallMicros",
                       doc[side].get("wallMicros", 0),
                       base[side]["wallMicros"])
        if doc["on"]["simplexPivots"] > doc["off"]["simplexPivots"]:
            fail(f"presolve/{name}: presolve-on took more pivots "
                 f"({doc['on']['simplexPivots']}) than presolve-off "
                 f"({doc['off']['simplexPivots']})")
    extra = set(fresh) - {b["name"] for b in baseline["benchmarks"]}
    for name in sorted(extra):
        fail(f"presolve/{name}: present in the fresh run but not the "
             f"baseline — update BENCH_presolve.json deliberately")


def check_parametric(baseline, fresh_objects):
    docs = [doc for doc in fresh_objects if doc.get("bench") == "parametric"]
    if len(docs) != 1:
        fail(f"parametric: expected exactly one parametric JSON document "
             f"in the fresh output, found {len(docs)}")
        return
    doc = docs[0]
    fresh = {p["name"]: p for p in doc.get("programs", [])}
    for base in baseline["programs"]:
        name = base["name"]
        program = fresh.get(name)
        if program is None:
            fail(f"parametric/{name}: missing from the fresh run")
            continue
        for field in ("points", "pieces", "directSolves"):
            check_eq(f"parametric/{name}.{field}", program.get(field),
                     base[field])
        check_eq(f"parametric/{name}.boundsIdentical",
                 program.get("boundsIdentical"), True)
        speedup = program.get("speedup", 0.0)
        if speedup < PARAMETRIC_MIN_SPEEDUP:
            fail(f"parametric/{name}.speedup: {speedup:.1f}x is below the "
                 f"{PARAMETRIC_MIN_SPEEDUP:g}x floor")
    min_speedup = doc.get("minSpeedup", 0.0)
    if min_speedup < PARAMETRIC_MIN_SPEEDUP:
        fail(f"parametric.minSpeedup: {min_speedup:.1f}x is below the "
             f"{PARAMETRIC_MIN_SPEEDUP:g}x floor")


CHECKERS = {
    "presolve": check_presolve,
    "parametric": check_parametric,
}


def main(argv):
    if len(argv) != 4 or argv[1] not in CHECKERS:
        sys.stderr.write(__doc__)
        return 2
    kind, baseline_path, fresh_path = argv[1], argv[2], argv[3]
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    fresh_objects = extract_json_objects(fresh_path)
    CHECKERS[kind](baseline, fresh_objects)
    if failures:
        for message in failures:
            print(f"REGRESSION {message}", file=sys.stderr)
        print(f"{kind}: {len(failures)} gate(s) failed against "
              f"{baseline_path}", file=sys.stderr)
        return 1
    print(f"{kind}: all gates passed against {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
