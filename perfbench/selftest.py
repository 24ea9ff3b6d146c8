"""Self-test of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

For each workload it makes two traced runs of one seed and checks that:

* both runs saw the same input list, the one this process generates for
  that seed, and that the next seed generates a different list;
* every count they report (calls, counters, sizes) is identical;
* the recorded span tree is well formed: each span's parent was opened
  earlier in the same op and encloses it in time;
* the spans reach every layer ``layer_map.json`` says the workload
  exercises, and the counters it says stay at zero do.

Prints one line per finding and exits 1 if any check failed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

from workloads import HERE, ROOT, SRC, WORKLOADS, generate, inputs_digest, make

LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
SEED = 7


def traced(name: str, seed: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600, cwd=ROOT)
    digest = re.search(r"sha256 ([0-9a-f]{64})", done.stdout).group(1)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    spans = json.loads((ROOT / ".perfbench" / f"trace-{name}-{seed}.json").read_text())
    return digest, result, spans


def counts(result) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] in ("count", "bits")}


def span_tree_problems(dump) -> list:
    problems = []
    spans = dump["spans"]
    for index, (layer, start, end, parent, op) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} ({layer}) ends before it starts")
        if parent < 0:
            continue
        p_layer, p_start, p_end, _, p_op = spans[parent]
        if parent >= index or p_op != op or p_start > start or end > p_end:
            problems.append(f"span {index} ({layer}) is not inside its parent {parent} ({p_layer})")
    return problems


def check(name: str, seed: int) -> list:
    failures = []
    workload = make(name)
    expected = inputs_digest(generate(workload, seed))
    if expected == inputs_digest(generate(workload, seed + 1)):
        failures.append("seeds N and N+1 generate the same inputs")
    first, second = traced(name, seed), traced(name, seed)
    for digest, result, _ in (first, second):
        if digest != expected:
            failures.append("a run saw other inputs than this process generates")
        if not result["correct"]:
            failures.append(f"{result['failed']} of {result['attempted']} ops failed")
    a, b = counts(first[1]), counts(second[1])
    for metric in sorted(a):
        if a[metric] != b[metric]:
            failures.append(f"{metric} differs between runs: {a[metric]} vs {b[metric]}")
    dump = first[2]
    failures.extend(span_tree_problems(dump)[:10])
    reached = {span[0] for span in dump["spans"]}
    reached |= {layer for layer, calls in zip(dump["layers"], dump["calls"]) if calls}
    for layer in LAYER_MAP["exercises"][name]:
        if layer not in reached:
            failures.append(f"no span reaches layer {layer}")
    for metric in LAYER_MAP["stays_zero"].get(name, ()):
        if a[metric]:
            failures.append(f"{metric} is {a[metric]}, expected 0")
    return failures


def main() -> int:
    sys.path.insert(0, str(SRC))
    failed = False
    for name in sorted(WORKLOADS):
        failures = check(name, SEED)
        failed = failed or bool(failures)
        print(f"{name}: {'ok' if not failures else 'FAILED'}")
        for failure in failures:
            print(f"  {failure}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
