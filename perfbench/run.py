"""Benchmark for the broughton package and its command line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  One caller in one
process drives a closed loop, one op at a time, no threads.

With ``--trace 0`` whole passes over the seeded input list run, as many
as fit in ``--seconds`` (at least one), and the end-to-end metrics are
printed.  Op latencies are reported in units of a reference sample taken
right before each op: the fixed, benchmark-owned Fraction kernel in
``refkernel.py`` or, for ``cli_mix`` whose ops are processes, a bare
interpreter start.  Raw wall time on a shared host drifts by tens of
percent between runs, while the ratio of op time to reference time holds
steady.  ``cli_mix`` times ops and references by the child's CPU time
(see ``clock_for``).  The reference's raw time is the per-layer metric
``host.ref_kernel_ms``.  Blind spot: a change to interpreter-wide state
(gc thresholds, say) moves the reference along with the ops and cancels
out of the ratio.  ``setup_s`` is the median of set-up probes
(``setup_probe.py``) spread over the run.  ``peak_rss_mib`` is, in
process, the peak RSS of this process, and for ``cli_mix`` the largest
peak RSS of a ``broughton`` process, as the process itself reads it at
exit (``cli_child.py``).  In process, most of it is the interpreter, the
package and the harness; the line ``ops_rss_mib`` shows how far the ops
raised it above its floor just before the first timed op.

With ``--trace 1`` one pass runs with every op executed twice, untraced
and then under the profile-hook recorder (``tracer.py``), and the per-layer
metrics are printed.  Spans go to ``.perfbench/trace-<workload>-<seed>.json``.

Every op's result is checked independently of the timed path; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from refkernel import ref_kernel
from tracer import Recorder
from workloads import ROOT, SRC, WORKLOADS, generate, inputs_digest, make

SETUP_PROBES = 9
REF_WINDOW = 4  # ref samples on each side of an op that normalize it
TRACE_DIR = ROOT / ".perfbench"


def children_cpu() -> float:
    """CPU seconds (user + system) of all waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def clock_for(workload):
    """In-process ops are timed by the wall clock.  Ops that are processes
    are timed by their CPU time: it equals their wall time to within 1% at
    the median here, but leaves out the host's scheduling delays, which
    swing a 130 ms process's wall time by +-40%."""
    return time.perf_counter if workload.in_process else children_cpu


def time_ref(workload, clock) -> float:
    """One reference sample: the kernel in this process or, for ops that
    are processes themselves, a bare interpreter start."""
    start = clock()
    if workload.in_process:
        ref_kernel()
    else:
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60, cwd=ROOT)
    return clock() - start


def setup_probe(name: str, seed: int) -> float:
    """One set-up time, measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, check=True, timeout=60, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


class SetupSampler:
    """Set-up probes spread evenly over a run.  The host switches between
    fast and slow phases lasting seconds, so probes taken back to back all
    land in one phase and their median swings by a third from run to run."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name, self.seed = name, seed
        self.spacing = seconds / SETUP_PROBES
        self.samples = []

    def maybe_probe(self, elapsed: float):
        if len(self.samples) < SETUP_PROBES and elapsed >= len(self.samples) * self.spacing:
            self.samples.append(setup_probe(self.name, self.seed))

    def median(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self.samples.append(setup_probe(self.name, self.seed))
        return statistics.median(self.samples)


def _check(workload, record, result) -> bool:
    try:
        return bool(workload.check(record, result))
    except Exception:  # a malformed result is a wrong answer, not a crash
        return False


class Tally:
    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0

    def op(self, workload, record, run):
        """Time ``run(record)``; return (seconds, result or None)."""
        self.attempted += 1
        start = self.clock()
        try:
            result = run(record)
        except Exception:
            self.failed += 1
            return self.clock() - start, None
        elapsed = self.clock() - start
        if not _check(workload, record, result):
            self.failed += 1
        return elapsed, result


def _normalized(op_seconds, refs):
    """Each op's time over the median of the ref samples around it; a ref
    sample was taken before every op and after the last."""
    out = []
    for i, seconds in enumerate(op_seconds):
        window = refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 2]
        out.append(seconds / statistics.median(window))
    return out


def _self_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(workload, records, seconds, tally, setup):
    """Whole passes, as many as fit in ``seconds`` (at least one)."""
    op_seconds, refs = [], []
    TRACE_DIR.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile("r", dir=TRACE_DIR, suffix=".rss") as rss:
        if workload.in_process:
            run = workload.run
        else:
            def run(record):
                return workload.run(record, {"PERFBENCH_RSS": rss.name})
        floor_mib = _self_peak_rss_mib()
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for record in records:
                setup.maybe_probe(time.perf_counter() - start)
                refs.append(time_ref(workload, tally.clock))
                elapsed, _ = tally.op(workload, record, run)
                op_seconds.append(elapsed)
            now = time.perf_counter()
            if 2 * now - pass_start - start > seconds:
                break
        if workload.in_process:
            peak_mib = _self_peak_rss_mib()
            print(f"ops_rss_mib {peak_mib - floor_mib} MiB (not a gated metric)")
        else:
            peak_mib = max(int(line) for line in rss) / 1024
    refs.append(time_ref(workload, tally.clock))
    ratios = _normalized(op_seconds, refs)
    return {
        "ops_per_kref": (1000 * len(ratios) / sum(ratios), "ops/kref"),
        "latency_p50_ref": (statistics.median(ratios), "ref"),
        "latency_p90_ref": (statistics.quantiles(ratios, n=10)[8], "ref"),
        "peak_rss_mib": (peak_mib, "MiB"),
        "setup_s": (setup.median(), "s"),
    }


def _anchor_labels():
    return [label for cls in WORKLOADS.values() for label in cls.anchors]


def traced_run(workload, records, seed, tally):
    recorder = Recorder()
    refs, untraced, traced = [], [], []
    interp_ms, import_ms = [], []
    anchors = {json.dumps(rec): label for label, rec in workload.anchors.items()}
    per_layer = {f"anchor.{label}.ms": 0.0 for label in _anchor_labels()}
    per_layer["anchor.zahid_30_10.gcd_calls"] = 0
    TRACE_DIR.mkdir(exist_ok=True)
    for op_id, record in enumerate(records):
        refs.append(time_ref(workload, tally.clock))
        elapsed, _ = tally.op(workload, record, workload.run)
        untraced.append(elapsed)
        gcd_before = recorder.count("unipoly.gcd_calls")
        if workload.in_process:
            elapsed, _ = tally.op(workload, record,
                                  lambda rec: recorder.run(op_id, workload.run, rec))
        else:
            with tempfile.NamedTemporaryFile(dir=TRACE_DIR, suffix=".json") as handle:
                env = {"PERFBENCH_TRACE": handle.name,
                       "PERFBENCH_SPAWN_NS": str(time.monotonic_ns())}
                elapsed, _ = tally.op(workload, record, lambda rec: workload.run(rec, env))
                child = json.load(handle)
            recorder.merge(child["trace"], op_id)
            interp_ms.append(child["interp_start_ns"] / 1e6)
            import_ms.append(child["import_ns"] / 1e6)
        traced.append(elapsed)
        label = anchors.get(json.dumps(record))
        if label:
            per_layer[f"anchor.{label}.ms"] = untraced[-1] * 1000
            if label == "zahid_30_10":
                per_layer["anchor.zahid_30_10.gcd_calls"] = (
                    recorder.count("unipoly.gcd_calls") - gcd_before)
    per_layer.update(recorder.layer_metrics())
    interp = statistics.median(interp_ms) if interp_ms else 0.0
    imported = statistics.median(import_ms) if import_ms else 0.0
    per_layer["cli.interp_start_ms"] = interp
    per_layer["cli.import_ms"] = imported
    per_layer["cli.startup_share"] = (interp + imported) / (statistics.median(untraced) * 1000)
    per_layer["host.ref_kernel_ms"] = statistics.median(refs) * 1000
    per_layer["trace.overhead_x"] = sum(traced) / sum(untraced)

    dump = recorder.dump()
    dump.update(workload=workload.name, seed=seed, inputs_sha256=inputs_digest(records))
    with open(TRACE_DIR / f"trace-{workload.name}-{seed}.json", "w") as handle:
        json.dump(dump, handle)
    return {name: (value, _unit(name)) for name, value in per_layer.items()}


def _unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("overhead_x"):
        return "x"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "broughton" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'broughton'}; "
              "run from the root of a broughton checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    workload = make(args.workload)
    workload.bind()
    import broughton
    if not os.path.realpath(broughton.__file__).startswith(os.path.realpath(SRC)):
        print(f"error: broughton imported from {broughton.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    records = generate(workload, args.seed)

    clock = clock_for(workload)
    warm = Tally(clock)
    for record in workload.warmup:
        warm.op(workload, record, workload.run)
    for _ in range(3):
        time_ref(workload, clock)

    tally = Tally(clock)
    if args.trace:
        metrics = traced_run(workload, records, args.seed, tally)
    else:
        setup = SetupSampler(args.workload, args.seed, args.seconds)
        metrics = timed_run(workload, records, args.seconds, tally, setup)
    tally.attempted += warm.attempted
    tally.failed += warm.failed

    print(f"{workload.name} seed {args.seed}: {len(records)} inputs, "
          f"sha256 {inputs_digest(records)}")
    print(f"error_rate {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted} ops failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
