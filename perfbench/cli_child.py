"""Bootstrap for one ``broughton`` command-line process.

    python3 perfbench/cli_child.py <broughton arguments>

behaves like the installed ``broughton`` script.  When the environment
names a trace file in PERFBENCH_TRACE, the profile-hook recorder is
installed after the import and the child writes its spans, counters and
start-up timings there (stdout and the exit code are unchanged).
PERFBENCH_SPAWN_NS carries the parent's monotonic clock at spawn, so the
interpreter start-up time can be read off the same clock.  When the
environment names a file in PERFBENCH_RSS, the child appends its peak RSS
in KiB to it at exit.
"""

import atexit
import os
import sys
import time

START_NS = time.monotonic_ns()


def append_peak_rss(path: str) -> None:
    """Append this process's VmHWM in KiB.  Unlike ru_maxrss, which keeps
    the high-water mark of the parent's memory that the child was forked
    from, VmHWM covers only the memory mapped since exec."""
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "a") as out:
        out.write(peak + "\n")


def main() -> int:
    rss_path = os.environ.get("PERFBENCH_RSS")
    if rss_path:
        atexit.register(append_peak_rss, rss_path)
    trace_path = os.environ.get("PERFBENCH_TRACE")
    import_start = time.monotonic_ns()
    from broughton.cli import main as cli_main
    import_end = time.monotonic_ns()
    if not trace_path:
        return cli_main(sys.argv[1:])

    import json
    from tracer import Recorder

    recorder = Recorder()
    try:
        code = recorder.run(0, cli_main, sys.argv[1:])
    except SystemExit as stop:  # argparse rejects the arguments
        code = stop.code
    sys.stdout.flush()
    with open(trace_path, "w") as handle:
        json.dump({
            "interp_start_ns": START_NS - int(os.environ["PERFBENCH_SPAWN_NS"]),
            "import_ns": import_end - import_start,
            "trace": recorder.dump(),
        }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
