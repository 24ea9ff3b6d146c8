"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is the import of what the workload drives (the package, or its
command-line module) plus the generation of the seeded input list.  The
clock starts before the input generator is imported, so the modules the
package shares with it (fractions, json, re, ...) are loaded, and counted,
inside the timed section.
"""

import os
import sys
import time


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    from workloads import generate, make

    workload = make(name)
    workload.bind()
    generate(workload, seed)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
