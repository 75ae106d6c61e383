"""Set-up probe: in a fresh process, import saflip.cli and build one
workload's plan, generating the unsat-budget formulas first where needed.

Usage: python3 perfbench/probe_setup.py WORKLOAD WORK_DIR SCALE

Prints one JSON line: the seconds from before `import saflip.cli` to the
built plan, and the seconds of the import alone.  No solver runs.
"""

import json
import sys
import time

import workloads


def main():
    workload, work, scale_name = sys.argv[1:4]
    scale = {"full": workloads.FULL, "tiny": workloads.TINY}[scale_name]
    start = time.perf_counter()
    import saflip.cli

    import_s = time.perf_counter() - start
    config = workloads.write_config(workload, work, scale)
    saflip.cli.harness.ExperimentConfig.from_file(config).build_plan()
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s, "import_s": import_s}))


if __name__ == "__main__":
    main()
