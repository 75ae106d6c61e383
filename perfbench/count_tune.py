"""Run `saflip tune ...` and write the Flip calls its solver runs made, plain
and weighted by the number of variables of each run's formula.

Usage: python3 perfbench/count_tune.py COUNT_JSON tune --config ... [args]

`saflip tune` keeps no journal, so this wrapper wraps the SA solver where
tune can reach it: the module attribute `saflip.cli.run_sa_flip` and the
entry `saflip.harness.ALGORITHMS["sa"]`.  Each wrapper calls the original
and adds `RunOutcome.flip_calls` to a total.  It reads no clock, so the timed
call costs one extra Python call per solver run.  The run fails only when
neither target exists.
"""

import json
import sys
from pathlib import Path

import saflip.cli as cli
import saflip.harness as harness


def main():
    count_path, argv = Path(sys.argv[1]), sys.argv[2:]
    totals = {"flip_calls": 0, "flip_call_vars": 0, "runs": 0}

    def counting(solver):
        def counted(formula, params):
            outcome = solver(formula, params)
            totals["flip_calls"] += outcome.flip_calls
            totals["flip_call_vars"] += outcome.flip_calls * formula.num_vars
            totals["runs"] += 1
            return outcome

        return counted

    wrapped = False
    if hasattr(cli, "run_sa_flip"):
        cli.run_sa_flip = counting(cli.run_sa_flip)
        wrapped = True
    algorithms = getattr(harness, "ALGORITHMS", None)
    if isinstance(algorithms, dict) and "sa" in algorithms:
        algorithms["sa"] = counting(algorithms["sa"])
        wrapped = True
    if not wrapped:
        print("neither saflip.cli.run_sa_flip nor saflip.harness.ALGORITHMS['sa'] "
              "exists; tune Flip calls cannot be counted", file=sys.stderr)
        return 3
    code = cli.main(argv)
    count_path.write_text(json.dumps(totals) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
