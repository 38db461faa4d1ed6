"""Command line of the benchmark.

::

    PYTHONPATH=src python -m hostbench --seed 1 -o RESULT.json
    PYTHONPATH=src python -m hostbench --smoke
    python -m hostbench compare A.json B.json
    python -m hostbench --workload bulk_tcp --seed 1 --seconds 18 --trace 0

The first form runs every workload (timed pass, then layered pass),
prints every metric by name with its unit, and exits non-zero when an
output check fails.  The last form is what ``BENCHMARK.json`` names: one
workload, with the result object on the last line of stdout.
"""

import argparse
import json
import os
import sys

from hostbench import compare, driver
from hostbench.spec import WORKLOADS

#: Measured seconds per workload in the timed pass: three repeats of a
#: 5.5-6 s region fit, a fourth does not.
DEFAULT_SECONDS = 18


def main(argv):
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m hostbench",
        description="Host cost of the simulator, end to end and by layer.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="measured seconds per workload in the timed "
                             "pass (default %d)" % DEFAULT_SECONDS)
    parser.add_argument("-o", "--output", metavar="RESULT.json",
                        help="write the suite's result document here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repeat: proves the plumbing, "
                             "numbers are not comparable")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and print the driver's "
                             "result object as the last line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end metrics, "
                             "1 per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(driver.ROOT, "src", "repro")):
        print("hostbench: no src/repro next to %s: nothing to measure"
              % os.path.join(driver.ROOT, "hostbench"), file=sys.stderr)
        return 2
    try:
        if args.workload:
            result = driver.run_contract(args.workload, args.seed,
                                         args.seconds, args.trace)
            print(json.dumps(result))
            return 0
        document = driver.run_suite(args.seed, args.seconds, args.smoke)
    except driver.BenchmarkError as exc:
        print("hostbench: %s" % exc, file=sys.stderr)
        return 1
    driver.print_suite(document)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
    return 0 if document["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
