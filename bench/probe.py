"""Set-up probe: import okv and load every job of a workload as a JobSpec.

Run in a fresh interpreter by run.py, which times it from launch until this
prints its "ready" line.  It then times the reference loop (median of three)
and prints that time, by which run.py calibrates the launch:

    python3 -I bench/probe.py <okv source dir> <jobs.json>

The jobs file is a JSON list of okv command lines.  Each is parsed by okv's
own argument parser and loaded by the CLI's own job loader.
"""

import json
import os
import sys
import time


def main() -> int:
    src, jobs = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import okv
    import okv.cli

    with open(jobs, encoding="utf-8") as handle:
        argvs = json.load(handle)
    parser = okv.cli.build_parser()
    for argv in argvs:
        if not isinstance(okv.cli._load_job(parser.parse_args(argv)), okv.JobSpec):
            return 1
    print(f"ready {len(argvs)}", flush=True)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from reference import reference_loop

    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    print(sorted(times)[1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
