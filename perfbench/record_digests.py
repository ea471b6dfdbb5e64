"""Record the sha256 of every default-seed job's output in digests.json.

    python3 perfbench/record_digests.py

Run it only when a change to the program's output is intended; the
benchmark then holds every later commit to these bytes.  Each job must pass
the gate and the cross-checks before its digest is recorded.
"""

import json
import sys

import run
from gate import check_output, cross_check, load_oracles, load_validators
from workloads import WORKLOADS


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    validators = load_validators(run.ROOT / "schemas")
    oracles = load_oracles(run.ROOT)
    recorded = {}
    for workload in WORKLOADS:
        _, cli, jobs = run.set_up(workload, run.DEFAULT_SEED)
        entries = []
        for job in jobs:
            code, text = run.run_job(cli, job)
            problems = (check_output(job, code, text, validators)
                        or cross_check(oracles, job, text))
            if problems:
                print(f"{' '.join(job.argv)}: {problems}", file=sys.stderr)
                return 1
            entries.append({"argv": job.argv, "sha256": run.sha256(text)})
        recorded[workload] = entries
    run.DIGESTS.write_text(json.dumps(
        {"seed": run.DEFAULT_SEED, "machine": run.machine(),
         "workloads": recorded}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
