"""Record the expected exit code and report digest of every plan.

    python3 benchmark/record.py [WORKLOAD ...]

Plans every input of every seed in ``workloads.SEED_SPACE`` once, checks
each plan with the independent checker, and writes
``benchmark/expected/<workload>.json``.  The files hold the outputs of the
commit they were recorded at; the benchmark counts every later mismatch
as a failed plan.
"""
import shutil
import subprocess
import sys

from run import HERE, WORKLOADS, worker_env


def main(names) -> int:
    (HERE / "expected").mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        work = HERE.parent / ".bench_work" / f"record-{name}"
        work.mkdir(parents=True, exist_ok=True)
        code = subprocess.call(
            [sys.executable, str(HERE / "worker.py"), "--mode", "record", "--workload", name,
             "--work", str(work), "--out", str(HERE / "expected" / f"{name}.json")],
            env=worker_env(),
        )
        shutil.rmtree(work, ignore_errors=True)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
