"""Set-up probe: import qdilemma in a fresh interpreter and run one fixed op.

    python3 perfbench/setup_probe.py WORKLOAD TMPDIR

run.py times this process from start to exit; that wall time is setup_s.
It exits 1 if the op's output fails the workload's check.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402  (imports qdilemma)


def main(name: str, tmpdir: str) -> int:
    w = workloads.WORKLOADS[name](0, tmpdir)
    op = w.setup_op()
    if not w.check(op, w.run(op)):
        print(f"set-up op produced a wrong output: {op}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
