"""Set-up probe: a fresh interpreter imports dustmie and makes one op.

    python3 perfbench/probe.py <workload> '<op as JSON>'

run.py times this whole process from outside, so setup_s covers interpreter
start, ``import dustmie`` and the first op, as a CLI user pays them.
"""
import json
import sys

import workloads as wl


def main() -> None:
    workload, op = sys.argv[1], json.loads(sys.argv[2])
    wl.prepare(workload, op, wl.load_program())()


if __name__ == "__main__":
    main()
