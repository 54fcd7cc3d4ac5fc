"""Set-up probe: import noonsteer in a fresh process and run one cold op.

    python3 bench/cold.py WORKLOAD

Exits 0 when the workload's cold op ends with its expected exit code. The
benchmark times this whole process, interpreter start-up included, because
every CLI invocation pays it.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

op = workloads.WORKLOADS[sys.argv[1]].setup()
result = workloads.execute(op)
sys.exit(0 if result.get("code", op.expect_code) == op.expect_code else 1)
