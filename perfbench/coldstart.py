"""Cold start of one workload, timed from outside by ``run.py``.

A fresh interpreter imports ``tristage`` and builds the families, MAP
tables, channels and CLI parser that the workload uses before its first
timed call.  Usage: ``python3 perfbench/coldstart.py <workload>`` with
``src`` on ``PYTHONPATH``.
"""

import sys

import scenarios

if __name__ == "__main__":
    scenarios.prepare(scenarios.round_ops(sys.argv[1]))
