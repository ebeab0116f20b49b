"""Child process of set-up: import the program and build one workload's
objects up to its first trial, then exit.

    python3 perfbench/ready.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].ready(int(sys.argv[2]))
