"""Cold-start probe for setup_s: a fresh interpreter imports symbreak.cli,
builds one workload's inputs through the library, and says "ready".

    python3 bench/coldstart.py ROOT WORKLOAD SPEC_JSON
"""

import json
import os
import sys

root, workload, spec_path = sys.argv[1:4]
sys.path.insert(0, os.path.join(root, "src"))

import symbreak.cli  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

with open(spec_path) as fh:
    WORKLOADS[workload]().prepare(json.load(fh))
sys.stdout.write("ready\n")
sys.stdout.flush()
