"""Fresh-interpreter probe: import time of the CLI and the first placebo test.

Run as ``python3 cold_probe.py '<json list of estimates>' <q1>`` with the
package on PYTHONPATH. Nothing but the standard library is imported before
the timed import, so the time is what a user's ``fewclusters`` command pays.
Prints one JSON object with the timings and the test result.
"""

import json
import sys
import time

t0 = time.perf_counter()
import fewclusters.cli  # noqa: E402,F401

t1 = time.perf_counter()

import numpy as np  # noqa: E402
from fewclusters import ClusterLayout, EstimateVector, TestConfig, run_placebo_test  # noqa: E402

values = json.loads(sys.argv[1])
q1 = int(sys.argv[2])
x = EstimateVector(np.array(values, dtype=float), ClusterLayout(q1=q1, q0=len(values) - q1))
t2 = time.perf_counter()
result = run_placebo_test(x, TestConfig())
t3 = time.perf_counter()
print(
    json.dumps(
        {
            "import_ms": (t1 - t0) * 1e3,
            "cold_test_ms": (t3 - t2) * 1e3,
            "p_value": result.p_value,
            "reject": result.reject,
            "n_assignments": result.n_assignments,
        }
    )
)
