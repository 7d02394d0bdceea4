"""One workload execution in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE

Runs in the execution's own working directory: prepares the workload's
inputs there, times the execution (under the tracer when TRACE is 1),
applies the correctness gate and writes result.json; a traced execution
also writes spans.npz.  The calibration kernel of calibrate.py runs at
intervals during an untraced execution, measures the host's speed
meanwhile, and its time is taken out of the execution's wall time.
`run.py` starts one child per execution, so peak memory is per execution.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path

import workloads
from calibrate import Calibrator
from tracer import Tracer


def main(argv) -> int:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    prepare, gate = workloads.WORKLOADS[name]
    execute = prepare(seed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()

    # The traced execution gets no interleaved rounds, which would land in
    # its spans; its calibration rounds run after it.
    with Calibrator(interleave=not trace) as cal:
        try:
            result = tracer.root(execute) if tracer else execute()
            raised = None
        except Exception:  # reported as a failed operation, not lost
            raised = traceback.format_exc()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.uninstall()
    if raised:
        items, fingerprint = [("execution completed", False, raised)], {}
    else:
        items, fingerprint = gate(seed, result)
    payload = {
        "wall_s": cal.wall_s,
        "calibration_s": cal.calibration_s,
        "peak_rss_mb": peak_rss_mb,
        "items": items,
        "fingerprint": fingerprint,
    }
    if tracer:
        tracer.save("spans.npz")
        payload["counts"] = tracer.counts
        payload["rebound"] = tracer.rebound
    Path("result.json").write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
