"""One cold repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD TRACE

WORKLOAD is a name from ``workloads.WORKLOADS``, or ``setup`` to import the
package and exit.  TRACE is 0 or 1.  The child prints one JSON line holding:

- ``ready``: the ``time.perf_counter()`` reading when ``import theta_refine``
  returned.  The parent subtracts its own reading, taken before the spawn;
  both clocks are CLOCK_MONOTONIC on Linux.  ``setup_speed`` is the host
  speed measured by ``probe.spot_speed`` right after the import.
- ``wall_s``: the wall time of the workload's calls.  With TRACE 0 the calls
  run under ``probe.Probe``; the probe's own time is removed, and
  ``speed`` and ``norm_wall_s`` are added.
- ``maxrss_kib``, ``log_gap_s`` and the golden check's ``problems``.
- With TRACE 1, ``layers``: the per-layer metrics, taken before the golden
  check runs.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import theta_refine  # noqa: E402

ready = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def main(name: str, trace: bool) -> dict:
    if not theta_refine.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"theta_refine imported from {theta_refine.__file__}, not from {SRC}")
    record = {"ready": ready, "setup_speed": probe.spot_speed()}
    if name == "setup":
        return record
    run, check, required = workloads.WORKLOADS[name]
    tracer = None
    if trace:
        tracer = spans.install()
        start = time.perf_counter()
        out = run()
        wall = time.perf_counter() - start
    else:
        with probe.Probe() as host:
            start = time.perf_counter()
            out = run()
            wall = time.perf_counter() - start
        wall -= host.in_region_s()
        record["speed"] = host.speed()
        record["norm_wall_s"] = wall * record["speed"]
    record["wall_s"] = wall
    record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["log_gap_s"] = workloads.log_gap(name, out)
    problems = []
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer, wall)
        problems += [f"traced run recorded no call to {span}" for span in required if not tracer.calls[span]]
    problems += check(out, workloads.load_golden(name))
    record["problems"] = problems
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2] == "1")))
