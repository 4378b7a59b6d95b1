"""theta-refine benchmark: cold-process workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload ref-diag --seed 1 --seconds 15 --trace 0

Paths are taken relative to this file: the engine is imported from the
``src`` directory next to ``perfbench``, and metric names and units come from
the ``BENCHMARK.json`` at the repository root.

Each repetition is a fresh interpreter (``child.py``), run one at a time,
because the engine's memos are global to the process: a second run in the
same process is warm, and ``ru_maxrss`` is a high-water mark for the whole
process.  Repetitions start until ``--seconds`` have passed (at least one).
Before them, ``SETUP_CHILDREN`` children only import the package, so that
``setup_s`` has several samples even when one repetition outlasts
``--seconds``.

With ``--trace 0`` the last line carries the end-to-end metrics; the raw
median wall time and the failed share are printed above it.  With
``--trace 1`` the same untraced loop runs, then one more child runs the
workload under the layer wrappers of ``spans.py``, and the last line carries
the per-layer metrics.  The inputs are fixed; ``--seed`` sets
``PYTHONHASHSEED`` for the children, the only input that varies.  The exit
code is non-zero, with no result line, when the package cannot be imported
or no repetition completes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_CHILDREN = 7
CHILD_TIMEOUT_S = 170
KIB_PER_MIB = 1024  # ru_maxrss is in KiB on Linux


def environment(hash_seed: str) -> dict:
    try:
        rev = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    cpu_model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu_model = models[0] if models else cpu_model
    except OSError:
        pass
    return {
        "git_rev": git_rev,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "pythonhashseed": hash_seed,
    }


def spawn(name: str, trace: bool, env: dict) -> dict | None:
    """Run one child; its record, or None after writing its stderr if it crashed."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, CHILD, name, "1" if trace else "0"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return None
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["raw_setup_s"] = record["ready"] - start
    record["setup_s"] = record["raw_setup_s"] * record["setup_speed"]
    if record.get("problems"):
        sys.stderr.write("golden check failed:\n  " + "\n  ".join(record["problems"]) + "\n")
    return record


def passed(record: dict | None) -> bool:
    return record is not None and not record["problems"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    hash_seed = str(args.seed % 2**32)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env.pop("PYTHONPATH", None)

    setups = []
    for _ in range(SETUP_CHILDREN):
        record = spawn("setup", False, env)
        if record is None:
            sys.stderr.write(f"cannot import theta_refine from {ROOT}/src\n")
            return 2
        setups.append(record)

    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < args.seconds:
        reps.append(spawn(args.workload, False, env))
    done = [r for r in reps if r is not None]
    if not done:
        sys.stderr.write("no repetition completed\n")
        return 1
    walls = [r["wall_s"] for r in done]
    wall = statistics.median(walls)
    setups += done

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(hash_seed)))
    if args.trace:
        traced = spawn(args.workload, True, env)
        reps.append(traced)
        if traced is None:
            sys.stderr.write("traced run failed\n")
            return 1
        values = dict(traced["layers"])
        values["refinement.log_gap_s"] = statistics.median(r["log_gap_s"] for r in done)
        values["trace.overhead"] = traced["wall_s"] / wall
        chosen = spec["per_layer"]
        notes = {"trace.overhead": f"traced {traced['wall_s']:.4f} s / untraced median {wall:.4f} s"}
        printed_only = []
    else:
        norm_walls = [r["norm_wall_s"] for r in done]
        values = {
            "norm_wall_s": statistics.median(norm_walls),
            "peak_rss_mb": statistics.median(r["maxrss_kib"] for r in done) / KIB_PER_MIB,
            "setup_s": statistics.median(r["setup_s"] for r in setups),
        }
        chosen = spec["end_to_end"]
        speed = statistics.median(r["speed"] for r in done)
        raw_setup = statistics.median(r["raw_setup_s"] for r in setups)
        notes = {
            "norm_wall_s": f"median of {len(done)} cold children, range {min(norm_walls):.4f}-{max(norm_walls):.4f}",
            "peak_rss_mb": f"median ru_maxrss of {len(done)} children",
            "setup_s": f"median of {len(setups)} cold imports; raw median {raw_setup:.4f} s",
            "wall_s": f"raw median, range {min(walls):.4f}-{max(walls):.4f}; host speed {speed:.3f}",
        }
        printed_only = [("wall_s", wall, "s")]
    failed = sum(not passed(r) for r in reps)
    notes["failed_frac"] = f"{failed} of {len(reps)} repetitions failed the golden check"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    for name, value, unit in rows + printed_only + [("failed_frac", failed / len(reps), "ratio")]:
        print(f"{name:34s} {value:<14.6g} {unit:6s} {notes.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
