"""The four fixed workloads: the calls each one times, and the golden check.

Every workload reaches the engine through module attributes looked up at
call time (``refinement.run_algorithm``, ``relations.verify_relation``), so
the wrappers that ``spans.install`` assigns see every call.  The engine is
imported inside the functions because ``run.py`` imports this module without
the engine on ``sys.path``.  Expected values come from ``golden.json``;
nothing here asks the engine under test what the right answer is.
"""

from __future__ import annotations

import json
import os
import time
from math import gcd

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# Every coprime (a, b) with a, b >= 1 and 4 <= a + b <= 11, in a fixed order.
SWEEP = tuple(
    (a, total - a) for total in range(4, 12) for a in range(1, total) if gcd(a, total - a) == 1
)
HEX_BOUND = 200_000
GEN4_INDEX = 4


def _run(a: int, b: int, stop_kind: str, max_iter: int):
    from theta_refine import refinement

    start = time.perf_counter()
    result = refinement.run_algorithm(a, b, stop_kind, max_iter, threads=1)
    return result, time.perf_counter() - start


def run_ref_q1q3():
    return [_run(1, 0, "q1_eq_q3", 13)]


def run_ref_diag():
    return [_run(1, 1, "diagonal", 13), _run(1, 2, "diagonal", 14)]


def run_sweep_ab():
    return [_run(a, b, "diagonal", 13) for a, b in SWEEP]


def run_verify_hex():
    from theta_refine import relations
    from theta_refine.quadform import IntBQF

    positive = []
    for c in (1, 2, 3):
        forms = (IntBQF(c, c, c), IntBQF(4 * c, 4 * c, 4 * c), IntBQF(c, 0, 3 * c))
        positive.append(relations.verify_relation(*forms, 1, 2, HEX_BOUND))
        positive.append(relations.verify_sp_relation(*forms, 1, 2, HEX_BOUND))
    negative = relations.verify_relation(IntBQF(1, 0, 1), IntBQF(1, 0, 2), IntBQF(1, 0, 3), 1, 1, 10)
    return positive, negative


def _table_problems(label: str, result, expected: dict) -> list[str]:
    problems = []
    if result.totals() != expected["totals"]:
        problems.append(f"{label}: totals {result.totals()} != {expected['totals']}")
    if result.non_empty_counts() != expected["live"]:
        problems.append(f"{label}: live {result.non_empty_counts()} != {expected['live']}")
    return problems


def check_ref_q1q3(out, golden) -> list[str]:
    (result, _), = out
    return _table_problems("(1,0) q1_eq_q3", result, golden)


def check_ref_diag(out, golden) -> list[str]:
    from theta_refine.refinement import stop_set

    (run11, _), (run12, _) = out
    problems = _table_problems("(1,1) diagonal", run11, golden["11"])
    problems += _table_problems("(1,2) diagonal", run12, golden["12"])
    if len(run12.generations) > GEN4_INDEX:
        diag = stop_set("diagonal")
        live = [
            p.cone.edges()
            for p in run12.generations[GEN4_INDEX]
            if not p.cone.is_member_empty() and not p.cone.is_subset_of(diag)
        ]
        if live != [(tuple(golden["12_gen4_ray"]),)]:
            problems.append(f"(1,2) generation {GEN4_INDEX}: live rays {live}")
    return problems


def check_sweep_ab(out, golden) -> list[str]:
    problems = []
    totals = {}
    for (a, b), (result, _) in zip(SWEEP, out):
        label = f"({a},{b}) diagonal"
        totals[a, b] = result.totals()
        if len(result.generations) != 5 or result.totals()[-1] != 0:
            problems.append(f"{label}: {len(result.generations)} generations, totals {result.totals()}")
        problems += _table_problems(label, result, golden[f"{a},{b}"])
    problems += [
        f"totals({a},{b}) != totals({b},{a})"
        for a, b in SWEEP
        if totals[a, b] != totals[b, a]
    ]
    return problems


def check_verify_hex(out, golden) -> list[str]:
    positive, negative = out
    problems = [f"call {i}: {r}" for i, r in enumerate(positive) if list(r) != golden["positive"]]
    if list(negative) != golden["negative"]:
        problems.append(f"negative control: {negative}")
    return problems


# name -> (calls timed in the child, golden check, layer spans that must record calls)
WORKLOADS = {
    "ref-q1q3": (run_ref_q1q3, check_ref_q1q3, ("geometry.dd", "ksets.kset")),
    "ref-diag": (run_ref_diag, check_ref_diag, ("geometry.dd", "ksets.kset")),
    "sweep-ab": (run_sweep_ab, check_sweep_ab, ("geometry.dd", "ksets.kset")),
    "verify-hex": (run_verify_hex, check_verify_hex, ("quadform.theta_coeffs",)),
}


def load_golden(name: str):
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)[name]


def log_gap(name: str, out) -> float:
    """Wall time of each ``run_algorithm`` call minus the seconds its log reports."""
    if name == "verify-hex":
        return 0.0
    return sum(seconds - sum(rec.seconds for rec in result.log) for result, seconds in out)
