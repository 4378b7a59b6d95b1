"""Acceptance suite: one check per headline result, each printing PASS/FAIL.

Shared refinement runs come from session fixtures; every numeric target is
asserted exactly (zero tolerance) except where a documented enumeration
difference is recorded inline.
"""

import random
import time
from math import gcd


from theta_refine.fixtures import run_fixtures
from theta_refine.geometry import Cone, cones_closed_equal
from theta_refine.ksets import kset_zero_test
from theta_refine.minima import min_n
from theta_refine.quadform import IntBQF, sp_theta_coeffs
from theta_refine.refinement import run_algorithm, stop_set
from theta_refine.relations import key_lemma_decompose, nontrivial_family, verify_relation
from theta_refine.fixtures import T0_A, T1_A, T2_A, T3_A

from oracles import check_y_projection_argument, live_classes, sp_from_rep_moebius, sp_rep_number


def _report(criterion, ok, note=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}"
    if note:
        line += f": {note}"
    print(line)
    assert ok, line


def test_criterion_1_table_one_one(run_11):
    start = time.perf_counter()
    res = run_algorithm(1, 1, "diagonal", 13)
    elapsed = time.perf_counter() - start
    ok = (
        res.totals() == [1, 3, 9, 29, 58, 30, 0]
        and res.non_empty_counts() == [1, 3, 9, 16, 6, 0, 0]
        and len(res.generations) == 7
        and elapsed < 300
    )
    _report(1, ok, f"totals {res.totals()}, non-empty {res.non_empty_counts()}, {elapsed:.1f}s")


REFERENCE_TOTALS_12 = [1, 3, 11, 21, 13, 24, 16, 48, 33, 57, 27, 77, 42, 287]
REFERENCE_LIVE_12 = [1, 3, 5, 2, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3]
# The reference table skips one generation: consuming the six vectors of
# value 13 on the first factor requires two (3,0,1) steps (the value batch
# decomposes as 2*(3,0,1)), producing two consecutive generations of 16
# pairs / 1 live pair where the table prints a single one.  The run therefore
# has 15 states; deleting the duplicated column (index 7) recovers both
# reference rows exactly.
DUPLICATED_COLUMN = 7


def test_criterion_2_table_one_two(run_12):
    elapsed = sum(rec.seconds for rec in run_12.log)
    totals, live = run_12.totals(), run_12.non_empty_counts()
    mapped_totals = totals[:DUPLICATED_COLUMN] + totals[DUPLICATED_COLUMN + 1 :]
    mapped_live = live[:DUPLICATED_COLUMN] + live[DUPLICATED_COLUMN + 1 :]
    ok = (
        mapped_totals == REFERENCE_TOTALS_12
        and mapped_live == REFERENCE_LIVE_12
        and totals[DUPLICATED_COLUMN] == totals[DUPLICATED_COLUMN - 1] == 16
        and live[DUPLICATED_COLUMN] == 1
        and elapsed < 1800
    )
    _report(
        2,
        ok,
        "both reference rows recovered exactly after removing the documented "
        f"duplicate generation at index {DUPLICATED_COLUMN}; raw totals {totals}",
    )


def test_criterion_3_nontrivial_ray(run_12):
    diag = stop_set("diagonal")
    gen4 = run_12.generations[4]
    live = [
        p for p in gen4 if not p.cone.is_member_empty() and not p.cone.is_subset_of(diag)
    ]
    ok = len(live) == 1 and live[0].cone.edges() == ((1, 1, 1, 4, 4, 4, 1, 3, 0),)
    _report(3, ok, f"iteration-4 rays {[p.cone.edges() for p in live]}")


# Set sequences whose kset cones are the degenerate-cone certificates.
CERTIFICATE_SPECS = [
    (((1, 0), (0, 1), (-1, 1), (1, 1)),),
    (((1, 0),), ((0, 1), (-1, 1), (1, 1), (-2, 1))),
    (((1, 0),), ((0, 1),), ((-1, 1), (1, 1), (-2, 1), (2, 1))),
    (((1, 0),), ((0, 1),), ((-1, 1), (1, 1), (-2, 1), (-1, 2))),
]


def test_criterion_4_zero_cone_certificates():
    specs = CERTIFICATE_SPECS
    certificates = all(kset_zero_test(s) for s in specs)
    inputs_match = (
        {frozenset(s) for s in min_n((), 4)} == {frozenset(specs[0][0])}
        and {frozenset(s) for s in min_n(((1, 0),), 4)} == {frozenset(specs[1][1])}
        and {frozenset(s) for s in min_n(((1, 0), (0, 1)), 4)}
        == {frozenset(specs[2][2]), frozenset(specs[3][2])}
    )
    _report(4, certificates and inputs_match)


def test_criterion_5_short_chain_diagram():
    expected = [Cone(9, rows) for rows in (T0_A, T1_A, T2_A, T3_A)]
    diag = stop_set("diagonal")
    ok = True
    notes = []
    for a, b in ((3, 1), (1, 3)):
        res = run_algorithm(a, b, "diagonal", 13)
        if res.totals()[-1] != 0 or len(res.generations) != 5:
            ok = False
            notes.append(f"({a},{b}) totals {res.totals()}")
            continue
        for i in range(4):
            live = [p for p in res.generations[i] if not p.cone.is_member_empty()]
            chain_ok = (
                len(live) == 1
                and cones_closed_equal(live[0].cone, expected[i])
                and all(
                    len(s[-1]) == 1
                    for s in (
                        live[0].param.x_sets,
                        live[0].param.y_sets,
                        live[0].param.z_sets,
                    )
                    if i > 0
                )
            )
            if not chain_ok:
                ok = False
                notes.append(f"({a},{b}) step {i}")
            if i == 3 and not live[0].cone.is_subset_of(diag):
                ok = False
                notes.append(f"({a},{b}) final cone not inside the diagonal")
    _report(5, ok, "; ".join(notes) if notes else "chain T0->T1->T2->T3 reproduced")


def test_criterion_6_y_projection(run_10):
    live = live_classes(run_10)[-1]
    ok = check_y_projection_argument(live)
    _report(
        6,
        ok,
        f"final generation size {len(run_10.generations[-1])}, "
        f"{sum(live.values())} live",
    )


def test_criterion_7_theta_identity():
    ok = True
    for c in (1, 2, 3):
        q1, q2, q3 = nontrivial_family(c)
        verified, failing = verify_relation(q1, q2, q3, 1, 2, 10000)
        ok = ok and verified and failing is None
    negative = verify_relation(IntBQF(1, 0, 1), IntBQF(1, 0, 2), IntBQF(1, 0, 3), 1, 1, 10)
    ok = ok and negative == (False, 1)
    _report(7, ok)


def test_criterion_8_golden_fixtures():
    results = run_fixtures()
    failures = [r for r in results if not r.ok]
    _report(
        8,
        not failures,
        f"{len(results)} fixtures" + (f", failing {failures}" if failures else ""),
    )


def test_criterion_9_property_suites(run_12):
    start = time.perf_counter()
    rng = random.Random(2024)

    # partial-order axioms on the norm-12 box
    from theta_refine.minima import edge_values
    from theta_refine.quadform import is_strongly_primitive

    box = [
        (x, y)
        for x in range(-12, 13)
        for y in range(-12, 13)
        if is_strongly_primitive((x, y))
    ]
    succ = {}
    for u in box:
        eu = edge_values(u)
        succ[u] = {
            v
            for v in box
            if eu[0] <= (ev := edge_values(v))[0] and eu[1] <= ev[1] and eu[2] <= ev[2]
        }
    order_ok = all(u in succ[u] for u in box)
    for u in box:
        for v in succ[u]:
            if (u != v and u in succ[v]) or not succ[v] <= succ[u]:
                order_ok = False

    # Moebius and square-divisor-sum identities to m = 200
    moebius_ok = True
    for _ in range(4):
        while True:
            q = IntBQF(rng.randint(1, 6), rng.randint(-6, 6), rng.randint(1, 6))
            if q.is_positive_definite():
                break
        sp = sp_theta_coeffs(q, 200)
        for m in range(1, 201):
            if sp_from_rep_moebius(q, m) != sp[m] or sp[m] != sp_rep_number(q, m):
                moebius_ok = False

    # extreme rays versus the brute-force oracle on random rational cones
    from test_geometry import brute_extreme_rays, _rank

    dd_ok = True
    checked = 0
    while checked < 60:
        rows = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(3, 8))]
        cone = Cone(3, rows)
        if _rank(cone.closed) < 3:
            continue
        if cone.edges() != brute_extreme_rays(cone.closed):
            dd_ok = False
        checked += 1

    # linset decomposition completeness for a + b <= 6, entries <= 60
    key_ok = True
    for a in range(7):
        for b in range(7):
            if not 0 < a + b <= 6 or gcd(a, b) != 1:
                continue
            for x in range(61):
                for y in range(61):
                    if (a * x + b * y) % (a + b):
                        continue
                    z = (a * x + b * y) // (a + b)
                    if z <= 60 and key_lemma_decompose(a, b, (x, y, z)) is None:
                        key_ok = False

    # refinement nesting and target coverage on the shared (1, 2) run
    v = (1, 1, 1, 4, 4, 4, 1, 3, 0)
    coverage_ok = all(
        any(p.cone.member_contains(v) for p in gen) for gen in run_12.generations
    )
    parents = {}
    nesting_ok = True
    for i, gen in enumerate(run_12.generations[:7]):
        for pair in gen:
            key = (pair.param.x_sets, pair.param.y_sets, pair.param.z_sets)
            if i:
                parent = parents[(key[0][:-1], key[1][:-1], key[2][:-1])]
                if not all(parent.cone.closed_contains(r) for r in pair.cone.edges()):
                    nesting_ok = False
            parents[key] = pair

    elapsed = time.perf_counter() - start
    ok = order_ok and moebius_ok and dd_ok and key_ok and coverage_ok and nesting_ok
    ok = ok and elapsed < 600
    _report(
        9,
        ok,
        f"order={order_ok} moebius={moebius_ok} rays={dd_ok} key={key_ok} "
        f"coverage={coverage_ok} nesting={nesting_ok} in {elapsed:.1f}s",
    )
