"""Partial order and minimal-subset machinery, with box-enumeration oracles."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from theta_refine.minima import (
    edge_values,
    is_successive_minima_prefix,
    min_complement,
    min_n,
    min_of_finite,
    preceq,
)
from theta_refine.quadform import BQF, is_strongly_primitive

BOX12 = [
    (x, y)
    for x in range(-12, 13)
    for y in range(-12, 13)
    if is_strongly_primitive((x, y))
]


def test_preceq_examples():
    assert preceq((1, 0), (0, 1))
    assert not preceq((0, 1), (1, 0))
    assert preceq((3, -4), (3, -4))


def test_min_of_finite_examples():
    assert min_of_finite([(-1, 1), (0, 1), (1, 0), (1, 1)]) == ((1, 0),)
    assert min_of_finite([(5, 7)]) == ((5, 7),)
    assert min_of_finite([(2, 1), (-1, 2)]) == ((-1, 2), (2, 1))


def test_min_complement_examples():
    assert min_complement() == ((1, 0),)
    assert min_complement([(1, 0)]) == ((0, 1),)
    assert min_complement([(1, 0), (0, 1), (-1, 1), (1, 1), (-2, 1)]) == ((-1, 2), (2, 1))
    with pytest.raises(ValueError):
        min_complement([(2, 2)])


def test_min_complement_against_big_box():
    rng = random.Random(7)
    pool = [v for v in BOX12 if max(abs(v[0]), abs(v[1])) <= 5]
    for _ in range(25):
        excluded = frozenset(rng.sample(pool, rng.randint(0, 12)))
        computed = min_complement(excluded)
        # Oracle: minimal elements of a large box.  Any vector dominating an
        # element of the small box has squared norm at most 2 * 12^2, so the
        # radius-24 box already contains every potential dominator.
        big = [v for x in range(-24, 25) for y in range(-24, 25)
               if is_strongly_primitive(v := (x, y)) and v not in excluded]
        oracle = min_of_finite(big)
        inner = tuple(v for v in oracle if max(abs(v[0]), abs(v[1])) <= 12)
        assert computed == inner
        assert all(max(abs(v[0]), abs(v[1])) <= 12 for v in computed)


def _all_pairs_min(vectors):
    # Oracle: the definition itself, every member against every other.
    vs = [tuple(v) for v in vectors]
    return tuple(sorted({v for v in vs if not any(u != v and preceq(u, v) for u in vs)}))


def test_min_of_finite_matches_all_pairs_definition():
    # Antipodal pairs dominate each other, so both drop out but still
    # dominate later vectors; duplicates, (0, 0) and non-primitive vectors
    # are ordinary members.
    assert min_of_finite([(1, 2), (-1, -2), (3, 5)]) == ()
    assert min_of_finite([(1, 2), (-1, -2), (1, 2), (0, 3)]) == ()
    assert min_of_finite([(2, 4), (2, 4), (0, 0)]) == ((0, 0),)
    rng = random.Random(23)
    for _ in range(3000):
        vs = [(rng.randint(-7, 7), rng.randint(-7, 7)) for _ in range(rng.randint(0, 25))]
        for _ in range(rng.randint(0, 3)):
            if vs:
                x, y = rng.choice(vs)
                vs += [(-x, -y), (x, y)]
        if rng.random() < 0.2:
            vs.append((0, 0))
        rng.shuffle(vs)
        assert min_of_finite(vs) == _all_pairs_min(vs), vs


def _box_scan_min_complement(excluded):
    # Oracle: the witness and the witness-box scan.  Every vector not
    # dominated by the witness (a, 1) lies in the box ||v||_inf <=
    # ceil(sqrt(2 (a^2 + max(a, 0) + 1))); scan all of it and call preceq on
    # every point.
    a, k = 0, 0
    while (a, 1) in excluded:
        k += 1
        a = -((k + 1) // 2) if k % 2 else k // 2
    witness = (a, 1)
    bound2 = 2 * (a * a + max(a, 0) + 1)
    radius = isqrt(bound2)
    radius += radius * radius < bound2
    candidates = [witness] + [
        v
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if (v := (x, y)) != witness
        and is_strongly_primitive(v)
        and v not in excluded
        and not preceq(witness, v)
    ]
    return witness, _all_pairs_min(candidates)


def test_min_complement_far_witness_against_box_scan():
    # Excluding every (x, 1) with |x| <= n pushes the witness to a = -n - 1,
    # or to a = n + 1 once (-n - 1, 1) is excluded too, so the exact region
    # is checked far from a = 0 on both sides.  Minimal vectors reach the
    # region's boundary when the exclusion is a ball Q(v) <= t of a reduced
    # form near x^2 + xy + y^2 (as in the diagonal runs) that stops just
    # short of the witness, so each such ball is excluded too, for every
    # level t in the top 3% below Q(witness).
    rng = random.Random(29)
    box = [(x, y) for x in range(-30, 31) for y in range(1, 31) if gcd(x, y) == 1]
    cases = far = 0
    for n in range(13):
        row = {(1, 0), (0, 1)} | {(x, 1) for x in range(-n, n + 1)}
        for a in (-n - 1, n + 1):
            if a > 0:
                row.add((-n - 1, 1))
            for _ in range(3):
                w = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(4, 10))
                q = {v: sum(c * e for c, e in zip(w, edge_values(v))) for v in box}
                top = q[(a, 1)]
                for t in sorted({qv for qv in q.values() if 0.97 * top <= qv < top}):
                    excluded = frozenset(row | {v for v in box if q[v] <= t})
                    witness, oracle = _box_scan_min_complement(excluded)
                    assert witness == (a, 1)
                    assert min_complement(excluded) == oracle, excluded
                    cases += 1
                    far += abs(a) >= 10
    assert cases >= 60 and far >= 20


def test_min_n_examples():
    assert min_n((), 0) == ((),)
    assert min_n((), 4) == (((1, 0), (0, 1), (-1, 1), (1, 1)),)
    six = {frozenset(s) for s in min_n((), 6)}
    base = {(1, 0), (0, 1), (-1, 1), (1, 1), (-2, 1)}
    assert six == {frozenset(base | {(2, 1)}), frozenset(base | {(-1, 2)})}
    two = {frozenset(s) for s in min_n([(1, 0), (0, 1)], 4)}
    assert two == {
        frozenset({(-1, 1), (1, 1), (-2, 1), (2, 1)}),
        frozenset({(-1, 1), (1, 1), (-2, 1), (-1, 2)}),
    }
    with pytest.raises(ValueError):
        min_n((), -1)


@pytest.mark.parametrize("as_frozenset", [False, True])
@pytest.mark.parametrize(
    "call", [min_complement, lambda exc: min_n(exc, 0), lambda exc: min_n(exc, 2)]
)
def test_invalid_exclusion_raises_every_time(call, as_frozenset):
    min_complement([(1, 0)])
    min_n([(1, 0)], 2)
    bad = [(1, 0), (2, 2)]
    for _ in range(2):
        with pytest.raises(ValueError, match="not strongly primitive"):
            call(frozenset(bad) if as_frozenset else bad)


def test_min_memos_share_entries_across_input_types():
    exc = [(1, 0), (0, 1)]
    assert min_complement(frozenset(exc)) is min_complement(exc)
    assert min_complement([[1, 0], [0, 1]]) is min_complement(tuple(exc))
    assert min_n(frozenset(exc), 3) == min_n(exc, 3)


def test_partial_order_axioms_box12():
    succ = {}
    for u in BOX12:
        eu = edge_values(u)
        succ[u] = {
            v
            for v in BOX12
            if eu[0] <= (ev := edge_values(v))[0] and eu[1] <= ev[1] and eu[2] <= ev[2]
        }
    for u in BOX12:
        assert u in succ[u]  # reflexive
    for u in BOX12:
        for v in succ[u]:
            if u != v:
                assert u not in succ[v], f"antisymmetry fails for {u}, {v}"
            assert succ[v] <= succ[u], f"transitivity fails at {u} -> {v}"


def _random_reduced_form(rng):
    # positive combination of the three extreme forms, pushed into the open
    # conditions by keeping every weight non-zero
    w = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(3)]
    edges = [(0, 1, 0), (1, 1, 0), (1, 1, 1)]
    q11, q22, q12 = (
        sum(w[i] * edges[i][k] for i in range(3)) for k in range(3)
    )
    return BQF(q11, q22, q12)


def test_order_sound_for_reduced_forms():
    rng = random.Random(11)
    pairs = [(u, v) for u in BOX12 for v in BOX12 if preceq(u, v)]
    sample = rng.sample(pairs, 300)
    for _ in range(200):
        q = _random_reduced_form(rng)
        u, v = sample[rng.randrange(len(sample))]
        assert q.evaluate(u) <= q.evaluate(v)


def test_min_attains_minimum_values():
    # Antipodal pairs dominate each other and would empty the minimal subset,
    # so draw sets without them.
    rng = random.Random(13)
    for _ in range(120):
        xs = []
        while len(xs) < rng.randint(1, 40):
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            if (-v[0], -v[1]) not in xs and v != (0, 0):
                xs.append(v)
        q = _random_reduced_form(rng)
        assert min(q.evaluate(v) for v in min_of_finite(xs)) == min(
            q.evaluate(v) for v in xs
        )


def test_min_complement_finite_nonempty():
    rng = random.Random(17)
    for _ in range(40):
        excluded = frozenset(rng.sample(BOX12, rng.randint(0, 30)))
        result = min_complement(excluded)
        assert 0 < len(result) < 100
        assert all(is_strongly_primitive(v) and v not in excluded for v in result)


def test_min_n_replay_consistency():
    rng = random.Random(19)
    for _ in range(20):
        excluded = frozenset(rng.sample(BOX12, rng.randint(0, 8)))
        n = rng.randint(1, 4)
        for candidate in min_n(excluded, n):
            taken = set()
            for v in candidate:
                assert v in min_complement(excluded | taken)
                taken.add(v)


def test_successive_minima_prefix():
    e3 = BQF(1, 1, 1)
    assert is_successive_minima_prefix(e3, [[(1, 0)], [(0, 1)]])
    assert not is_successive_minima_prefix(e3, [[(1, 1)]])
    q = BQF(1, 1, 0)
    levels = [[(1, 0)], [(0, 1)], [(-1, 1)], [(1, 1)], [], [(-2, 1)], [(2, 1)]]
    assert is_successive_minima_prefix(q, levels)
    assert not is_successive_minima_prefix(q, [[(1, 0), (0, 1), (-1, 1)]])
    with pytest.raises(ValueError):
        is_successive_minima_prefix(BQF(0, 1, 0), [[(1, 0)]])
    with pytest.raises(ValueError):
        is_successive_minima_prefix(e3, [[(1, 0)], [(1, 0)]])
