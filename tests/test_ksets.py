"""Chain cones and grouped-set cones, with membership verified independently."""

import random
from math import gcd
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from theta_refine import ksets, minima, refinement
from theta_refine.geometry import Cone, _closed_within, cones_closed_equal, cones_equivalent
from theta_refine.ksets import (
    V_CLOSURE_CONE,
    V_CONE,
    chain,
    kset,
    kset_chain,
    kset_zero_test,
)
from theta_refine.quadform import coeff_row, is_strongly_primitive
from theta_refine.refinement import run_algorithm

from oracles import BQF, count_n, in_v, is_successive_minima_prefix, live_classes


def test_reduction_domain_constants():
    assert V_CONE.strict == ((1, 0, 0),)
    assert V_CLOSURE_CONE.strict == ()
    assert V_CLOSURE_CONE.edges() == ((0, 1, 0), (1, 1, 0), (1, 1, 1))


def test_chain_examples():
    golden = Cone(3, [(-1, 1, 0), (1, 0, -1), (0, 0, 2)])
    assert cones_closed_equal(kset_chain([(1, 0), (0, 1), (-1, 1)]), golden)
    assert cones_closed_equal(kset_chain([]), V_CLOSURE_CONE)
    one = kset_chain([(1, 0)])
    assert cones_closed_equal(one, V_CLOSURE_CONE)
    with pytest.raises(ValueError):
        kset_chain([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        kset_chain([(0, 2)])


def test_grouped_examples():
    golden = Cone(3, [(-1, 1, 0), (1, 0, -1), (0, 0, 2), (1, -1, 0), (-1, 1, 0)])
    assert cones_closed_equal(kset([[(1, 0), (0, 1)], [], [(-1, 1)]]), golden)
    assert kset([[(1, 0), (0, 1), (-1, 1), (1, 1)]]).edges() == ()
    with pytest.raises(ValueError):
        kset([[(1, 0)], [(1, 0)]])


def test_kset_memo_key_is_the_non_empty_sets():
    v, w = (1, 0), (0, 1)
    found = chain([[v], [w]])
    for variant in (
        [[v], [], [w]],
        [[], [v], [w], []],
        [[], [], [v], [], [w]],
        ((v,), (), (w,)),
        (((1, 0),), ((0, 1),)),
        [[[1, 0]], [[0, 1]]],
        iter([[v], [], [w]]),
    ):
        assert chain(variant) is found
    grouped = chain(((v, w), (), ((-1, 1),)))
    assert chain([[v, w], [(-1, 1)]]) is grouped
    assert chain([[list(v), list(w)], [], [[-1, 1]]]) is grouped


@pytest.mark.parametrize(
    "bad",
    [
        [[(1, 0)], [(1, 0)]],
        [[(1, 0)], [], [(0, 1), (1, 0)]],
        [[(1, 0), (1, 0)]],
        [[(0, 2)]],
        [[(1, 0)], [], [(3, 3)]],
        [[(1, 0)], [[0, 2]]],
    ],
)
def test_invalid_kset_key_raises_every_time(bad):
    # The key is checked before either memo is read or written.
    kset([[(1, 0)]])
    kset([[(1, 0)], [(0, 1)]])
    chain([[(1, 0)], [(0, 1)]])
    keys = set(ksets._chains)
    built = dict(minima._min_complement_cache)
    for call in (kset, chain, kset, chain):
        with pytest.raises(ValueError):
            call(bad)
        assert set(ksets._chains) == keys
        assert minima._min_complement_cache == built


def test_concurrent_misses_return_one_cached_cone():
    # The memo has no lock: concurrent misses on one key may each build the
    # chain, and dict.setdefault makes every caller return the stored one.
    keys = [
        [[(1, 0)], [], [(x, y)]]
        for x in range(-3, 4)
        for y in range(1, 4)
        if is_strongly_primitive((x, y))
    ]
    workers = 6
    barrier = threading.Barrier(workers)
    results = [[] for _ in range(workers)]

    def work(out):
        barrier.wait(timeout=30)
        out.extend(chain(key) for key in keys)

    ksets.clear_cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, key in enumerate(keys):
        cached = chain(key)
        assert all(out[i] is cached for out in results)


def test_zero_certificates():
    assert kset_zero_test([[(1, 0)], [(0, 1), (-1, 1), (1, 1), (-2, 1)]])
    assert kset_zero_test([[(1, 0)], [(0, 1)], [(-1, 1), (1, 1), (-2, 1), (-1, 2)]])
    assert kset_zero_test([[(1, 0)], [(0, 1)], [(-1, 1), (1, 1), (-2, 1), (2, 1)]])
    assert not kset_zero_test([[(1, 0)]])
    # The 2b cone is degenerate but not literally the origin: its closed part
    # is the ray of the form y^2.
    cone = kset([[(1, 0)], [(0, 1), (-1, 1), (1, 1), (-2, 1)]])
    assert cone.edges() == ((0, 1, 0),)


def test_grouped_equals_chain_plus_equalities():
    sets = [[(1, 0), (0, 1)], [(-1, 1), (1, 1)]]
    grouped = kset(sets)
    ungrouped = kset_chain([(1, 0), (0, 1), (-1, 1), (1, 1)])
    eqs = Cone(
        3,
        [(-1, 1, 0), (1, -1, 0), (0, 0, 2), (0, 0, -2)],
    )
    assert cones_closed_equal(grouped, ungrouped.intersect(eqs))


def test_order_within_set_is_irrelevant():
    rng = random.Random(23)
    pool = [
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if is_strongly_primitive((x, y))
    ]
    for _ in range(30):
        chosen = rng.sample(pool, rng.randint(2, 5))
        cut = rng.randint(1, len(chosen) - 1)
        sets = [chosen[:cut], chosen[cut:]]
        base = kset(sets)
        shuffled = [list(s) for s in sets]
        for s in shuffled:
            rng.shuffle(s)
        assert cones_closed_equal(base, kset(shuffled))


def _random_member(rng, cone):
    rays = cone.edges()
    if not rays:
        return None
    coeffs = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in rays]
    if all(c == 0 for c in coeffs):
        coeffs[rng.randrange(len(rays))] = Fraction(1)
    return BQF(*[sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(3)])


def test_members_have_prescribed_minima_structure():
    rng = random.Random(29)
    pool = [
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if is_strongly_primitive((x, y))
    ]
    checked = 0
    attempts = 0
    while checked < 40 and attempts < 600:
        attempts += 1
        count = rng.randint(1, 3)
        chosen = rng.sample(pool, rng.randint(1, 3 * count))
        cuts = sorted(rng.sample(range(1, len(chosen) + 1), min(count, len(chosen))))
        sets, prev = [], 0
        for c in cuts:
            sets.append(tuple(chosen[prev:c]))
            prev = c
        try:
            cone = kset(sets)
        except ValueError:
            continue
        q = _random_member(rng, cone)
        if q is None or not in_v(q):
            continue
        assert is_successive_minima_prefix(q, [s for s in sets if s])
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize(
    "bad, key",
    [([[(0, 2)]], (((0, 2),),)), ([[(1, 0)], [(-1, 0)]], (((1, 0),), ((-1, 0),)))],
)
def test_invalid_chain_is_never_stored(bad, key):
    # A chain builds no cone when it is made, so the key's strong
    # primitivity is checked by chain() itself.
    for _ in range(2):
        with pytest.raises(ValueError):
            chain(bad)
        assert key not in ksets._chains


def test_chain_memo_keys_are_normal_and_share_their_prefix_sets():
    # A run reaches every chain but the root through its parent's choices,
    # not through chain(), so every stored key is already normal, its prefix
    # is stored, and it holds its prefix's set tuples rather than copies.
    refinement.clear_caches()
    run_algorithm(1, 0, "q1_eq_q3", 13)
    run_algorithm(1, 2, "diagonal", 14)
    assert len(ksets._chains) > 1
    for key, c in ksets._chains.items():
        assert c.key is key
        assert ksets._normalize_sets(key) == key
        if key:
            prefix = ksets._chains[key[:-1]].key
            assert all(s is t for s, t in zip(key, prefix)), key


def _rank(rows):
    """Rank of integer rows by Fraction elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(3):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1 :]:
            f = r[col] / pivot[col]
            r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def test_certificate_needs_rank_three():
    # x^2 + y^2 takes the value 5 at all four vectors, so their rows have
    # rank 2 and the certificate must not fire.  The form has these sets as
    # its first three successive minima, so the chain is not empty.
    fives = ((2, 1), (1, 2), (-1, 2), (-2, 1))
    assert all(BQF(1, 1, 0).evaluate(v) == 5 for v in fives)
    assert not ksets._collapses(fives)
    key = [[(1, 0), (0, 1)], [(-1, 1), (1, 1)], fives]
    assert is_successive_minima_prefix(BQF(1, 1, 0), key)
    assert not chain(key).empty
    assert not kset_zero_test(key)
    assert ksets._collapses(((1, 0), (0, 1), (-1, 1), (1, 1)))


_POOL = [(x, y) for x in range(-5, 6) for y in range(6) if is_strongly_primitive((x, y))]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(_POOL), min_size=4, max_size=8, unique=True),
    st.lists(st.lists(st.sampled_from(_POOL), min_size=1, max_size=3, unique=True), max_size=3),
)
def test_certificate_and_seeded_cone_match_independent_builders(last, firsts):
    # The certificate is the rank-3 test, and when it fires no reduced form
    # has the structure.  The chain cone, built from its prefixes' cones,
    # has the member set of the cone built from scratch.  The earlier sets
    # hold one to three vectors, each dropped when an earlier set or the
    # last holds it, and need not be minimal, so the link row that a chain
    # cone leaves out joins sets whose first and last vectors differ.
    used, key = set(last), []
    for s in firsts:
        key.append([v for v in s if v not in used])
        used.update(s)
    key.append(last)
    diffs = [tuple(a - b for a, b in zip(coeff_row(v), coeff_row(last[0]))) for v in last]
    collapses = ksets._collapses(tuple(last))
    assert collapses == (_rank(diffs) == 3)
    c = chain(key)
    assert c.empty == kset_zero_test(key)
    if collapses:
        assert c.empty and kset(key).edges() == ()
    assert cones_equivalent(c.cone, kset(key))


# Every coprime (a, b) with a, b >= 1 and 4 <= a + b <= 20, in both orders.
SWEEP_PAIRS = [(a, s - a) for s in range(4, 21) for a in range(1, s) if gcd(a, s) == 1]


def test_dead_chain_has_only_empty_choices():
    # The containment lemma through the engine: on every non-empty chain the
    # coprime a + b <= 20 runs reach, in both orders, and so on every chain
    # of their live classes, whenever ``dead(n)`` holds for n = 5..8, every
    # chain of ``choices(n)`` passes the independent zero test, which builds
    # its cone from scratch.  The replays list what the runs counted.
    refinement.clear_caches()
    live = set()
    for a, b in SWEEP_PAIRS:
        result = run_algorithm(a, b, "diagonal", 13)
        live.update(c for classes in live_classes(result) for cls in classes for c in cls.chains)
        result.generations
    chains = [c for c in list(ksets._chains.values()) if not c.empty]
    assert live <= set(chains)
    fired = checked = 0
    for c in chains:
        for n in range(5, 9):
            if c.dead(n):
                fired += 1
                for _, child in c.choices(n):
                    assert kset_zero_test(child.key), child.key
                    checked += 1
    assert (len(live), len(chains), fired, checked) == (3, 8, 28, 95)
    # The rule with 3 in place of 4 fails at the root: of its 3-choices,
    # {(1,0),(0,1),(-1,1)}, the hexagonal form's minima, is not empty.
    root = chain(())
    assert root.dead(4)
    (hexagonal,) = [child for _, child in root.choices(3) if not child.empty]
    assert set(hexagonal.key[0]) == {(1, 0), (0, 1), (-1, 1)}
    assert not kset_zero_test(hexagonal.key)


def test_dead_is_false_when_a_4_choice_has_a_reduced_form():
    # The square form's first two sets: of the 4-choices of this chain,
    # ((-2,1),(-1,2),(2,1),(1,2)) leads to a chain that is not empty, by its
    # own test and by the independent zero test.  So neither dead(4) nor
    # dead(5) holds, and a ``dead`` that read ``n >= 4`` alone fails here.
    c = chain([[(1, 0), (0, 1)], [(-1, 1), (1, 1)]])
    (live,) = [child for s, child in c.choices(4) if s == ((-2, 1), (-1, 2), (2, 1), (1, 2))]
    assert not live.empty and not kset_zero_test(live.key)
    assert not c.dead(4) and not c.dead(5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 99)), max_size=3))
def test_chain_cone_lies_in_each_sub_choice_cone(path):
    # The sub-choice lemma behind ``Chain.empty`` and ``Chain.dead``, beyond
    # the runs: from a chain reached by a random path of choices from the
    # root, each chain of ``choices(n)``, n = 2..5, has its closed cone in
    # the chain cone of each ``(n - 1)``-choice inside its set.  So the
    # ``n``-choice is empty when such a sub-choice is.
    c = chain(())
    for n, i in path:
        choices = c.choices(n)
        if not choices:
            break
        c = choices[i % len(choices)][1]
    for n in range(2, 6):
        subs = c.choices(n - 1)
        for s, child in c.choices(n):
            for t, sub in subs:
                if set(t) <= set(s):
                    assert _closed_within(child.cone._closed_description(), sub.cone), (c.key, s, t)
                    assert child.empty or not sub.empty, (c.key, s, t)


def _assert_count_matches_listing(key):
    # Chains outside the memo count n = 0..8 rising and falling, before they
    # list; then one reads its listing.
    excluded = [v for s in key for v in s]
    expected = [len(minima.min_n(excluded, n)) for n in range(9)]
    rising, falling = ksets.Chain(key), ksets.Chain(key)
    assert [rising.count(n) for n in range(9)] == expected, key
    assert [falling.count(n) for n in reversed(range(9))] == expected[::-1], key
    for n in range(9):
        assert len(rising.choices(n)) == rising.count(n) == expected[n], (key, n)


def test_count_equals_listing_on_run_exclusions():
    # Every exclusion the reference runs ask ``minima`` about, n = 0..8: the
    # exclusions of their chains' cones, of the free walk's states, which
    # build no chain, and of the prefixes ``min_n`` extends, 189 in all; and
    # every set that the oracle's level walk reaches when it counts what
    # ``(19, 1)`` counted on the cover graph, 192 more.  The chains alone
    # hold 156 of these 381.
    refinement.clear_caches()
    for args in ((1, 1, "diagonal", 13), (1, 2, "diagonal", 14), (1, 0, "q1_eq_q3", 13)):
        run_algorithm(*args)
    run_algorithm(19, 1, "diagonal", 13)
    assert len(minima._min_complement_cache) == 189
    for c in list(ksets._chains.values()):
        if c._counts:
            count_n(frozenset(v for s in c.key for v in s), len(c._counts) - 1)
    exclusions = list(minima._min_complement_cache)
    assert len(exclusions) == 381
    assert {frozenset(v for s in key for v in s) for key in ksets._chains} <= set(exclusions)
    for excluded in exclusions:
        _assert_count_matches_listing((tuple(sorted(excluded)),) if excluded else ())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_POOL), max_size=12, unique=True))
def test_count_equals_listing_on_random_exclusions(vectors):
    _assert_count_matches_listing((tuple(vectors),) if vectors else ())
