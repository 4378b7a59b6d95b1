"""Form arithmetic, reduction, and counting, checked against box enumeration."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from theta_refine import quadform
from theta_refine.quadform import (
    IntBQF,
    apply_transform,
    coeff_row,
    is_strongly_primitive,
    level,
    parse_int_form,
    reduce_gl2,
    sp_theta_coeffs,
    theta_coeffs,
)

from oracles import BQF, in_v, moebius, rep_number, sp_from_rep_moebius, sp_rep_number, to_bqf


def brute_representations(q, m):
    """Oracle: scan the full box |x|, |y| <= bound derived from pos-definiteness."""
    if m == 0:
        return [(0, 0)]
    bound = isqrt(4 * max(q.a, q.c) * m // -q.discriminant()) + 1
    return [
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if q.evaluate((x, y)) == m
    ]


def brute_sp_count(q, m):
    if m == 0:
        return 0
    return sum(1 for v in brute_representations(q, m) if is_strongly_primitive(v))


# The count each variant of the per-point oracle checks.
COUNTS = {"ordinary": theta_coeffs, "strongly_primitive": sp_theta_coeffs}


def per_point_theta(q, m_max, variant="ordinary"):
    """Oracle: the plain half-plane walk.  It visits every point of every
    row and tests gcd(x, y) = 1 on each point for the strongly primitive
    variant: no mirror rows, no inversion."""
    sp = variant == "strongly_primitive"
    out = [0] * (m_max + 1)
    out[0] = 0 if sp else 1
    a, b, c = q.a, q.b, q.c
    two_a = 2 * a
    bound = 4 * a * m_max
    disc = -q.discriminant()
    for y in range(isqrt(bound // disc) + 1):
        s = isqrt(bound - disc * y * y)
        by = b * y
        xlo = -((s + by) // two_a) if y else 1
        xhi = (s - by) // two_a
        m = (a * xlo + by) * xlo + c * y * y
        d = a * (2 * xlo + 1) + by
        for x in range(xlo, xhi + 1):
            if not sp:
                out[m] += 2
            elif gcd(x, y) == 1:
                out[m] += 1
            m += d
            d += two_a
    return out


def random_posdef(rng, size=6):
    while True:
        a = rng.randint(1, size)
        b = rng.randint(-size, size)
        c = rng.randint(1, size)
        q = IntBQF(a, b, c)
        if q.is_positive_definite():
            return q


def test_evaluate_examples():
    assert BQF(1, 1, 1).evaluate((1, 1)) == 3
    assert BQF(1, 3, 0).evaluate((1, 2)) == 13
    assert BQF(2, 5, 1).evaluate((0, 0)) == 0


def test_coeff_row():
    assert coeff_row((1, 0)) == (1, 0, 0)
    assert coeff_row((-1, 1)) == (1, 1, -1)
    assert coeff_row((-2, 1)) == (4, 1, -2)
    q = BQF(3, 5, Fraction(1, 2))
    v = (-3, 2)
    row = coeff_row(v)
    assert q.evaluate(v) == row[0] * q.q11 + row[1] * q.q22 + row[2] * q.q12


def test_domain_membership():
    assert in_v(BQF(1, 1, 1))
    assert not in_v(BQF(1, 2, 2))  # q11 < q12
    assert not in_v(BQF(0, 1, 0))


def test_reduce_examples():
    assert reduce_gl2(IntBQF(1, 0, 3))[0] == IntBQF(1, 0, 3)
    assert reduce_gl2(IntBQF(4, 4, 4))[0] == IntBQF(4, 4, 4)
    reduced, transform = reduce_gl2(IntBQF(2, 1, 1))
    assert reduced == IntBQF(1, 1, 2)
    assert apply_transform(IntBQF(2, 1, 1), transform) == reduced
    with pytest.raises(ValueError):
        reduce_gl2(IntBQF(1, 5, 1))


def test_rep_number_examples():
    assert rep_number(IntBQF(1, 0, 3), 1) == 2
    assert rep_number(IntBQF(1, 1, 1), 1) == 6
    assert rep_number(IntBQF(2, 1, 3), 0) == 1


def test_sp_rep_examples():
    # (1,1) and (-1,1) solve x^2 + 3y^2 = 4 with gcd 1 and positive y.
    assert sp_rep_number(IntBQF(1, 0, 3), 4) == 2
    assert sp_rep_number(IntBQF(1, 0, 3), 4) == brute_sp_count(IntBQF(1, 0, 3), 4)
    assert sp_rep_number(IntBQF(1, 1, 1), 0) == 0
    assert sp_rep_number(IntBQF(1, 1, 1), 1) == 3


def test_moebius_values():
    assert [moebius(n) for n in (1, 2, 3, 4, 6, 12, 30)] == [1, -1, -1, 0, 1, 0, -1]
    with pytest.raises(ValueError):
        moebius(0)


def test_moebius_inversion_examples():
    q = IntBQF(1, 0, 3)
    assert sp_from_rep_moebius(q, 4) == sp_rep_number(q, 4)
    q2 = IntBQF(1, 0, 1)
    assert sp_from_rep_moebius(q2, 25) == sp_rep_number(q2, 25)
    with pytest.raises(ValueError):
        sp_from_rep_moebius(q, 0)


def test_theta_examples():
    assert theta_coeffs(IntBQF(1, 0, 3), 4) == [1, 2, 0, 2, 6]
    assert theta_coeffs(IntBQF(1, 1, 1), 3) == [1, 6, 0, 6]
    assert theta_coeffs(IntBQF(4, 4, 4), 3) == [1, 0, 0, 0]
    assert sp_theta_coeffs(IntBQF(1, 0, 3), 4) == [0, 1, 0, 1, 2]
    assert sp_theta_coeffs(IntBQF(1, 1, 1), 0) == [0]
    for count in (theta_coeffs, sp_theta_coeffs):
        with pytest.raises(ValueError):
            count(IntBQF(1, 0, -1), 10)
        with pytest.raises(ValueError):
            count(IntBQF(1, 0, 1), -1)


def test_counts_check_the_form_before_allocating():
    # A list of 2**62 + 1 entries cannot be allocated, so only a check made
    # before the allocation reports the form.
    for count in (theta_coeffs, sp_theta_coeffs):
        for q in (IntBQF(0, 0, 0), IntBQF(1, 0, -1), IntBQF(1, 2, 1)):
            with pytest.raises(ValueError, match=f"form {q} is not positive-definite"):
                count(q, 2**62)


def test_counts_walk_the_reduced_form(monkeypatch):
    # 1000002,2000,1 reduces to 1,0,2: to m = 1000 its ellipse has 22 361
    # rows as given, and 23 reduced
    calls = []

    def counting(n):
        calls.append(n)
        return isqrt(n)

    monkeypatch.setattr(quadform, "isqrt", counting)
    walks = []
    for q in (IntBQF(1000002, 2000, 1), IntBQF(1, 0, 2)):
        calls.clear()
        walks.append((theta_coeffs(q, 1000), sp_theta_coeffs(q, 1000), len(calls)))
    assert walks[0] == walks[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 40))
def test_counts_match_brute_force(seed, m):
    q = random_posdef(random.Random(seed))
    reps = brute_representations(q, m)
    assert rep_number(q, m) == len(reps)
    assert sp_rep_number(q, m) == brute_sp_count(q, m)


@st.composite
def theta_cases(draw):
    """A positive-definite form, reduced or not, with content up to 4, and a
    bound up to 400, so the inversion runs over the primes 2..19.  About half
    the forms are square or hexagonal, k (1,0,1) or k (1,1,1) under a shear
    or a shear and a swap, so the walk takes their wedge."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        base = draw(st.sampled_from([IntBQF(k, 0, k), IntBQF(k, k, k)]))
        t = draw(st.integers(-3, 3))
        q = apply_transform(base, draw(st.sampled_from([((1, t), (0, 1)), ((t, 1), (1, 0))])))
    else:
        a, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        b = draw(st.integers(-isqrt(4 * a * c - 1), isqrt(4 * a * c - 1)))
        q = IntBQF(k * a, k * b, k * c)
    m_max = draw(
        st.sampled_from([0, 1, q.a - 1, q.a, q.a + 1])
        | st.integers(0, 60)
        | st.integers(0, 400)
        | st.integers(0, 20).map(lambda n: n * n)
    )
    return q, m_max


@settings(max_examples=150, deadline=None)
@given(theta_cases())
def test_theta_single_pass_matches_counts(case):
    q, m_max = case
    assert q.is_positive_definite()
    coeffs = theta_coeffs(q, m_max)
    sp_coeffs = sp_theta_coeffs(q, m_max)
    assert coeffs == [rep_number(q, m) for m in range(m_max + 1)]
    assert sp_coeffs == [sp_rep_number(q, m) for m in range(m_max + 1)]
    assert coeffs == per_point_theta(q, m_max)
    assert sp_coeffs == per_point_theta(q, m_max, "strongly_primitive")


@settings(max_examples=100, deadline=None)
@given(theta_cases(), st.integers(-5, 5), st.lists(st.integers(-9, 9), min_size=401, max_size=401))
def test_theta_adds_weighted_coefficients_into_out(case, weight, start):
    q, m_max = case
    start = start[: m_max + 1]
    lst = list(start)
    assert theta_coeffs(q, m_max, weight=weight, out=lst) is lst
    coeffs = theta_coeffs(q, m_max)
    assert lst == [old + weight * r for old, r in zip(start, coeffs)]
    assert theta_coeffs(q, m_max, weight=weight) == [weight * r for r in coeffs]


def test_theta_rejects_a_short_out_untouched():
    # the length, the form and the bound are checked before the walk, so
    # nothing is added
    lst = [0] * 6
    with pytest.raises(ValueError):
        theta_coeffs(IntBQF(1, 0, 1), 10, out=lst)
    assert lst == [0] * 6
    assert theta_coeffs(IntBQF(1, 0, 1), 5, out=lst) == theta_coeffs(IntBQF(1, 0, 1), 5)
    start = [3, 1, 4, 1, 5, 9]
    for q, m_max in ((IntBQF(1, 0, -1), 5), (IntBQF(1, 2, 1), 5), (IntBQF(1, 0, 1), -1)):
        out = list(start)
        with pytest.raises(ValueError):
            theta_coeffs(q, m_max, weight=2, out=out)
        assert out == start, (q, m_max)


@pytest.mark.parametrize("variant", ["ordinary", "strongly_primitive"])
def test_theta_matches_per_point_walk_on_hexagonal_forms(variant):
    # the hexagonal forms take the wedge; every row of (k, 0, 3k) is a
    # mirror row (b is 0)
    for k in (1, 2, 3):
        for q in (IntBQF(k, k, k), IntBQF(4 * k, 4 * k, 4 * k), IntBQF(k, 0, 3 * k)):
            assert COUNTS[variant](q, 20000) == per_point_theta(q, 20000, variant), q


# Square and hexagonal forms, reduced, and non-reduced images of (1,1,1)
# and (1,0,1): the walk takes the reduced form's wedge 0 <= y <= x.
WEDGE_FORMS = [IntBQF(k, b, k) for k in (1, 2, 3, 4) for b in (k, 0)] + [
    IntBQF(1, -1, 1),
    IntBQF(3, 3, 1),
    IntBQF(2, 2, 1),
    IntBQF(1, 2, 2),
]


@pytest.mark.parametrize("q", WEDGE_FORMS)
def test_theta_matches_per_point_walk_on_wedge_forms(q):
    # the bounds around the first shells: on a reduced form, a - 1 has
    # only the origin, a the first points on the mirror y = 0, and 3a the
    # first points on the mirror x = y of a hexagonal form
    for m_max in sorted({0, 1, 2, 3, q.a - 1, q.a, q.a + 1, 3 * q.a, 400}):
        coeffs = per_point_theta(q, m_max)
        assert theta_coeffs(q, m_max) == coeffs, m_max
        assert sp_theta_coeffs(q, m_max) == per_point_theta(q, m_max, "strongly_primitive"), m_max
        for weight in (-3, 0, 2):
            start = [(7 * m) % 5 - 2 for m in range(m_max + 1)]
            out = theta_coeffs(q, m_max, weight=weight, out=list(start))
            assert out == [s + weight * r for s, r in zip(start, coeffs)], (m_max, weight)


@pytest.mark.parametrize("variant", ["ordinary", "strongly_primitive"])
@pytest.mark.parametrize("q", [IntBQF(13, 5, 17), IntBQF(7, 3, 11)])
def test_theta_matches_per_point_walk_on_sparse_forms(q, variant):
    # few mirror rows and a large discriminant: the half-plane count is
    # sparse, and the inversion visits only its non-zero entries
    assert COUNTS[variant](q, 20000) == per_point_theta(q, 20000, variant)


@pytest.mark.parametrize(
    "q, centres",
    [
        # rows y = 0 (mod 3) are mirror rows, each with its centre t = 0 on
        # a lattice point: (-1, 3) has Q = 39
        (IntBQF(6, 4, 5), [39]),
        # rows y = 0 (mod 2) are mirror rows: at y = 2 the centre falls
        # between (-1, 2) and (0, 2), both with Q = 12; at y = 4 it is on
        # (-1, 4), with Q = 46
        (IntBQF(2, 1, 3), [12, 46]),
    ],
)
def test_theta_on_mirror_rows_with_and_without_a_centre_point(q, centres):
    m_max = 400
    coeffs = theta_coeffs(q, m_max)
    sp = sp_theta_coeffs(q, m_max)
    assert coeffs == per_point_theta(q, m_max)
    assert sp == per_point_theta(q, m_max, "strongly_primitive")
    assert coeffs == [rep_number(q, m) for m in range(m_max + 1)]
    assert sp == [sp_rep_number(q, m) for m in range(m_max + 1)]
    assert all(coeffs[m] > 0 for m in centres)


def test_theta_divisor_sums_on_hexagonal_family():
    # r(m) = 2 * sum over d^2 | m of sp(m / d^2), and r(m) is even for m >= 1
    m_max = 5000
    for k in (1, 2, 3):
        for q in (IntBQF(k, k, k), IntBQF(4 * k, 4 * k, 4 * k), IntBQF(k, 0, 3 * k)):
            coeffs = theta_coeffs(q, m_max)
            sp = sp_theta_coeffs(q, m_max)
            assert coeffs[0] == 1 and sp[0] == 0
            assert all(r % 2 == 0 for r in coeffs[1:])
            sums = [0] * (m_max + 1)
            d = 1
            while d * d <= m_max:
                for n in range(1, m_max // (d * d) + 1):
                    sums[n * d * d] += 2 * sp[n]
                d += 1
            assert coeffs[1:] == sums[1:], q


def test_moebius_and_divisor_sum_identities():
    rng = random.Random(20240811)
    forms = [random_posdef(rng) for _ in range(6)]
    for q in forms:
        coeffs = theta_coeffs(q, 200)
        sp = sp_theta_coeffs(q, 200)
        for m in range(1, 201):
            assert sp_from_rep_moebius(q, m) == sp[m]
            # ordinary counts decompose over square divisors of m
            total = 0
            d = 1
            while d * d <= m:
                if m % (d * d) == 0:
                    total += 2 * sp[m // (d * d)]
                d += 1
            assert coeffs[m] == total


def _random_unimodular(rng):
    # products of elementary matrices stay in GL2(Z)
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 4)):
        t = rng.randint(-3, 3)
        if rng.random() < 0.5:
            m = [[m[0][0] + t * m[1][0], m[0][1] + t * m[1][1]], m[1]]
        else:
            m = [m[0], [m[1][0] + t * m[0][0], m[1][1] + t * m[0][1]]]
        if rng.random() < 0.3:
            m = [m[1], [-x for x in m[0]]]
    if rng.random() < 0.5:
        m = [m[0], [-x for x in m[1]]]
    return (tuple(m[0]), tuple(m[1]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_reduction_canonical_on_orbits(seed):
    rng = random.Random(seed)
    q = random_posdef(rng)
    reduced, transform = reduce_gl2(q)
    assert apply_transform(q, transform) == reduced
    assert in_v(to_bqf(reduced))
    assert reduce_gl2(reduced)[0] == reduced
    u = _random_unimodular(rng)
    assert reduce_gl2(apply_transform(q, u))[0] == reduced


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_theta_is_class_invariant(seed):
    rng = random.Random(seed)
    q = random_posdef(rng)
    other = apply_transform(q, _random_unimodular(rng))
    assert theta_coeffs(q, 40) == theta_coeffs(other, 40)


@pytest.mark.parametrize(
    "q, expected",
    [((1, 0, 1), 4), ((1, 1, 1), 3), ((1, 0, 3), 12), ((4, 4, 4), 12), ((3, 3, 3), 9), ((1, 0, 2), 8)],
)
def test_level_examples(q, expected):
    assert level(IntBQF(*q)) == expected


def test_level_is_the_least_n_with_n_times_the_inverse_gram_even():
    # Oracle: A^-1 = [[2c, -b], [-b, 2a]] / D in Fractions, N tried upward.
    for a in range(1, 7):
        for b in range(-a, a + 1):
            for c in range(a, 9):
                q = IntBQF(a, b, c)
                if not q.is_positive_definite():
                    continue
                d = Fraction(-q.discriminant())
                inverse = (2 * c / d, -b / d, 2 * a / d)
                n = next(
                    n for n in range(1, 4 * a * c + 1)
                    if all((n * x).denominator == 1 for x in inverse)
                    and (n * inverse[0]) % 2 == 0 and (n * inverse[2]) % 2 == 0
                )
                assert level(q) == n, q


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_level_is_gl2_invariant(seed, scale):
    rng = random.Random(seed)
    q = IntBQF(*(scale * x for x in random_posdef(rng)))
    assert level(apply_transform(q, _random_unimodular(rng))) == level(q)


def test_level_rejects_a_form_that_is_not_positive_definite():
    for q in (IntBQF(0, 0, 0), IntBQF(1, 2, 1), IntBQF(1, 0, -1), IntBQF(-1, 0, -1)):
        with pytest.raises(ValueError, match="not positive-definite"):
            level(q)


def test_parsers():
    assert parse_int_form("1, 2, 3") == IntBQF(1, 2, 3)
    with pytest.raises(ValueError):
        parse_int_form("1,2")
