"""Normalization, linset decomposition, and exact relation verification."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from theta_refine.quadform import IntBQF, apply_transform, sp_theta_coeffs, theta_coeffs
from theta_refine.relations import (
    DegenerateRelation,
    NormalizedRelation,
    ObstructionError,
    TwoTermRelation,
    classify,
    gamma1_index,
    key_lemma_decompose,
    nontrivial_family,
    normalize,
    sturm_bound,
    verify_relation,
    verify_sp_relation,
)
from theta_refine import relations

from oracles import RATIONALS, fraction_normalize, representations, verify_relation_walk

# The per-form count and the verification of each variant.
COUNTS = {"ordinary": theta_coeffs, "strongly_primitive": sp_theta_coeffs}
VERIFY = {"ordinary": verify_relation, "strongly_primitive": verify_sp_relation}

COPRIME_PAIRS = [
    (a, b)
    for a in range(0, 7)
    for b in range(0, 7)
    if 0 < a + b <= 6 and gcd(a, b) == 1
]


def test_normalize_examples():
    assert normalize(Fraction(1, 3), Fraction(2, 3), -1) == NormalizedRelation(1, 2, (1, 2, 3))
    assert normalize(0, 0, 0) == DegenerateRelation()
    assert normalize(-1, Fraction(1, 2), Fraction(1, 2)) == NormalizedRelation(1, 1, (2, 3, 1))
    assert normalize(2, -2, 0) == TwoTermRelation(1, 2, 3)
    assert normalize(Fraction(3, 4), Fraction(-1, 4), Fraction(-1, 2)) == NormalizedRelation(
        1, 2, (2, 3, 1)
    )
    with pytest.raises(ObstructionError):
        normalize(1, 1, 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(RATIONALS, min_size=3, max_size=3), st.booleans())
def test_normalize_matches_the_fraction_oracle(alphas, zero_sum):
    # lcm and gcd against the Fraction code they replace, also the
    # obstruction and its message, which prints the caller's values
    if zero_sum:
        alphas[2] = -alphas[0] - alphas[1]
    try:
        expected = fraction_normalize(*alphas)
    except ObstructionError as exc:
        with pytest.raises(ObstructionError) as info:
            normalize(*alphas)
        assert str(info.value) == str(exc)
    else:
        got = normalize(*alphas)
        assert type(got) is type(expected) and got == expected


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_normalize_rejects_float_or_str_in_one_line(bad):
    with pytest.raises(TypeError) as info:
        normalize(bad, 1, -1)
    assert "\n" not in str(info.value) and repr(bad) in str(info.value)


def test_normalized_coefficients_are_coprime():
    rng = random.Random(31)
    for _ in range(200):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        result = normalize(a, b, -a - b)
        if isinstance(result, NormalizedRelation):
            assert gcd(result.a, result.b) == 1
            assert result.a >= 0 and result.b >= 0 and result.a + result.b > 0


def test_decompose_examples():
    assert key_lemma_decompose(1, 2, (3, 0, 1)) == (0, 1, 0)
    assert key_lemma_decompose(1, 2, (5, 2, 3)) == (2, 1, 0)
    assert key_lemma_decompose(1, 2, (1, 1, 2)) is None
    assert key_lemma_decompose(1, 0, (4, 7, 4)) == (4, 0, 3)
    with pytest.raises(ValueError):
        key_lemma_decompose(0, 0, (1, 1, 1))


def test_key_lemma_completeness_small_pairs():
    # every solution with entries <= 60 decomposes and recombines exactly
    for a, b in COPRIME_PAIRS:
        step = a + b
        for x in range(61):
            for y in range(61):
                num = a * x + b * y
                if num % step:
                    continue
                z = num // step
                if z > 60:
                    continue
                c = key_lemma_decompose(a, b, (x, y, z))
                assert c is not None, (a, b, x, y, z)
                c1, c2, c3 = c
                rebuilt = (
                    c1 + c2 * step,
                    c1 + c3 * step,
                    c1 + c2 * a + c3 * b,
                )
                assert rebuilt == (x, y, z)


def test_key_lemma_soundness():
    for a, b in COPRIME_PAIRS:
        step = a + b
        for c1 in range(0, 11, 2):
            for c2 in range(0, 11, 2):
                for c3 in range(0, 11, 2):
                    x = c1 + c2 * step
                    y = c1 + c3 * step
                    z = c1 + c2 * a + c3 * b
                    assert a * x + b * y == step * z


def test_nontrivial_family():
    q1, q2, q3 = nontrivial_family(1)
    assert (q1, q2, q3) == (IntBQF(1, 1, 1), IntBQF(4, 4, 4), IntBQF(1, 0, 3))
    assert [q.discriminant() for q in (q1, q2, q3)] == [-3, -48, -12]
    assert nontrivial_family(2) == (IntBQF(2, 2, 2), IntBQF(8, 8, 8), IntBQF(2, 0, 6))
    with pytest.raises(ValueError):
        nontrivial_family(0)


def test_verify_relation_family():
    q1, q2, q3 = nontrivial_family(1)
    assert verify_sp_relation(q1, q2, q3, 1, 2, 5000) == (True, None)
    for c in (2, 3):
        q1, q2, q3 = nontrivial_family(c)
        assert verify_relation(q1, q2, q3, 1, 2, 2000) == (True, None)
        assert verify_sp_relation(q1, q2, q3, 1, 2, 2000) == (True, None)
    same = IntBQF(1, 0, 1)
    assert verify_relation(same, same, same, 5, 3, 1000) == (True, None)
    bad = (IntBQF(1, 0, 1), IntBQF(1, 0, 2), IntBQF(1, 0, 3))
    assert verify_relation(*bad, 1, 1, 10) == (False, 1)
    assert verify_sp_relation(*bad, 1, 1, 10) == (False, 1)


@pytest.mark.parametrize("verify", [verify_relation, verify_sp_relation])
def test_verify_first_failure_at_the_boundary(verify):
    # (5,0,5) and (4,0,4) are square, walked on their wedge; (4,1,5) is
    # walked as given.  The defect is 0 up to 18 and first non-zero at 19,
    # so the zero count decides m <= 18 and the scan finds 19 beyond it.
    forms = (IntBQF(5, 0, 5), IntBQF(4, 0, 4), IntBQF(4, 1, 5))
    assert verify(*forms, 1, 1, 19) == (False, 19)
    assert verify(*forms, 1, 1, 60) == (False, 19)
    assert verify(*forms, 1, 1, 18) == (True, None)
    assert verify(*forms, 1, 1, 0) == (True, None)


def test_verify_rejects_degenerate_weights():
    # a = b = 0 would "verify" any three forms
    forms = (IntBQF(1, 0, 1), IntBQF(1, 0, 2), IntBQF(1, 0, 3))
    for a, b in ((0, 0), (-1, 2), (2, -1), (-1, -1)):
        for verify in (verify_relation, verify_sp_relation):
            with pytest.raises(ValueError):
                verify(*forms, a, b, 10)
    assert verify_relation(*forms, 0, 1, 10) == (False, 2)
    assert verify_relation(*forms, 1, 0, 10) == (False, 1)


def test_verify_validates_every_form_and_the_bound():
    forms = (IntBQF(1, 0, 1), IntBQF(1, 0, 2), IntBQF(1, 0, 3))
    for verify in (verify_relation, verify_sp_relation):
        # a form with weight 0 adds nothing to the defect, but is still checked
        with pytest.raises(ValueError):
            verify(IntBQF(1, 0, -1), *forms[1:], 0, 1, 10)
        with pytest.raises(ValueError):
            verify(*forms, 1, 1, -1)
        assert verify(*forms, 1, 1, 0) == (True, None)
        # the order of the checks is q1, m_max, q2, q3
        bad = IntBQF(0, 0, 0)
        with pytest.raises(ValueError, match="form 0,0,0 is not positive-definite"):
            verify(bad, forms[1], bad, 1, 1, -1)
        with pytest.raises(ValueError, match="m_max must be non-negative"):
            verify(forms[0], bad, bad, 1, 1, -1)
        with pytest.raises(ValueError, match="form 1,0,-1 is not positive-definite"):
            verify(forms[0], IntBQF(1, 0, -1), bad, 1, 1, 2**62)


def _positive_definite_forms():
    return st.builds(IntBQF, st.integers(1, 5), st.integers(-4, 4), st.integers(1, 5)).filter(
        IntBQF.is_positive_definite
    )


UNIMODULAR = [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1)), ((1, 0), (-3, 1)), ((1, 0), (0, -1))]


@st.composite
def verification_cases(draw):
    """Three forms and weights: random triples, which mostly fail, and
    triples on which the relation holds."""
    kind = draw(st.sampled_from(["random", "hexagonal", "equal", "equivalent"]))
    if kind == "hexagonal":
        return (*nontrivial_family(draw(st.integers(1, 3))), 1, 2)
    weights = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any))
    if kind == "random":
        return (*draw(st.tuples(*[_positive_definite_forms()] * 3)), *weights)
    q = draw(_positive_definite_forms())
    if kind == "equal":
        return (q, q, q, *weights)
    u1, u2 = draw(st.sampled_from(UNIMODULAR)), draw(st.sampled_from(UNIMODULAR))
    return (q, apply_transform(q, u1), apply_transform(q, u2), *weights)


def _verify_by_coefficients(q1, q2, q3, a, b, m_max, variant):
    """Reference: one coefficient list per form, compared m by m."""
    t1, t2, t3 = (COUNTS[variant](q, m_max) for q in (q1, q2, q3))
    for m, r1, r2, r3 in zip(range(m_max + 1), t1, t2, t3):
        if a * r1 + b * r2 != (a + b) * r3:
            return False, m
    return True, None


@settings(max_examples=150, deadline=None)
@given(verification_cases())
def test_verify_relation_matches_coefficient_reference(case):
    q1, q2, q3, a, b = case
    for variant in ("ordinary", "strongly_primitive"):
        expected = _verify_by_coefficients(q1, q2, q3, a, b, 300, variant)
        assert VERIFY[variant](q1, q2, q3, a, b, 300) == expected


@pytest.mark.parametrize("variant", ["ordinary", "strongly_primitive"])
def test_verify_relation_matches_coefficient_reference_at_20000(variant):
    hexagonal = nontrivial_family(1)
    bad = (IntBQF(1, 0, 1), IntBQF(1, 0, 2), IntBQF(1, 0, 3))
    for forms, a, b, expected in ((hexagonal, 1, 2, (True, None)), (bad, 1, 1, (False, 1))):
        assert _verify_by_coefficients(*forms, a, b, 20000, variant) == expected
        assert VERIFY[variant](*forms, a, b, 20000) == expected


def test_hexagonal_bijections():
    """The three-to-one structure behind the non-trivial identity.

    For m = a^2 + 3b^2: with a, b of equal parity both scaled maps land
    bijectively; with opposite parity the even form misses m and the orbit of
    (a - b, 2b) under the order-3 rotation of the hexagonal form covers each
    solution of x^2 + xy + y^2 = m exactly once.
    """
    q1, q2, q3 = nontrivial_family(1)
    for m in range(1, 2001):
        reps3 = set(representations(q3, m))
        if not reps3:
            continue
        reps1 = set(representations(q1, m))
        reps2 = set(representations(q2, m))
        even = {(a, b) for a, b in reps3 if (a - b) % 2 == 0}
        if even == reps3:
            image2 = {((a - b) // 2, b) for a, b in reps3}
            assert image2 == reps2 and len(image2) == len(reps3)
            image1 = {(a - b, 2 * b) for a, b in reps3}
            assert image1 == reps1 and len(image1) == len(reps3)
        else:
            assert not even and not reps2
            orbit = {}
            for a, b in reps3:
                u, v = a - b, 2 * b
                for w in ((u, v), (-v, u + v), (-u - v, u)):
                    assert orbit.setdefault(w, (a, b)) == (a, b)
            assert set(orbit) == reps1
            assert len(reps1) == 3 * len(reps3)


def test_classify_cases():
    fam = nontrivial_family(1)
    assert classify((Fraction(1, 3), Fraction(2, 3), -1), fam).label == "non-trivial"
    swapped = (fam[1], fam[0], fam[2])
    assert classify((Fraction(2, 3), Fraction(1, 3), -1), swapped).label == "non-trivial"
    q = IntBQF(2, 1, 3)
    assert classify((1, 1, -2), (q, q, q)).label == "trivial-3-term"
    equiv = IntBQF(2, 5, 6)  # (2,1,3) shifted by x -> x + y
    assert classify((2, -2, 0), (q, equiv, IntBQF(1, 0, 7))).label == "trivial-2-term"
    assert classify((0, 0, 0), fam).label == "degenerate"
    wrong = classify((1, 1, -2), (IntBQF(1, 0, 1), IntBQF(1, 0, 2), IntBQF(1, 0, 3)), 50)
    assert wrong.label == "no-relation-detected" and "m=1" in wrong.detail
    with pytest.raises(ObstructionError):
        classify((1, 2, 3), fam)
    # every form is checked, also one whose coefficient is zero, before the
    # coefficients are normalized
    q1, q2 = IntBQF(1, 0, 1), IntBQF(1, 0, 2)
    for alphas, forms in (
        ((0, 1, -1), (IntBQF(0, 0, 0), q1, q2)),
        ((0, 0, 0), (IntBQF(0, 0, 0), q1, q2)),
        ((1, -1, 0), (q1, q1, IntBQF(0, 0, 0))),
        ((1, 2, 3), (q1, q2, IntBQF(1, 0, -1))),
    ):
        with pytest.raises(ValueError, match="not positive-definite"):
            classify(alphas, forms)
    # a negative bound is refused on every path, not only the three-term one
    q7 = IntBQF(1, 0, 7)
    for alphas, forms in (
        ((0, 0, 0), (q, q, q)),
        ((1, -1, 0), (q, q, q7)),
        ((1, -1, 0), (q, q7, q7)),
    ):
        with pytest.raises(ValueError, match="m_max must be non-negative"):
            classify(alphas, forms, -5)


def test_classify_scaled_family():
    for c in (2, 3):
        fam = nontrivial_family(c)
        result = classify((Fraction(1, 3), Fraction(2, 3), -1), fam, 3000)
        assert result.label == "non-trivial" and f"c={c}" in result.detail


def test_gamma1_index_examples_and_pair_count():
    assert [gamma1_index(n) for n in (3, 4, 12)] == [8, 12, 96]
    # Oracle: the index is the number of pairs (c, d) mod N with
    # gcd(c, d, N) = 1, the bottom rows of SL2(Z/N).
    for n in range(1, 41):
        pairs = sum(gcd(gcd(c, d), n) == 1 for c in range(n) for d in range(n))
        assert gamma1_index(n) == pairs, n


def test_sturm_bound_of_the_hexagonal_family():
    assert [sturm_bound(*nontrivial_family(c)) for c in (1, 2, 3)] == [8, 32, 72]
    # levels 4, 8 and 12: N = 24
    assert sturm_bound(IntBQF(1, 0, 1), IntBQF(1, 0, 2), IntBQF(1, 0, 3)) == 32


def _factoring_forbidden(n):
    raise AssertionError(f"gamma1_index({n}) called")


def test_a_bound_that_cannot_undercut_m_max_factors_nothing(monkeypatch):
    # N = lcm(4, 8, 4 * 1000003) with N^2 >= 24 (m_max + 1): the walk goes to
    # m_max without the index.
    far = IntBQF(1, 0, 1000003)
    monkeypatch.setattr(relations, "gamma1_index", _factoring_forbidden)
    for forms, a, b in (
        ((IntBQF(1, 0, 1), IntBQF(1, 0, 2), far), 1, 1),
        ((far, far, far), 2, 3),
    ):
        assert verify_relation(*forms, a, b, 100) == verify_relation_walk(*forms, a, b, 100)
    # The paper's triple has N = 12, so its bound, 8, is computed.
    monkeypatch.undo()
    calls = []
    monkeypatch.setattr(relations, "gamma1_index", lambda n: calls.append(n) or gamma1_index(n))
    assert verify_relation(*nontrivial_family(1), 1, 2, 100) == (True, None)
    assert calls == [12]


def _reduced_forms(max_disc):
    return [
        IntBQF(a, b, c)
        for a in range(1, max_disc + 1)
        for b in range(a + 1)
        for c in range(a, max_disc + 1)
        if 0 < 4 * a * c - b * b <= max_disc
    ]


def test_verify_relation_matches_the_walk_to_m_max():
    # Every ordered triple of reduced forms with |D| <= 30.  The bound cuts
    # the walk short on 1 822 triples, and proves 44 of their 3 644 cases.
    forms = _reduced_forms(30)
    assert len(forms) == 22
    short = proved = 0
    for q1, q2, q3 in product(forms, repeat=3):
        cut = sturm_bound(q1, q2, q3) < 300
        for a, b in ((1, 1), (1, 2)):
            expected = verify_relation_walk(q1, q2, q3, a, b, 300)
            assert verify_relation(q1, q2, q3, a, b, 300) == expected, (q1, q2, q3, a, b)
            short += cut
            proved += cut and expected[0]
    assert (short, proved) == (3644, 44)
    for c in (1, 2, 3):
        forms = nontrivial_family(c)
        assert verify_relation(*forms, 1, 2, 20000) == verify_relation_walk(*forms, 1, 2, 20000)
        assert verify_relation_walk(*forms, 1, 2, 20000) == (True, None)


@pytest.fixture
def walk_lengths(monkeypatch):
    """The m_max of every ``theta_coeffs`` call ``verify_relation`` makes."""
    lengths = []

    def recording(q, m_max, **kwargs):
        lengths.append(m_max)
        return theta_coeffs(q, m_max, **kwargs)

    monkeypatch.setattr(relations, "theta_coeffs", recording)
    return lengths


def test_verify_walks_to_the_sturm_bound(walk_lengths):
    assert verify_relation(*nontrivial_family(1), 1, 2, 200000) == (True, None)
    assert walk_lengths == [8, 8, 8]
    walk_lengths.clear()
    bad = (IntBQF(1, 0, 1), IntBQF(1, 0, 2), IntBQF(1, 0, 3))
    assert verify_relation(*bad, 1, 1, 10) == (False, 1)
    assert walk_lengths == [10, 10, 10]
    # N = lcm(20, 16, 79) = 6320: the bound is far beyond m_max
    forms = (IntBQF(5, 0, 5), IntBQF(4, 0, 4), IntBQF(4, 1, 5))
    for m_max, expected in ((19, (False, 19)), (60, (False, 19)), (18, (True, None))):
        walk_lengths.clear()
        assert verify_relation(*forms, 1, 1, m_max) == expected
        assert walk_lengths == [m_max] * 3


def test_verify_holds_up_to_m_max_below_a_later_failure(walk_lengths):
    # N = 16, bound 64; the defect first leaves 0 at m = 8
    forms = (IntBQF(4, 0, 4), IntBQF(8, 0, 8), IntBQF(4, 0, 8))
    assert sturm_bound(*forms) == 64
    assert verify_relation(*forms, 1, 1, 7) == (True, None)
    assert walk_lengths == [7] * 3
    walk_lengths.clear()
    assert verify_relation(*forms, 1, 1, 200000) == (False, 8)
    assert walk_lengths == [64] * 3


def test_verify_walks_a_prefix_before_a_far_bound(walk_lengths):
    # The bound is 40 002 400 032: a list that long is never built, since
    # the first 1024 coefficients already fail
    far = (IntBQF(1, 0, 1), IntBQF(1, 0, 2), IntBQF(1, 0, 100003))
    assert verify_relation(*far, 1, 1, 2**62) == (False, 1)
    assert walk_lengths == [1024] * 3
    walk_lengths.clear()
    # N = 24000, so the walk goes to m_max once the prefix holds
    forms = (IntBQF(1, 0, 2000), IntBQF(1, 0, 2000), IntBQF(1, 0, 3000))
    assert verify_relation(*forms, 1, 1, 10000) == (False, 2000)
    assert walk_lengths == [1024] * 3 + [10000] * 3
