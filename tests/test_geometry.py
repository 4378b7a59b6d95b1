"""Cone kernel tests against a brute-force extreme-ray oracle."""

import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from theta_refine import geometry
from theta_refine.geometry import (
    Cone,
    ConeDimensionError,
    NonPointedConeError,
    cone_from_json_dict,
    cones_closed_equal,
    cones_equivalent,
    product3,
    scale_primitive,
)

from oracles import RATIONALS, cone_from_json, cone_to_json, fraction_scale_primitive

V_ROWS = ((-1, 1, 0), (1, 0, -1), (0, 0, 1))
V_STRICT = ((1, 0, 0),)


def _rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def brute_extreme_rays(rows):
    """Oracle for dim 3: a ray is extreme iff it satisfies every row, and the
    rows tight at it have rank 2.  Candidate directions come from cross
    products of row pairs."""
    rays = set()
    for r1, r2 in combinations(rows, 2):
        direction = _cross(r1, r2)
        if direction == (0, 0, 0):
            continue
        for sign in (1, -1):
            w = tuple(sign * x for x in direction)
            if any(sum(a * b for a, b in zip(row, w)) < 0 for row in rows):
                continue
            tight = [row for row in rows if sum(a * b for a, b in zip(row, w)) == 0]
            if _rank(tight) == 2:
                rays.add(scale_primitive(w))
    return tuple(sorted(rays))


def random_rows(rng, n_rows):
    return [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(n_rows)]


def test_reduction_domain_edges():
    v = Cone(3, V_ROWS, V_STRICT)
    assert v.edges() == ((0, 1, 0), (1, 1, 0), (1, 1, 1))
    assert v.member() == (2, 3, 1)
    assert not v.is_member_empty()


def test_edges_single_ray():
    c = Cone(2, [(1, 0), (-1, 0), (0, 1)])
    assert c.edges() == ((0, 1),)


def test_nontrivial_ray_cached_after_intersection():
    vbar = Cone(3, V_ROWS)
    cut = vbar.intersect(Cone(3, [(0, 0, 1), (0, 0, -1)]))
    assert cut.edges() == ((0, 1, 0), (1, 1, 0))


def test_intersection_with_full_space_is_identity():
    vbar = Cone(3, V_ROWS)
    same = vbar.intersect(Cone(3))
    assert same.closed == vbar.closed
    assert same.edges() == vbar.edges()


def test_constructor_dedup_and_validation():
    c = Cone(3, [(1, 0, 0), (2, 0, 0), (1, 0, 0), (0, 0, 0)], [(0, 1, 0)])
    assert c.closed == ((1, 0, 0),)
    with pytest.raises(ConeDimensionError):
        Cone(3, [(1, 0)])
    with pytest.raises(ConeDimensionError):
        Cone(2, [(1, 0)]).intersect(Cone(3))
    with pytest.raises(ConeDimensionError):
        Cone(0, [])
    with pytest.raises(ConeDimensionError):
        c.is_subset_of([(1, 0)])


def test_member_emptiness_cases():
    assert Cone(2, [], [(1, 0), (-1, 0)]).is_member_empty()
    zero = Cone(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    assert Cone(3, zero.closed, [(1, 0, 0)]).is_member_empty()
    assert not Cone(3, V_ROWS, V_STRICT).is_member_empty()
    # closed-only cones always contain the origin
    assert not zero.is_member_empty()


def test_member_emptiness_when_strict_rows_cut_the_closed_cone():
    # a strict row negative on some ray: the ray sum (1, 1) misses it, but
    # (2, 1) is a member
    quadrant = Cone(2, [(1, 0), (0, 1)], [(1, -1)])
    assert not quadrant.is_member_empty()
    assert quadrant.member_contains(quadrant.member())
    # a closed cone that is a line: no rays to sum, but (1,) is a member
    line = Cone(1, [], [(1,)])
    assert not line.is_member_empty()
    assert line.member_contains(line.member())
    # the strict rows cut the quadrant down to the ray (1, 1), where x - y = 0
    assert Cone(2, [(1, 0), (0, 1)], [(1, -1), (-1, 1)]).is_member_empty()
    assert Cone(2, [(1, 0), (0, 1)], [(1, -1), (0, 1)]).member_contains((2, 1))
    assert not Cone(2, [(1, 0), (0, 1)], [(1, -1), (0, 1)]).is_member_empty()
    assert Cone(3, [(1, 0, 0)], [(0, 0, 0)]).is_member_empty()


def test_zero_cone_detection():
    assert Cone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)]).edges() == ()
    assert Cone(3, V_ROWS).edges() != ()
    with pytest.raises(NonPointedConeError):
        Cone(3).edges()


def test_non_pointed_raises():
    with pytest.raises(NonPointedConeError):
        Cone(3, [(1, 0, 0)]).edges()
    with pytest.raises(NonPointedConeError):
        Cone(2).edges()


def test_subset_of_subspace():
    v = Cone(3, V_ROWS)
    assert v.is_subset_of([])
    assert not v.is_subset_of([(1, -1, 0)])
    line = Cone(3, [(1, -1, 0), (-1, 1, 0), (0, 0, 1), (0, 0, -1), (1, 0, 0)])
    assert line.is_subset_of([(1, -1, 0)])


def test_subset_of_subspace_for_non_pointed_cones():
    # Exact through the rays and the lineality generators of the closed cone.
    assert Cone(2, [(1, 0), (-1, 0)]).is_subset_of([(1, 0)])
    assert not Cone(2, []).is_subset_of([(1, 0)])
    # the half-plane z = 0, x >= 0: ray (1, 0, 0), lineality (0, 1, 0)
    half = Cone(3, [(0, 0, 1), (0, 0, -1), (1, 0, 0)])
    assert half.is_subset_of([(0, 0, 1)])
    assert not half.is_subset_of([(1, 0, 0)])
    assert not half.is_subset_of([(0, 1, 0)])


def test_closed_equality_for_non_pointed_cones():
    # Mutual containment when either cone has a line; sorted rays otherwise.
    plane = Cone(2)
    half = Cone(2, [(1, 0)])
    line = Cone(2, [(1, 0), (-1, 0)])
    assert cones_closed_equal(plane, Cone(2))
    assert cones_equivalent(half, Cone(2, [(1, 0)]))
    assert cones_equivalent(half, Cone(2, [(3, 0), (Fraction(1, 2), 0)]))
    assert not cones_closed_equal(line, half) and not cones_closed_equal(half, line)
    assert not cones_closed_equal(half, plane)
    assert not cones_equivalent(half, Cone(2, [(1, 0)], [(0, 1)]))
    quadrant = Cone(2, [(1, 0), (0, 1)])
    assert cones_closed_equal(quadrant, Cone(2, [(1, 0), (0, 1), (1, 1)]))
    assert not cones_closed_equal(quadrant, Cone(2, [(1, 0), (1, 1)]))
    assert not cones_closed_equal(quadrant, half)
    # cones of different dimensions are never equal, not even the whole spaces
    assert not cones_closed_equal(Cone(3), Cone(9))


@pytest.mark.parametrize("point", [(5,), (1, 2, 3)])
def test_containment_rejects_wrong_length_points(point):
    cone = Cone(2, [(1, 0)])
    with pytest.raises(ConeDimensionError):
        cone.closed_contains(point)
    with pytest.raises(ConeDimensionError):
        cone.member_contains(point)


def test_product3_blocks():
    v = Cone(3, V_ROWS, V_STRICT)
    v.edges()
    p = product3(v, v, v)
    assert p.dim == 9
    assert len(p.closed) == 9 and len(p.strict) == 3
    rays = p.edges()
    assert len(rays) == 9
    assert (1, 1, 1, 0, 0, 0, 0, 0, 0) in rays
    assert (0, 0, 0, 0, 1, 0, 0, 0, 0) in rays


def test_product3_full_space_construction():
    p = product3(Cone(3), Cone(3), Cone(3))
    assert p.dim == 9 and p.closed == () and p.strict == ()


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=3, max_size=8), st.randoms())
def test_edges_match_brute_force(rows, rng):
    cone = Cone(3, rows)
    if _rank(cone.closed) < 3:
        with pytest.raises(NonPointedConeError):
            cone.edges()
        return
    assert cone.edges() == brute_extreme_rays(cone.closed)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=3, max_size=8), st.integers(0, 10**6))
def test_h_v_round_trip(rows, seed):
    cone = Cone(3, rows)
    if _rank(cone.closed) < 3:
        return
    rays = cone.edges()
    for r in rays:
        assert all(sum(a * b for a, b in zip(row, r)) >= 0 for row in cone.closed)
    rng = random.Random(seed)
    for _ in range(5):
        coeffs = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in rays]
        point = [sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(3)]
        assert cone.closed_contains(point)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=2, max_size=5),
    st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=2, max_size=5),
)
def test_intersection_commutative_and_cache_sound(rows1, rows2):
    c1, c2 = Cone(3, rows1), Cone(3, rows2)
    merged = Cone(3, list(rows1) + list(rows2))
    if _rank(merged.closed) < 3:
        return
    scratch = merged.edges()
    assert c1.intersect(c2).edges() == scratch
    assert c2.intersect(c1).edges() == scratch


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=3, max_size=8))
def test_witness_satisfies_all_rows(rows):
    cone = Cone(3, rows, [(1, 1, 1)])
    if _rank(cone.closed) < 3:
        return
    if not cone.is_member_empty():
        w = cone.member()
        assert all(sum(a * b for a, b in zip(row, w)) >= 0 for row in cone.closed)
        assert all(sum(a * b for a, b in zip(row, w)) > 0 for row in cone.strict)


def test_intersection_associative():
    rng = random.Random(41)
    checked = 0
    while checked < 25:
        cones = [
            Cone(3, [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)])
            for _ in range(3)
        ]
        a, b, c = cones
        if _rank(a.closed + b.closed + c.closed) < 3:
            continue
        left = a.intersect(b).intersect(c)
        right = a.intersect(b.intersect(c))
        assert left.edges() == right.edges()
        checked += 1


def test_rational_rows_normalized():
    c = Cone(2, [(Fraction(1, 2), Fraction(3, 4))])
    assert c.closed == ((2, 3),)
    assert scale_primitive((Fraction(-4, 6), Fraction(2, 3))) == (-1, 1)


RATIONAL_ROWS = st.lists(st.lists(RATIONALS, min_size=3, max_size=3), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(RATIONALS, min_size=3, max_size=3), RATIONAL_ROWS, RATIONAL_ROWS)
def test_rational_inputs_match_the_fraction_oracle(point, closed, strict):
    # lcm and gcd on numerators and denominators against the Fraction code
    # they replace; containment against dot products taken in Fractions
    assert scale_primitive(point) == fraction_scale_primitive(point)
    cone = Cone(3, closed, strict)
    scaled = [fraction_scale_primitive(row) for row in closed]
    assert cone.closed == tuple(dict.fromkeys(row for row in scaled if any(row)))
    assert cone.strict == tuple(dict.fromkeys(fraction_scale_primitive(row) for row in strict))
    p = [Fraction(x) for x in point]
    inside = all(sum(a * x for a, x in zip(row, p)) >= 0 for row in cone.closed)
    assert cone.closed_contains(point) == inside
    member = inside and all(sum(b * x for b, x in zip(row, p)) > 0 for row in cone.strict)
    assert cone.member_contains(point) == member


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_float_or_str_entries_raise_a_one_line_type_error(bad):
    calls = (
        lambda: scale_primitive((1, bad)),
        lambda: Cone(2, [(1, bad)]),
        lambda: Cone(2, [], [(bad, 1)]),
        lambda: Cone(2).closed_contains((1, bad)),
        lambda: Cone(2).member_contains((bad, 1)),
    )
    for call in calls:
        with pytest.raises(TypeError) as info:
            call()
        assert "\n" not in str(info.value) and repr(bad) in str(info.value)


def test_json_round_trip():
    v = Cone(3, V_ROWS, V_STRICT)
    v.edges()
    text = cone_to_json(v)
    parsed = json.loads(text)
    assert parsed["A"] and all(isinstance(x, str) for row in parsed["A"] for x in row)
    back = cone_from_json(text)
    assert cones_closed_equal(v, back)
    assert back.strict == v.strict


def test_json_load_ignores_stored_rays():
    # A dump's rays are output only: a tampered ray list must not change
    # the loaded cone's rays or its emptiness verdict.
    cone = cone_from_json_dict(
        {"dim": 2, "A": [["1", "0"], ["0", "1"]], "B": [["1", "0"]], "rays": [["-1", "0"]]}
    )
    assert cone.edges() == ((0, 1), (1, 0))
    assert not cone.is_member_empty()


def _int_rows(dim, max_size):
    return st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=max_size)


_BOX = {dim: list(product(range(-3, 4), repeat=dim)) for dim in (2, 3, 4)}


@st.composite
def _rows_and_strict(draw):
    dim = draw(st.integers(2, 4))
    return dim, draw(_int_rows(dim, 5)), draw(_int_rows(dim, 3))


@settings(max_examples=120, deadline=None)
@given(_rows_and_strict())
def test_member_emptiness_against_lattice_search(spec):
    # A "non-empty" verdict comes with a member (the witness); an "empty"
    # verdict must survive a brute-force search of the lattice box.
    dim, closed, strict = spec
    cone = Cone(dim, closed, strict)
    if cone.is_member_empty():
        assert not any(cone.member_contains(p) for p in _BOX[dim])
    else:
        assert cone.member_contains(cone.member())


@st.composite
def _row_pair(draw):
    dim = draw(st.integers(2, 4))
    return (
        dim,
        draw(_int_rows(dim, 6)),
        draw(_int_rows(dim, 6)),
        draw(_int_rows(dim, 2)),
        draw(_int_rows(dim, 2)),
    )


@settings(max_examples=150, deadline=None)
@given(_row_pair())
def test_intersect_equals_public_construction(rows):
    # The intersection's DD resumes from the left operand's description,
    # pointed or not.
    dim, a, b, sa, sb = rows
    left, right = Cone(dim, a, sa), Cone(dim, b, sb)
    merged = Cone(dim, a + b, sa + sb)
    inter = left.intersect(right)
    assert inter.closed == merged.closed
    assert inter.strict == merged.strict
    assert cones_closed_equal(inter, merged)
    try:
        expected = merged.edges()
    except NonPointedConeError:
        with pytest.raises(NonPointedConeError):
            inter.edges()
        return
    assert inter.edges() == expected
    assert_exact_description(inter)


def test_intersect_resumes_from_lineality():
    # A half-space is described by no ray and two lineality generators.
    half = Cone(3, [(1, 0, 0)])
    assert len(half._closed_description()[1]) == 2
    inter = half.intersect(Cone(3, V_ROWS))
    assert inter.edges() == Cone(3, ((1, 0, 0),) + V_ROWS).edges()
    assert_exact_description(inter)


def test_member_exact_path_inserts_only_strict_rows(monkeypatch):
    # Rows inserted per DD: the closed description, then the cut by the
    # strict rows resumed from it.  The second cone's closed description
    # has a lineality generator.
    inserted = []
    extreme_rays = geometry._extreme_rays

    def counting_dd(rows, dim, seed_rays=None, seed_count=0, *rest):
        inserted.append(len(rows) - (seed_count if seed_rays is not None else 0))
        return extreme_rays(rows, dim, seed_rays, seed_count, *rest)

    monkeypatch.setattr(geometry, "_extreme_rays", counting_dd)
    for closed, rows in (([(1, 0), (0, 1)], [2, 2]), ([(1, 0)], [1, 2])):
        inserted.clear()
        assert Cone(2, closed, [(1, -1), (0, 1)]).member() == (2, 1)
        assert inserted == rows


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), _int_rows(3, 4), _int_rows(3, 2)), min_size=3, max_size=3))
def test_product3_rows_equal_embedded_construction(specs):
    # strict rows include zero rows, which coincide after embedding
    cones = []
    for dim, closed, strict in specs:
        closed = [row[:dim] for row in closed]
        strict = [row[:dim] for row in strict] + [(0,) * dim]
        cones.append(Cone(dim, closed, strict))
    total = sum(c.dim for c in cones)
    embedded_closed, embedded_strict, offset = [], [], 0
    for dim, closed, strict in specs:
        left, right = (0,) * offset, (0,) * (total - offset - dim)
        embedded_closed += [left + row[:dim] + right for row in closed]
        embedded_strict += [left + row[:dim] + right for row in strict] + [(0,) * total]
        offset += dim
    reference = Cone(total, embedded_closed, embedded_strict)
    p = product3(*cones)
    assert p.dim == total
    assert p.closed == reference.closed
    assert p.strict == reference.strict


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=5), st.integers(1, 50), st.lists(st.booleans(), min_size=5, max_size=5))
def test_scale_primitive_int_path_matches_fraction_path(ints, den, picks):
    # the all-int fast path against the Fraction path on the same direction
    expected = scale_primitive([Fraction(x) for x in ints])
    assert scale_primitive(ints) == scale_primitive(tuple(ints)) == expected
    # and the unchecked integer helper of the DD and the row builders
    assert geometry._primitive(tuple(ints)) == expected
    assert scale_primitive([Fraction(x, den) for x in ints]) == expected
    mixed = [Fraction(x * den, den) if pick else x for x, pick in zip(ints, picks)]
    assert scale_primitive(mixed) == expected
    assert all(type(x) is int for x in expected)
    assert all(x * y >= 0 for x, y in zip(expected, ints))
    if any(ints):
        g = 0
        for x in expected:
            g = gcd(g, x)
        assert g == 1
    else:
        assert expected == (0,) * len(ints)


def test_scale_primitive_edge_cases():
    assert scale_primitive(()) == ()
    assert scale_primitive((0, 0, 0)) == (0, 0, 0)
    assert scale_primitive((Fraction(0), 0)) == (0, 0)
    assert scale_primitive((-4, 6, -8)) == (-2, 3, -4)
    assert scale_primitive((-7,)) == (-1,)
    assert scale_primitive((Fraction(-1, 2), 3)) == (-1, 6)


def assert_exact_description(cone):
    """Each stored ray satisfies every closed row, is primitive and extreme
    (tight rows of rank dim - 1), its cached mask is its tight set
    recomputed from the rows, and the seeded DD agrees with an unseeded
    one."""
    rays = cone.edges()
    masks = cone._desc[2]
    assert len(masks) == len(rays)
    for k, ray in enumerate(rays):
        dots = [sum(a * b for a, b in zip(row, ray)) for row in cone.closed]
        assert all(d >= 0 for d in dots)
        g = 0
        for x in ray:
            g = gcd(g, x)
        assert g == 1
        tight = [row for row, d in zip(cone.closed, dots) if d == 0]
        assert _rank(tight) == cone.dim - 1
        assert masks[k] == sum(1 << i for i, d in enumerate(dots) if d == 0)
    assert Cone(cone.dim, cone.closed).edges() == rays


def test_dd_invariants_on_reference_run(run_12):
    # Every cone of the (1, 2) diagonal/14 run.
    for gen in run_12.generations:
        for pair in gen:
            assert_exact_description(pair.cone)
