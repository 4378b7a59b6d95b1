"""Test-only oracles: independent reference code the tests check the engine
against.  No refinement, verification or CLI command uses any of it, so it
lives with the tests and costs the package's import nothing.

* ``BQF``, ``in_v`` and ``to_bqf``: real forms as the rational point
  ``(q11, q22, q12)`` of the cone coordinates, and the reduction domain.
* ``representations`` to ``sp_from_rep_moebius``: per-point representation
  counts, the oracles of ``quadform.theta_coeffs`` and ``sp_theta_coeffs``.
* ``is_successive_minima_prefix``: a box search, the oracle of ``minima``.
* ``min_complement_row_scan``: ``minima.min_complement`` as it was built
  before witness regions were ranked once: the witness's region scanned row
  by row for each exclusion, then ranked by ``minima.min_of_finite``.
* ``count_n``: the number of choices of each size, as the levels of
  ``minima._min_n``'s walk, the oracle of ``minima._count``.
* ``cone_to_json`` and ``cone_from_json``: the JSON text round trip of a cone.
* ``fraction_scale_primitive`` and ``fraction_normalize``: the ``Fraction``
  versions of ``geometry.scale_primitive`` and ``relations.normalize``, which
  now clear denominators with ``lcm`` and reduce with ``gcd``, and
  ``RATIONALS``, the ``int`` and ``Fraction`` inputs they are compared on.
* ``verify_relation_walk``: ``relations.verify_relation`` without the Sturm
  bound, walking every form to ``m_max``.
* ``live_classes`` and ``check_y_projection_argument``: a run's live
  classes per generation, refined generation by generation with
  ``refinement._refine_classes`` and classified by the run's table, and the
  y-projection check on them, the oracle of ``refinement.y_projection_holds``.
* ``naive_log``: a run's counts per generation from a loop over pairs that
  builds every child as an intersection and classifies it, with no memo,
  no table and no chain: the oracle of ``refinement.run_algorithm``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from math import gcd, isqrt
from typing import Iterable, Iterator, Sequence

from hypothesis import strategies as st

from theta_refine.geometry import Cone, Vector, cone_from_json_dict, cone_to_json_dict, product3
from theta_refine.ksets import V_CONE, kset
from theta_refine.minima import _min_complement, min_n, min_of_finite
from theta_refine.quadform import IntBQF, is_strongly_primitive, theta_coeffs
from theta_refine.refinement import (
    _LIVE,
    RefinementClass,
    RefinementPair,
    RunResult,
    _refine_classes,
    linset,
    stop_set,
)
from theta_refine.relations import (
    DegenerateRelation,
    NormalizedRelation,
    ObstructionError,
    TwoTermRelation,
)

Pair = tuple[int, int]

RATIONALS = st.one_of(
    st.integers(-60, 60), st.fractions(min_value=-60, max_value=60, max_denominator=12)
)


@dataclass(frozen=True)
class BQF:
    """Real-valued form as the rational tuple (q11, q22, q12)."""

    q11: Fraction
    q22: Fraction
    q12: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q11", Fraction(self.q11))
        object.__setattr__(self, "q22", Fraction(self.q22))
        object.__setattr__(self, "q12", Fraction(self.q12))

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.q11, self.q22, self.q12)

    def evaluate(self, v: Sequence[int]) -> Fraction:
        x, y = v
        return self.q11 * x * x + self.q12 * x * y + self.q22 * y * y

    def is_positive_definite(self) -> bool:
        return self.q11 > 0 and 4 * self.q11 * self.q22 - self.q12 * self.q12 > 0


def in_v(q: BQF) -> bool:
    """Membership in the reduction domain: q22 >= q11 >= q12 >= 0 and q11 > 0."""
    return q.q22 >= q.q11 and q.q12 >= 0 and q.q11 >= q.q12 and q.q11 > 0


def to_bqf(q: IntBQF) -> BQF:
    """The integer form a x^2 + b xy + c y^2 as the point (q11, q22, q12) = (a, c, b)."""
    return BQF(q.a, q.c, q.b)


def representations(q: IntBQF, m: int) -> Iterator[Pair]:
    """All integer vectors with Q(v) = m, by exact per-column quadratic solving."""
    if not q.is_positive_definite():
        raise ValueError(f"form {q} is not positive-definite")
    if m < 0:
        return
    if m == 0:
        yield (0, 0)
        return
    a, b = q.a, q.b
    disc = -q.discriminant()
    ymax = isqrt(4 * a * m // disc)
    for y in range(-ymax, ymax + 1):
        e = 4 * a * m - disc * y * y
        s = isqrt(e)
        if s * s != e:
            continue
        for root in {s, -s}:
            num = -b * y + root
            if num % (2 * a) == 0:
                yield (num // (2 * a), y)


def rep_number(q: IntBQF, m: int) -> int:
    return sum(1 for _ in representations(q, m))


def sp_representations(q: IntBQF, m: int) -> list[Pair]:
    return [v for v in representations(q, m) if is_strongly_primitive(v)]


def sp_rep_number(q: IntBQF, m: int) -> int:
    return len(sp_representations(q, m))


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius is defined for positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


def sp_from_rep_moebius(q: IntBQF, m: int) -> int:
    """Strongly primitive count recovered from ordinary counts by inversion.

    Every solution of Q(v) = m is g * w with w primitive and Q(w) = m / g^2,
    so r(m) = sum over d^2 | m of 2 * sp(m / d^2); Moebius inversion over the
    square divisors gives sp back.
    """
    if m < 1:
        raise ValueError("inversion needs m >= 1")
    total = 0
    d = 1
    while d * d <= m:
        if m % (d * d) == 0:
            mu = moebius(d)
            if mu:
                total += mu * rep_number(q, m // (d * d))
        d += 1
    return total // 2


def _min_value_over_complement(q: BQF, excluded: frozenset[Pair]):
    """min Q(v) over strongly primitive v outside the exclusion, by box search.

    Independent of the minimal-subset machinery on purpose: it serves as the
    checking side of successive-minima verification.  Outside the box of
    radius r every value exceeds q11 * r^2 / 2, so the search stops as soon as
    the best value found is at most that threshold.
    """
    radius = 1
    best = None
    while True:
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                v = (x, y)
                if not is_strongly_primitive(v) or v in excluded:
                    continue
                val = q.evaluate(v)
                if best is None or val < best:
                    best = val
        if best is not None and 2 * best <= q.q11 * radius * radius:
            return best
        radius *= 2


def is_successive_minima_prefix(q: BQF, sets: Sequence[Iterable[Sequence[int]]]) -> bool:
    """Whether the given sets are a truncated successive-minima sequence of q.

    Each non-empty set must take a single value under q, namely the minimum of
    q over the strongly primitive vectors not consumed by the earlier sets.
    Empty sets are allowed anywhere and impose nothing.
    """
    if not in_v(q):
        raise ValueError(f"form {q.as_tuple()} is not in the reduction domain")
    normalized = [tuple(tuple(v) for v in s) for s in sets]
    flat: list[Pair] = [v for s in normalized for v in s]
    if len(flat) != len(set(flat)):
        raise ValueError("sets must be pairwise disjoint")
    for v in flat:
        if not is_strongly_primitive(v):
            raise ValueError(f"{v} is not strongly primitive")
    consumed: frozenset[Pair] = frozenset()
    for s in normalized:
        if s:
            target = _min_value_over_complement(q, consumed)
            if any(q.evaluate(v) != target for v in s):
                return False
        consumed |= frozenset(s)
    return True


def min_complement_row_scan(excluded: Iterable[Sequence[int]]) -> tuple[Pair, ...]:
    """Minimal strongly primitive vectors outside ``excluded``: the first
    witness (a, 1) not excluded, (1, 0) unless excluded, and every vector
    of the rows y >= 1 that escapes the witness's domination and is not
    excluded, ranked by ``min_of_finite``."""
    exc = frozenset(tuple(v) for v in excluded)
    a, k = 0, 0
    while (a, 1) in exc:
        k += 1
        a = -((k + 1) // 2) if k % 2 else k // 2
    candidates = [(a, 1)]
    if (1, 0) not in exc:
        candidates.append((1, 0))
    norm = a * a + 1
    hex4 = 4 * (a * a + a + 1)
    y = 1
    while y * y < norm or 3 * y * y < hex4:
        xs: set[int] = set()
        if y * y < norm:
            r = isqrt(norm - 1 - y * y)
            xs.update(range(-r, r + 1))
        if 3 * y * y < hex4:
            s = isqrt(hex4 - 1 - 3 * y * y)
            xs.update(range((-s - y + 1) // 2, (s - y) // 2 + 1))
        candidates += ((x, y) for x in xs if (x, y) not in exc and gcd(x, y) == 1)
        y += 1
    return min_of_finite(candidates)


def count_n(exc: frozenset[Pair], n: int) -> list[int]:
    """``len(minima._min_n(exc, k))`` for ``k = 0..n``, for a checked
    exclusion: ``_min_n``'s walk over the sets of each level, with no tuples
    and no sort.  Every set it reaches enters ``_min_complement``'s memo."""
    level, sizes = {frozenset()}, [1]
    for _ in range(n):
        level = {p.union((v,)) for p in level for v in _min_complement(exc.union(p))}
        sizes.append(len(level))
    return sizes


def cone_to_json(cone: Cone) -> str:
    return json.dumps(cone_to_json_dict(cone))


def cone_from_json(text: str) -> Cone:
    return cone_from_json_dict(json.loads(text))


def fraction_scale_primitive(v: Sequence) -> Vector:
    """Scale a rational vector by a positive factor to primitive integer form.

    Clears denominators and divides by the gcd of the entries.  The scale
    factor is always positive, so the direction of a ray is preserved.  A
    vector of ``int`` entries needs only the gcd.
    """
    if all(type(x) is int for x in v):
        ints = v
    else:
        fracs = [Fraction(x) for x in v]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        ints = [int(f * den) for f in fracs]
    g = gcd(*ints)
    if g > 1:
        return tuple(x // g for x in ints)
    return tuple(ints)


def fraction_normalize(alpha1, alpha2, alpha3) -> NormalizedRelation | DegenerateRelation | TwoTermRelation:
    """Normalize rational coefficients summing to zero.

    All zero gives the degenerate marker; exactly one zero gives the 2-term
    marker.  Otherwise the relation is rescaled so exactly one coefficient is
    negative, that index moves to the right-hand side, and the two left
    coefficients scale to a/(a+b) and b/(a+b) in lowest terms.
    """
    alphas = [Fraction(alpha1), Fraction(alpha2), Fraction(alpha3)]
    if all(x == 0 for x in alphas):
        return DegenerateRelation()
    if sum(alphas) != 0:
        raise ObstructionError(f"coefficients {', '.join(map(str, alphas))} do not sum to zero")
    zeros = [i for i, x in enumerate(alphas) if x == 0]
    if len(zeros) == 1:
        i, j = (k for k in range(3) if k != zeros[0])
        return TwoTermRelation(i + 1, j + 1, zeros[0] + 1)
    # Three non-zero values summing to zero have one or two negatives, so
    # after the sign flip exactly one is negative.
    if sum(x < 0 for x in alphas) == 2:
        alphas = [-x for x in alphas]
    k = next(i for i, x in enumerate(alphas) if x < 0)
    i, j = (idx for idx in range(3) if idx != k)
    beta1 = alphas[i] / -alphas[k]
    a, c = beta1.numerator, beta1.denominator
    return NormalizedRelation(a, c - a, (i + 1, j + 1, k + 1))


def verify_relation_walk(
    q1: IntBQF, q2: IntBQF, q3: IntBQF, a: int, b: int, m_max: int
) -> tuple[bool, int | None]:
    """Check a r_1(m) + b r_2(m) = (a+b) r_3(m) for 0 <= m <= m_max by
    walking every form to m_max: the weighted defect list, its zero count,
    then its first non-zero entry.  Returns (True, None) or (False, first
    failing m)."""
    if (a, b) == (0, 0) or a < 0 or b < 0:
        raise ValueError(f"need weights a, b >= 0 with (a, b) != (0, 0), got ({a}, {b})")
    defect = theta_coeffs(q1, m_max, weight=a)
    theta_coeffs(q2, m_max, weight=b, out=defect)
    theta_coeffs(q3, m_max, weight=-(a + b), out=defect)
    failing = None if defect.count(0) > m_max else next(compress(range(m_max + 1), defect))
    return failing is None, failing


def live_classes(result: RunResult) -> list[dict[RefinementClass, int]]:
    """Each generation's live classes with their multiplicities, the
    classes that the next generation refines, to the log's last: from
    ``result.table.root``, each generation is ``_refine_classes`` of the
    last one's live classes over all shapes, and a class is live when
    ``result.table.verdict`` says so.  After a run with no free block the
    table holds every construction and verdict this needs, so it builds no
    cone and tests none, also after ``clear_caches``."""
    shapes, table = linset(result.a, result.b), result.table
    generations = []
    classes = {table.root: 1}
    for i in range(len(result.log)):
        if i:
            classes, _ = _refine_classes(generations[-1], shapes, table)
        generations.append({c: m for c, m in classes.items() if table.verdict(c.cone) == _LIVE})
    return generations


def check_y_projection_argument(
    items: Iterable[RefinementPair] | Iterable[RefinementClass],
) -> bool:
    """Every live pair chose a non-empty factor-2 set.

    ``items`` are the live pairs or the live classes of a generation: the
    pairs of ``RunResult.generations`` whose cone ``RunResult.table``
    calls live, or an entry of ``live_classes``.  A pair chose a non-empty
    factor-2 set exactly when its factor-2 chain has a non-empty key, and
    the pairs of a class share their chains.  This is the machine-checkable
    core of the argument that, for the relation with zero second
    coefficient, the factor-2 choices carry no information and all genuine
    solutions already lie in the stop set.
    """
    return all(p.chains[1].key for p in items)


def naive_log(a: int, b: int, stop_kind: str, depth: int) -> list[tuple[int, int, int]]:
    """Each generation's ``(total, non_empty, stop_absorbed)`` of the run
    ``run_algorithm(a, b, stop_kind, depth)``, under its stopping rule: to
    generation ``depth``, or to the first with no pair.

    A pair is a cone and its three set sequences; the root is the product
    of three reduction domains with empty sequences.  A pair whose cone has
    a member outside the stop set is live, and each of its children takes a
    shape of the linset and a set ``s_i`` of ``min_n`` outside each
    sequence's vectors: its cone is the pair's cone cut by the product of
    the ``kset`` cones of the extended sequences and by the value links
    between the first elements of the sets, block 1 to blocks 2 and 3 for
    ``(1, 1, 1)`` and otherwise the non-empty one of blocks 1 and 2 to
    block 3.  Every child is built; none is counted or shared.
    """
    shapes, stop = linset(a, b), stop_set(stop_kind)
    pairs = [(product3(V_CONE, V_CONE, V_CONE), ((), (), ()))]
    log = []
    while True:
        kept = [p for p in pairs if not p[0].is_member_empty()]
        live = [p for p in kept if not p[0].is_subset_of(stop)]
        log.append((len(pairs), len(live), len(kept) - len(live)))
        if not pairs or len(log) > depth:
            return log
        pairs = [child for pair in live for shape in shapes for child in _naive_children(pair, shape)]


def _naive_children(pair, shape):
    """The children of one live pair under ``shape`` (see ``naive_log``)."""
    cone, seqs = pair
    choices = [min_n([v for s in seq for v in s], n) for seq, n in zip(seqs, shape)]
    for sets in product(*choices):
        new = tuple(seq + (s,) for seq, s in zip(seqs, sets))
        links = [(0, 1), (0, 2)] if shape == (1, 1, 1) else [(0 if sets[0] else 1, 2)]
        rows = []
        for i, j in links:
            if sets[i] and sets[j]:
                (x, y), (u, v) = sets[i][0], sets[j][0]
                row = [0] * 9
                row[3 * i : 3 * i + 3] = x * x, y * y, x * y
                row[3 * j : 3 * j + 3] = -u * u, -v * v, -u * v
                rows += row, [-c for c in row]
        yield cone.intersect(product3(*map(kset, new)), Cone(9, rows)), new
