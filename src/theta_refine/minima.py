"""The domination order on strongly primitive vectors and minimal subsets.

``u preceq v`` holds when every reduced form takes a value at ``u`` no larger
than at ``v``; it is decided by comparing the three edge forms y^2, x^2 + y^2
and x^2 + xy + y^2.  ``min_of_finite`` sorts vectors by their edge values, so
a dominator always comes before what it dominates, and checks each vector
only against the dominators kept so far.  ``min_complement`` computes the
minimal elements of the strongly primitive vectors outside a finite
exclusion set: a witness (a, 1) outside the exclusion dominates all but
finitely many of them, and the rest are enumerated row by row.  ``min_n``
enumerates every way of picking the next n minimal vectors in sequence.
"""

from __future__ import annotations

from itertools import groupby
from math import gcd, isqrt
from operator import itemgetter
from typing import Iterable, Sequence

from .quadform import BQF, in_v, is_strongly_primitive

Pair = tuple[int, int]


def edge_values(v: Sequence[int]) -> tuple[int, int, int]:
    x, y = v
    return (y * y, x * x + y * y, x * x + x * y + y * y)


def preceq(u: Sequence[int], v: Sequence[int]) -> bool:
    """u dominated by v under every reduced form."""
    eu, ev = edge_values(u), edge_values(v)
    return eu[0] <= ev[0] and eu[1] <= ev[1] and eu[2] <= ev[2]


def min_of_finite(vectors: Iterable[Sequence[int]]) -> tuple[Pair, ...]:
    """Members not dominated by a different member, sorted.

    Equal edge values mean equal vectors or an antipodal pair v, -v; the two
    members of such a pair dominate each other, so both are dropped, but they
    still dominate later vectors.  Sorted by edge values, a strict dominator comes
    first, and domination is transitive, so each vector is checked only
    against the vectors kept so far plus those antipodal pairs.  Sorting
    makes the first edge value non-decreasing, so only the other two are
    compared.
    """
    ranked = sorted((edge_values(v), v) for v in {tuple(v) for v in vectors})
    out = []
    dominators: list[tuple[int, int, int]] = []
    for e, group in groupby(ranked, key=itemgetter(0)):
        if any(d[1] <= e[1] and d[2] <= e[2] for d in dominators):
            continue
        dominators.append(e)
        members = [v for _, v in group]
        if len(members) == 1:
            out.extend(members)
    return tuple(sorted(out))


_min_complement_cache: dict[frozenset[Pair], tuple[Pair, ...]] = {}


def min_complement(excluded: Iterable[Sequence[int]] = ()) -> tuple[Pair, ...]:
    """Minimal strongly primitive vectors outside the finite exclusion set.

    The exclusion must be strongly primitive; it is checked on a memo miss,
    before the memo stores anything, so an invalid one raises every time.

    Picks the first witness (a, 1) not excluded, scanning a = 0, -1, 1, -2,
    2, ...  A vector other than the witness that the witness dominates is
    never minimal, so the candidates are the witness and the vectors (x, y)
    that escape its domination: the row y = 0, where (1, 0) is the only
    strongly primitive vector, and the vectors with x^2 + y^2 < a^2 + 1 or
    (2x + y)^2 + 3y^2 < 4(a^2 + a + 1).  Both regions are bounded, so the
    minimal set of the complement is the minimal set of finitely many
    candidates.  In each row y >= 1 they are at most two intervals of x,
    whose ends come from ``isqrt``; the witness lies in neither.
    """
    exc = excluded if type(excluded) is frozenset else frozenset(tuple(v) for v in excluded)
    cached = _min_complement_cache.get(exc)
    if cached is not None:
        return cached
    for v in exc:
        if not is_strongly_primitive(v):
            raise ValueError(f"exclusion {v} is not strongly primitive")
    a = 0
    k = 0
    while (a, 1) in exc:
        k += 1
        a = -((k + 1) // 2) if k % 2 else k // 2
    witness = (a, 1)
    candidates = [witness]
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
        for x in xs:
            v = (x, y)
            if v not in exc and gcd(x, y) == 1:
                candidates.append(v)
        y += 1
    return _min_complement_cache.setdefault(exc, min_of_finite(candidates))


def min_n(excluded: Iterable[Sequence[int]], n: int) -> tuple[tuple[Pair, ...], ...]:
    """All n-element choices of successive minimal vectors outside the exclusion.

    Each choice is reported in construction order (the order the vectors were
    selected); the collection is deduplicated as sets and sorted by the
    canonical sorted tuple.  The exclusion is checked by ``min_complement``,
    which is called at least once, so an invalid exclusion raises also for
    ``n == 0``.  Not memoised; ``ksets.Chain.choices`` is.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    exc = frozenset(tuple(v) for v in excluded)
    minimal = min_complement(exc)
    result: tuple[tuple[Pair, ...], ...] = ((),)
    for _ in range(n):
        chosen: dict[frozenset[Pair], tuple[Pair, ...]] = {}
        for prefix in result:
            for v in min_complement(exc | set(prefix)) if prefix else minimal:
                candidate = prefix + (v,)
                chosen.setdefault(frozenset(candidate), candidate)
        result = tuple(sorted(chosen.values(), key=lambda c: tuple(sorted(c))))
    return result


def clear_caches() -> None:
    _min_complement_cache.clear()


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
