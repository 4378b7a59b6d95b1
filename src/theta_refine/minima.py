"""The domination order on strongly primitive vectors and minimal subsets.

``u preceq v`` holds when every reduced form takes a value at ``u`` no larger
than at ``v``; it is decided by comparing the three edge forms y^2, x^2 + y^2
and x^2 + xy + y^2.  ``min_complement`` computes the minimal elements of the
strongly primitive vectors outside a finite exclusion set by shrinking the
problem to a finite witness box, and ``min_n`` enumerates every way of picking
the next n minimal vectors in sequence.
"""

from __future__ import annotations

from math import isqrt
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
    """Members not strictly dominated by another member, sorted."""
    vs = [tuple(v) for v in vectors]
    out = []
    for v in vs:
        if not any(u != v and preceq(u, v) for u in vs):
            out.append(v)
    return tuple(sorted(set(out)))


def _exclusion_key(excluded: Iterable[Sequence[int]]) -> frozenset[Pair]:
    if type(excluded) is frozenset:
        return excluded
    return frozenset(tuple(v) for v in excluded)


def _check_exclusion(exc: frozenset[Pair]) -> None:
    for v in exc:
        if not is_strongly_primitive(v):
            raise ValueError(f"exclusion {v} is not strongly primitive")


# Both memos are looked up before the exclusion is checked; the check runs on
# every miss, before anything is stored, so an invalid exclusion is never
# cached.
_min_complement_cache: dict[frozenset[Pair], tuple[Pair, ...]] = {}
_min_n_cache: dict[tuple[frozenset[Pair], int], tuple[tuple[Pair, ...], ...]] = {}


def min_complement(excluded: Iterable[Sequence[int]] = ()) -> tuple[Pair, ...]:
    """Minimal strongly primitive vectors outside the finite exclusion set.

    Picks the first witness (a, 1) not excluded, scanning a = 0, -1, 1, -2,
    2, ...; everything not dominated-from-below by the witness lies in the box
    ||v||_inf <= ceil(sqrt(2 (a^2 + max(a, 0) + 1))), so the minimal set of
    the complement equals the minimal set of a finite subset of that box.
    """
    exc = _exclusion_key(excluded)
    cached = _min_complement_cache.get(exc)
    if cached is not None:
        return cached
    _check_exclusion(exc)

    a = 0
    k = 0
    while (a, 1) in exc:
        k += 1
        a = -((k + 1) // 2) if k % 2 else k // 2
    witness = (a, 1)
    bound2 = 2 * (a * a + max(a, 0) + 1)
    radius = isqrt(bound2)
    if radius * radius < bound2:
        radius += 1
    candidates = [witness]
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            v = (x, y)
            if v == witness or not is_strongly_primitive(v) or v in exc:
                continue
            if not preceq(witness, v):
                candidates.append(v)
    return _min_complement_cache.setdefault(exc, min_of_finite(candidates))


def min_n(excluded: Iterable[Sequence[int]], n: int) -> tuple[tuple[Pair, ...], ...]:
    """All n-element choices of successive minimal vectors outside the exclusion.

    Each choice is reported in construction order (the order the vectors were
    selected); the collection is deduplicated as sets and sorted by the
    canonical sorted tuple.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    exc = _exclusion_key(excluded)
    key = (exc, n)
    cached = _min_n_cache.get(key)
    if cached is not None:
        return cached
    _check_exclusion(exc)
    if n == 0:
        result: tuple[tuple[Pair, ...], ...] = ((),)
    else:
        chosen: dict[frozenset[Pair], tuple[Pair, ...]] = {}
        for prefix in min_n(exc, n - 1):
            for v in min_complement(exc | set(prefix)):
                candidate = prefix + (v,)
                chosen.setdefault(frozenset(candidate), candidate)
        result = tuple(sorted(chosen.values(), key=lambda c: tuple(sorted(c))))
    return _min_n_cache.setdefault(key, result)


def clear_caches() -> None:
    _min_complement_cache.clear()
    _min_n_cache.clear()


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
