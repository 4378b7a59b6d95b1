"""The domination order on strongly primitive vectors and minimal subsets.

``u preceq v`` holds when every reduced form takes a value at ``u`` no larger
than at ``v``; it is decided by comparing the three edge forms y^2, x^2 + y^2
and x^2 + xy + y^2.  ``min_of_finite`` sorts vectors by their edge values, so
a dominator always comes before what it dominates, and checks each vector
only against the dominators kept so far.  ``min_complement`` computes the
minimal elements of the strongly primitive vectors outside a finite
exclusion set: a witness (a, 1) outside the exclusion dominates all but
finitely many of them, and the rest, the witness's region, are enumerated
and ranked by edge values once per witness, so a build is one pass over a
ranked region.  ``min_n`` enumerates every way of picking the next n
minimal vectors in sequence; ``_count`` counts them.  The public functions
check their exclusion; the private ones take one that is already checked.

The regions nest.  The witnesses (0, 1), (-1, 1), (1, 1), (-2, 1), ... of
the scan order form a domination chain, and the region of ``w``, the
witness and every vector that ``w`` does not dominate, is a down-set; so
each region lies in the next.  A finite set that misses the witness ``w``
has its minimal complement in the region of ``w``: a vector above ``w`` is
not minimal while ``w`` is outside the set.  ``_count`` walks one box per
process (``_Box``), the region of the last witness it took in, which grows
by one region only when a set the walk reaches holds that witness.
"""

from __future__ import annotations

from itertools import groupby
from math import gcd, isqrt
from operator import itemgetter
from typing import Iterable, Sequence

from .quadform import is_strongly_primitive

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
# The ranked candidate region of each witness (a, 1), keyed by a.
_regions: dict[int, tuple[tuple[tuple[int, int, int], Pair], ...]] = {}


def _witness(k: int) -> int:
    """``a`` of the ``k``-th witness (a, 1) in the scan order 0, -1, 1, -2,
    2, ..., which ``_min_complement`` steps inline."""
    return -((k + 1) // 2) if k % 2 else k // 2


def _region(a: int) -> tuple[tuple[tuple[int, int, int], Pair], ...]:
    """The candidates of the witness (a, 1) as ``(edge_values(v), v)``, sorted.

    A vector other than the witness that the witness dominates is never
    minimal, so the candidates are the witness and the strongly primitive
    vectors (x, y) that escape its domination: the row y = 0, where (1, 0)
    is the only one, and the vectors with x^2 + y^2 < a^2 + 1 or
    (2x + y)^2 + 3y^2 < 4(a^2 + a + 1).  Both regions are bounded; in each
    row y >= 1 they are at most two intervals of x, whose ends come from
    ``isqrt``, and the witness lies in neither.  Memoised per witness.
    """
    region = _regions.get(a)
    if region is None:
        vectors = {(a, 1), (1, 0)}
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
            vectors.update((x, y) for x in xs if gcd(x, y) == 1)
            y += 1
        region = _regions.setdefault(a, tuple(sorted((edge_values(v), v) for v in vectors)))
    return region


def _min_complement(exc: frozenset[Pair]) -> tuple[Pair, ...]:
    """``min_complement`` of an exclusion known to be strongly primitive.

    Picks the first witness (a, 1) not excluded, scanning a = 0, -1, 1, -2,
    2, ..., and walks its ranked region once: an excluded vector is skipped,
    and any other is kept unless a kept vector dominates it.  This is
    ``min_of_finite`` of the region's vectors outside the exclusion: no two
    of them have equal edge values (that takes v and -v), and a dominator
    comes first in the ranking, with a first edge value no larger, so only
    the other two are compared.
    """
    cached = _min_complement_cache.get(exc)
    if cached is not None:
        return cached
    a = 0
    k = 0
    while (a, 1) in exc:
        k += 1
        a = -((k + 1) // 2) if k % 2 else k // 2
    out = []
    kept: list[tuple[int, int]] = []
    for (_, e1, e2), v in _region(a):
        if v in exc:
            continue
        for d1, d2 in kept:
            if d1 <= e1 and d2 <= e2:
                break
        else:
            kept.append((e1, e2))
            out.append(v)
    out.sort()
    return _min_complement_cache.setdefault(exc, tuple(out))


def min_complement(excluded: Iterable[Sequence[int]] = ()) -> tuple[Pair, ...]:
    """Minimal strongly primitive vectors outside the finite exclusion set.

    The exclusion must be strongly primitive; it is checked on a memo miss,
    before the memo stores anything, so an invalid one raises every time.
    The minimal set is that of a finite region of a witness (a, 1) outside
    the exclusion (``_region``), ranked once per witness and walked once per
    exclusion (``_min_complement``).
    """
    exc = excluded if type(excluded) is frozenset else frozenset(tuple(v) for v in excluded)
    if exc not in _min_complement_cache:
        for v in exc:
            if not is_strongly_primitive(v):
                raise ValueError(f"vector {v} is not strongly primitive")
    return _min_complement(exc)


def min_n(excluded: Iterable[Sequence[int]], n: int) -> tuple[tuple[Pair, ...], ...]:
    """All n-element choices of successive minimal vectors outside the exclusion.

    Each choice is reported in construction order (the order the vectors were
    selected); the collection is deduplicated as sets and sorted by the
    canonical sorted tuple.  The exclusion is checked by ``min_complement``,
    which is called once, so an invalid exclusion raises also for
    ``n == 0``.  Not memoised; ``ksets.Chain.choices`` is.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    exc = frozenset(tuple(v) for v in excluded)
    min_complement(exc)
    return _min_n(exc, n)


def _min_n(exc: frozenset[Pair], n: int) -> tuple[tuple[Pair, ...], ...]:
    """``min_n`` of a checked exclusion.  Each prefix it extends holds
    minimal vectors, which are strongly primitive, so every exclusion it
    asks ``_min_complement`` about is valid."""
    result: tuple[tuple[Pair, ...], ...] = ((),)
    for _ in range(n):
        chosen: dict[frozenset[Pair], tuple[Pair, ...]] = {}
        for prefix in result:
            for v in _min_complement(exc.union(prefix)):
                candidate = prefix + (v,)
                chosen.setdefault(frozenset(candidate), candidate)
        result = tuple(sorted(chosen.values(), key=lambda c: tuple(sorted(c))))
    return result


class _Box:
    """The process's cover graph: the region of the last witness in
    ``witnesses`` (the ranks of the witnesses taken in), ranked in a linear
    extension of the domination order.  Rank ``i`` holds the bitmask
    ``below[i]`` of the ranks strictly below it and its upper covers
    ``covers[i]``; ``rank`` maps each vector to its rank."""

    __slots__ = ("rank", "edges", "below", "covers", "witnesses")

    def __init__(self) -> None:
        self.rank: dict[Pair, int] = {}
        self.edges: list[tuple[int, int, int]] = []
        self.below: list[int] = []
        self.covers: list[list[int]] = []
        self.witnesses: list[int] = []
        self.grow()

    def grow(self) -> int:
        """Take in the next witness's region and return its first new rank.

        The old box is a region, a down-set, so no new vector lies below an
        old one: the new ones, ranked by edge values, go after all the old
        ones, and no old vector's lower set changes.  A new vector's lower
        set is found from the highest rank down: a vector below it that is
        not yet in the mask is a lower cover, since whatever lies between
        them has a higher rank and is already in the mask with its own
        lower set."""
        start = i = len(self.rank)
        k = len(self.witnesses)
        edges, below, covers = self.edges, self.below, self.covers
        for e, v in _region(_witness(k)):
            if v in self.rank:
                continue
            mask = 0
            for j in range(i - 1, -1, -1):
                d = edges[j]
                if not mask >> j & 1 and d[0] <= e[0] and d[1] <= e[1] and d[2] <= e[2]:
                    mask |= below[j] | 1 << j
                    covers[j].append(i)
            self.rank[v] = i
            edges.append(e)
            below.append(mask)
            covers.append([])
            i += 1
        self.witnesses.append(self.rank[_witness(k), 1])
        return start


_box = _Box()


def _count(exc: frozenset[Pair], n: int) -> list[int]:
    """``len(_min_n(exc, k))`` for ``k = 0..n``, by a depth-first walk on the
    box (see the module docstring) that lists no choice.

    A set ``S`` outside ``exc`` is a choice iff everything below a vector of
    ``S`` lies in ``exc | S``: added in rank order, each vector is then
    minimal outside the exclusion so far.  So the walk adds, from a node
    whose last added vector has rank ``r``, each free vector of rank above
    ``r``, and reaches each choice once.  Adding ``v`` frees a vector ``u``
    iff ``u``'s lower set is now covered and a chain of upper covers leads
    from ``v`` to ``u`` through excluded vectors only: what lies between
    them is below ``u``, so in ``exc``, or in ``S``, whose ranks are below
    ``v``'s.  A node that holds the box's last witness grows the box, and
    frees what it frees there, before its free vectors are read."""
    box = _box
    rank, below, covers, witnesses = box.rank, box.below, box.covers, box.witnesses
    sizes = [1] + [0] * n
    excluded = 0

    def grown(added: int, free: list[int], start: int) -> list[int]:
        """``free`` and the free vectors of rank ``start`` on."""
        nonlocal excluded
        while True:
            excluded = sum(1 << r for r in map(rank.get, exc) if r is not None)
            covered = added | excluded
            free = free + [i for i in range(start, len(below)) if not covered >> i & 1 and below[i] | covered == covered]
            if not covered >> witnesses[-1] & 1:
                return free
            start = box.grow()

    def walk(added: int, free: list[int], depth: int) -> None:
        sizes[depth] += len(free)
        if depth == n:
            return
        for v in free:
            now = added | 1 << v
            covered = now | excluded
            after = [u for u in free if u > v]
            up = [v]
            while up:
                for u in covers[up.pop()]:
                    if not covered >> u & 1:
                        if below[u] | covered == covered and u not in after:
                            after.append(u)
                    elif u not in up:
                        up.append(u)
            if covered >> witnesses[-1] & 1:
                after = grown(now, after, box.grow())
            walk(now, after, depth + 1)

    if n:
        walk(0, grown(0, [], 0), 1)
    return sizes


def clear_caches() -> None:
    global _box
    _min_complement_cache.clear()
    _regions.clear()
    _box = _Box()
