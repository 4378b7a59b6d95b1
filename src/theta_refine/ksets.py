"""Cones of reduced forms with a prescribed truncated successive-minima structure.

A chain x_1, ..., x_k of strongly primitive vectors pins down the forms Q in
the closed reduction domain with Q(x_1) <= ... <= Q(x_k) <= Q(w) for every
minimal vector w outside the chain.  Grouping the chain into sets adds the
equalities that each set takes a single value.  These cones carry closed rows
only; the open condition q11 > 0 is re-imposed where the refinement loop
judges emptiness.

``kset`` builds a cone.  ``chain`` keeps the process's one ``Chain`` per
sequence of non-empty sets, with its cone and next choices, for every run.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .geometry import Cone
from .minima import min_complement, min_n
from .quadform import coeff_row, is_strongly_primitive

Pair = tuple[int, int]
Key = tuple[tuple[Pair, ...], ...]

V_CLOSED_ROWS: tuple[tuple[int, int, int], ...] = ((-1, 1, 0), (1, 0, -1), (0, 0, 1))
V_STRICT_ROWS: tuple[tuple[int, int, int], ...] = ((1, 0, 0),)

#: The reduction domain as a cone (strict row q11 > 0) and its closure.
V_CONE = Cone(3, V_CLOSED_ROWS, V_STRICT_ROWS)
V_CLOSURE_CONE = Cone(3, V_CLOSED_ROWS)


def _row_diff(larger: Pair, smaller: Pair) -> tuple[int, int, int]:
    lr, sr = coeff_row(larger), coeff_row(smaller)
    return (lr[0] - sr[0], lr[1] - sr[1], lr[2] - sr[2])


def kset_chain(vectors: Sequence[Pair]) -> Cone:
    """Forms in the closed reduction domain with the given successive minima.

    Rows: the domain closure, Q(x_{i+1}) >= Q(x_i) for consecutive vectors,
    and Q(w) >= Q(x_k) for every minimal vector w of the complement.
    """
    vecs = [tuple(v) for v in vectors]
    if len(vecs) != len(set(vecs)):
        raise ValueError("chain vectors must be distinct")
    for v in vecs:
        if not is_strongly_primitive(v):
            raise ValueError(f"{v} is not strongly primitive")
    rows = list(V_CLOSED_ROWS)
    for prev, nxt in zip(vecs, vecs[1:]):
        rows.append(_row_diff(nxt, prev))
    if vecs:
        last = vecs[-1]
        for w in min_complement(frozenset(vecs)):
            rows.append(_row_diff(w, last))
    return Cone(3, rows)


def _normalize_sets(sets: Iterable[Iterable[Pair]]) -> Key:
    """The non-empty sets as tuples of tuples, checked to be disjoint."""
    normalized = tuple(t for t in (tuple(tuple(v) for v in s) for s in sets) if t)
    flat = [v for s in normalized for v in s]
    if len(flat) != len(set(flat)):
        raise ValueError("sets must be pairwise disjoint with distinct members")
    return normalized


def kset(sets: Iterable[Iterable[Pair]]) -> Cone:
    """Cone for an ordered sequence of disjoint vector sets.

    The chain on the flattened vectors is intersected with the within-set
    equalities Q(first) = Q(other), each as a pair of opposite closed rows.
    Empty sets add to neither.  Builds a new cone on every call.
    """
    key = _normalize_sets(sets)
    cone = kset_chain([v for s in key for v in s])
    eq_rows = []
    for s in key:
        for other in s[1:]:
            row = _row_diff(other, s[0])
            eq_rows.append(row)
            eq_rows.append(tuple(-x for x in row))
    if eq_rows:
        cone = cone.intersect(Cone(3, eq_rows))
    return cone


class Chain:
    """A sequence of non-empty sets (``key``) with its ``kset`` cone.

    ``rep`` is the process's first chain whose cone has the same extreme
    rays; chain cones are pointed with no strict rows, so chains with one
    ``rep`` have one member set.  ``empty`` is true iff no extreme ray has
    ``q11 > 0``: the cone lies in the pointed closed reduction domain, so it
    is the conic hull of its rays, and ``empty`` is exactly
    ``kset_zero_test(key)`` -- no reduced form has this structure.
    """

    __slots__ = ("key", "cone", "rep", "empty", "_choices")

    def __init__(self, key: Key, cone: Cone) -> None:
        self.key = key
        self.cone = cone
        rays = cone.edges()
        self.rep = _reps.setdefault(rays, self)
        self.empty = all(r[0] == 0 for r in rays)
        self._choices: dict[int, tuple[tuple[tuple[Pair, ...], Chain], ...]] = {}

    def choices(self, n: int) -> tuple[tuple[tuple[Pair, ...], Chain], ...]:
        """Each set of ``min_n(excluded, n)`` with the chain it leads to; an
        empty set changes nothing and leads back to ``self``.  Memoised per
        ``n``: the process's only memo of next choices."""
        found = self._choices.get(n)
        if found is None:
            excluded = frozenset(v for s in self.key for v in s)
            found = self._choices[n] = tuple(
                (s, chain(self.key + (s,)) if s else self) for s in min_n(excluded, n)
            )
        return found


# The process's one memo of chains, and the first chain per cone geometry.
_chains: dict[Key, Chain] = {}
_reps: dict[tuple[tuple[int, ...], ...], Chain] = {}


def chain(sets: Iterable[Iterable[Pair]]) -> Chain:
    """The process's ``Chain`` for an ordered sequence of disjoint sets.

    The key is the non-empty sets as tuples, so ``chain([[v], [], [w]])`` is
    ``chain(((v,), (w,)))``.  It is checked on every call (strong
    primitivity on a miss), so an invalid sequence is never stored and
    raises every time; ``setdefault`` gives concurrent misses one chain.
    """
    key = _normalize_sets(sets)
    return _chains.get(key) or _chains.setdefault(key, Chain(key, kset(key)))


def kset_zero_test(sets: Iterable[Iterable[Pair]]) -> bool:
    """Certificate that no reduced positive-definite form has this structure.

    True iff the cone collapses to forms with q11 = 0, i.e. re-imposing the
    open condition q11 > 0 of the reduction domain leaves no member.  (The
    closed cone itself may be a ray of degenerate forms such as y^2 rather
    than literally {0}: the degenerate form still satisfies the chain and
    equality rows, but never lies in the open domain.)
    """
    cone = kset(sets)
    return Cone(3, cone.closed, V_STRICT_ROWS).is_member_empty()


def clear_cache() -> None:
    _chains.clear()
    _reps.clear()
