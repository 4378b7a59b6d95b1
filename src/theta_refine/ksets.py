"""Cones of reduced forms with a prescribed truncated successive-minima structure.

A chain x_1, ..., x_k of strongly primitive vectors pins down the forms Q in
the closed reduction domain with Q(x_1) <= ... <= Q(x_k) <= Q(w) for every
minimal vector w outside the chain.  Grouping the chain into sets adds the
equalities that each set takes a single value.  These cones carry closed rows
only; the open condition q11 > 0 is re-imposed where the refinement loop
judges emptiness.

``kset`` builds a cone from scratch.  ``chain`` keeps the process's one
``Chain`` per sequence of non-empty sets, for every run.  Both check their
sets; a chain looks up its prefix and children by its own key, and asks
``minima`` about it, unchecked.  A chain builds its cone at the first use,
from its prefix's cone and the canonical rows its last set adds, and
decides emptiness first from certificates that need no DD: on its key, on
its prefix's listed choices, and on the signs of its rows at a prefix cone
with one ray.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .geometry import Cone, _dot, _primitive
from .minima import _count, _min_complement, _min_n, min_complement
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
    and Q(w) >= Q(x_k) for every minimal vector w of the complement.  The
    vectors must be strongly primitive; ``min_complement`` checks them.
    """
    vecs = [tuple(v) for v in vectors]
    if len(vecs) != len(set(vecs)):
        raise ValueError("chain vectors must be distinct")
    rows = [*V_CLOSED_ROWS, *(_row_diff(nxt, prev) for prev, nxt in zip(vecs, vecs[1:]))]
    if vecs:
        rows += (_row_diff(w, vecs[-1]) for w in min_complement(frozenset(vecs)))
    return Cone(3, rows)


def _normalize_sets(sets: Iterable[Iterable[Pair]]) -> Key:
    """The non-empty sets as tuples of tuples, checked: disjoint, strongly primitive."""
    normalized = tuple(t for t in (tuple(tuple(v) for v in s) for s in sets) if t)
    flat = [v for s in normalized for v in s]
    if len(flat) != len(set(flat)):
        raise ValueError("sets must be pairwise disjoint with distinct members")
    for v in flat:
        if not is_strongly_primitive(v):
            raise ValueError(f"vector {v} is not strongly primitive")
    return normalized


def kset(sets: Iterable[Iterable[Pair]]) -> Cone:
    """Cone for an ordered sequence of disjoint vector sets.

    The chain on the flattened vectors is intersected with the within-set
    equalities Q(first) = Q(other), each as a pair of opposite closed rows.
    Empty sets add to neither.  Builds a new cone on every call.
    """
    key = _normalize_sets(sets)
    cone = kset_chain([v for s in key for v in s])
    eq_rows = [r for s in key for v in s[1:] for r in (_row_diff(v, s[0]), _row_diff(s[0], v))]
    if eq_rows:
        cone = cone.intersect(Cone(3, eq_rows))
    return cone


def _collapses(s: Sequence[Pair]) -> bool:
    """The rows ``coeff_row(v) - coeff_row(s[0])`` of ``s`` have rank 3.

    Then only Q = 0 takes one value on all of ``s``.  Exact in integers: a
    pair ``u``, ``v`` with ``u x v != 0`` and a row ``w`` off their plane.
    """
    diffs = [_row_diff(v, s[0]) for v in s[1:]]
    u = diffs[0]
    for v in diffs:
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if any(n):
            return any(n[0] * w[0] + n[1] * w[1] + n[2] * w[2] for w in diffs)
    return False


def _step_rows(s: Sequence[Pair], excluded: frozenset[Pair]) -> list[tuple[int, int, int]]:
    """The rows a set ``s`` adds to its prefix's cone, each primitive, none
    zero: the equalities in ``s``, and ``Q(w) >= Q(s_last)`` for every
    minimal ``w`` outside the checked exclusion ``excluded``, which holds
    ``s``.

    No row links ``s`` to the prefix's last vector ``last``: every form of
    the prefix cone has ``Q(s_0) >= Q(last)``.  The cone lies in the closed
    reduction domain, whose forms are non-negative sums of the three edge
    forms, and has the row ``Q(w) >= Q(last)`` for every ``w`` minimal
    outside the prefix's exclusion.  ``s_0`` lies outside that exclusion,
    and only finitely many vectors lie below any vector, so ``s_0``
    dominates some such ``w``, and ``Q(s_0) >= Q(w) >= Q(last)``.  When
    ``s_0`` is itself minimal, as in every choice of ``Chain.choices``, the
    link is one of the prefix cone's rows."""
    (x0, y0), (xl, yl) = s[0], s[-1]
    rows = []
    for x, y in s[1:]:
        row = (x * x - x0 * x0, y * y - y0 * y0, x * y - x0 * y0)
        rows += row, (-row[0], -row[1], -row[2])
    rows += ((x * x - xl * xl, y * y - yl * yl, x * y - xl * yl) for x, y in _min_complement(excluded))
    return [_primitive(r) for r in rows]


class Chain:
    """A sequence of non-empty sets (``key``) with its ``kset`` cone.

    A plain value of its key: the cone, ``empty`` and the next choices all
    follow from it, and each is computed at its first use.  Its prefix and
    its children, the key plus a set of its choices, are valid keys, looked
    up unchecked; a child's key shares its parent's set tuples.  ``kset(key)``
    lies in ``kset(key[:-1])``, so the cone is the prefix's cone cut by the
    ``_step_rows`` of its last set, which are canonical already and leave
    out the link row that the prefix's cone implies: it has the member set
    of ``kset(key)``, and its DD resumes from the prefix cone's description.
    The root, key ``()``, is ``kset(())``.

    ``empty`` is ``kset_zero_test(key)``: no reduced form has this
    structure.  It is true without a cone (``_dies``) when a set of at
    least four vectors ``_collapses``, so the cone is ``{0}``; when the last
    set ``s`` has ``n >= 2`` vectors and holds an ``(n-1)``-choice of the
    prefix, among those the prefix has listed, whose chain is empty (the
    sub-choice lemma below); or when the prefix cone has one extreme ray
    and a row of ``s`` is negative there (the one-ray rule of the
    ``refinement`` module docstring).  Else the cone is cut from the rows
    just computed, and ``empty`` is true iff no extreme ray has
    ``q11 > 0``: the cone lies in the pointed closed reduction domain, so it
    is the conic hull of its rays.

    The sub-choice lemma: let ``t`` be an ``(n-1)``-choice of the prefix,
    whose exclusion is ``E``, inside an ``n``-choice ``s``.  For ``Q`` in
    the chain cone of ``s``, every ``w`` minimal outside ``E ∪ t`` is either
    the remaining vector of ``s`` or dominated by some ``w'`` minimal
    outside ``E ∪ s``, so ``Q(w) >= Q(w') >= Q(s_last) = Q(t_last)``; ``Q``
    takes one value on ``s``, so it meets the equalities of ``t``; and it
    lies in the prefix's cone.  So ``Q`` lies in the chain cone of ``t``.
    ``dead`` is the lemma from size 4 on.
    """

    __slots__ = ("key", "_cone", "_empty", "_choices", "_counts")

    def __init__(self, key: Key) -> None:
        self.key = key
        self._cone: Cone | None = None
        self._empty: bool | None = None
        self._choices: dict[int, tuple[tuple[tuple[Pair, ...], Chain], ...]] = {}
        self._counts: Sequence[int] = ()

    @property
    def cone(self) -> Cone:
        """The chain cone, built at the first call from the prefix's cone."""
        if self._cone is None:
            if self.key:
                prefix, rows = self._step()
                self._cone = prefix._cut(rows)
            else:
                self._cone = kset(())
        return self._cone

    def _step(self) -> tuple[Cone, list[tuple[int, int, int]]]:
        """The prefix's cone and the ``_step_rows`` of the last set."""
        return _chain(self.key[:-1]).cone, _step_rows(self.key[-1], frozenset(v for s in self.key for v in s))

    @property
    def empty(self) -> bool:
        """``kset_zero_test(key)``: a certificate with no DD, else the rays."""
        if self._empty is None:
            self._empty = self._dies() or all(r[0] == 0 for r in self.cone.edges())
        return self._empty

    def _dies(self) -> bool:
        """A certificate that the chain is empty, with no DD of its own (see
        the class docstring); when there is none and the rows were
        computed, it cuts the cone from them."""
        key = self.key
        if any(len(s) >= 4 and _collapses(s) for s in key):
            return True
        if not key or self._cone is not None:
            return False
        s = key[-1]
        if len(s) >= 2 and any(
            c.empty and set(s).issuperset(t) for t, c in _chain(key[:-1])._choices.get(len(s) - 1, ())
        ):
            return True
        prefix, rows = self._step()
        rays = prefix.edges()
        if len(rays) == 1 and any(_dot(a, rays[0]) < 0 for a in rows):
            return True
        self._cone = prefix._cut(rows)
        return False

    def choices(self, n: int) -> tuple[tuple[tuple[Pair, ...], Chain], ...]:
        """Each set of ``min_n(excluded, n)`` with the chain it leads to; an
        empty set changes nothing and leads back to ``self``.  The key is
        checked, so ``min_n`` runs unchecked.  Memoised per ``n``: the
        process's only memo of next choices."""
        found = self._choices.get(n)
        if found is None:
            excluded = frozenset(v for s in self.key for v in s)
            found = self._choices[n] = tuple(
                (s, _chain(self.key + (s,)) if s else self) for s in _min_n(excluded, n)
            )
        return found

    def dead(self, n: int) -> bool:
        """``n >= 4`` and every chain of ``choices(4)`` is empty.  Then so is
        every chain of ``choices(n)``: the first four vectors of an
        ``n``-choice, in construction order, are a 4-choice whose chain cone
        contains the ``n``-choice's (the sub-choice lemma, applied
        ``n - 4`` times)."""
        return n >= 4 and all(c.empty for _, c in self.choices(4))

    def count(self, n: int) -> int:
        """``len(choices(n))``, with no choice listed when none is: one
        ``minima._count`` walk on the process's cover graph gives every
        ``k <= n``, with no frozenset and no minimal complement."""
        listed = self._choices.get(n)
        if listed is not None:
            return len(listed)
        if n >= len(self._counts):
            self._counts = _count(frozenset(v for s in self.key for v in s), n)
        return self._counts[n]


# The process's one memo of chains.
_chains: dict[Key, Chain] = {}


def _chain(key: Key) -> Chain:
    """The chain of a checked key; ``setdefault`` gives concurrent misses one chain."""
    return _chains.get(key) or _chains.setdefault(key, Chain(key))


def chain(sets: Iterable[Iterable[Pair]]) -> Chain:
    """The process's ``Chain`` for an ordered sequence of disjoint sets.

    The key is the non-empty sets as tuples, so ``chain([[v], [], [w]])`` is
    ``chain(((v,), (w,)))``.  It is checked on every call, before the memo
    is read, so an invalid sequence is never stored and raises every time.
    """
    return _chain(_normalize_sets(sets))


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
