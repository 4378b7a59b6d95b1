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
decides emptiness first from an integer certificate on its key.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .geometry import Cone, _primitive
from .minima import _count_n, _min_complement, _min_n, min_complement
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


def _step_rows(
    s: Sequence[Pair], last: Pair | None, excluded: frozenset[Pair]
) -> list[tuple[int, int, int]]:
    """The rows a set ``s`` adds to a cone, each primitive, none zero: the
    link ``Q(s_0) >= Q(last)`` unless ``last`` is None, the equalities in
    ``s``, and ``Q(w) >= Q(s_last)`` for every minimal ``w`` outside the
    checked exclusion ``excluded``, which holds ``s``.  The free walk
    passes None: its ``s_0`` is minimal outside the prefix's exclusion, so
    the link is a row of the prefix's cone."""
    (x0, y0), (xl, yl) = s[0], s[-1]
    rows = []
    if last is not None:
        x, y = last
        rows.append((x0 * x0 - x * x, y0 * y0 - y * y, x0 * y0 - x * y))
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
    ``_step_rows`` of its last set, linked to the prefix's last vector,
    which are canonical already: it has the member set of ``kset(key)``,
    and its DD resumes from the prefix cone's description.
    The root, key ``()``, is ``kset(())``.

    ``empty`` is ``kset_zero_test(key)``: no reduced form has this
    structure.  When a set of at least four vectors ``_collapses``, the
    cone is ``{0}`` and ``empty`` is true without building it.  Otherwise
    ``empty`` is true iff no extreme ray has ``q11 > 0``: the cone lies in
    the pointed closed reduction domain, so it is the conic hull of its
    rays.
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
            key = self.key
            if key:
                last = key[-2][-1] if len(key) > 1 else None
                excluded = frozenset(v for s in key for v in s)
                self._cone = _chain(key[:-1]).cone._cut(_step_rows(key[-1], last, excluded))
            else:
                self._cone = kset(())
        return self._cone

    @property
    def empty(self) -> bool:
        """``kset_zero_test(key)``: the key's certificate, else the rays."""
        if self._empty is None:
            self._empty = any(len(s) >= 4 and _collapses(s) for s in self.key) or all(
                r[0] == 0 for r in self.cone.edges()
            )
        return self._empty

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
        contains the ``n``-choice's."""
        return n >= 4 and all(c.empty for _, c in self.choices(4))

    def count(self, n: int) -> int:
        """``len(choices(n))``, with no choice listed when none is: one
        ``minima._count_n`` walk gives every ``k <= n``."""
        listed = self._choices.get(n)
        if listed is not None:
            return len(listed)
        if n >= len(self._counts):
            self._counts = _count_n(frozenset(v for s in self.key for v in s), n)
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
