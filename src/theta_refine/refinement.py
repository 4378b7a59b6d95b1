"""The extended refinement loop over triples of reduction-domain cones.

State is a set of pairs (T, P): a cone T in the 9-dimensional product of
three copies of form space, and a covering parameter P recording, per factor,
the sequence of vector sets already pinned down as successive minima.  Each
pair carries the process-wide ``ksets.Chain`` of each factor's sequence,
which holds the chain cone and the next choices.  A pair is empty (no
member), absorbed (its cone lies in the stop set) or live.  The next
generation replaces each live pair by all of its refinements: for every
shape in the linset and every admissible choice of next minimal-vector sets,
cut T by the rows of the corresponding product cone and the value-equality
rows, and extend P.

Counting convention for the per-iteration table: generation i holds every
pair produced by refining generation i-1's live pairs, including pairs whose
member set is empty; those are only dropped when generation i is refined,
together with the stop-set-contained ones.

The run refines classes, not pairs.  A class is a cone and three chains
(``RefinementClass``): the pairs in one class have identical subtrees, so a
generation is a dict from class to multiplicity, each class is classified
and refined once, and every count of the table is a sum of multiplicities.
The run keeps each generation's live classes, which the y-projection check
reads instead of classifying again.  The pairs themselves are replayed on
demand (``RunResult.replay`` and ``generations``) through the same child
enumeration, against the run's own table.

Each run hash-conses its cones in a ``RunTable``, keyed by member set: the
sorted extreme rays of the (pointed) closed cone plus the strict rows.
Classes whose cones have the same member set share one ``Cone`` object and
one verdict, whatever rows built it.  Chain cones are interned in the same
table, and a construction is keyed on its parent cone, the three interned
chain cones, the shape and the link vectors, so chain sequences with equal
chain geometry share one child, looked up instead of rebuilt.  A child is
built as one row merge on its parent cone (``Cone._cut``): the chain cones'
rows, each in its block, then the link rows, the rows and order of the
parent intersected with ``product3`` and the link cone, neither of which is
built.  A chain with no reduced form of its structure (``Chain.empty``, the
degenerate-cone certificate) gives every child built from it an empty
member set when the parent carries that block's ``q11 > 0`` row.  The run
counts those children without building them: with ``X``, ``Y`` and ``Z``
the choices per factor and ``X'``, ``Y'`` and ``Z'`` those that lead to no
such chain, a shape has ``|X||Y||Z| - |X'||Y'||Z'|`` of them.  In a replay
they hold the run's one empty cone, which has no row merge or double
description of its own.

A run factors when one block is free: no stop row touches it, and every
shape that touches it touches no other block, so no link row touches it
either (``_free_block``).  Only the ``(k, 0)`` runs under ``q1_eq_q3`` do, with
the second block free.  Every cone of such a run is ``C x K(c)``, with
``K(c)`` the free block's chain cone; a free step changes only ``c``, and
another step only ``C`` and the other chains.  So ``run_algorithm`` steps
two processes one generation at a time.  The first is the class loop
from the root class under the other shapes; its free block keeps the root
chain, whose cone has members with ``q11 > 0``, so its verdicts are
those of ``C``.  The second walks the free block's chains
(``Chain.choices``, ``Chain.empty``).  It is exact: the strict rows of
every cone are the three ``q11 > 0`` rows, and a chain is empty when no
ray of its cone has ``q11 > 0``, so a free child of a live class is live
unless its chain is empty, when it is counted; it builds no cone.
A pair of generation ``g`` with ``k`` steps of the first process is one
of ``C(g, k)`` interleavings, ``C(g-1, k-1)`` of which end with a step of
the first.  With ``A[k]`` and ``B[j]`` the processes' records,
``non_empty(g) = Σ C(g, k) A[k].non_empty B[g-k].non_empty``; ``total``,
``stop_absorbed`` and ``counted`` are ``Σ C(g-1, k-1) A[k].f
B[g-k].non_empty + C(g-1, k) A[k].non_empty B[g-k].f``; and
``live_classes(g) = Σ A[k].live_classes B[g-k].live_classes``, with no
binomial, since the free chain has ``g - k`` sets (``_convolve``).  On
``(1,0)``/13 that takes 336 three-dim DDs and 3 nine-dim ones, where the
class loop over all shapes (``_run_generic``) makes 590.  The result runs
that loop at the first access to its table, live classes or replay, so
dumps and the y-projection check are those of the unfactored run.

The initial cone and the empty cone are the same in every run, so they are
process constants (``_INITIAL_CONE`` and ``_EMPTY_CONE``), each described
at import by its own DD over its own rows.  A run pays no DD for either:
its table interns both when it is made, the initial cone first, and holds
the empty cone's verdict from the start.

Runs in one process share their work through four process memos: the
chains (``ksets._chains``), the minimal complements
(``minima._min_complement_cache``), the raw constructions
(``_constructions``) and one dict of verdicts per stop set (``_verdicts``).
A construction is keyed as in the run's table and memoised as built, before
interning; each run interns it in its own table, so a run's dump does not
depend on what ran before it.  A one-run command fills each memo once and
does the same work as with none; it keeps the built cones whose member set
the table already held.  A process keeps every chain, construction and
verdict it met until ``clear_caches`` empties all four.  The 38 coprime
runs with ``4 <= a + b <= 11`` so build 3 nine-dimensional cones, not 114.
"""

from __future__ import annotations

import time
import warnings
from math import comb, gcd
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import ksets, minima
from .geometry import Cone, Vector, _padded, _primitive, product3
from .ksets import V_CONE, Chain, chain
from .quadform import coeff_row

Pair = tuple[int, int]
Shape = tuple[int, int, int]
# A value link ``(i, u, j, v)`` with blocks ``i < j``: the forms of blocks
# ``i`` and ``j`` take one value at ``u`` and ``v``.
Link = tuple[int, Pair, int, Pair]

# The rows ``x_i - x_(i+d)`` of each stop subspace, built once.
_STOP_ROWS = {
    kind: tuple(tuple((k == i) - (k == i + d) for k in range(9)) for i in range(9 - d))
    for kind, d in (("diagonal", 3), ("q1_eq_q3", 6))
}
STOP_SET_KINDS = tuple(_STOP_ROWS)


def linset(a: int, b: int) -> tuple[Shape, ...]:
    """Generators of the non-negative solutions of a x + b y = (a+b) z:
    shapes (1,1,1), (a+b,0,a)/g, (0,a+b,b)/g; the first is dropped when
    a*b = 0, where it is the sum of the other two."""
    if a < 0 or b < 0 or (a, b) == (0, 0):
        raise ValueError("need non-negative a, b with (a, b) != (0, 0)")
    g = gcd(a, b)
    l1: Shape = (1, 1, 1)
    l2: Shape = ((a + b) // g, 0, a // g)
    l3: Shape = (0, (a + b) // g, b // g)
    return (l2, l3) if a == 0 or b == 0 else (l1, l2, l3)


class CoveringParameter(NamedTuple):
    """Per-factor sequences of vector sets chosen along one refinement branch."""

    x_sets: tuple[tuple[Pair, ...], ...] = ()
    y_sets: tuple[tuple[Pair, ...], ...] = ()
    z_sets: tuple[tuple[Pair, ...], ...] = ()

    def chains(self) -> tuple[Chain, Chain, Chain]:
        """The process's ``Chain`` of each factor's set sequence."""
        return (chain(self.x_sets), chain(self.y_sets), chain(self.z_sets))


class RefinementPair:
    """A cone, its covering parameter and the ``Chain`` of each factor.

    ``chains`` is ``param.chains()``, which ``refine_pair`` reads the next
    choices from and never looks up again; a hand-built pair passes
    ``param.chains()``.  Pairs compare by identity.
    """

    __slots__ = ("cone", "param", "chains")

    def __init__(
        self, cone: Cone, param: CoveringParameter, chains: tuple[Chain, Chain, Chain]
    ) -> None:
        self.cone = cone
        self.param = param
        self.chains = chains


class RefinementClass(NamedTuple):
    """A cone and the ``Chain`` of each factor.

    Pairs with the same interned cone and the same chains have identical
    subtrees: the run refines one class for all of them and carries their
    number as the class's multiplicity.
    """

    cone: Cone
    chains: tuple[Chain, Chain, Chain]


class IterationRecord(NamedTuple):
    """Exact per-generation counts; wall time is informational only.

    ``total`` counts every pair produced for the generation.  ``non_empty``
    counts pairs whose cone has a non-empty member set and is not contained
    in the stop set -- the pairs the next iteration refines, and the quantity
    the iteration tables report.  ``stop_absorbed`` counts pairs with a
    non-empty member set that are contained in the stop set; the remaining
    ``total - non_empty - stop_absorbed`` pairs have empty member sets.
    ``live_classes`` counts the classes of the ``non_empty`` pairs, and
    ``counted`` the pairs among ``total`` that are children of an empty
    chain, counted without being built.
    """

    index: int
    total: int
    non_empty: int
    stop_absorbed: int
    live_classes: int
    counted: int
    seconds: float


class RunResult:
    """The run's log, its table and each generation's live classes.

    ``live_classes[i]`` maps each live class of generation ``i`` to its
    multiplicity: the classes that generation ``i + 1`` refines.  The pairs
    themselves are replayed from the initial class on demand: ``replay``
    yields them one generation at a time, and ``generations`` keeps them.
    A pair is live when ``table.verdicts`` holds ``_LIVE`` for its cone.
    A factored run (see the module docstring) makes its log without a
    class of all three blocks; the first access to ``table``,
    ``live_classes``, ``replay`` or ``generations`` runs ``_run_generic``
    to the log's last generation and keeps its table and classes.
    """

    __slots__ = ("a", "b", "stop_kind", "log", "_classes", "_table", "_pairs")

    def __init__(
        self,
        a: int,
        b: int,
        stop_kind: str,
        log: list[IterationRecord],
        live_classes: list[dict[RefinementClass, int]] | None = None,
        table: RunTable | None = None,
    ) -> None:
        self.a = a
        self.b = b
        self.stop_kind = stop_kind
        self.log = log
        self._classes = live_classes
        self._table = table
        self._pairs: list[list[RefinementPair]] | None = None

    def _generic(self) -> RunResult:
        if self._table is None:
            run = _run_generic(self.a, self.b, self.stop_kind, len(self.log) - 1)
            self._classes, self._table = run._classes, run._table
        return self

    @property
    def table(self) -> RunTable:
        return self._generic()._table

    @property
    def live_classes(self) -> list[dict[RefinementClass, int]]:
        return self._generic()._classes

    def totals(self) -> list[int]:
        return [rec.total for rec in self.log]

    def non_empty_counts(self) -> list[int]:
        return [rec.non_empty for rec in self.log]

    def replay(self) -> Iterator[list[RefinementPair]]:
        """Each generation's pairs, as a loop over pairs makes them: the
        live pairs of one generation are refined into the next, and none
        after the last.  It starts from the run's own initial class, the one
        class of generation 0, so it reaches only the run's chains, whose
        choices and cones the run computed.  Every construction is a hit in
        the run's table and every verdict is known, so the replay computes no
        double description and tests no cone, whatever the process memos
        hold.  Nothing is kept."""
        shapes = linset(self.a, self.b)
        table = self.table
        verdicts = table.verdicts
        ((cone, chains),) = self.live_classes[0]
        generation = [RefinementPair(cone, CoveringParameter(), chains)]
        for i in range(len(self.log)):
            if i:
                generation = [
                    c for p in generation if verdicts[p.cone] == _LIVE
                    for c in refine_pair(p, shapes, table)
                ]
            yield generation

    @property
    def generations(self) -> list[list[RefinementPair]]:
        """Every generation's pairs, replayed at the first access."""
        if self._pairs is None:
            self._pairs = list(self.replay())
        return self._pairs


def stop_set(kind: str) -> tuple[Vector, ...]:
    """Equality rows (dim 9) of the stop subspace, built at import."""
    rows = _STOP_ROWS.get(kind)
    if rows is None:
        raise ValueError(f"unknown stop set {kind!r}; expected one of {STOP_SET_KINDS}")
    return rows


_UNIT_ROWS = tuple(tuple(int(k == j) for k in range(9)) for j in range(9))
# The strict row q11 > 0 of each block, as ``product3`` embeds ``V_CONE``'s.
_Q11_ROWS = _UNIT_ROWS[::3]
# Every run starts from the same cone and meets the same empty cone, so both
# are process constants, described at import by their own DDs: a run then
# pays no DD for them, whatever ran before it in the process.
_INITIAL_CONE = product3(V_CONE, V_CONE, V_CONE)
_INITIAL_CONE.edges()
_EMPTY_CONE = Cone(9, _UNIT_ROWS + ((-1,) * 9,), _Q11_ROWS)
_EMPTY_CONE.edges()

# Process memos, like ``ksets._chains`` (see the module docstring).  A cone
# can be absorbed under one stop set and live under the other.
_constructions: dict[tuple, Cone] = {}
_verdicts: dict[tuple[Vector, ...], dict[Cone, int]] = {rows: {} for rows in _STOP_ROWS.values()}


def clear_caches() -> None:
    """Empty every process memo: the chains (``ksets._chains``), the
    minimal complements (``minima._min_complement_cache``), the raw
    constructions and the verdicts.  A run made after it works from cold
    memos; a ``RunResult`` made before it still replays from its own table."""
    ksets.clear_cache()
    minima.clear_caches()
    _constructions.clear()
    for known in _verdicts.values():
        known.clear()


def initial_pair() -> RefinementPair:
    """The whole product of three reduction domains, with no choices made;
    its cone is the process constant ``_INITIAL_CONE``."""
    param = CoveringParameter()
    return RefinementPair(_INITIAL_CONE, param, param.chains())


def _links(
    shape: Shape, xs: Sequence[Pair], ys: Sequence[Pair], zs: Sequence[Pair]
) -> tuple[Link, ...]:
    """The value links ``(i, u, j, v)`` of a child of ``shape`` whose chosen
    sets are ``xs``, ``ys`` and ``zs``, between the first elements of the
    linked sets: block 1 to both others for (1, 1, 1); else blocks 1 and 3,
    or 2 and 3, when both sets are non-empty."""
    if shape == (1, 1, 1):
        return (0, xs[0], 1, ys[0]), (0, xs[0], 2, zs[0])
    i, us = (0, xs) if shape[1] == 0 else (1, ys)
    return ((i, us[0], 2, zs[0]),) if us and zs else ()


def _link_rows(links: Iterable[Link]) -> list[Vector]:
    """Each link ``(i, u, j, v)`` as the closed rows ``Q_i(u) - Q_j(v) >= 0``
    and its opposite, scaled primitive.  They are distinct and none is
    zero: each pair spans its own two blocks."""
    rows = []
    for i, u, j, v in links:
        row = [0] * 9
        row[3 * i : 3 * i + 3] = coeff_row(u)
        row[3 * j : 3 * j + 3] = (-x for x in coeff_row(v))
        row = _primitive(tuple(row))
        rows += row, tuple(-x for x in row)
    return rows


def aux_cones(
    param: CoveringParameter,
    xs: tuple[Pair, ...],
    ys: tuple[Pair, ...],
    zs: tuple[Pair, ...],
    shape: Shape,
) -> tuple[Cone, Cone]:
    """Product of the three extended chain cones, and the value-link rows.

    The link rows use one representative per linked pair of sets (their first
    elements); the remaining equalities are already enforced inside the chain
    cones.  Shape (1,1,1) links factor 1 to both others; a shape with no
    factor-2 part links factors 1 and 3; a shape with no factor-1 part links
    factors 2 and 3.  A link is omitted when either side is empty.
    """
    k1 = chain(param.x_sets + (xs,)).cone
    k2 = chain(param.y_sets + (ys,)).cone
    k3 = chain(param.z_sets + (zs,)).cone
    return product3(k1, k2, k3), Cone(9, _link_rows(_links(shape, xs, ys, zs)))


class RunTable:
    """The cones of one refinement run, hash-consed by member set, with
    their verdicts.

    ``intern`` maps every cone to the run's first cone with the same key
    ``(dim, edges(), frozenset(strict))``; it is the only code that decides
    whether two cones are one.  Refinement and chain cones are pointed, so
    the sorted primitive extreme rays and the strict rows fix the member
    set: cones with one member set share one ``Cone`` and one verdict,
    however their rows were built.  ``child`` maps each chain to its
    interned chain cone (the run's first chain cone of that geometry) and
    memoises the child of a parent cone, three interned chain cones, a
    shape and the first elements of the linked sets, which fix the child's
    member set.  Chains of equal geometry so share one child, and a
    repeated construction skips the row merge and the double description.
    Building from the interned chain cone, not each chain's own,
    makes the DDs insert fewer rows: 1 577 against 2 805 on ``(1,2)``/14.
    A new table interns ``_INITIAL_CONE`` and then ``_EMPTY_CONE``, held
    by the children of an empty chain and by every cone with no ray and the
    same strict rows.  ``verdicts`` holds the empty cone's verdict from the
    start and ``_record``'s verdict of every other interned cone.  A table
    is the record of one sequential run: the constructions and chain cones
    it meets first fix the rows a shared cone is dumped with, and a replay
    reads only the table, also after ``clear_caches``.
    """

    __slots__ = ("_cones", "_chain_cones", "_children", "verdicts")

    def __init__(self) -> None:
        self._cones: dict[tuple, Cone] = {}
        self._chain_cones: dict[Chain, Cone] = {}
        self._children: dict[tuple, Cone] = {}
        self.intern(_INITIAL_CONE)
        self.intern(_EMPTY_CONE)
        self.verdicts: dict[Cone, int] = {_EMPTY_CONE: _EMPTY}

    def intern(self, cone: Cone) -> Cone:
        """The run's cone with this member set; computes ``cone``'s rays."""
        return self._cones.setdefault((cone.dim, cone.edges(), frozenset(cone.strict)), cone)

    def child(
        self,
        parent: Cone,
        c1: Chain,
        c2: Chain,
        c3: Chain,
        shape: Shape,
        x1: tuple[Pair, ...],
        y1: tuple[Pair, ...],
        z1: tuple[Pair, ...],
    ) -> Cone:
        """``parent ∩ (k1 x k2 x k3) ∩ link``, interned, where ``k1``,
        ``k2`` and ``k3`` are the run's interned chain cones of ``c1``,
        ``c2`` and ``c3``; ``x1``, ``y1`` and ``z1`` hold the first element
        of each chosen set (empty for an empty set).  Built only when
        neither the table nor ``_constructions`` holds it, as one
        ``parent._cut`` on the chain cones' closed rows, each in
        its block, and the link rows: the rows, in the order, of
        ``parent.intersect(product3(k1, k2, k3), Cone(9, link rows))``.
        Chain cones carry no strict rows, so neither does the cut.
        """
        ks = self._chain_cones
        k1, k2, k3 = (ks.get(c) or ks.setdefault(c, self.intern(c.cone)) for c in (c1, c2, c3))
        memo_key = (parent, k1, k2, k3, shape, x1, y1, z1)
        cone = self._children.get(memo_key)
        if cone is None:
            raw = _constructions.get(memo_key)
            if raw is None:
                rows = [*_padded((k1, k2, k3), "closed"), *_link_rows(_links(shape, x1, y1, z1))]
                raw = _constructions[memo_key] = parent._cut(rows)
            cone = self._children[memo_key] = self.intern(raw)
        return cone


def _children(
    table: RunTable,
    cone: Cone,
    shape: Shape,
    choices: Sequence[Sequence[tuple[tuple[Pair, ...], Chain]]],
) -> Iterator[tuple[Cone | None, Sequence, Sequence, Sequence]]:
    """The children of ``cone`` under one shape, in canonical order, in blocks.

    ``choices`` holds each factor's next choices (``Chain.choices``).  A
    block ``(child, xs, ys, zs)`` stands for the children that take one
    choice from each of ``xs``, ``ys`` and ``zs``, in lexicographic order.
    A built child is a block of one, and ``child`` is its cone from
    ``table.child``.  A child whose chain on some factor is empty while
    ``cone`` carries that block's ``q11 > 0`` row has no member: once the
    choices so far make that so, the children that follow them form one
    block with ``child`` None, and none of them is built: each holds the
    run's empty cone, ``_EMPTY_CONE``.
    """
    kx, ky, kz = (row in cone.strict for row in _Q11_ROWS)
    xl, yl, zl = choices
    for x in xl:
        xset, xn = x
        if kx and xn.empty:
            yield None, (x,), yl, zl
            continue
        for y in yl:
            yset, yn = y
            if ky and yn.empty:
                yield None, (x,), (y,), zl
                continue
            for z in zl:
                zset, zn = z
                if kz and zn.empty:
                    yield None, (x,), (y,), (z,)
                    continue
                child = table.child(cone, xn, yn, zn, shape, xset[:1], yset[:1], zset[:1])
                yield child, (x,), (y,), (z,)


def refine_pair(
    pair: RefinementPair, shapes: Sequence[Shape], table: RunTable | None = None
) -> list[RefinementPair]:
    """All children of one pair, in canonical order.

    Shapes are taken in linset order; within a shape the choice collections
    are each canonically sorted, and the nested product enumerates them
    lexicographically.  Children with empty member sets are kept.  Each
    axis's choices and chain cones come from ``pair.chains``, each child
    carries the chains its choices lead to, and each extended set sequence
    is built once per shape and choice and shared by the children that take
    it.  Children with equal member sets share one ``Cone`` of ``table`` (a
    fresh table when none is given).
    """
    if table is None:
        table = RunTable()
    seqs = (pair.param.x_sets, pair.param.y_sets, pair.param.z_sets)
    children = []
    for shape in shapes:
        choices = [c.choices(n) for c, n in zip(pair.chains, shape)]
        xe, ye, ze = ({s: seq + (s,) for s, _ in cs} for seq, cs in zip(seqs, choices))
        for child, xs, ys, zs in _children(table, pair.cone, shape, choices):
            cone = _EMPTY_CONE if child is None else child
            for xset, xn in xs:
                for yset, yn in ys:
                    for zset, zn in zs:
                        param = CoveringParameter(xe[xset], ye[yset], ze[zset])
                        children.append(RefinementPair(cone, param, (xn, yn, zn)))
    return children


def _refine_classes(
    live: dict[RefinementClass, int], shapes: Sequence[Shape], table: RunTable
) -> tuple[dict[RefinementClass, int], int]:
    """The next generation's classes with their multiplicities, in order of
    first appearance, and the number of children of empty chains.

    Each live class is refined once, and its multiplicity is added to each
    child class.  A block of children of an empty chain adds its size times
    the multiplicity to the count and builds nothing.
    """
    classes: dict[RefinementClass, int] = {}
    counted = 0
    for (cone, chains), mult in live.items():
        for shape in shapes:
            choices = [c.choices(n) for c, n in zip(chains, shape)]
            for child, xs, ys, zs in _children(table, cone, shape, choices):
                if child is None:
                    counted += mult * len(xs) * len(ys) * len(zs)
                    continue
                new = RefinementClass(child, (xs[0][1], ys[0][1], zs[0][1]))
                classes[new] = classes.get(new, 0) + mult
    return classes, counted


_EMPTY, _ABSORBED, _LIVE = range(3)


def _classify(cone: Cone, stop_rows: Sequence[Vector]) -> int:
    """``_EMPTY`` when the member set is empty, ``_ABSORBED`` when the cone
    lies in the stop set, otherwise ``_LIVE``."""
    if cone.is_member_empty():
        return _EMPTY
    return _ABSORBED if cone.is_subset_of(stop_rows) else _LIVE


def check_y_projection_argument(
    items: Iterable[RefinementPair] | Iterable[RefinementClass],
) -> bool:
    """Every live pair chose a non-empty factor-2 set.

    ``items`` are the live pairs or the live classes of a generation, as
    the run classified them: the pairs of ``RunResult.generations`` whose
    cone ``RunResult.table.verdicts`` holds live, or
    ``RunResult.live_classes``.  A pair chose a non-empty factor-2 set
    exactly when its factor-2 chain has a non-empty key, and the pairs of a
    class share their chains.  This is the machine-checkable core of the
    argument that, for the relation with zero second coefficient, the
    factor-2 choices carry no information and all genuine solutions already
    lie in the stop set.
    """
    return all(p.chains[1].key for p in items)


def run_algorithm(
    a: int, b: int, stop_kind: str = "diagonal", max_iter: int = 13, threads: int = 1
) -> RunResult:
    """The refinement loop for ``a x + b y = (a+b) z`` until the stop set.

    Runs for at most ``max_iter`` refinements or until a generation is
    produced with no pairs at all.  A run with a free block steps its two
    processes and combines their counts (see the module docstring); any
    other run is ``_run_generic``.  The run is sequential, and its log and
    dump are the same whatever ran before it in the process; ``threads`` is
    accepted for compatibility and must be 1.
    """
    shapes = linset(a, b)
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    if threads != 1:
        raise ValueError(f"runs are single-threaded; threads must be 1, got {threads}")
    if gcd(a, b) != 1:
        warnings.warn(f"gcd({a}, {b}) != 1; the relation is not in lowest terms")
    rows = stop_set(stop_kind)
    free = _free_block(shapes, rows)
    if free is None:
        return _run_generic(a, b, stop_kind, max_iter)
    rest, ns = [s for s in shapes if not s[free]], [s[free] for s in shapes if s[free]]
    loop = _class_loop(rest, rows, RunTable())
    log = [next(loop)[1]]
    steps, walked, chains = log[:], [IterationRecord(0, 1, 1, 0, 1, 0, 0.0)], [ksets._chain(())]
    while log[-1].total and len(log) <= max_iter:
        start = time.perf_counter()
        steps.append(next(loop)[1])
        # The free process: a child of a live chain is live unless its chain
        # is empty, when it is counted.  Distinct steps give distinct chains.
        children = [c for p in chains for n in ns for _, c in p.choices(n)]
        chains = [c for c in children if not c.empty]
        n = len(chains)
        walked.append(IterationRecord(len(log), len(children), n, 0, n, len(children) - n, 0.0))
        log.append(_convolve(steps, walked, time.perf_counter() - start))
    return RunResult(a, b, stop_kind, log)


def _free_block(shapes: Sequence[Shape], stop_rows: Sequence[Vector]) -> int | None:
    """The first block that no stop row touches and that every shape
    touching it touches alone; None when there is none.  No link joins
    such a block to another: ``_links`` joins two blocks only when one
    shape touches both."""
    columns = list(zip(*stop_rows))
    for i in range(3):
        if not any(map(any, columns[3 * i : 3 * i + 3])) and all(s[i] in (0, sum(s)) for s in shapes):
            return i
    return None


def _convolve(
    steps: Sequence[IterationRecord], walked: Sequence[IterationRecord], seconds: float
) -> IterationRecord:
    """Generation ``g`` of a factored run from the records of its two
    processes to step ``g`` (see the module docstring).  ``C(g-1, k-1)``
    is ``C(g, k) - C(g-1, k)``, which is 0 at ``k = 0``."""
    g = len(steps) - 1
    sums = [g, 0, 0, 0, 0, 0]
    for k in range(g + 1):
        x, y, n, j = steps[k], walked[g - k], comb(g, k), comb(g - 1, k)
        for f in (1, 2, 3, 5):
            sums[f] += (n - j) * x[f] * y.non_empty + j * x.non_empty * y[f]
        sums[4] += x.live_classes * y.live_classes
    return IterationRecord(*sums, seconds)


def _run_generic(a: int, b: int, stop_kind: str, max_iter: int) -> RunResult:
    """The class loop: classify a generation, refine its live classes, repeat.

    A generation is a dict from class to multiplicity.  Pairs whose member
    set is empty are subsets of every stop set and are dropped together
    with the absorbed ones.  The run interns its cones in its own
    ``RunTable`` and keeps each generation's live classes.
    """
    table = RunTable()
    log, live_classes = [], []
    for live, record in _class_loop(linset(a, b), stop_set(stop_kind), table):
        live_classes.append(live)
        log.append(record)
        if record.total == 0 or record.index == max_iter:
            return RunResult(a, b, stop_kind, log, live_classes, table)


def _class_loop(
    shapes: Sequence[Shape], rows: tuple[Vector, ...], table: RunTable
) -> Iterator[tuple[dict[RefinementClass, int], IterationRecord]]:
    """Each generation's live classes and record, from the root class."""
    classes, counted, index = {RefinementClass(_INITIAL_CONE, (ksets._chain(()),) * 3): 1}, 0, 0
    start = time.perf_counter()
    while True:
        live, record = _record(index, classes, counted, rows, start, table)
        yield live, record
        start, index = time.perf_counter(), index + 1
        classes, counted = _refine_classes(live, shapes, table)


def _record(
    index: int,
    classes: dict[RefinementClass, int],
    counted: int,
    stop_rows: tuple[Vector, ...],
    start: float,
    table: RunTable,
) -> tuple[dict[RefinementClass, int], IterationRecord]:
    """Classify a generation, one verdict per distinct member set; return
    its live classes and record.

    A class is empty, absorbed by the stop set, or live; only the live
    classes are refined next, and each counts its multiplicity.  The
    ``counted`` children of empty chains hold the run's empty cone, whose
    verdict the table holds from the start.  Every other interned cone
    takes its verdict from ``_verdicts`` for ``stop_rows``, classified only
    when no earlier run in the process classified it, and the verdict
    enters ``table``.  The seconds run from ``start`` to the end of the
    classification.
    """
    verdicts = table.verdicts
    known = _verdicts[stop_rows]
    live = {}
    total, non_empty, stopped = counted, 0, 0
    for cls, mult in classes.items():
        total += mult
        cone = cls.cone
        verdict = verdicts.get(cone)
        if verdict is None:
            verdict = known.get(cone)
            if verdict is None:
                verdict = known[cone] = _classify(cone, stop_rows)
            verdicts[cone] = verdict
        if verdict == _LIVE:
            live[cls] = mult
            non_empty += mult
        elif verdict == _ABSORBED:
            stopped += mult
    seconds = time.perf_counter() - start
    record = IterationRecord(index, total, non_empty, stopped, len(live), counted, seconds)
    return live, record
