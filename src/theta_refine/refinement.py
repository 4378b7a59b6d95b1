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
A run keeps only its log and its table.  The pairs are replayed on demand
(``RunResult.replay`` and ``generations``) by ``refine_pair``, which lists
the children the class loop builds and counts, and the verdicts of the
table the run used.

A run interns its cones, chain cones and children in the process's
``RunTable`` for its stop set.  Counted children: every run cone carries
the three ``q11 > 0`` rows, as ``_INITIAL_CONE`` does, ``Cone._cut`` keeps
them and ``refine_pair`` refuses a pair without them.  So a chain with no
reduced form of its structure (``Chain.empty``, the degenerate-cone
certificate) gives every child built from it an empty member set.  With
``X``, ``Y`` and ``Z`` a shape's choices per factor and ``X'``, ``Y'`` and
``Z'`` those that lead to no such chain, a shape has ``|X||Y||Z| -
|X'||Y'||Z'|`` of them; the run builds only the ``X' x Y' x Z'``
children, and tests a factor's chains only while every factor before it
has a choice left.  Under the 4-choice rule, when a shape asks a block for
``n >= 4`` vectors and every 4-choice of the block's chain is empty
(``Chain.dead``), all ``|X||Y||Z|`` children are counted from the sizes
(``Chain.count``) and no choice is listed.  In a replay the counted
children hold the run's one empty cone, which has no row merge or double
description of its own.

The one-ray rule: a pointed cone with one extreme ray ``r`` is ``cone(r)``,
and a closed row ``a`` holds on all of it when ``a . r >= 0`` and only at 0
otherwise.  So the cone cut by closed rows is ``cone(r)`` when every row is
``>= 0`` at ``r``, and ``{0}`` otherwise, with no row merge or double
description.  A child whose parent cone has one ray is the parent or the
empty cone (``RunTable.child``), and a chain is empty when a row of its last
set is negative at its prefix cone's one ray (``ksets.Chain``).

A run factors when one block is free: no stop row touches it, and every
shape that touches it touches no other block, so no link row touches it
either (``_free_block``).  Only the ``(k, 0)`` runs under ``q1_eq_q3`` do, with
the second block free.  Every cone of such a run is ``C x K(c)``, with
``K(c)`` the free block's chain cone; a free step changes only ``c``, and
another step only ``C`` and the other chains.  So ``run_algorithm`` steps
two processes one generation at a time.  The first is the class loop
from the root class under the other shapes; its free block keeps the root
chain, whose cone has members with ``q11 > 0``, so its verdicts are
those of ``C``.  The second walks the free block's live states, with no
``Chain`` and no ``Cone``, as one list of ray cycles per exclusion
(``_free_walk``): a state is its cone's extreme rays in cyclic order.  Each
``s`` of ``minima._min_n(excluded, n)``, ``n`` a size a shape asks of the
block, clips each state by ``ksets._step_rows(s, excluded | s)``, computed
once per group, with no DD (``_clip``), so each state has the rays of its
key's chain cone.  A child is live unless none of its rays has ``q11 > 0``
(``Chain.empty``), when it is counted.
A pair of generation ``g`` with ``k`` steps of the first process is one
of ``C(g, k)`` interleavings, ``C(g-1, k-1)`` of which end with a step of
the first.  With ``A[k]`` and ``B[j]`` the processes' records,
``non_empty(g) = Σ C(g, k) A[k].non_empty B[g-k].non_empty``; ``total``,
``stop_absorbed`` and ``counted`` are ``Σ C(g-1, k-1) A[k].f
B[g-k].non_empty + C(g-1, k) A[k].non_empty B[g-k].f``; and
``live_classes(g) = Σ A[k].live_classes B[g-k].live_classes``, with no
binomial, since the free chain has ``g - k`` sets (``_convolve``).

The initial cone and the empty cone are the same in every run, so they are
process constants (``_INITIAL_CONE`` and ``_EMPTY_CONE``), each described
at import by its own DD over its own rows: no run pays a DD for either.

Runs in one process share their work through three process memos: the
chains (``ksets._chains``), the minimal complements
(``minima._min_complement_cache``) and one ``RunTable`` per stop set
(``_tables``), made at its first use.  A process keeps every chain and
table entry it met until ``clear_caches`` empties all three, so the 38
coprime runs with ``4 <= a + b <= 11`` build 3 nine-dimensional cones.
"""

from __future__ import annotations

import time
import warnings
from itertools import product
from math import comb, gcd, prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import ksets, minima
from .geometry import Cone, Vector, _dot, _padded, _primitive, product3
from .ksets import V_CONE, Chain, _step_rows, chain
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
        return tuple(map(chain, self))


class RefinementPair(NamedTuple):
    """A cone, its covering parameter and the ``Chain`` of each factor.

    ``chains`` is ``param.chains()`` and ``cone`` has the three ``q11 > 0``
    strict rows, also in a hand-built pair (``refine_pair`` checks them).
    """

    cone: Cone
    param: CoveringParameter
    chains: tuple[Chain, Chain, Chain]


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
    ``counted`` the pairs among ``total`` that the run counts without
    building them (the module docstring's counted children).
    """

    index: int
    total: int
    non_empty: int
    stop_absorbed: int
    live_classes: int
    counted: int
    seconds: float


class RunResult:
    """A run's log and the table it classified in, which it keeps after
    ``clear_caches``.  ``replay`` and ``generations`` give the pairs."""

    __slots__ = ("a", "b", "stop_kind", "log", "table", "_pairs")

    def __init__(self, a: int, b: int, stop_kind: str, log: list[IterationRecord], table: RunTable) -> None:
        self.a = a
        self.b = b
        self.stop_kind = stop_kind
        self.log = log
        self.table = table
        self._pairs: list[list[RefinementPair]] | None = None

    def totals(self) -> list[int]:
        return [rec.total for rec in self.log]

    def non_empty_counts(self) -> list[int]:
        return [rec.non_empty for rec in self.log]

    def replay(self) -> Iterator[list[RefinementPair]]:
        """Each generation's pairs, as a loop over pairs makes them: from
        ``table.root``, the pairs of one generation that ``table.verdict``
        calls live are refined into the next, and none after the last, which
        is never classified.  After a class loop over all shapes every
        construction and verdict is in the table, so the replay computes no
        double description and tests no cone; it lists the choices the run
        counted.  After a factored run it builds and classifies what the
        class loop would have.  Nothing is kept."""
        shapes = linset(self.a, self.b)
        table = self.table
        cone, chains = table.root
        generation = [RefinementPair(cone, CoveringParameter(), chains)]
        for i in range(len(self.log)):
            if i:
                generation = [
                    c for p in generation if table.verdict(p.cone) == _LIVE
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
# Process constants (see the module docstring).
_INITIAL_CONE = product3(V_CONE, V_CONE, V_CONE)
_INITIAL_CONE.edges()
_EMPTY_CONE = Cone(9, _UNIT_ROWS + ((-1,) * 9,), _Q11_ROWS)
_EMPTY_CONE.edges()

# The process's table per stop set, keyed by its rows: a cone can be absorbed
# under one stop set and live under the other.
_tables: dict[tuple[Vector, ...], RunTable] = {}


def _table(stop_rows: tuple[Vector, ...]) -> RunTable:
    """The process's table for ``stop_rows``, made at its first use."""
    return _tables.get(stop_rows) or _tables.setdefault(stop_rows, RunTable(stop_rows))


def clear_caches() -> None:
    """Empty every process memo: the chains (``ksets._chains``), the
    minimal complements (``minima._min_complement_cache``) and the tables.
    A run made after it starts from a new table and dumps the cold bytes."""
    ksets.clear_cache()
    minima.clear_caches()
    _tables.clear()


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
    """Product of the three extended chain cones, and the rows of the
    value links (``_links``) as a cone.  A link takes the first element of
    each linked set; the chain cones hold the other equalities."""
    ks = [chain(seq + (s,)).cone for seq, s in zip(param, (xs, ys, zs))]
    return product3(*ks), Cone(9, _link_rows(_links(shape, xs, ys, zs)))


_EMPTY, _ABSORBED, _LIVE = range(3)


class RunTable:
    """The facts of the runs under one stop set: its ``rows``, the ``root``
    class, the cones hash-consed by member set, and their verdicts.

    ``root`` is ``_INITIAL_CONE`` with the root chain on all three blocks,
    the one class of generation 0 of every run in the table.  ``intern``
    maps every cone to the table's first cone with the same key ``(dim,
    edges())``; it is the only code that decides whether two cones are one.
    Refinement and chain cones are pointed, nine-dim ones carry the three
    ``q11 > 0`` rows and chain cones none, so the sorted primitive extreme
    rays fix the member set:
    cones with one member set share one ``Cone`` and one verdict, however
    their rows were built.  ``child`` maps each chain to its interned chain
    cone (the table's first chain cone of that geometry) and memoises the
    child of a parent cone, three interned chain cones, a shape and the
    first elements of the linked sets, which fix the child's member set.
    Chains of equal geometry so share one child, and a repeated construction
    skips the row merge and the double description; so does a child of a
    parent with one extreme ray, which the signs at the ray decide.
    Building from the interned chain cone, not each chain's own, makes the
    nine-dim DDs insert fewer rows.  ``verdict`` classifies a cone at its
    first query and memoises the verdict in ``verdicts``.

    A new table interns ``_INITIAL_CONE`` and then ``_EMPTY_CONE``, held by
    the children of an empty chain and by every nine-dim cone with no ray,
    and holds the empty cone's verdict from the start.
    The constructions and chain cones a table meets first fix the rows a
    shared cone is dumped with.  So a run in a new table dumps the same
    bytes each time, and a run in a table that other runs filled may give a
    cone the rows of another construction with its member set, never other
    rays, strict rows or parameters.
    """

    __slots__ = ("rows", "root", "_cones", "_chain_cones", "_children", "verdicts")

    def __init__(self, stop_rows: tuple[Vector, ...]) -> None:
        self.rows = stop_rows
        self.root = RefinementClass(_INITIAL_CONE, (ksets._chain(()),) * 3)
        self._cones: dict[tuple, Cone] = {}
        self._chain_cones: dict[Chain, Cone] = {}
        self._children: dict[tuple, Cone] = {}
        self.intern(_INITIAL_CONE)
        self.intern(_EMPTY_CONE)
        self.verdicts: dict[Cone, int] = {_EMPTY_CONE: _EMPTY}

    def verdict(self, cone: Cone) -> int:
        """``_EMPTY`` when the member set is empty, ``_ABSORBED`` when the
        cone lies in the stop set, otherwise ``_LIVE``."""
        verdict = self.verdicts.get(cone)
        if verdict is None:
            if cone.is_member_empty():
                verdict = _EMPTY
            else:
                verdict = _ABSORBED if cone.is_subset_of(self.rows) else _LIVE
            self.verdicts[cone] = verdict
        return verdict

    def intern(self, cone: Cone) -> Cone:
        """The table's cone with this member set, keyed by its dimension and
        rays (see the class docstring); computes ``cone``'s rays."""
        return self._cones.setdefault((cone.dim, cone.edges()), cone)

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
        ``k2`` and ``k3`` are the table's interned chain cones of ``c1``,
        ``c2`` and ``c3``; ``x1``, ``y1`` and ``z1`` hold the first element
        of each chosen set (empty for an empty set).  Built only on a
        ``_children`` miss, as one ``parent._cut`` on the chain cones'
        closed rows, each in its block, and the link rows: the rows, in the
        order, of ``parent.intersect(product3(k1, k2, k3), Cone(9, link
        rows))``, neither of which is built.  Chain cones carry no strict
        rows, so neither does the cut.

        A pointed parent with one extreme ray ``r`` is cut by the one-ray
        rule (see the module docstring): the child reads each ``k_i``'s rows
        on block ``i`` of ``r`` and each link ``(i, u, j, v)`` as
        ``Q_i(u)(r_i) == Q_j(v)(r_j)``, and is the table's cone with that
        member set: ``intern(parent)`` or ``_EMPTY_CONE``, with no cut.
        """
        ks = self._chain_cones
        k1, k2, k3 = (ks.get(c) or ks.setdefault(c, self.intern(c.cone)) for c in (c1, c2, c3))
        key = (parent, k1, k2, k3, shape, x1, y1, z1)
        cone = self._children.get(key)
        if cone is None:
            links = _links(shape, x1, y1, z1)
            rays, lin, _ = parent._closed_description()
            if len(rays) == 1 and not lin:
                r = rays[0]
                rs = r[:3], r[3:6], r[6:]
                keep = all(_dot(a, b) >= 0 for k, b in zip((k1, k2, k3), rs) for a in k.closed) and all(
                    _dot(coeff_row(u), rs[i]) == _dot(coeff_row(v), rs[j]) for i, u, j, v in links
                )
                cone = self.intern(parent) if keep else _EMPTY_CONE
            else:
                rows = [*_padded((k1, k2, k3), "closed"), *_link_rows(links)]
                cone = self.intern(parent._cut(rows))
            self._children[key] = cone
        return cone


def _dead(chains: Sequence[Chain], shape: Shape) -> bool:
    """The 4-choice rule (see the module docstring) counts every child of
    ``shape``."""
    return max(shape) >= 4 and any(c.dead(n) for c, n in zip(chains, shape))


def refine_pair(
    pair: RefinementPair, shapes: Sequence[Shape], table: RunTable | None = None
) -> list[RefinementPair]:
    """All children of one pair, in canonical order.

    Shapes are taken in linset order; within a shape the choice collections
    are each canonically sorted, and their product is enumerated
    lexicographically.  Children with empty member sets are kept: a counted
    child (see the module docstring) holds ``_EMPTY_CONE``, and every other
    is ``table.child``.  Each axis's choices and chain cones come from
    ``pair.chains``, each child carries the chains its choices lead to, and
    each extended set sequence is built once per shape and choice and shared
    by the children that take it.  Children with equal member sets share
    one ``Cone`` of ``table`` (a fresh table when none is given).  A cone
    whose strict rows are not the three ``q11 > 0`` rows raises
    ``ValueError`` before the table is touched.
    """
    cone, param, chains = pair
    if set(cone.strict) != set(_Q11_ROWS):
        raise ValueError("a refined cone's strict rows must be the three q11 > 0 rows")
    if table is None:
        table = RunTable(())
    children = []
    for shape in shapes:
        dead = _dead(chains, shape)
        sides = [[(s, c, seq + (s,)) for s, c in ch.choices(n)] for seq, ch, n in zip(param, chains, shape)]
        for (x, xn, xe), (y, yn, ye), (z, zn, ze) in product(*sides):
            if dead or xn.empty or yn.empty or zn.empty:
                child = _EMPTY_CONE
            else:
                child = table.child(cone, xn, yn, zn, shape, x[:1], y[:1], z[:1])
            children.append(RefinementPair(child, CoveringParameter(xe, ye, ze), (xn, yn, zn)))
    return children


def _refine_classes(
    live: dict[RefinementClass, int], shapes: Sequence[Shape], table: RunTable
) -> tuple[dict[RefinementClass, int], int]:
    """The next generation's classes with their multiplicities, in order of
    first appearance, and its counted children (see the module docstring).

    Each live class is refined once, and its multiplicity is added to each
    child class and, times the number of its counted children, to the
    count.
    """
    classes: dict[RefinementClass, int] = {}
    counted = 0
    for (cone, chains), mult in live.items():
        for shape in shapes:
            if _dead(chains, shape):
                counted += mult * prod(c.count(n) for c, n in zip(chains, shape))
                continue
            xl, yl, zl = (c.choices(n) for c, n in zip(chains, shape))
            xs = [x for x in xl if not x[1].empty]
            ys = [y for y in yl if not y[1].empty] if xs else []
            zs = [z for z in zl if not z[1].empty] if ys else []
            counted += mult * (len(xl) * len(yl) * len(zl) - len(xs) * len(ys) * len(zs))
            for xset, xn in xs:
                for yset, yn in ys:
                    for zset, zn in zs:
                        child = table.child(cone, xn, yn, zn, shape, xset[:1], yset[:1], zset[:1])
                        new = RefinementClass(child, (xn, yn, zn))
                        classes[new] = classes.get(new, 0) + mult
    return classes, counted


def run_algorithm(
    a: int, b: int, stop_kind: str = "diagonal", max_iter: int = 13, threads: int = 1
) -> RunResult:
    """The refinement loop for ``a x + b y = (a+b) z`` until the stop set.

    Runs for at most ``max_iter`` refinements or until a generation is
    produced with no pairs at all, reading one record per generation: the
    class loop's over all shapes, or for a run with a free block those that
    ``_factored`` combines from its two processes (see the module
    docstring).  The run interns into the process's table for its stop set;
    its log is the same whatever ran before it.  ``threads`` must be 1.
    """
    shapes = linset(a, b)
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    if threads != 1:
        raise ValueError(f"runs are single-threaded; threads must be 1, got {threads}")
    if gcd(a, b) != 1:
        warnings.warn(f"gcd({a}, {b}) != 1; the relation is not in lowest terms")
    table = _table(stop_set(stop_kind))
    free = _free_block(shapes, table.rows)
    records = _class_loop(shapes, table) if free is None else _factored(shapes, free, table)
    log = [next(records)]
    while log[-1].total and len(log) <= max_iter:
        log.append(next(records))
    return RunResult(a, b, stop_kind, log, table)


def y_projection_holds(max_iter: int) -> bool:
    """Every live pair of generation ``max_iter`` of the ``(1, 0)`` q1_eq_q3
    run chose a non-empty factor-2 set.  Block 2 is free, so a live class
    of generation ``g`` is a class of the ``(1, 0, 1)`` process after ``k``
    steps times a free state after ``g - k``, whose factor-2 key is empty
    exactly when ``k = g``: the check fails iff that process has a live
    class at step ``g``.  Every ``(k, 0)`` run has this linset."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    shapes, table = linset(1, 0), _table(stop_set("q1_eq_q3"))
    if _free_block(shapes, table.rows) != 1:
        return False
    for record in _class_loop([s for s in shapes if not s[1]], table):
        if record.index == max_iter or not record.total:
            return not record.non_empty


def _factored(shapes: Sequence[Shape], free: int, table: RunTable) -> Iterator[IterationRecord]:
    """Each generation's record of a run whose block ``free`` is free: the
    class loop under the shapes that do not touch it and the walk of its
    states under those that do, stepped together and combined by
    ``_convolve``."""
    rest, ns = [s for s in shapes if not s[free]], [s[free] for s in shapes if s[free]]
    loop, walk = _class_loop(rest, table), _free_walk(ns)
    steps, walked = [next(loop)], [next(walk)[1]]
    yield steps[0]
    while True:
        start = time.perf_counter()
        steps.append(next(loop))
        walked.append(next(walk)[1])
        yield _convolve(steps, walked, time.perf_counter() - start)


def _free_walk(ns: Sequence[int]) -> Iterator[tuple[dict[frozenset[Pair], list[tuple[Vector, ...]]], IterationRecord]]:
    """Each step's live free states, a list of ray cycles per exclusion, and
    its record, from the root chain's cone: the closed reduction domain,
    pointed with three rays, a cycle in any order."""
    groups, total, index = {frozenset(): [ksets._chain(()).cone.edges()]}, 1, 0
    while True:
        live = sum(map(len, groups.values()))
        yield groups, IterationRecord(index, total, live, 0, live, total - live, 0.0)
        children, total, index = {}, 0, index + 1
        for excluded, states in groups.items():
            for n in ns:
                for s in minima._min_n(excluded, n):
                    e = excluded.union(s)
                    rows = _step_rows(s, e)
                    total += len(states)
                    for rays in states:
                        rays = _clip(rays, rows)
                        if any(r[0] for r in rays):
                            children.setdefault(e, []).append(rays)
        groups = children


def _clip(rays: tuple[Vector, ...], rows: Iterable[Vector]) -> tuple[Vector, ...]:
    """The extreme rays ``rays`` of a pointed three-dim cone, in cyclic
    order, cut by the closed ``rows``: a cross-section is a convex polygon,
    clipped by each row in turn (Sutherland and Hodgman, 1974).  A row ``a``
    negative at some ray keeps each ray with ``s_i = a . r_i >= 0`` and puts
    after ray ``i`` the primitive ``|s_i| r_j + |s_j| r_i``, where ``a``
    vanishes, of each edge ``(i, j)`` with signs strictly opposite.  Edges
    join consecutive rays, and the last to the first when there are 3 or
    more; 1 ray is the one-ray rule.  Exact, and the rays stay cyclic."""
    for a0, a1, a2 in rows:
        d = [a0 * x + a1 * y + a2 * z for x, y, z in rays]
        if not d or min(d) >= 0:
            continue
        n, cut = len(rays), []
        for i, (r, s) in enumerate(zip(rays, d)):
            if s >= 0:
                cut.append(r)
            j = (i + 1) % n
            if s * d[j] < 0 and (j or n > 2):
                (x, y, z), (u, v, w), p, q = r, rays[j], abs(s), abs(d[j])
                cut.append(_primitive((p * u + q * x, p * v + q * y, p * w + q * z)))
        rays = tuple(cut)
    return rays


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


def _class_loop(shapes: Sequence[Shape], table: RunTable) -> Iterator[IterationRecord]:
    """Each generation's record, from ``table.root``.

    Each class of a generation counts its multiplicity under the verdict
    ``table.verdict`` gives its cone, and only the live ones are refined
    next.  The counted children (see the module docstring) enter ``total``
    and ``counted`` only.  A record's seconds cover refining its generation
    and classifying it.
    """
    classes, counted, index = {table.root: 1}, 0, 0
    start = time.perf_counter()
    while True:
        live = {}
        total, non_empty, stopped = counted, 0, 0
        for cls, mult in classes.items():
            total += mult
            verdict = table.verdict(cls.cone)
            if verdict == _LIVE:
                live[cls] = mult
                non_empty += mult
            elif verdict == _ABSORBED:
                stopped += mult
        seconds = time.perf_counter() - start
        yield IterationRecord(index, total, non_empty, stopped, len(live), counted, seconds)
        start, index = time.perf_counter(), index + 1
        classes, counted = _refine_classes(live, shapes, table)
