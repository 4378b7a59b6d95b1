"""The extended refinement loop over triples of reduction-domain cones.

State is a set of pairs (T, P): a cone T in the 9-dimensional product of
three copies of form space, and a covering parameter P recording, per factor,
the sequence of vector sets already pinned down as successive minima.  Each
pair carries the process-wide ``ksets.Chain`` of each factor's sequence,
which holds the chain cone and the next choices.  Each generation is
classified once: a pair is empty (no member), absorbed (its cone lies in the
stop set) or live, and the run keeps each generation's live pairs, which the
y-projection check reads instead of classifying again.  The next generation
replaces each live pair by all of its refinements: for every shape in the
linset and every admissible choice of next minimal-vector sets, intersect T
with the corresponding product cone and value-equality rows and extend P.

Counting convention for the per-iteration table: generation i holds every
pair produced by refining generation i-1's live pairs, including pairs whose
member set is empty; those are only dropped when generation i is refined,
together with the stop-set-contained ones.

Each run hash-conses its cones in a ``RunTable``, keyed by member set: the
sorted extreme rays of the (pointed) closed cone plus the strict rows.  Pairs
whose cones have the same member set share one ``Cone`` object and one
verdict, however many pairs hold it and whatever rows built it.  A
repeated construction (same parent cone, chain geometries, shape and link
vectors) is looked up instead of rebuilt, so chain sequences with equal
chain geometry share one child.  A chain with no reduced form of its
structure (``Chain.empty``, the degenerate-cone certificate) gives every
child built from it an empty member set; such a child is the run's one
empty cone, with no product, intersection or double description of its
own.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Sequence

from .geometry import Cone, Vector, product3
from .ksets import V_CONE, Chain, chain
from .quadform import coeff_row

Pair = tuple[int, int]
Shape = tuple[int, int, int]

STOP_SET_KINDS = ("diagonal", "q1_eq_q3")


@dataclass(frozen=True)
class Linset:
    """Generators of the non-negative solutions of a x + b y = (a+b) z."""

    a: int
    b: int
    shapes: tuple[Shape, ...]


def linset(a: int, b: int) -> Linset:
    """Shapes (1,1,1), (a+b,0,a)/g, (0,a+b,b)/g; the first is dropped when
    a*b = 0, where it is the sum of the other two."""
    if a < 0 or b < 0 or (a, b) == (0, 0):
        raise ValueError("need non-negative a, b with (a, b) != (0, 0)")
    g = gcd(a, b)
    l1: Shape = (1, 1, 1)
    l2: Shape = ((a + b) // g, 0, a // g)
    l3: Shape = (0, (a + b) // g, b // g)
    shapes = (l2, l3) if a == 0 or b == 0 else (l1, l2, l3)
    return Linset(a, b, shapes)


@dataclass(frozen=True)
class CoveringParameter:
    """Per-factor sequences of vector sets chosen along one refinement branch."""

    x_sets: tuple[tuple[Pair, ...], ...] = ()
    y_sets: tuple[tuple[Pair, ...], ...] = ()
    z_sets: tuple[tuple[Pair, ...], ...] = ()

    def chains(self) -> tuple[Chain, Chain, Chain]:
        """The process's ``Chain`` of each factor's set sequence."""
        return (chain(self.x_sets), chain(self.y_sets), chain(self.z_sets))


@dataclass(frozen=True)
class RefinementPair:
    """A cone, its covering parameter and the ``Chain`` of each factor.

    ``chains`` is ``param.chains()``, which ``refine_pair`` reads the next
    choices from and never looks up again; a hand-built pair passes
    ``param.chains()``.  It takes no part in equality.
    """

    cone: Cone
    param: CoveringParameter
    chains: tuple[Chain, Chain, Chain] = field(compare=False, repr=False)


@dataclass
class IterationRecord:
    """Exact per-generation counts; wall time is informational only.

    ``total`` counts every pair produced for the generation.  ``non_empty``
    counts pairs whose cone has a non-empty member set and is not contained
    in the stop set -- the pairs the next iteration refines, and the quantity
    the iteration tables report.  ``stop_absorbed`` counts pairs with a
    non-empty member set that are contained in the stop set; the remaining
    ``total - non_empty - stop_absorbed`` pairs have empty member sets.
    """

    index: int
    total: int
    non_empty: int
    stop_absorbed: int
    seconds: float


@dataclass
class RunResult:
    """``live[i]`` holds the pairs of ``generations[i]`` classified live, in
    order: the pairs that generation ``i + 1`` refines."""

    a: int
    b: int
    stop_kind: str
    max_iter: int
    generations: list[list[RefinementPair]] = field(default_factory=list)
    live: list[list[RefinementPair]] = field(default_factory=list)
    log: list[IterationRecord] = field(default_factory=list)

    def totals(self) -> list[int]:
        return [rec.total for rec in self.log]

    def non_empty_counts(self) -> list[int]:
        return [rec.non_empty for rec in self.log]


def stop_set(kind: str) -> tuple[Vector, ...]:
    """Equality rows (dim 9) of the stop subspace."""
    if kind == "diagonal":
        pairs = [(i, i + 3) for i in range(3)] + [(i + 3, i + 6) for i in range(3)]
    elif kind == "q1_eq_q3":
        pairs = [(i, i + 6) for i in range(3)]
    else:
        raise ValueError(f"unknown stop set {kind!r}; expected one of {STOP_SET_KINDS}")
    rows = []
    for i, j in pairs:
        row = [0] * 9
        row[i], row[j] = 1, -1
        rows.append(tuple(row))
    return tuple(rows)


def initial_pair() -> RefinementPair:
    """The whole product of three reduction domains, with no choices made."""
    param = CoveringParameter()
    return RefinementPair(product3(V_CONE, V_CONE, V_CONE), param, param.chains())


def _cross_equality_rows(block_i: int, vi: Pair, block_j: int, vj: Pair) -> list[Vector]:
    row = [0] * 9
    ri, rj = coeff_row(vi), coeff_row(vj)
    for k in range(3):
        row[3 * block_i + k] += ri[k]
        row[3 * block_j + k] -= rj[k]
    return [tuple(row), tuple(-x for x in row)]


def _link_cone(
    shape: Shape, xs: tuple[Pair, ...], ys: tuple[Pair, ...], zs: tuple[Pair, ...]
) -> Cone:
    """Value-link rows between the first elements of the linked sets."""
    rows: list[Vector] = []
    if shape == (1, 1, 1):
        rows += _cross_equality_rows(0, xs[0], 1, ys[0])
        rows += _cross_equality_rows(0, xs[0], 2, zs[0])
    elif shape[1] == 0:
        if xs and zs:
            rows += _cross_equality_rows(0, xs[0], 2, zs[0])
    else:
        if ys and zs:
            rows += _cross_equality_rows(1, ys[0], 2, zs[0])
    return Cone(9, rows)


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
    return product3(k1, k2, k3), _link_cone(shape, xs, ys, zs)


_UNIT_ROWS = tuple(tuple(int(k == j) for k in range(9)) for j in range(9))
# The strict row q11 > 0 of each block, as ``product3`` embeds ``V_CONE``'s.
_Q11_ROWS = _UNIT_ROWS[::3]


class RunTable:
    """The cones of one refinement run, hash-consed by member set, with
    their verdicts.

    ``intern`` maps every cone to the first cone of the run with the same
    key ``(dim, edges(), frozenset(strict))``.  Every refinement cone is
    pointed, so its sorted primitive extreme rays fix its closed cone, and
    with the strict rows they fix its member set: pairs whose cones have the
    same member set share one ``Cone`` object and one verdict, however
    differently their rows were built.  ``child`` memoises the child built
    from a parent cone, three chains, the shape and the first elements of
    the linked sets.  It keys each chain on its ``rep``, since a child's
    member set depends only on the member sets of the parent and the chain
    cones and on the link rows, so a repeated construction skips the
    product, the link cone, the intersection and its double description.
    A child of an empty chain (``Chain.empty``) has no member either, and
    is the run's one empty cone: the zero cone with the three ``q11 > 0``
    rows, built at the run's first such child.  ``verdicts`` holds
    ``_record``'s classification of each interned cone.  A table serves one
    sequential run: which construction and which chain cone of each
    geometry the run sees first fix the rows a shared cone is dumped with,
    whatever ran before in the process.
    """

    __slots__ = ("_cones", "_chain_cones", "_children", "_empty", "verdicts")

    def __init__(self) -> None:
        self._cones: dict[tuple, Cone] = {}
        self._chain_cones: dict[Chain, Cone] = {}
        self._children: dict[tuple, Cone] = {}
        self._empty: Cone | None = None
        self.verdicts: dict[Cone, int] = {}

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
        """``parent ∩ (c1.cone x c2.cone x c3.cone) ∩ link``, interned;
        ``x1``, ``y1`` and ``z1`` hold the first element of each chosen set
        (empty for an empty set).

        When some chain ``c_i`` is empty and the parent carries block
        ``i``'s ``q11 > 0`` row, the child has no member and is the run's
        empty cone.  Otherwise it is built from the run's first chain cone
        of each chain's geometry.
        """
        memo_key = (parent, c1.rep, c2.rep, c3.rep, shape, x1, y1, z1)
        cone = self._children.get(memo_key)
        if cone is None:
            chains = (c1, c2, c3)
            if any(c.empty and row in parent.strict for c, row in zip(chains, _Q11_ROWS)):
                cone = self._empty
                if cone is None:
                    zero = Cone(9, _UNIT_ROWS + ((-1,) * 9,), _Q11_ROWS)
                    cone = self._empty = self.intern(zero)
            else:
                k1, k2, k3 = (self._chain_cones.setdefault(c.rep, c.cone) for c in chains)
                cone = self.intern(
                    parent.intersect(product3(k1, k2, k3), _link_cone(shape, x1, y1, z1))
                )
            self._children[memo_key] = cone
        return cone


def refine_pair(
    pair: RefinementPair, ls: Linset, table: RunTable | None = None
) -> list[RefinementPair]:
    """All children of one pair, in canonical order.

    Shapes are taken in linset order; within a shape the choice collections
    are each canonically sorted, and the nested product enumerates them
    lexicographically.  Children with empty member sets are kept.  Each
    axis's choices and chain cones come from ``pair.chains``, each child
    carries the chains its choices lead to, and each extended set sequence is built once per shape and choice and shared by
    the children that take it.  Children with equal member sets share one
    ``Cone`` of ``table`` (a fresh table when none is given).
    """
    if table is None:
        table = RunTable()
    param = pair.param
    seqs = (param.x_sets, param.y_sets, param.z_sets)
    children = []
    for shape in ls.shapes:
        xl, yl, zl = (
            [(seq + (s,), s[:1], nxt) for s, nxt in c.choices(n)]
            for seq, c, n in zip(seqs, pair.chains, shape)
        )
        for xe, x1, xn in xl:
            for ye, y1, yn in yl:
                for ze, z1, zn in zl:
                    cone = table.child(pair.cone, xn, yn, zn, shape, x1, y1, z1)
                    children.append(
                        RefinementPair(cone, CoveringParameter(xe, ye, ze), (xn, yn, zn))
                    )
    return children


_EMPTY, _ABSORBED, _LIVE = range(3)


def _classify(cone: Cone, stop_rows: Sequence[Vector]) -> int:
    """``_EMPTY`` when the member set is empty, ``_ABSORBED`` when the cone
    lies in the stop set, otherwise ``_LIVE``."""
    if cone.is_member_empty():
        return _EMPTY
    return _ABSORBED if cone.is_subset_of(stop_rows) else _LIVE


def check_y_projection_argument(pairs: Iterable[RefinementPair]) -> bool:
    """Every live pair chose a non-empty factor-2 set.

    ``pairs`` are the live pairs of a generation, as the run classified them
    (``RunResult.live``).  This is the machine-checkable core of the
    argument that, for the relation with zero second coefficient, the
    factor-2 choices carry no information and all genuine solutions already
    lie in the stop set.
    """
    return all(any(p.param.y_sets) for p in pairs)


def run_algorithm(
    a: int,
    b: int,
    stop_kind: str = "diagonal",
    max_iter: int = 13,
    threads: int = 1,
) -> RunResult:
    """The refinement loop: classify a generation, refine its live pairs, repeat.

    Pairs whose member set is empty are subsets of every stop set and are
    dropped together with the absorbed ones.  The run has its own
    ``RunTable``: every cone, the initial one included, is interned by its
    member set (extreme rays and strict rows), so pairs with equal member
    sets share one ``Cone``, and each distinct member set is classified
    once, when its first pair is recorded.  Runs for at most ``max_iter``
    refinements or until a generation is produced with no pairs at all.  The
    run is sequential and deterministic, whatever ran before it in the
    process; ``threads`` is accepted for compatibility and must be 1.
    """
    ls = linset(a, b)
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    if threads != 1:
        raise ValueError(f"runs are single-threaded; threads must be 1, got {threads}")
    if gcd(a, b) != 1:
        warnings.warn(f"gcd({a}, {b}) != 1; the relation is not in lowest terms")
    rows = stop_set(stop_kind)
    result = RunResult(a, b, stop_kind, max_iter)
    table = RunTable()

    start = time.perf_counter()
    first = initial_pair()
    generation = [RefinementPair(table.intern(first.cone), first.param, first.chains)]
    result.generations.append(generation)
    live, record = _record(0, generation, rows, start, table)
    result.live.append(live)
    result.log.append(record)

    i = 0
    while record.total > 0 and i < max_iter:
        start = time.perf_counter()
        generation = [child for p in live for child in refine_pair(p, ls, table)]
        result.generations.append(generation)
        i += 1
        live, record = _record(i, generation, rows, start, table)
        result.live.append(live)
        result.log.append(record)
    return result


def _record(
    index: int,
    generation: Sequence[RefinementPair],
    stop_rows: tuple[Vector, ...],
    start: float,
    table: RunTable,
) -> tuple[list[RefinementPair], IterationRecord]:
    """Classify a generation, one verdict per distinct member set; return
    its live pairs and record.

    A pair is empty, absorbed by the stop set, or live; only the live pairs
    are refined next.  Each interned cone, one per member set, is classified
    the first time a pair holding it is recorded, and every later pair that
    shares it reuses the verdict from ``table``.  The seconds run from
    ``start`` to the end of the classification; the cones' rays were already
    computed when they were interned.
    """
    verdicts = table.verdicts
    live = []
    stopped = 0
    for p in generation:
        verdict = verdicts.get(p.cone)
        if verdict is None:
            verdict = verdicts[p.cone] = _classify(p.cone, stop_rows)
        if verdict == _LIVE:
            live.append(p)
        elif verdict == _ABSORBED:
            stopped += 1
    record = IterationRecord(
        index, len(generation), len(live), stopped, time.perf_counter() - start
    )
    return live, record


def format_table(result: RunResult, verbose: bool = False) -> str:
    """Aligned per-iteration table: totals and non-empty counts."""
    indices = [str(rec.index) for rec in result.log]
    totals = [str(rec.total) for rec in result.log]
    nonempty = [str(rec.non_empty) for rec in result.log]
    rows = [("iteration", indices), ("pairs", totals), ("non-empty", nonempty)]
    if verbose:
        rows.append(("stop-absorbed", [str(rec.stop_absorbed) for rec in result.log]))
        rows.append(("seconds", [f"{rec.seconds:.2f}" for rec in result.log]))
    label_w = max(len(r[0]) for r in rows)
    col_w = [
        max(len(row[1][i]) for row in rows) for i in range(len(result.log))
    ]
    lines = []
    for label, cells in rows:
        line = label.ljust(label_w) + "  " + "  ".join(
            c.rjust(col_w[i]) for i, c in enumerate(cells)
        )
        lines.append(line.rstrip())
    return "\n".join(lines)
