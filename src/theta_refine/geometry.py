"""Exact rational polyhedral cones with closed and strict half-space constraints.

A cone here is the solution set of finitely many homogeneous constraints
``a . x >= 0`` (closed rows) and ``b . x > 0`` (strict rows) over the
rationals.  All arithmetic is exact: rows and rays are stored as integer
tuples obtained by clearing denominators, so no floating point enters any
computation.

Rows are put in canonical form once, at the public boundary: the ``Cone``
constructor scales every row to a primitive integer vector, drops duplicates
and drops zero closed rows.  ``intersect`` and ``product3`` combine rows of
existing cones, which are canonical already (zero-padding keeps a row
primitive), so they build their result without normalising again; so does
the private ``_cut``, which takes rows its caller made canonical.

Extreme rays of the *closed* part come from one place only: an incremental
double description pass that inserts one constraint at a time.  Its state is
a ``Description``: the rays, the lineality generators, and for each ray a
bitmask of the closed rows tight at it.  The cone caches its description,
and a DD can resume from any description an earlier DD returned, pointed
or not; from scratch is the description of no rows.  ``_cut``, which
``intersect`` calls, puts this cone's rows first in the result, so the
result's DD resumes from this cone's description at once and only inserts
the new rows.  Rays are never installed from outside the DD: ``product3``
returns rows only, and loading a cone from JSON ignores stored rays.
Strict rows are carried symbolically and never enter the cached rays; they
are consulted only by membership and emptiness tests.  Emptiness is exact
for every cone: when the ray sum misses a strict row, the test enumerates
the rays of the closed cone cut by ``b . x >= 0`` for the strict rows, a DD
that resumes from the closed description and runs only when the missed row
is negative somewhere on the closed cone.  The DD is the one source of a
``Cone``'s rays; the free walk's ray cycles are no ``Cone``, and
``refinement._clip`` cuts them by polygon clipping, with no DD.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

Vector = tuple[int, ...]
# Sorted extreme rays, lineality generators, and per-ray tight-row masks.
Description = tuple[tuple[Vector, ...], tuple[Vector, ...], tuple[int, ...]]


class ConeDimensionError(ValueError):
    """A constraint row or cone operand disagrees about the ambient dimension."""


class NonPointedConeError(ValueError):
    """Extreme rays were requested for a closed cone containing a line."""


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def scale_primitive(v: Sequence) -> Vector:
    """Scale a rational vector by a positive factor to primitive integer form.

    Entries are ``int`` or ``Fraction``; both have ``numerator`` and
    ``denominator``.  Clears denominators with their lcm and divides by the
    gcd of the entries.  The scale factor is always positive, so the
    direction of a ray and the sign of every entry are preserved.  A vector
    of ``int`` entries needs only the gcd.
    """
    if all(type(x) is int for x in v):
        ints = v
    else:
        try:
            den = lcm(*(x.denominator for x in v))
        except AttributeError:
            raise TypeError(f"expected int or Fraction entries, got {tuple(v)!r}") from None
        ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    if g > 1:
        return tuple(x // g for x in ints)
    return tuple(ints)


def _primitive(v: Vector) -> Vector:
    """An integer tuple divided by the gcd of its entries: ``scale_primitive``
    for a vector known to be integer, without its type scan."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else v


def _dedup_rows(rows: Iterable[Sequence], dim: int, drop_zero: bool) -> tuple[Vector, ...]:
    out: list[Vector] = []
    seen: set[Vector] = set()
    for row in rows:
        if len(row) != dim:
            raise ConeDimensionError(f"row {tuple(row)} has length {len(row)}, expected {dim}")
        r = scale_primitive(row)
        if drop_zero and not any(r):
            continue
        if r not in seen:
            seen.add(r)
            out.append(r)
    return tuple(out)


def _ray_sum(rays: Sequence[Vector], dim: int) -> Vector:
    return tuple(sum(col) for col in zip(*rays)) if rays else (0,) * dim


def _extreme_rays(
    rows: Sequence[Vector],
    dim: int,
    seed: Description | None = None,
    seed_count: int = 0,
) -> Description:
    """Double description on ``{x | r . x >= 0 for all r in rows}``.

    Returns the ``Description`` ``(rays, lineality, masks)``: ``rays``,
    sorted, generate the cone modulo the lineality space spanned by
    ``lineality``, and ``masks[k]`` has bit ``i`` set iff ``rows[i]`` is
    tight at ``rays[k]``.  The cone is pointed iff the lineality list is
    empty.  ``seed``, when given, is the description an earlier call
    returned for ``rows[:seed_count]``, pointed or not, and insertion
    resumes from row ``seed_count``.  Without it the DD starts from the
    description of no rows: no rays, and the unit vectors as lineality.
    A lineality generator needs no mask: it is tight at every earlier row,
    which is the mask a generator gets when a row pops it out as a ray.

    The masks drive the combinatorial adjacency test (Fukuda and Prodon,
    "Double description method revisited", 1996) that decides which
    positive/negative ray pairs combine when a new hyperplane is inserted.
    They stay exact: a combined ray is tight at an earlier row iff both of
    its parents are, because both terms of the combination are non-negative
    on that row.
    """
    if seed is None:
        seed = ((), tuple(tuple(int(j == i) for j in range(dim)) for i in range(dim)), ())
    seed_rays, lineality, seed_masks = seed
    rays: list[tuple[Vector, int]] = list(zip(seed_rays, seed_masks))

    for j in range(seed_count, len(rows)):
        a = rows[j]
        bit = 1 << j
        pivot = None
        for idx, l in enumerate(lineality):
            d = sum(map(mul, a, l))
            if d != 0:
                pivot = (idx, l, d)
                break
        if pivot is not None:
            # Pop one lineality generator out of the hyperplane; everything
            # else gets projected onto {a . x = 0}.
            idx, l0, d0 = pivot
            if d0 < 0:
                l0 = tuple(-x for x in l0)
                d0 = -d0
            new_lin = []
            for k, l in enumerate(lineality):
                if k == idx:
                    continue
                d = sum(map(mul, a, l))
                new_lin.append(_primitive(tuple(d0 * x - d * y for x, y in zip(l, l0))))
            lineality = new_lin
            new_rays = []
            for r, m in rays:
                d = sum(map(mul, a, r))
                if d == 0:
                    new_rays.append((r, m | bit))
                else:
                    proj = _primitive(tuple(d0 * x - d * y for x, y in zip(r, l0)))
                    new_rays.append((proj, m | bit))
            # l0 itself satisfies every earlier row with equality.
            new_rays.append((l0, (1 << j) - 1))
            rays = new_rays
            continue

        pos: list[tuple[Vector, int, int]] = []
        zero: list[tuple[Vector, int]] = []
        neg: list[tuple[Vector, int, int]] = []
        for r, m in rays:
            d = sum(map(mul, a, r))
            if d > 0:
                pos.append((r, m, d))
            elif d == 0:
                zero.append((r, m | bit))
            else:
                neg.append((r, m, d))
        if not neg:
            rays = [(r, m) for r, m, _ in pos] + zero
            continue
        if not pos:
            rays = zero
            continue
        current = rays
        kept = [(r, m) for r, m, _ in pos] + zero
        for rp, mp, dp in pos:
            for rn, mn, dn in neg:
                t = mp & mn
                adjacent = True
                for r3, m3 in current:
                    if r3 is rp or r3 is rn:
                        continue
                    if t & m3 == t:
                        adjacent = False
                        break
                if adjacent:
                    comb = _primitive(tuple(dp * x - dn * y for x, y in zip(rn, rp)))
                    kept.append((comb, t | bit))
        rays = kept

    rays.sort()
    return tuple(r for r, _ in rays), tuple(lineality), tuple(m for _, m in rays)


class Cone:
    """A polyhedral cone ``{x | a.x >= 0 for a in closed, b.x > 0 for b in strict}``.

    Row invariant: ``closed`` and ``strict`` are tuples of primitive integer
    rows without duplicates, and ``closed`` has no zero row.  (A zero strict
    row, ``0 > 0``, is unsatisfiable and is kept.)  The constructor
    establishes it from arbitrary rational rows; ``intersect``, ``_cut``
    and ``product3`` preserve it and skip normalisation.

    Immutable after construction apart from the extreme-ray memo ``_desc``,
    a write-once ``(rays, lineality, masks)`` tuple from a DD over
    ``closed``: the sorted rays, the lineality generators, and for each ray
    the bitmask of the closed rows tight at it.
    """

    __slots__ = ("dim", "closed", "strict", "_desc")

    def __init__(self, dim: int, closed: Iterable[Sequence] = (), strict: Iterable[Sequence] = ()):
        if dim <= 0:
            raise ConeDimensionError("dimension must be positive")
        self.dim = dim
        self.closed = _dedup_rows(closed, dim, drop_zero=True)
        # A zero strict row 0 > 0 is unsatisfiable and must be kept as-is.
        self.strict = _dedup_rows(strict, dim, drop_zero=False)
        self._desc: Description | None = None

    @classmethod
    def _from_canonical(
        cls, dim: int, closed: tuple[Vector, ...], strict: tuple[Vector, ...]
    ) -> "Cone":
        """A cone from rows that already satisfy the row invariant, unchecked."""
        cone = cls.__new__(cls)
        cone.dim = dim
        cone.closed = closed
        cone.strict = strict
        cone._desc = None
        return cone

    def __repr__(self) -> str:
        return f"Cone(dim={self.dim}, closed={len(self.closed)}, strict={len(self.strict)})"

    def _closed_description(self) -> Description:
        desc = self._desc
        if desc is None:
            desc = self._desc = _extreme_rays(self.closed, self.dim)
        return desc

    def edges(self) -> tuple[Vector, ...]:
        """Canonically scaled extreme rays of the closed cone, sorted.

        Raises NonPointedConeError when the closed cone contains a line.
        """
        rays, lin, _ = self._closed_description()
        if lin:
            raise NonPointedConeError(
                f"closed cone has a lineality space of dimension {len(lin)}"
            )
        return rays

    def member(self) -> Vector | None:
        """A member point, or None when the member set is empty.

        First the sum of the extreme rays, a relative-interior point of the
        closed cone.  If that misses a strict row ``b`` that is non-negative
        on every ray and zero on the lineality space, ``b`` vanishes on the
        whole closed cone and there is no member.  Otherwise the sum of the
        rays of ``C' = closed cone ∩ {b . x >= 0 for every strict b}``: every
        ray of ``C'`` has ``b . r >= 0`` and every lineality direction has
        ``b . l = 0``, so ``C'`` has a point with ``b . x > 0`` iff some ray
        does, and the ray sum is then a member (Motzkin's transposition
        theorem; Schrijver, *Theory of Linear and Integer Programming*, 1986,
        ch. 7).  ``C'``'s DD resumes from the closed cone's description and
        inserts only the strict rows.
        """
        desc = self._closed_description()
        rays, lin, _ = desc
        w = _ray_sum(rays, self.dim)
        missed = next((b for b in self.strict if _dot(b, w) <= 0), None)
        if missed is None:
            return w
        if all(_dot(missed, r) >= 0 for r in rays) and not any(_dot(missed, l) for l in lin):
            return None
        cut = _extreme_rays(self.closed + self.strict, self.dim, desc, len(self.closed))
        w = _ray_sum(cut[0], self.dim)
        return w if all(_dot(b, w) > 0 for b in self.strict) else None

    def is_member_empty(self) -> bool:
        """True iff no point satisfies all closed and all strict constraints.

        Exact for every cone; see ``member``.
        """
        return self.member() is None

    def is_subset_of(self, equalities: Iterable[Sequence]) -> bool:
        """True iff the closed cone lies on every hyperplane ``e . x = 0``.

        The closed cone is generated by its extreme rays and, when it
        contains a line, its lineality generators, so it lies on a
        hyperplane iff every generator does; exact for every cone.  Rows may
        be rational and need no normal form: scaling a row does not change
        whether its dot product with a generator is zero.
        """
        rows = tuple(equalities)
        for row in rows:
            if len(row) != self.dim:
                raise ConeDimensionError("equality row has wrong length")
        rays, lin, _ = self._closed_description()
        return all(_dot(e, g) == 0 for e in rows for g in chain(rays, lin))

    def intersect(self, *others: "Cone") -> "Cone":
        """Intersection, its DD resumed from this cone's description: this
        cone cut by the other cones' rows, in order (``_cut``)."""
        for o in others:
            if o.dim != self.dim:
                raise ConeDimensionError(f"cannot intersect dim {self.dim} with dim {o.dim}")
        return self._cut(
            chain.from_iterable(o.closed for o in others),
            chain.from_iterable(o.strict for o in others),
        )

    def _cut(self, closed: Iterable[Vector], strict: Iterable[Vector] = ()) -> "Cone":
        """This cone cut by rows that satisfy the row invariant, unchecked.

        The new rows follow this cone's, in order, and a row already present
        is dropped, so the tight-row masks of this cone's description carry
        over bit for bit.  The result's DD runs now, from this cone's
        description (computed first if need be), and inserts only the new
        rows.  Every cone built from another cone's description is built here.
        It keeps this cone's strict rows, so every cone a refinement run cuts
        from its initial cone carries the three ``q11 > 0`` rows.
        """
        closed = tuple(dict.fromkeys(chain(self.closed, closed)))
        strict = tuple(dict.fromkeys(chain(self.strict, strict)))
        result = Cone._from_canonical(self.dim, closed, strict)
        result._desc = _extreme_rays(
            closed, self.dim, self._closed_description(), len(self.closed)
        )
        return result

    def member_contains(self, point: Sequence) -> bool:
        """Exact membership test for a rational point.

        The point is scaled to integers by a positive factor, which keeps
        the sign of every row's dot product.
        """
        p = scale_primitive(point)
        return self.closed_contains(p) and all(_dot(b, p) > 0 for b in self.strict)

    def closed_contains(self, point: Sequence) -> bool:
        """Exact test that a rational point satisfies every closed row."""
        p = scale_primitive(point)
        if len(p) != self.dim:
            raise ConeDimensionError("point has wrong length")
        return all(_dot(a, p) >= 0 for a in self.closed)


def _padded(cones: Sequence[Cone], attr: str) -> Iterator[Vector]:
    """The ``closed`` or ``strict`` rows (``attr``) of each cone in turn,
    zero-padded into its block of the sum of the dimensions."""
    dim = sum(c.dim for c in cones)
    off = 0
    for c in cones:
        left, right = (0,) * off, (0,) * (dim - off - c.dim)
        yield from (left + r + right for r in getattr(c, attr))
        off += c.dim


def product3(c1: Cone, c2: Cone, c3: Cone) -> Cone:
    """Cross product of three cones as one cone in the sum of the dimensions.

    Rows are zero-padded into their coordinate block, which keeps them
    canonical; only zero strict rows of different factors can coincide.
    The result carries rows only: its rays come from its own DD on first
    use, like any other cone's.
    """
    factors = (c1, c2, c3)
    closed = tuple(_padded(factors, "closed"))
    strict = tuple(dict.fromkeys(_padded(factors, "strict")))
    return Cone._from_canonical(c1.dim + c2.dim + c3.dim, closed, strict)


def _closed_within(inner: Description, outer: Cone) -> bool:
    """The closed cone described by ``inner`` lies in ``outer``'s: every ray,
    and every lineality generator in both signs, satisfies its closed rows."""
    rays, lin, _ = inner
    return all(_dot(a, r) >= 0 for a in outer.closed for r in rays) and not any(
        _dot(a, l) for a in outer.closed for l in lin
    )


def cones_closed_equal(c1: Cone, c2: Cone) -> bool:
    """Set equality of the closed cones, exact for every cone: canonical
    extreme rays when both are pointed, mutual containment otherwise."""
    if c1.dim != c2.dim:
        return False
    d1, d2 = c1._closed_description(), c2._closed_description()
    if not d1[1] and not d2[1]:
        return d1[0] == d2[0]
    return _closed_within(d1, c2) and _closed_within(d2, c1)


def cones_equivalent(c1: Cone, c2: Cone) -> bool:
    """Closed cones equal and strict rows agree as sets."""
    return cones_closed_equal(c1, c2) and set(c1.strict) == set(c2.strict)


# ---------------------------------------------------------------------------
# Serialization: text matrices in the row convention of the golden fixtures,
# and JSON-ready dicts with decimal-string integers.


def format_matrix(rows: Sequence[Vector]) -> str:
    if not rows:
        return "[]"
    width = max(len(str(x)) for row in rows for x in row)
    lines = ["[ " + "  ".join(str(x).rjust(width) for x in row) + " ]" for row in rows]
    return "\n".join(lines)


def format_cone(cone: Cone) -> str:
    parts = ["A =", format_matrix(cone.closed), "B =", format_matrix(cone.strict)]
    return "\n".join(parts)


def cone_to_json_dict(cone: Cone) -> dict:
    return {
        "dim": cone.dim,
        "A": [[str(x) for x in row] for row in cone.closed],
        "B": [[str(x) for x in row] for row in cone.strict],
        "rays": [[str(x) for x in r] for r in cone.edges()],
    }


def cone_from_json_dict(data: dict) -> Cone:
    """A cone from its ``A`` and ``B`` rows.

    A stored ``rays`` list is output only and is ignored: the rays are
    recomputed from ``A`` when they are first needed.
    """
    dim = int(data["dim"])
    closed = [[int(x) for x in row] for row in data["A"]]
    strict = [[int(x) for x in row] for row in data["B"]]
    return Cone(dim, closed, strict)
