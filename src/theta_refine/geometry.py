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
primitive), so they build their result without normalising again.

Extreme rays of the *closed* part come from one place only: an incremental
double description pass that inserts one constraint at a time.  Each ray
carries a bitmask of the closed rows tight at it, and the cone caches the
masks with its rays.  ``intersect`` puts this cone's rows first in the
result, so when this cone already has pointed rays the child's DD resumes
from them and their masks at once and only inserts the new rows; any other
cone runs its DD from scratch on first use.  Rays are never installed from
outside the DD: ``product3`` returns rows only, and loading a cone from
JSON ignores stored rays.  Strict rows are carried symbolically and never
enter the cached rays; they are consulted only by membership and emptiness
tests.  Emptiness is exact for every cone: when the ray sum misses a strict
row, the test enumerates the rays of the closed cone cut by ``b . x >= 0``
for the strict rows, a DD that runs only when the missed row is negative
somewhere on the closed cone.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul
from typing import Iterable, Sequence

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

    Clears denominators and divides by the gcd of the entries.  The scale
    factor is always positive, so the direction of a ray is preserved.  A
    vector of ``int`` entries needs only the gcd.
    """
    if all(type(x) is int for x in v):
        ints = v
    else:
        fracs = [Fraction(x) for x in v]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        ints = [int(f * den) for f in fracs]
    g = gcd(*ints)
    if g > 1:
        return tuple(x // g for x in ints)
    return tuple(ints)


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
    seed_rays: Sequence[Vector] | None = None,
    seed_count: int = 0,
    seed_masks: Sequence[int] | None = None,
) -> tuple[list[Vector], list[Vector], list[int]]:
    """Double description on ``{x | r . x >= 0 for all r in rows}``.

    Returns ``(rays, lineality, masks)`` where ``rays`` generate the cone
    modulo the lineality space spanned by ``lineality``, and ``masks[k]`` has
    bit ``i`` set iff ``rows[i]`` is tight at ``rays[k]``.  The cone is
    pointed iff the lineality list is empty.  When ``seed_rays`` is given it
    must be the extreme-ray list of the (pointed) cone cut out by
    ``rows[:seed_count]``, and ``seed_masks`` their tight-row masks over
    those rows, as an earlier call returned them; insertion then resumes
    from row ``seed_count``.

    The masks drive the combinatorial adjacency test (Fukuda and Prodon,
    "Double description method revisited", 1996) that decides which
    positive/negative ray pairs combine when a new hyperplane is inserted.
    They stay exact: a combined ray is tight at an earlier row iff both of
    its parents are, because both terms of the combination are non-negative
    on that row.
    """
    rays: list[tuple[Vector, int]]
    if seed_rays is not None:
        lineality: list[Vector] = []
        rays = list(zip(seed_rays, seed_masks))
        start = seed_count
    else:
        lineality = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
        rays = []
        start = 0

    for j in range(start, len(rows)):
        a = rows[j]
        bit = 1 << j
        pivot = None
        for idx, l in enumerate(lineality):
            d = _dot(a, l)
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
                d = _dot(a, l)
                new_lin.append(scale_primitive(tuple(d0 * x - d * y for x, y in zip(l, l0))))
            lineality = new_lin
            new_rays = []
            for r, m in rays:
                d = _dot(a, r)
                if d == 0:
                    new_rays.append((r, m | bit))
                else:
                    proj = scale_primitive(tuple(d0 * x - d * y for x, y in zip(r, l0)))
                    new_rays.append((proj, m | bit))
            # l0 itself satisfies every earlier row with equality.
            new_rays.append((l0, (1 << j) - 1))
            rays = new_rays
            continue

        pos: list[tuple[Vector, int, int]] = []
        zero: list[tuple[Vector, int]] = []
        neg: list[tuple[Vector, int, int]] = []
        for r, m in rays:
            d = _dot(a, r)
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
                    comb = scale_primitive(tuple(dp * x - dn * y for x, y in zip(rn, rp)))
                    kept.append((comb, t | bit))
        rays = kept

    return [r for r, _ in rays], lineality, [m for _, m in rays]


def _describe(rays: list[Vector], lineality: list[Vector], masks: list[int]) -> Description:
    """A DD result as a ``Description``, its rays and masks sorted by ray."""
    order = sorted(range(len(rays)), key=rays.__getitem__)
    return tuple(rays[k] for k in order), tuple(lineality), tuple(masks[k] for k in order)


class Cone:
    """A polyhedral cone ``{x | a.x >= 0 for a in closed, b.x > 0 for b in strict}``.

    Row invariant: ``closed`` and ``strict`` are tuples of primitive integer
    rows without duplicates, and ``closed`` has no zero row.  (A zero strict
    row, ``0 > 0``, is unsatisfiable and is kept.)  The constructor
    establishes it from arbitrary rational rows; ``intersect`` and
    ``product3`` preserve it and skip normalisation.

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
            desc = self._desc = _describe(*_extreme_rays(self.closed, self.dim))
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
        ch. 7).  ``C'`` comes from its own DD, run from scratch.
        """
        rays, lin, _ = self._closed_description()
        w = _ray_sum(rays, self.dim)
        missed = next((b for b in self.strict if _dot(b, w) <= 0), None)
        if missed is None:
            return w
        if all(_dot(missed, r) >= 0 for r in rays) and not any(_dot(missed, l) for l in lin):
            return None
        w = _ray_sum(_extreme_rays(self.closed + self.strict, self.dim)[0], self.dim)
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
        """Intersection; seeded from this cone's rays when it has them.

        This cone's closed rows come first in the result, in order, so the
        cached tight-row masks of its rays carry over bit for bit.  When this
        cone has cached pointed rays, the result's DD runs now, resuming from
        them and inserting only the new rows; otherwise the result computes
        its rays from scratch on first use.
        """
        for o in others:
            if o.dim != self.dim:
                raise ConeDimensionError(f"cannot intersect dim {self.dim} with dim {o.dim}")
        closed = tuple(dict.fromkeys(chain(self.closed, *(o.closed for o in others))))
        strict = tuple(dict.fromkeys(chain(self.strict, *(o.strict for o in others))))
        result = Cone._from_canonical(self.dim, closed, strict)
        desc = self._desc
        if desc is not None and not desc[1]:
            rays, _, masks = desc
            result._desc = _describe(
                *_extreme_rays(closed, self.dim, rays, len(self.closed), masks)
            )
        return result

    def member_contains(self, point: Sequence) -> bool:
        """Exact membership test for a rational point."""
        p = [Fraction(x) for x in point]
        return self.closed_contains(p) and all(_dot(b, p) > 0 for b in self.strict)

    def closed_contains(self, point: Sequence) -> bool:
        """Exact test that a rational point satisfies every closed row."""
        p = [Fraction(x) for x in point]
        if len(p) != self.dim:
            raise ConeDimensionError("point has wrong length")
        return all(_dot(a, p) >= 0 for a in self.closed)


def product3(c1: Cone, c2: Cone, c3: Cone) -> Cone:
    """Cross product of three cones as one cone in the sum of the dimensions.

    Rows are zero-padded into their coordinate block, which keeps them
    canonical; only zero strict rows of different factors can coincide.
    The result carries rows only: its rays come from its own DD on first
    use, like any other cone's.
    """
    factors = (c1, c2, c3)
    dim = sum(c.dim for c in factors)
    offsets = (0, c1.dim, c1.dim + c2.dim)

    def embed(row: Vector, off: int, d: int) -> Vector:
        out = [0] * dim
        out[off : off + d] = row
        return tuple(out)

    closed = tuple(embed(r, off, c.dim) for c, off in zip(factors, offsets) for r in c.closed)
    strict = tuple(
        dict.fromkeys(embed(r, off, c.dim) for c, off in zip(factors, offsets) for r in c.strict)
    )
    return Cone._from_canonical(dim, closed, strict)


def cones_closed_equal(c1: Cone, c2: Cone) -> bool:
    """Member-set equality of the closed cones, via canonical extreme rays."""
    return c1.dim == c2.dim and c1.edges() == c2.edges()


def cones_equivalent(c1: Cone, c2: Cone) -> bool:
    """Closed cones equal and strict rows agree as sets."""
    return cones_closed_equal(c1, c2) and set(c1.strict) == set(c2.strict)


# ---------------------------------------------------------------------------
# Serialization: text matrices in the row convention of the golden fixtures,
# and JSON with decimal-string integers.


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


def cone_to_json(cone: Cone) -> str:
    return json.dumps(cone_to_json_dict(cone))


def cone_from_json(text: str) -> Cone:
    return cone_from_json_dict(json.loads(text))
