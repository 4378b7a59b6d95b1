"""Normalization, decomposition, and exact verification of 3-term relations.

A rational relation a1 theta_1 + a2 theta_2 + a3 theta_3 = 0 with
coefficients summing to zero normalizes to a/(a+b) theta + b/(a+b) theta =
theta with coprime non-negative a, b.  Verification checks that the weighted
sum of representation numbers vanishes up to a bound; classification matches the
reduced forms against the known solution shapes and reports the bound along
with the label, never a proof.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from typing import NamedTuple, Sequence

from .geometry import scale_primitive
from .quadform import IntBQF, reduce_gl2, theta_coeffs


class ObstructionError(ValueError):
    """Coefficients do not sum to zero, so the constant terms already fail."""


class NormalizedRelation(NamedTuple):
    """a/(a+b) theta_{sigma(1)} + b/(a+b) theta_{sigma(2)} = theta_{sigma(3)}."""

    a: int
    b: int
    sigma: tuple[int, int, int]


class DegenerateRelation(NamedTuple):
    """All coefficients zero; the forms are arbitrary."""


class TwoTermRelation(NamedTuple):
    """One coefficient zero; the remaining pair are opposite and non-zero."""

    i: int
    j: int
    zero_index: int


def normalize(alpha1, alpha2, alpha3) -> NormalizedRelation | DegenerateRelation | TwoTermRelation:
    """Normalize rational coefficients summing to zero.

    All zero gives the degenerate marker; exactly one zero gives the 2-term
    marker.  Otherwise the relation is rescaled so exactly one coefficient is
    negative, that index moves to the right-hand side, and the two left
    coefficients scale to a/(a+b) and b/(a+b) in lowest terms.

    The coefficients are ``int`` or ``Fraction``.  They are first scaled to
    a primitive integer triple by a positive factor, which keeps every sign,
    every zero and a zero sum, and leaves each ratio as it is.
    """
    alphas = scale_primitive((alpha1, alpha2, alpha3))
    if not any(alphas):
        return DegenerateRelation()
    if sum(alphas) != 0:
        given = ", ".join(map(str, (alpha1, alpha2, alpha3)))
        raise ObstructionError(f"coefficients {given} do not sum to zero")
    zeros = [i for i, x in enumerate(alphas) if x == 0]
    if len(zeros) == 1:
        i, j = (k for k in range(3) if k != zeros[0])
        return TwoTermRelation(i + 1, j + 1, zeros[0] + 1)
    # Three non-zero values summing to zero have one or two negatives, so
    # after the sign flip exactly one is negative.
    if sum(x < 0 for x in alphas) == 2:
        alphas = [-x for x in alphas]
    k = next(i for i, x in enumerate(alphas) if x < 0)
    i, j = (idx for idx in range(3) if idx != k)
    # a/(a+b) = alphas[i] / -alphas[k] with a + b = -alphas[k], so b is
    # alphas[j]; a common factor of two entries divides the third, so the
    # primitive triple leaves a and b coprime.
    return NormalizedRelation(alphas[i], alphas[j], (i + 1, j + 1, k + 1))


def key_lemma_decompose(a: int, b: int, triple: Sequence[int]) -> tuple[int, int, int] | None:
    """Write a non-negative solution of a x + b y = (a+b) z over the linset.

    Returns (c1, c2, c3) with triple = c1 (1,1,1) + c2 (a+b,0,a)/g
    + c3 (0,a+b,b)/g, or None when the triple does not solve the equation.
    Constructive: peel off the minimum coordinate, then divide out the
    remaining axis-aligned solution.

    The division is always exact and the result always recombines to the
    triple.  With g = gcd(a, b), the equation gives
    (b/g)(y - x) = ((a+b)/g)(z - x) and (a/g)(x - y) = ((a+b)/g)(z - y).
    Since (a+b)/g is coprime to both a/g and b/g, it divides y - x, and
    z - x is (b/g) times the quotient (and symmetrically for x - y).  This
    holds also when a or b is 0, where (a+b)/g is 1.
    """
    if (a, b) == (0, 0) or a < 0 or b < 0:
        raise ValueError("need non-negative a, b with (a, b) != (0, 0)")
    x0, y0, z0 = triple
    if min(x0, y0, z0) < 0 or a * x0 + b * y0 != (a + b) * z0:
        return None
    step = (a + b) // gcd(a, b)
    if x0 <= y0:
        return (x0, 0, (y0 - x0) // step)
    return (y0, (x0 - y0) // step, 0)


def verify_relation(
    q1: IntBQF, q2: IntBQF, q3: IntBQF, a: int, b: int, m_max: int
) -> tuple[bool, int | None]:
    """Check a r_1(m) + b r_2(m) = (a+b) r_3(m) for 0 <= m <= m_max.

    The weights follow the linset rule: a, b >= 0 and (a, b) != (0, 0);
    anything else raises ``ValueError``, since a = b = 0 would make every
    relation hold.  Returns (True, None) or (False, first failing m).

    One list, the defect a r_1 + b r_2 - (a+b) r_3, is built by adding each
    form's coefficients into it with its weight; the answer is its first
    non-zero entry.  Its m = 0 entry is a + b - (a+b) = 0.  The relation
    holds when all m_max + 1 entries are 0, which ``list.count`` decides
    without an int per index; only a failing relation is scanned for its
    first non-zero entry.
    """
    if (a, b) == (0, 0) or a < 0 or b < 0:
        raise ValueError(f"need weights a, b >= 0 with (a, b) != (0, 0), got ({a}, {b})")
    defect = theta_coeffs(q1, m_max, weight=a)
    theta_coeffs(q2, m_max, weight=b, out=defect)
    theta_coeffs(q3, m_max, weight=-(a + b), out=defect)
    failing = None if defect.count(0) > m_max else next(compress(range(m_max + 1), defect))
    return failing is None, failing


def verify_sp_relation(
    q1: IntBQF, q2: IntBQF, q3: IntBQF, a: int, b: int, m_max: int
) -> tuple[bool, int | None]:
    """Same check on strongly primitive coefficients: ``verify_relation``.

    For m >= 1, r(m) = 2 sum over g^2 | m of sp(m / g^2), so the ordinary
    defect is 2 H(m) with H(k) = sum over g^2 | k of S(k / g^2), S being
    the strongly primitive defect.  H(k) is S(k) plus terms S(j) with
    j < k: the map is unitriangular, so H and S first leave 0 at the same
    m, and at m = 0 both defects are 0.  The verdict and the first failing
    m are equal, so no strongly primitive count is computed.  The benchmark
    workload ``verify-hex`` calls this name.
    """
    return verify_relation(q1, q2, q3, a, b, m_max)


def nontrivial_family(c: int) -> tuple[IntBQF, IntBQF, IntBQF]:
    """The unique non-trivial solution family, scaled by c."""
    if c <= 0:
        raise ValueError("c must be a positive integer")
    return (IntBQF(c, c, c), IntBQF(4 * c, 4 * c, 4 * c), IntBQF(c, 0, 3 * c))


class Classification(NamedTuple):
    label: str
    bound: int
    detail: str


def classify(
    alphas: Sequence, forms: Sequence[IntBQF], m_max: int = 10000
) -> Classification:
    """Bounded-verification classification of a candidate relation.

    The label records which solution shape the data matches after GL2(Z)
    reduction; verification up to m_max is evidence, not proof, and the bound
    is carried in the result.  Each form must be positive-definite, also
    one whose coefficient is zero, as in ``verify_relation``, and ``m_max``
    non-negative; otherwise ``ValueError`` is raised before anything is
    labelled.
    """
    q1, q2, q3 = forms
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    for q in forms:
        if not q.is_positive_definite():
            raise ValueError(f"form {q} is not positive-definite")
    norm = normalize(*alphas)
    if isinstance(norm, DegenerateRelation):
        return Classification("degenerate", m_max, "all coefficients zero")
    if isinstance(norm, TwoTermRelation):
        qi, qj = forms[norm.i - 1], forms[norm.j - 1]
        if reduce_gl2(qi)[0] == reduce_gl2(qj)[0]:
            return Classification(
                "trivial-2-term",
                m_max,
                f"Q{norm.i} and Q{norm.j} are GL2(Z)-equivalent",
            )
        return Classification(
            "no-relation-detected", m_max, f"Q{norm.i} and Q{norm.j} are inequivalent"
        )
    s1, s2, s3 = (forms[i - 1] for i in norm.sigma)
    ok, failing = verify_relation(s1, s2, s3, norm.a, norm.b, m_max)
    if not ok:
        return Classification("no-relation-detected", m_max, f"fails at m={failing}")
    r1, r2, r3 = (reduce_gl2(q)[0] for q in (s1, s2, s3))
    if r1 == r2 == r3:
        return Classification("trivial-3-term", m_max, "all forms GL2(Z)-equivalent")
    if (norm.a, norm.b) in ((1, 2), (2, 1)):
        small, big = (r1, r2) if (norm.a, norm.b) == (1, 2) else (r2, r1)
        c = small.content()
        if (small, big, r3) == nontrivial_family(c):
            return Classification(
                "non-trivial", m_max, f"matches the hexagonal family with c={c}"
            )
    return Classification(
        "no-relation-detected",
        m_max,
        "verified up to the bound but matches no known solution shape",
    )
