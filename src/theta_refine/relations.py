"""Normalization, decomposition, and exact verification of 3-term relations.

A rational relation a1 theta_1 + a2 theta_2 + a3 theta_3 = 0 with
coefficients summing to zero normalizes to a/(a+b) theta + b/(a+b) theta =
theta with coprime non-negative a, b.  Verification compares representation
numbers coefficient by coefficient up to a bound; classification matches the
reduced forms against the known solution shapes and reports the bound along
with the label, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .quadform import IntBQF, reduce_gl2, theta_coeffs

LABELS = (
    "degenerate",
    "trivial-2-term",
    "trivial-3-term",
    "non-trivial",
    "no-relation-detected",
)


class ObstructionError(ValueError):
    """Coefficients do not sum to zero, so the constant terms already fail."""


class NoValidPermutationError(ValueError):
    """No index ordering yields non-negative left coefficients."""


@dataclass(frozen=True)
class NormalizedRelation:
    """a/(a+b) theta_{sigma(1)} + b/(a+b) theta_{sigma(2)} = theta_{sigma(3)}."""

    a: int
    b: int
    sigma: tuple[int, int, int]


@dataclass(frozen=True)
class DegenerateRelation:
    """All coefficients zero; the forms are arbitrary."""


@dataclass(frozen=True)
class TwoTermRelation:
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
    """
    alphas = [Fraction(alpha1), Fraction(alpha2), Fraction(alpha3)]
    if all(x == 0 for x in alphas):
        return DegenerateRelation()
    if sum(alphas) != 0:
        raise ObstructionError(f"coefficients {tuple(alphas)} do not sum to zero")
    zeros = [i for i, x in enumerate(alphas) if x == 0]
    if len(zeros) == 1:
        i, j = (k for k in range(3) if k != zeros[0])
        return TwoTermRelation(i + 1, j + 1, zeros[0] + 1)
    negatives = [i for i, x in enumerate(alphas) if x < 0]
    if len(negatives) == 2:
        alphas = [-x for x in alphas]
        negatives = [i for i, x in enumerate(alphas) if x < 0]
    if len(negatives) != 1:
        raise NoValidPermutationError(f"no permutation normalizes {tuple(alphas)}")
    k = negatives[0]
    i, j = (idx for idx in range(3) if idx != k)
    beta1 = alphas[i] / -alphas[k]
    a, c = beta1.numerator, beta1.denominator
    return NormalizedRelation(a, c - a, (i + 1, j + 1, k + 1))


def key_lemma_decompose(a: int, b: int, triple: Sequence[int]) -> tuple[int, int, int] | None:
    """Write a non-negative solution of a x + b y = (a+b) z over the linset.

    Returns (c1, c2, c3) with triple = c1 (1,1,1) + c2 (a+b,0,a)/g
    + c3 (0,a+b,b)/g, or None when the triple does not solve the equation.
    Constructive: peel off the minimum coordinate, then divide out the
    remaining axis-aligned solution.
    """
    if (a, b) == (0, 0) or a < 0 or b < 0:
        raise ValueError("need non-negative a, b with (a, b) != (0, 0)")
    x0, y0, z0 = triple
    if min(x0, y0, z0) < 0 or a * x0 + b * y0 != (a + b) * z0:
        return None
    g = gcd(a, b)
    step = (a + b) // g
    if x0 <= y0:
        c1 = x0
        rest = y0 - x0
        if rest % step:
            return None
        c3 = rest // step
        result = (c1, 0, c3)
    else:
        c1 = y0
        rest = x0 - y0
        if rest % step:
            return None
        c2 = rest // step
        result = (c1, c2, 0)
    c1, c2, c3 = result
    recombined = (
        c1 + c2 * step,
        c1 + c3 * step,
        c1 + c2 * (a // g) + c3 * (b // g),
    )
    return result if recombined == (x0, y0, z0) else None


def verify_relation(
    q1: IntBQF,
    q2: IntBQF,
    q3: IntBQF,
    a: int,
    b: int,
    m_max: int,
    variant: str = "ordinary",
) -> tuple[bool, int | None]:
    """Check a r_1(m) + b r_2(m) = (a+b) r_3(m) for 0 <= m <= m_max.

    ``variant`` selects the coefficients as in ``theta_coeffs``.  The weights
    follow the linset rule: a, b >= 0 and (a, b) != (0, 0); anything else
    raises ``ValueError``, since a = b = 0 would make every relation hold.
    Returns (True, None) or (False, first failing m).
    """
    if (a, b) == (0, 0) or a < 0 or b < 0:
        raise ValueError(f"need weights a, b >= 0 with (a, b) != (0, 0), got ({a}, {b})")
    t1 = theta_coeffs(q1, m_max, variant)
    t2 = theta_coeffs(q2, m_max, variant)
    t3 = theta_coeffs(q3, m_max, variant)
    ab = a + b
    # most coefficients are 0 on all three forms, and 0 = 0 needs no arithmetic
    for m, r1, r2, r3 in zip(range(m_max + 1), t1, t2, t3):
        if (r1 or r2 or r3) and a * r1 + b * r2 != ab * r3:
            return False, m
    return True, None


def verify_sp_relation(
    q1: IntBQF, q2: IntBQF, q3: IntBQF, a: int, b: int, m_max: int
) -> tuple[bool, int | None]:
    """Same check on strongly primitive coefficients (constant term 0)."""
    return verify_relation(q1, q2, q3, a, b, m_max, "strongly_primitive")


def nontrivial_family(c: int) -> tuple[IntBQF, IntBQF, IntBQF]:
    """The unique non-trivial solution family, scaled by c."""
    if c <= 0:
        raise ValueError("c must be a positive integer")
    return (IntBQF(c, c, c), IntBQF(4 * c, 4 * c, 4 * c), IntBQF(c, 0, 3 * c))


@dataclass(frozen=True)
class Classification:
    label: str
    bound: int
    detail: str


def classify(
    alphas: Sequence, forms: Sequence[IntBQF], m_max: int = 10000
) -> Classification:
    """Bounded-verification classification of a candidate relation.

    The label records which solution shape the data matches after GL2(Z)
    reduction; verification up to m_max is evidence, not proof, and the bound
    is carried in the result.
    """
    q1, q2, q3 = forms
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
