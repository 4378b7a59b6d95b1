"""Normalization, decomposition, and exact verification of 3-term relations.

A rational relation a1 theta_1 + a2 theta_2 + a3 theta_3 = 0 with
coefficients summing to zero normalizes to a/(a+b) theta + b/(a+b) theta =
theta with coprime non-negative a, b.  Verification checks that the weighted
sum of representation numbers vanishes up to a bound; classification matches the
reduced forms against the known solution shapes and reports the bound along
with the label.

A failing coefficient disproves a relation.  A relation that holds up to
its Sturm bound (``sturm_bound``) holds for every m: its defect is a weight
1 modular form for Gamma1(N), N the lcm of the three forms' levels, and
such a form vanishing up to [SL2(Z) : Gamma1(N)] / 12 is zero (Sturm,
LNM 1240, 1987).  So "holds" is a proof whenever the bound is at most the
one checked, and evidence up to that bound otherwise.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .geometry import scale_primitive
from .quadform import IntBQF, level, reduce_gl2, theta_coeffs


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


def gamma1_index(n: int) -> int:
    """[SL2(Z) : Gamma1(N)] = N^2 prod over primes p | N of (1 - p^-2).

    Exact: p^2 divides the running product for each prime p of N, found by
    trial division up to the square root of what is left of N.
    """
    index, rest, p = n * n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            index = index // (p * p) * (p * p - 1)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        index = index // (rest * rest) * (rest * rest - 1)
    return index


def sturm_bound(q1: IntBQF, q2: IntBQF, q3: IntBQF) -> int:
    """Coefficients up to which a relation among the three theta series must
    hold for it to hold everywhere.

    Each theta series lies in M_1(Gamma0(N_i), chi_i) with N_i its
    ``level``, so every linear combination lies in M_1(Gamma1(N)), N the
    lcm of the levels.  By Sturm's theorem a weight 1 form whose
    coefficients vanish up to [SL2(Z) : Gamma1(N)] / 12 is zero.  The full
    SL2(Z) index is used, twice the index of the image in PSL2(Z) for
    N >= 3: the bound is conservative and needs no character argument.
    """
    return gamma1_index(lcm(level(q1), level(q2), level(q3))) // 12


def verify_relation(
    q1: IntBQF, q2: IntBQF, q3: IntBQF, a: int, b: int, m_max: int
) -> tuple[bool, int | None]:
    """Check a r_1(m) + b r_2(m) = (a+b) r_3(m) for 0 <= m <= m_max.

    The weights follow the linset rule: a, b >= 0 and (a, b) != (0, 0);
    anything else raises ``ValueError``, since a = b = 0 would make every
    relation hold.  So does a form that is not positive-definite, also one
    of weight 0, or a negative ``m_max``, checked in the order q1, m_max,
    q2, q3.  Returns (True, None) or (False, first failing m).

    The walk stops at n = min(m_max, ``sturm_bound``): a non-zero entry up
    to n is the first failure, and when every entry is 0 the relation holds
    up to m_max, for every m if n < m_max.  So (True, None) is a proof
    whenever the Sturm bound is at most m_max, and the answer is that of
    the walk to m_max on every input.  The index of Gamma1(N) exceeds
    N^2 / 2, so when N^2 >= 24 (m_max + 1) the bound is at least m_max:
    the walk goes to m_max and N is not factored.

    One list, the defect a r_1 + b r_2 - (a+b) r_3, is built by adding each
    form's coefficients into it with its weight; the answer is its first
    non-zero entry.  Its m = 0 entry is a + b - (a+b) = 0.  The relation
    holds when all n + 1 entries are 0, which ``list.count`` decides
    without an int per index; only a failing relation is scanned for its
    first non-zero entry.  It walks to min(n, 1024) first and on to n only
    if that prefix holds, so an early failure needs no list of n + 1
    entries; a later one, like a relation that holds, needs it, and raises
    ``MemoryError`` or ``OverflowError`` when it cannot be allocated.
    """
    if (a, b) == (0, 0) or a < 0 or b < 0:
        raise ValueError(f"need weights a, b >= 0 with (a, b) != (0, 0), got ({a}, {b})")
    # ``level`` checks each form, before its discriminant divides anything.
    n1 = level(q1)
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    big = lcm(n1, level(q2), level(q3))
    n = min(m_max, gamma1_index(big) // 12) if big * big < 24 * (m_max + 1) else m_max
    for k in (n,) if n <= 1024 else (1024, n):
        defect = theta_coeffs(q1, k, weight=a)
        theta_coeffs(q2, k, weight=b, out=defect)
        theta_coeffs(q3, k, weight=-(a + b), out=defect)
        if defect.count(0) <= k:
            return False, next(compress(range(k + 1), defect))
    return True, None


def verify_sp_relation(
    q1: IntBQF, q2: IntBQF, q3: IntBQF, a: int, b: int, m_max: int
) -> tuple[bool, int | None]:
    """Same check on strongly primitive coefficients: ``verify_relation``.

    For m >= 1, r(m) = 2 sum over g^2 | m of sp(m / g^2), so the ordinary
    defect is 2 H(m) with H(k) = sum over g^2 | k of S(k / g^2), S being
    the strongly primitive defect.  H(k) is S(k) plus terms S(j) with
    j < k: the map is unitriangular, so H and S first leave 0 at the same
    m, and at m = 0 both defects are 0.  The verdict and the first failing
    m are equal, so no strongly primitive count is computed.  For the same
    reason S vanishes for every m exactly when the ordinary defect does, so
    (True, None) is a proof whenever it is one for ``verify_relation``.  The
    benchmark workload ``verify-hex`` calls this name.
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
    reduction, and the bound m_max is carried in the result.  A three-term
    label rests on ``verify_relation``: "fails at m" disproves the
    relation, and a relation that holds is proved for every m when
    ``sturm_bound`` of the three forms is at most m_max (the paper's family
    has bounds 8, 32 and 72 for c = 1, 2, 3), and is evidence up to m_max
    otherwise.  The two-term labels come from reduction alone.  A negative
    ``m_max`` raises ``ValueError``; then each form is reduced once, which
    raises it for a form that is not positive-definite, also one whose
    coefficient is zero.  Every label uses the reduced forms.
    """
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    reduced = [reduce_gl2(q)[0] for q in forms]
    norm = normalize(*alphas)
    if isinstance(norm, DegenerateRelation):
        return Classification("degenerate", m_max, "all coefficients zero")
    if isinstance(norm, TwoTermRelation):
        if reduced[norm.i - 1] == reduced[norm.j - 1]:
            return Classification(
                "trivial-2-term",
                m_max,
                f"Q{norm.i} and Q{norm.j} are GL2(Z)-equivalent",
            )
        return Classification(
            "no-relation-detected", m_max, f"Q{norm.i} and Q{norm.j} are inequivalent"
        )
    s1, s2, s3 = (reduced[i - 1] for i in norm.sigma)
    ok, failing = verify_relation(s1, s2, s3, norm.a, norm.b, m_max)
    if not ok:
        return Classification("no-relation-detected", m_max, f"fails at m={failing}")
    if s1 == s2 == s3:
        return Classification("trivial-3-term", m_max, "all forms GL2(Z)-equivalent")
    if (norm.a, norm.b) in ((1, 2), (2, 1)):
        small, big = (s1, s2) if (norm.a, norm.b) == (1, 2) else (s2, s1)
        c = small.content()
        if (small, big, s3) == nontrivial_family(c):
            return Classification(
                "non-trivial", m_max, f"matches the hexagonal family with c={c}"
            )
    return Classification(
        "no-relation-detected",
        m_max,
        "verified up to the bound but matches no known solution shape",
    )
