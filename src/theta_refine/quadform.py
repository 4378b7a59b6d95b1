"""Binary quadratic forms, GL2(Z) reduction, and theta-series coefficients.

Two tuple conventions coexist and both appear in the interfaces:

* ``BQF(q11, q22, q12)`` identifies a real form ``q11 x^2 + q12 xy + q22 y^2``
  with the rational point ``(q11, q22, q12)``; this is the coordinate order
  used by every cone row in this package.
* ``IntBQF(a, b, c)`` is an integer form ``a x^2 + b xy + c y^2`` in the
  classical coefficient order used on the command line.

Representation counting is exact integer arithmetic throughout: the solution
box is bounded via the discriminant and square roots are taken with
``math.isqrt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Sequence

Pair = tuple[int, int]
Matrix2 = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Matrix2 = ((1, 0), (0, 1))


def is_strongly_primitive(v: Sequence[int]) -> bool:
    """gcd 1 and last nonzero coordinate positive: y > 0, or y = 0 and x > 0."""
    x, y = v
    if gcd(x, y) != 1:
        return False
    return y > 0 or (y == 0 and x > 0)


def coeff_row(v: Sequence[int]) -> tuple[int, int, int]:
    """Row (x^2, y^2, xy) making Q(v) linear in the tuple (q11, q22, q12)."""
    x, y = v
    return (x * x, y * y, x * y)


@dataclass(frozen=True)
class BQF:
    """Real-valued form as the rational tuple (q11, q22, q12)."""

    q11: Fraction
    q22: Fraction
    q12: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q11", Fraction(self.q11))
        object.__setattr__(self, "q22", Fraction(self.q22))
        object.__setattr__(self, "q12", Fraction(self.q12))

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.q11, self.q22, self.q12)

    def evaluate(self, v: Sequence[int]) -> Fraction:
        x, y = v
        return self.q11 * x * x + self.q12 * x * y + self.q22 * y * y

    def is_positive_definite(self) -> bool:
        return self.q11 > 0 and 4 * self.q11 * self.q22 - self.q12 * self.q12 > 0


def in_v(q: BQF) -> bool:
    """Membership in the reduction domain: q22 >= q11 >= q12 >= 0 and q11 > 0."""
    return q.q22 >= q.q11 and q.q12 >= 0 and q.q11 >= q.q12 and q.q11 > 0


@dataclass(frozen=True)
class IntBQF:
    """Integer form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.discriminant() < 0

    def content(self) -> int:
        return gcd(gcd(abs(self.a), abs(self.b)), abs(self.c))

    def evaluate(self, v: Sequence[int]) -> int:
        x, y = v
        return self.a * x * x + self.b * x * y + self.c * y * y

    def to_bqf(self) -> BQF:
        return BQF(self.a, self.c, self.b)

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c}"


def _matmul(x: Matrix2, y: Matrix2) -> Matrix2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def apply_transform(q: IntBQF, u: Matrix2) -> IntBQF:
    """The form v -> Q(U v), i.e. U^T Q U on Gram matrices."""
    x, y = (u[0][0], u[1][0]), (u[0][1], u[1][1])
    a = q.evaluate(x)
    c = q.evaluate(y)
    b = q.evaluate((x[0] + y[0], x[1] + y[1])) - a - c
    return IntBQF(a, b, c)


def reduce_gl2(q: IntBQF) -> tuple[IntBQF, Matrix2]:
    """Unique GL2(Z)-reduced representative (0 <= b <= a <= c) and a transform.

    Gaussian reduction: translate b into (-a, a], swap when a > c, and finally
    flip the sign of b with diag(1, -1).  Returns (reduced, X) with
    reduced = X^T Q X, det X = +-1.
    """
    if not q.is_positive_definite():
        raise ValueError(f"form {q} is not positive-definite")
    a, b, c = q.a, q.b, q.c
    x: Matrix2 = IDENTITY
    while True:
        if b <= -a or b > a:
            t = (a - b) // (2 * a)
            b, c = b + 2 * a * t, a * t * t + b * t + c
            x = _matmul(x, ((1, t), (0, 1)))
        if a > c:
            a, b, c = c, -b, a
            x = _matmul(x, ((0, -1), (1, 0)))
            continue
        break
    if b < 0:
        b = -b
        x = _matmul(x, ((1, 0), (0, -1)))
    return IntBQF(a, b, c), x


def representations(q: IntBQF, m: int) -> Iterator[Pair]:
    """All integer vectors with Q(v) = m, by exact per-column quadratic solving."""
    if not q.is_positive_definite():
        raise ValueError(f"form {q} is not positive-definite")
    if m < 0:
        return
    if m == 0:
        yield (0, 0)
        return
    a, b = q.a, q.b
    disc = -q.discriminant()
    ymax = isqrt(4 * a * m // disc)
    for y in range(-ymax, ymax + 1):
        e = 4 * a * m - disc * y * y
        s = isqrt(e)
        if s * s != e:
            continue
        for root in {s, -s}:
            num = -b * y + root
            if num % (2 * a) == 0:
                yield (num // (2 * a), y)


def rep_number(q: IntBQF, m: int) -> int:
    return sum(1 for _ in representations(q, m))


def sp_representations(q: IntBQF, m: int) -> list[Pair]:
    return [v for v in representations(q, m) if is_strongly_primitive(v)]


def sp_rep_number(q: IntBQF, m: int) -> int:
    return len(sp_representations(q, m))


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius is defined for positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


def sp_from_rep_moebius(q: IntBQF, m: int) -> int:
    """Strongly primitive count recovered from ordinary counts by inversion.

    Every solution of Q(v) = m is g * w with w primitive and Q(w) = m / g^2,
    so r(m) = sum over d^2 | m of 2 * sp(m / d^2); Moebius inversion over the
    square divisors gives sp back.
    """
    if m < 1:
        raise ValueError("inversion needs m >= 1")
    total = 0
    d = 1
    while d * d <= m:
        if m % (d * d) == 0:
            mu = moebius(d)
            if mu:
                total += mu * rep_number(q, m // (d * d))
        d += 1
    return total // 2


def theta_coeffs(q: IntBQF, m_max: int, variant: str = "ordinary") -> list[int]:
    """Coefficients r_Q(m) (or strongly primitive) for m = 0..m_max.

    One exact pass over the half-plane y > 0, plus y = 0 with x > 0, of the
    ellipse {Q <= m_max}, rather than m_max independent counts.

    * Rows: with D = 4ac - b^2 and t = 2ax + by, 4a Q = t^2 + D y^2, so a
      row holds |t| <= isqrt(4a m_max - D y^2); Q steps by a(2x + 1) + by.
    * Q(-v) = Q(v): a half-plane point weighs w = 2 (ordinary, r(0) = 1)
      or w = 1 (strongly primitive).  If y > 0 and a | by, t -> -t maps the
      row onto itself with Q kept: walk t >= 0 at 2w, less w at t = 0.
    * Each half-plane point is g v, v strongly primitive, Q = g^2 Q(v), so
      the w = 1 count is h(m) = sum over g^2 | m of sp(m / g^2).  Per prime
      p, out[j p^2] -= out[j] for j from m_max // p^2 down to 1 inverts it:
      going down, each read still holds the value before this pass.
    """
    if variant not in ("ordinary", "strongly_primitive"):
        raise ValueError(f"unknown variant {variant!r}")
    if not q.is_positive_definite():
        raise ValueError(f"form {q} is not positive-definite")
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    sp = variant == "strongly_primitive"
    w = 1 if sp else 2
    out = [0] * (m_max + 1)
    out[0] = 0 if sp else 1
    a, b, c = q.a, q.b, q.c
    two_a = 2 * a
    bound = 4 * a * m_max
    disc = -q.discriminant()
    for y in range(isqrt(bound // disc) + 1):
        s = isqrt(bound - disc * y * y)
        by = b * y
        xhi = (s - by) // two_a
        if not y:
            xlo, step = 1, w
        elif by % a:
            xlo, step = -((s + by) // two_a), w
        else:
            xlo, step = -(by // two_a), 2 * w
        m = (a * xlo + by) * xlo + c * y * y
        if two_a * xlo + by == 0:
            out[m] -= w
        d = a * (2 * xlo + 1) + by
        for _ in range(xhi - xlo + 1):
            out[m] += step
            m += d
            d += two_a
    if sp:
        r = isqrt(m_max)
        sieve = bytearray([1]) * (r + 1)
        for p in range(2, r + 1):
            if sieve[p]:
                pp = p * p
                sieve[pp::p] = bytes(len(range(pp, r + 1, p)))
                for j in range(m_max // pp, 0, -1):
                    if out[j]:
                        out[j * pp] -= out[j]
    return out


def parse_int_form(text: str) -> IntBQF:
    """Parse the CLI syntax ``a,b,c`` (coefficients of x^2, xy, y^2)."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'a,b,c', got {text!r}")
    a, b, c = (int(p.strip()) for p in parts)
    return IntBQF(a, b, c)
