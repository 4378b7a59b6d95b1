"""Binary quadratic forms, GL2(Z) reduction, and theta-series coefficients.

Two coordinate orders meet here:

* ``IntBQF(a, b, c)`` is an integer form ``a x^2 + b xy + c y^2`` in the
  classical coefficient order used on the command line.  It is a
  ``NamedTuple``, so it compares equal to the plain tuple ``(a, b, c)``.
* Cone rows use the coordinates ``(q11, q22, q12)`` of the real form
  ``q11 x^2 + q12 xy + q22 y^2``: ``coeff_row`` turns a vector ``(x, y)``
  into the row ``(x^2, y^2, xy)``, and ``IntBQF(a, b, c)`` is the point
  ``(a, c, b)``.

Theta coefficients are exact integer arithmetic throughout: the ellipse is
bounded via the discriminant and square roots are taken with ``math.isqrt``.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, compress
from math import gcd, isqrt
from typing import NamedTuple, Sequence

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


class IntBQF(NamedTuple):
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


def theta_coeffs(
    q: IntBQF,
    m_max: int,
    variant: str = "ordinary",
    *,
    weight: int = 1,
    out: list[int] | None = None,
) -> list[int]:
    """Coefficients r_Q(m) (or strongly primitive) for m = 0..m_max.

    ``weight`` times the coefficients is added into ``out``, which is
    returned; with ``out=None`` a new zero list is used.  Weighted sums of
    several forms are built this way without a list per form.  An ``out``
    shorter than ``m_max + 1`` raises ``ValueError`` and is left untouched.

    One exact pass over the half-plane y > 0, plus y = 0 with x > 0, of the
    ellipse {Q <= m_max}, rather than m_max independent counts.

    * Rows: with D = 4ac - b^2 and t = 2ax + by, 4a Q = t^2 + D y^2, so a
      row holds |t| <= isqrt(4a m_max - D y^2); Q steps by a(2x + 1) + by.
    * Q(-v) = Q(v): a half-plane point weighs w = 2 (ordinary, r(0) = 1)
      or w = 1 (strongly primitive), times ``weight``.  If y > 0 and
      a | by, t -> -t maps the row onto itself with Q kept: walk t >= 0 at
      2w, less w at t = 0.
    * Each half-plane point is g v, v strongly primitive, Q = g^2 Q(v), so
      the w = 1 count is h(m) = sum over g^2 | m of sp(m / g^2).  Per prime
      p, out[j p^2] -= out[j] for j from m_max // p^2 down to 1 inverts it:
      going down, each read still holds the value before this pass.  Only
      j in the support of h are visited: an entry never leaves it.  The
      inversion needs the whole of h, so the strongly primitive variant
      does not take ``out``.
    """
    if variant not in ("ordinary", "strongly_primitive"):
        raise ValueError(f"unknown variant {variant!r}")
    if not q.is_positive_definite():
        raise ValueError(f"form {q} is not positive-definite")
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    sp = variant == "strongly_primitive"
    if out is None:
        out = [0] * (m_max + 1)
    elif sp:
        raise ValueError("the strongly primitive variant cannot add into a given list")
    elif len(out) <= m_max:
        raise ValueError(f"out has {len(out)} entries, m_max = {m_max} needs {m_max + 1}")
    w = weight if sp else 2 * weight
    if not sp:
        out[0] += weight
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
        if xhi >= xlo:
            # Q at successive x: m, then m + d, m + d + (d + 2a), ...
            d = a * (2 * xlo + 1) + by
            for m in accumulate(range(d, d + two_a * (xhi - xlo), two_a), initial=m):
                out[m] += step
    if sp:
        # Between passes out[k] counts the half-plane points with Q = k whose
        # content has no prime inverted yet, a subset of those h(k) counts,
        # so an entry with h(k) = 0 stays 0.  Since p^2 >= 4, every pass
        # reads only the non-zero j <= m_max // 4 of h, collected once.
        support = list(compress(range(m_max // 4 + 1), out))
        r = isqrt(m_max)
        sieve = bytearray([1]) * (r + 1)
        for p in range(2, r + 1):
            if sieve[p]:
                pp = p * p
                sieve[pp::p] = bytes(len(range(pp, r + 1, p)))
                for j in reversed(support[: bisect_right(support, m_max // pp)]):
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
