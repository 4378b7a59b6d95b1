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
Both counts share one half-plane walk.  A square or hexagonal form, one
GL2(Z)-equivalent to k (1, 0, 1) or k (1, 1, 1), is walked on one wedge of
its reduced form's automorphism group, each point weighted by its orbit
size: an eighth or a twelfth of the ellipse in place of a half.
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


def _add_half_plane(q: IntBQF, m_max: int, w: int, out: list[int]) -> None:
    """Add ``w`` per point of the half-plane y > 0, plus y = 0 with x > 0,
    of the ellipse {Q <= m_max} into ``out[Q]``, in one exact pass.

    The form and the bound are checked before ``out`` is written.

    * Rows: with D = 4ac - b^2 and t = 2ax + by, 4a Q = t^2 + D y^2, so a
      row holds |t| <= isqrt(4a m_max - D y^2); Q steps by a(2x + 1) + by.
    * If y > 0 and a | by, t -> -t maps the row onto itself with Q kept:
      walk t >= 0 at 2w, less w at t = 0.
    * Wedge: a form whose reduced form (a, b, c) has a = c and b in (0, a)
      is square (b = 0, |Aut| = 8) or hexagonal (b = a, |Aut| = 12), and
      the reduced form's wedge 0 <= y <= x is a fundamental domain of its
      automorphism group Aut, which contains -1.  A point inside the wedge
      has a free orbit of |Aut| points, |Aut|/2 of them in the half-plane;
      one on the mirror y = 0 or x = y has a stabiliser of order 2, so
      |Aut|/4 in the half-plane.  Q(X v) is the reduced form at v, so the
      reduced form's wedge is walked: rows y <= isqrt(m_max // (2a + b)),
      where (y, y) still lies in the ellipse, from x = y (or 1) on, at
      |Aut|/2 w per point, less |Aut|/4 w at x = y, and the row y = 0 at
      |Aut|/4 w.  Every other form is walked as given.
    """
    if not q.is_positive_definite():
        raise ValueError(f"form {q} is not positive-definite")
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    a, b, c = reduce_gl2(q)[0]
    wedge = a == c and b in (0, a)
    if wedge:
        w *= 3 if b else 2
    else:
        a, b, c = q
    two_a = 2 * a
    bound = 4 * a * m_max
    disc = -q.discriminant()
    rows = isqrt(m_max // (two_a + b)) if wedge else isqrt(bound // disc)
    for y in range(rows + 1):
        s = isqrt(bound - disc * y * y)
        by = b * y
        xhi = (s - by) // two_a
        if not y:
            xlo, step = 1, w
        elif wedge:
            xlo, step = y, 2 * w
        elif by % a:
            xlo, step = -((s + by) // two_a), w
        else:
            xlo, step = -(by // two_a), 2 * w
        m = (a * xlo + by) * xlo + c * y * y
        if two_a * xlo + by == 0 or wedge and y:
            out[m] -= w
        if xhi >= xlo:
            # Q at successive x: m, then m + d, m + d + (d + 2a), ...
            d = a * (2 * xlo + 1) + by
            for m in accumulate(range(d, d + two_a * (xhi - xlo), two_a), initial=m):
                out[m] += step


def theta_coeffs(
    q: IntBQF, m_max: int, *, weight: int = 1, out: list[int] | None = None
) -> list[int]:
    """Representation numbers r_Q(m) for m = 0..m_max.

    ``weight`` times the coefficients is added into ``out``, which is
    returned; with ``out=None`` a new zero list is used.  Weighted sums of
    several forms are built this way without a list per form.  An ``out``
    shorter than ``m_max + 1`` raises ``ValueError`` and is left untouched,
    as does a form that is not positive-definite or a negative ``m_max``.

    Q(-v) = Q(v), so each half-plane point stands for two points: the walk
    adds ``2 * weight`` per point, and the origin adds ``weight`` at m = 0.
    """
    if out is None:
        out = [0] * (m_max + 1)
    elif len(out) <= m_max:
        raise ValueError(f"out has {len(out)} entries, m_max = {m_max} needs {m_max + 1}")
    _add_half_plane(q, m_max, 2 * weight, out)
    out[0] += weight
    return out


def sp_theta_coeffs(q: IntBQF, m_max: int) -> list[int]:
    """Strongly primitive representation numbers sp_Q(m) for m = 0..m_max.

    Each half-plane point is g v, v strongly primitive, Q = g^2 Q(v), so the
    half-plane count is h(m) = sum over g^2 | m of sp(m / g^2).  Per prime
    p, out[j p^2] -= out[j] for j from m_max // p^2 down to 1 inverts it:
    going down, each read still holds the value before this pass.  Only j
    in the support of h are visited: an entry never leaves it.
    """
    out = [0] * (m_max + 1)
    _add_half_plane(q, m_max, 1, out)
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
