"""Ring-generic scalar helpers.

Geometry code is written against an abstract scalar ring: plain floats
or truncated series (series module), or any other type with the same
methods.  The free functions here dispatch on the argument type so the
same source text evaluates in every ring with identical control flow.
"""

import math
import numbers

from .errors import DomainError


def value_of(v):
    """Float value part of a ring scalar."""
    if isinstance(v, numbers.Real):
        return float(v)
    return v.value()


def sqrt(v):
    if isinstance(v, numbers.Real):
        v = float(v)
        if v <= 0.0:
            raise DomainError("sqrt of non-positive value %r" % v)
        return math.sqrt(v)
    return v.sqrt()


def exp(v):
    if isinstance(v, numbers.Real):
        return math.exp(float(v))
    return v.exp()


def ln(v):
    if isinstance(v, numbers.Real):
        v = float(v)
        if v <= 0.0:
            raise DomainError("ln of non-positive value %r" % v)
        return math.log(v)
    return v.ln()


def powr(v, q):
    """v**q for literal rational q.

    Integer exponents use binary powering (valid for any sign of v);
    everything else goes through exp(q*ln v) and needs v > 0.  The float
    branch mirrors the series branch operation-for-operation so value
    parts stay bit-identical across rings.
    """
    q = float(q)
    if not isinstance(v, numbers.Real):
        return v.powr(q)
    v = float(v)
    if q == int(q):
        return _ipow(v, int(q))
    if v <= 0.0:
        raise DomainError("fractional power of non-positive value %r" % v)
    return math.exp(q * math.log(v))


def _ipow(v, k):
    if k < 0:
        if v == 0.0:
            raise DomainError("negative power of zero")
        return 1.0 / _ipow(v, -k)
    out = 1.0
    base = v
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def ring_det(a):
    """Determinant of a square matrix of ring scalars (a list of rows).

    Laplace expansion along the first row: branch-free, so it
    differentiates cleanly in any ring.  The empty matrix has
    determinant 1, the cofactor of a 1x1 inverse.
    """
    n = len(a)
    if n == 0:
        return 1.0
    total = None
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in a[1:]]
        term = a[0][j] * ring_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def ring_inv(a):
    """Determinant and inverse of a square matrix of ring scalars.

    Returns (det, inverse): the inverse is the adjugate times 1/det, and
    det is the first row of a against the first cofactor row, which
    adds the terms ring_det(a) adds, in the same order.
    """
    n = len(a)
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [a[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof[i][j] = ring_det(minor)
            if (i + j) % 2:
                cof[i][j] = -cof[i][j]
    det = None
    for j in range(n):
        term = a[0][j] * cof[0][j]
        det = term if det is None else det + term
    inv_det = 1.0 / det
    return det, [[cof[i][j] * inv_det for i in range(n)] for j in range(n)]
