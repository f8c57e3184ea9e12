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
    """Determinant of a square matrix of ring scalars (a list of rows):
    the product of ring_inv's pivots."""
    return ring_inv(a)[0]


def ring_inv(a):
    """Determinant and inverse of a square matrix of ring scalars.

    Gauss-Jordan elimination without pivoting, on a copy of the rows:
    step k scales row k by 1/pivot and clears column k from every other
    row, and det is the product of the pivots.  It reads only 1/pivot,
    * and -, with no branch on values, so it runs and differentiates in
    every ring.  Precondition: every leading principal minor is nonzero
    (the pivots are their ratios), as in any positive-definite matrix;
    a zero pivot fails in the ring's reciprocal.
    """
    n = len(a)
    m = [list(row) for row in a]
    det = 1.0
    for k in range(n):
        pivot = m[k][k]
        det = det * pivot
        inv = 1.0 / pivot
        top = m[k]
        for j in range(n):
            top[j] = inv if j == k else top[j] * inv
        for i in range(n):
            if i == k:
                continue
            row, f = m[i], m[i][k]
            for j in range(n):
                row[j] = -f * inv if j == k else row[j] - f * top[j]
    return det, m
