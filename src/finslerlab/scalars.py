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


def _laplace(a):
    """det(rows, cols) of the square submatrices of a, each computed once.

    rows and cols are ascending index tuples of equal length.  Every
    determinant expands along its first row, with alternating signs, as
    a plain recursive Laplace expansion would: branch-free, so it
    differentiates cleanly in any ring.  The memo shares the minors that
    the cofactors of one matrix have in common (at n=4, 18 distinct 2x2
    minors instead of 48).  The empty minor is 1, the cofactor of a 1x1
    inverse.
    """
    memo = {}

    def det(rows, cols):
        if not rows:
            return 1.0
        key = (rows, cols)
        if key not in memo:
            total = None
            for k, c in enumerate(cols):
                term = a[rows[0]][c] * det(rows[1:], cols[:k] + cols[k + 1:])
                if k % 2:
                    term = -term
                total = term if total is None else total + term
            memo[key] = total
        return memo[key]

    return det


def ring_det(a):
    """Determinant of a square matrix of ring scalars (a list of rows),
    by Laplace expansion along the first row."""
    full = tuple(range(len(a)))
    return _laplace(a)(full, full)


def ring_inv(a):
    """Determinant and inverse of a square matrix of ring scalars.

    Returns (det, inverse): the inverse is the adjugate times 1/det, and
    det is the first row of a against the first cofactor row, which
    adds the terms ring_det(a) adds, in the same order.
    """
    n = len(a)
    det_of = _laplace(a)
    full = tuple(range(n))
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof[i][j] = det_of(full[:i] + full[i + 1:], full[:j] + full[j + 1:])
            if (i + j) % 2:
                cof[i][j] = -cof[i][j]
    det = None
    for j in range(n):
        term = a[0][j] * cof[0][j]
        det = term if det is None else det + term
    inv_det = 1.0 / det
    return det, [[cof[i][j] * inv_det for i in range(n)] for j in range(n)]
