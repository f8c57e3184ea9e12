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
        v = float(v)
        try:
            return math.exp(v)
        except OverflowError:
            raise DomainError("exp of value %r overflows" % v) from None
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
    everything else goes through exp(q*ln v) and needs v > 0.
    """
    q = float(q)
    if not isinstance(v, numbers.Real):
        return v.powr(q)
    v = float(v)
    if q == int(q):
        k = int(q)
        if k == 0:
            return 1.0
        if k < 0 and v == 0.0:
            raise DomainError("negative power of zero")
        out = ipow(v, abs(k))
        if k < 0 and out == 0.0:
            raise DomainError("power %d of value %r underflows to zero" % (k, v))
        return 1.0 / out if k < 0 else out
    if v <= 0.0:
        raise DomainError("fractional power of non-positive value %r" % v)
    try:
        return math.exp(q * math.log(v))
    except OverflowError:
        raise DomainError("fractional power of value %r overflows" % v) from None


def ipow(v, k):
    """v**k for an integer k >= 1 by binary powering, in any ring.

    It starts from v, not from 1 * v, and stops before a squaring whose
    result is never used: v^3 is v * v, then v^2 * v.
    """
    out = None
    while True:
        if k & 1:
            out = v if out is None else out * v
        k >>= 1
        if not k:
            return out
        v = v * v


def ring_det(a):
    """Determinant of a square matrix of ring scalars (a list of rows):
    the product of ring_inv's pivots."""
    return ring_inv(a)[0]


def ring_inv(a):
    """Determinant and inverse of a symmetric matrix of ring scalars.

    The symmetric sweep operator (Goodnight, "A tutorial on the SWEEP
    operator", 1979) on the upper triangle of a copy of the rows:
    sweeping pivot k replaces the pivot p by -1/p, each other entry a_kj
    of its row and column by a_kj / p, and each other entry a_ij by
    a_ij - a_ik a_kj / p.  The matrix stays symmetric, so only entries
    i <= j are updated, and after all n pivots it holds -a^-1; det is the
    product of the pivots.  That is n(n-1)(n+2)/2 + n - 1 products (17 at
    n=3, 39 at n=4), reading only 1/pivot, * and -, with no branch on
    values, so it runs and differentiates in every ring.  Precondition:
    a is symmetric (only its upper triangle is read) and every leading
    principal minor is nonzero (the pivots are their ratios), as in any
    positive-definite matrix; a zero pivot fails in the ring's
    reciprocal.  The closed-form Randers volume inverts a(x) with it, and
    the Frame the float value of g, whose inverse preconditions the
    spray's graded solve (series.graded_solve) and whose det gives tau's
    ln det g its value.
    """
    n = len(a)
    m = [list(row) for row in a]  # m[i][j] with i <= j is the entry
    det = 1.0
    for k in range(n):
        pivot = m[k][k]
        det = det * pivot
        inv = 1.0 / pivot
        # entry (k, j) before the sweep, then scaled by 1/pivot
        line = [m[min(j, k)][max(j, k)] for j in range(n)]
        scaled = [None if j == k else line[j] * inv for j in range(n)]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            for j in range(i, n):
                if j != k:
                    row[j] = row[j] - line[i] * scaled[j]
        for j in range(n):
            if j != k:
                m[min(j, k)][max(j, k)] = scaled[j]
        m[k][k] = -inv
    inverse = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            inverse[i][j] = inverse[j][i] = -m[i][j]
    return det, inverse
