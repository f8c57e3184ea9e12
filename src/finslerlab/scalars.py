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


def ring_solve(a, b):
    """Pivots of a symmetric matrix a of ring scalars (a list of rows),
    and the solution x of a x = b (a list).

    Gaussian elimination without pivoting on the upper triangle of a copy
    of the rows, in ring_inv's association: eliminating pivot p_k scales
    the rest of its row, s_kj = m_kj (1/p_k), updates m_ij - m_ki s_kj
    for k < i <= j and b_i - m_ki (b_k/p_k), and back substitution reads
    x_k = b_k/p_k - sum_{j>k} s_kj x_j.  The pivots are therefore
    ring_inv's, bit for bit, and det a is their product (math.prod
    gives ring_inv's det), taken by the caller in the ring its readers
    need.  Solving costs n(n-1)(n+1)/6 + 3n(n-1)/2 + n products (16 at
    n=3, 32 at n=4), where forming the inverse and contracting it with b
    costs n(n-1)(n+2)/2 + n^2 (24 and 52), and it is no less accurate
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 14).
    Precondition as ring_inv's.
    """
    n = len(a)
    m = [list(row) for row in a]  # m[i][j] with i <= j is the entry
    rhs = list(b)
    pivots, scaled = [], []
    for k in range(n):
        pivot = m[k][k]
        pivots.append(pivot)
        inv = 1.0 / pivot
        line = m[k]
        scaled.append({j: line[j] * inv for j in range(k + 1, n)})
        rhs[k] = rhs[k] * inv
        for i in range(k + 1, n):
            row = m[i]
            for j in range(i, n):
                row[j] = row[j] - line[i] * scaled[k][j]
            rhs[i] = rhs[i] - line[i] * rhs[k]
    x = [None] * n
    for k in reversed(range(n)):
        x[k] = rhs[k]
        for j in range(k + 1, n):
            x[k] = x[k] - scaled[k][j] * x[j]
    return pivots, x


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
    the Frame the float value of g; the spray solves with g instead
    (ring_solve).
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
