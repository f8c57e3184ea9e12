"""Nested dual-number towers for exact high-order mixed partials.

A level-k JetScalar carries a level-(k-1) primal and a level-(k-1)
tangent; level 0 wraps a 64-bit float.  Arithmetic propagates one
first-order tangent per nesting level, so k nested levels yield exact
k-th mixed partials (rounding error only, no truncation).

Design rules, enforced here:
  * control flow (comparisons, abs) reads level-0 values only,
    so the differentiated program is the same program the floats ran;
  * mixing jets of different levels in one operation is a bug and raises
    TypeError; plain numbers are coerced as constants;
  * the value chain of every operation bottoms out in exactly the float
    operations the scalars module performs, keeping float and jet runs
    bit-identical on value parts.
"""

import math
import numbers
from functools import lru_cache

from finslerlab.errors import DomainError, TowerBudgetError
from finslerlab.scalars import value_of

MAX_LEVELS = 8


class JetScalar:
    __slots__ = ("level", "primal", "tangent")

    def __init__(self, level, primal, tangent):
        self.level = level
        self.primal = primal
        self.tangent = tangent

    def value(self):
        """Level-0 float at the bottom of the primal chain."""
        j = self
        while j.level > 0:
            j = j.primal
        return j.primal

    # -- constant helpers (avoid building zero towers) ------------------

    def _add_c(self, c):
        if self.level == 0:
            return JetScalar(0, self.primal + c, None)
        return JetScalar(self.level, self.primal._add_c(c), self.tangent)

    def _mul_c(self, c):
        if self.level == 0:
            return JetScalar(0, self.primal * c, None)
        return JetScalar(
            self.level, self.primal._mul_c(c), self.tangent._mul_c(c)
        )

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, JetScalar):
            if other.level != self.level:
                raise TypeError(
                    "jet level mismatch: %d vs %d" % (self.level, other.level)
                )
            if self.level == 0:
                return JetScalar(0, self.primal + other.primal, None)
            return JetScalar(
                self.level,
                self.primal + other.primal,
                self.tangent + other.tangent,
            )
        if isinstance(other, numbers.Real):
            return self._add_c(float(other))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, JetScalar):
            if other.level != self.level:
                raise TypeError(
                    "jet level mismatch: %d vs %d" % (self.level, other.level)
                )
            if self.level == 0:
                return JetScalar(0, self.primal - other.primal, None)
            return JetScalar(
                self.level,
                self.primal - other.primal,
                self.tangent - other.tangent,
            )
        if isinstance(other, numbers.Real):
            return self._add_c(-float(other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            return (-self)._add_c(float(other))
        return NotImplemented

    def __neg__(self):
        if self.level == 0:
            return JetScalar(0, -self.primal, None)
        return JetScalar(self.level, -self.primal, -self.tangent)

    def __mul__(self, other):
        if isinstance(other, JetScalar):
            if other.level != self.level:
                raise TypeError(
                    "jet level mismatch: %d vs %d" % (self.level, other.level)
                )
            if self.level == 0:
                return JetScalar(0, self.primal * other.primal, None)
            return JetScalar(
                self.level,
                self.primal * other.primal,
                self.tangent * other.primal + self.primal * other.tangent,
            )
        if isinstance(other, numbers.Real):
            return self._mul_c(float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, JetScalar):
            if other.level != self.level:
                raise TypeError(
                    "jet level mismatch: %d vs %d" % (self.level, other.level)
                )
            if self.level == 0:
                if other.primal == 0.0:
                    raise DomainError("division by zero value part")
                return JetScalar(0, self.primal / other.primal, None)
            q = self.primal / other.primal
            return JetScalar(
                self.level,
                q,
                (self.tangent - q * other.tangent) / other.primal,
            )
        if isinstance(other, numbers.Real):
            c = float(other)
            if c == 0.0:
                raise DomainError("division by zero constant")
            return self._div_c(c)
        return NotImplemented

    def _div_c(self, c):
        if self.level == 0:
            return JetScalar(0, self.primal / c, None)
        return JetScalar(
            self.level, self.primal._div_c(c), self.tangent._div_c(c)
        )

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Real):
            return lift(float(other), self.level) / self
        return NotImplemented

    def __pow__(self, q):
        if isinstance(q, numbers.Real):
            return self.powr(float(q))
        return NotImplemented

    # -- transcendental heads -------------------------------------------

    def sqrt(self):
        if self.level == 0:
            if self.primal <= 0.0:
                raise DomainError(
                    "sqrt of non-positive value part %r" % self.primal
                )
            return JetScalar(0, math.sqrt(self.primal), None)
        r = self.primal.sqrt()
        return JetScalar(self.level, r, self.tangent / r._mul_c(2.0))

    def exp(self):
        if self.level == 0:
            return JetScalar(0, math.exp(self.primal), None)
        e = self.primal.exp()
        return JetScalar(self.level, e, self.tangent * e)

    def ln(self):
        if self.level == 0:
            if self.primal <= 0.0:
                raise DomainError(
                    "ln of non-positive value part %r" % self.primal
                )
            return JetScalar(0, math.log(self.primal), None)
        return JetScalar(self.level, self.primal.ln(), self.tangent / self.primal)

    def powr(self, q):
        """self**q for a literal rational exponent q."""
        q = float(q)
        if q == int(q):
            k = int(q)
            if k < 0:
                if self.value() == 0.0:
                    raise DomainError("negative power of zero value part")
                return 1.0 / self.powr(-q)
            out = lift(1.0, self.level)
            base = self
            while k:
                if k & 1:
                    out = out * base
                base = base * base
                k >>= 1
            return out
        if self.value() <= 0.0:
            raise DomainError(
                "fractional power of non-positive value part %r" % self.value()
            )
        return (self.ln()._mul_c(q)).exp()

    # -- value-part-only order structure --------------------------------

    def __abs__(self):
        if self.level == 0:
            return JetScalar(0, abs(self.primal), None)
        v = self.value()
        if v > 0.0:
            return self
        if v < 0.0:
            return -self
        raise DomainError("abs at zero inside a differentiated region")

    def __lt__(self, other):
        return self.value() < value_of(other)

    def __le__(self, other):
        return self.value() <= value_of(other)

    def __gt__(self, other):
        return self.value() > value_of(other)

    def __ge__(self, other):
        return self.value() >= value_of(other)

    def __eq__(self, other):
        if isinstance(other, (JetScalar, numbers.Real)):
            return self.value() == value_of(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.value())

    def __repr__(self):
        return "JetScalar(level=%d, value=%r)" % (self.level, self.value())


@lru_cache(maxsize=None)
def _zero(level):
    if level == 0:
        return JetScalar(0, 0.0, None)
    z = _zero(level - 1)
    return JetScalar(level, z, z)


@lru_cache(maxsize=None)
def _one(level):
    if level == 0:
        return JetScalar(0, 1.0, None)
    return JetScalar(level, _one(level - 1), _zero(level - 1))


def lift(value, level):
    """Constant jet: primal chain carries value, every tangent is zero."""
    if level < 0:
        raise ValueError("level must be non-negative")
    v = float(value)
    if level == 0:
        return JetScalar(0, v, None)
    return JetScalar(level, lift(v, level - 1), _zero(level - 1))


def seed_direction(base, direction_slot, level_index):
    """Raise a coordinate vector one nesting level, seeding one slot.

    Entries of ``base`` must sit at level ``level_index`` (plain numbers
    are taken as constants).  The returned entries sit at level
    ``level_index + 1``; the entry at ``direction_slot`` gets tangent 1,
    the rest tangent 0, so the level-``level_index`` tangent of any
    result built from them reads the partial derivative in that
    coordinate.  ``direction_slot=None`` raises the level without
    seeding anything (needed for the coordinates held fixed).
    """
    if level_index >= MAX_LEVELS:
        raise TowerBudgetError(
            "tower capped at %d levels (asked to seed level %d)"
            % (MAX_LEVELS, level_index)
        )
    entries = list(base)
    if direction_slot is not None and not 0 <= direction_slot < len(entries):
        raise IndexError(
            "direction_slot %r out of range for %d coordinates"
            % (direction_slot, len(entries))
        )
    zero = _zero(level_index)
    one = _one(level_index)
    out = []
    for i, entry in enumerate(entries):
        if isinstance(entry, numbers.Real):
            entry = lift(float(entry), level_index)
        elif not isinstance(entry, JetScalar) or entry.level != level_index:
            raise TypeError(
                "seed_direction expects level-%d entries" % level_index
            )
        tangent = one if i == direction_slot else zero
        out.append(JetScalar(level_index + 1, entry, tangent))
    return out


def mixed_partial(f, x, y, wrt):
    """Exact mixed partial of a scalar f(x, y) at a state.

    ``wrt`` lists the differentiation slots in order, e.g.
    ``[("y", 0), ("y", 0), ("x", 2)]`` for d^3 f / dx3 dy1 dy1 (order of
    listing is immaterial by Schwarz symmetry; it fixes only the nesting
    layout).  Each slot adds one tower level; at most MAX_LEVELS slots.
    """
    order = len(wrt)
    if order > MAX_LEVELS:
        raise TowerBudgetError(
            "mixed partial of order %d exceeds the %d-level tower cap"
            % (order, MAX_LEVELS)
        )
    xj = [float(v) for v in x]
    yj = [float(v) for v in y]
    for i, (kind, idx) in enumerate(wrt):
        if kind == "x":
            xj = seed_direction(xj, idx, i)
            yj = seed_direction(yj, None, i)
        elif kind == "y":
            xj = seed_direction(xj, None, i)
            yj = seed_direction(yj, idx, i)
        else:
            raise ValueError("slot kind must be 'x' or 'y', got %r" % (kind,))
    out = f(xj, yj)
    for _ in range(order):
        if not isinstance(out, JetScalar) or out.level == 0:
            return 0.0
        out = out.tangent
    return value_of(out)
