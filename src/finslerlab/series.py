"""Truncated multivariate Taylor arithmetic around a state.

A Series represents f(x + xi, y + eta) expanded in the shift variables
xi_1..xi_n (total degree <= cap_x) and eta_1..eta_n (total degree <=
cap_y), in monomials of total degree <= cap_d in both (Griewank &
Walther, Evaluating Derivatives, ch. 13, truncate by total degree;
cap_d = cap_x + cap_y keeps the whole box).  Retained coefficients are
exact up to rounding; truncation only removes orders nobody asked for.
One evaluation of a metric through this ring therefore yields every
mixed partial up to the caps, where nested forward mode would need one
re-evaluation per seeding.  It is the package's only differentiation
engine, with one ring per dimension, the root SeriesRing.get(n) of caps
ROOT_CAPS = (2, 8, 8), and its stage rings (below): the Frame uses the
root and its stages, the point tensors the (0, 2) and (0, 3) stages,
tau the (1, 1) stage, the float x of the quadrature and of the closed-form
volume the (0, 0) stage.
Series.partials(nx, ny) reads all of one order at once: each is a
single coefficient times its factorial weight, gathered through a table
the ring caches.

A Series's budget (bx, by, bd), how many x-, y- and all derivatives of
it are still trustworthy, is the caps of its ring.  Combining series
takes the slot-wise minimum: both operands are restricted to the stage
ring (below) of the smaller caps, where the result lives; a first
derivative (Series.grad) lands in the stage ring one order below, in
its kind and in bd, or in a smaller ring asked for: d/dx in (bx - 1, by,
bd - 1), d/dy in (bx, by - 1, bd - 1).  partials(nx, ny) needs nx + ny
<= bd besides nx <= bx and ny <= by.  A coefficient past a budget is
never stored, so no stale high-order term can leak into trusted slots.

Coefficient layout and multiplication tables live in a SeriesRing;
products are a gather-multiply plus a bincount over the ring's one
index table of triples.  The table is
sorted by first factor, then by second factor, and bincount adds each
output coefficient's terms in table order.  A pair of monomials has a
product within the caps exactly when their x-degrees, their y-degrees
and their total degrees add up within the caps, so the table is built
per (xdeg, ydeg) class of first factors, with every second factor that
fits beside the class; one sort puts the pairs in table order, and a
monomial's mixed-radix exponent key (digit sums never carry) finds each
output by searchsorted.  At n=4 that examines the 172 458 kept pairs,
not all 15 million, and peaks at under twice the table's bytes.
Every ring under a root finds any monomial by the root's keys alone.

Each root ring owns one product workspace, which its stage rings
(below) share: two float64 buffers, sized from the root's table and
grown when a batch needs more.  Every product and every graded level
under the root gathers its factors into them and multiplies in place;
bincount allocates the result, so no result aliases a buffer.  So
products under one root are not re-entrant; the library runs no
threads.  A root product at n=4 gathers 1.4 MB per factor, past glibc's
initial mmap threshold; fresh gathers in its place measured no more
minor faults per frame-n4 state (none once warm: glibc raises the
threshold at the first such free and keeps the memory in its heap).

Two shortcuts skip work that cannot reach a kept coefficient, and
leave every result bit-identical to the plain product.  Sparse factors:
in a table of at least ROW_SKIP_MIN_TRIPLES triples, one dispatch
(_sparse_triples) takes each 1-D factor's nonzero mask once and picks
the triples a product gathers.  When both factors are 1-D and have at
most size // ROW_SKIP_DENSITY pairs of nonzeros, they are the pairs of
nonzeros: the pairs whose x-, y- and total degrees add up within the
caps, in table order (first factor, then second), each output found by
searchsorted of the summed keys as the table build does, so an all-zero
factor costs no gather at all.  Else, when a 1-D factor has at most
that many nonzeros, they are the table rows of the sparser factor's
nonzeros, in table order (rows of the second factor come through a
cached permutation and are sorted back), for every lane of the other
factor.  The skipped terms are products with an exact zero, so each
one is +-0; bincount starts every sum at +0, adding a +-0 term never
changes it, and the kept terms are added in the same order.  A
non-finite coefficient would turn a skipped term into NaN: in either
factor it rules the pairs out, in the other factor the rows, and the
product gathers the whole table.  Measured at plan seed 1, the rows
serve F^2's product by beta (18 of the root's 1029 coefficients at n=3
for randers_osaka), the one product on a table that large in each
Frame of every benchmark workload: 20 in a 20-state classify of each
(alpha, beta) catalog entry, none for the other entries.  The pairs
serve only a DSL metric's products of a part of x alone by a part of y
alone: 120 and 200 in 20 states of a 4-D DSL metric sqrt(F1^2 +
F2^2), F1 Randers and F2 conformally flat, and of its sum with an
exact 1-form; with the rows instead, the sum's classify took 0.26
against 0.16 s of CPU (best of 5, 2-core x86-64 VM), the product's about
the same.

Lane constants: when one factor of a batched product is a batch of
constants (no nonzero past the value part in any lane, as the
quadrature's directions y_i), the product is the other factor times
the value parts, with no table gather.  The skipped terms are again +-0,
and the one kept term per output is the same product; the table's sum
of that term and +-0 terms, started at +0, is the term itself except
that -0 comes out +0, so the result gets += 0.0, which does the same.
A non-finite coefficient in either factor falls back to the table.
1-D products are left to the table: checking every one of them would
cost a pass over the coefficients on hundreds of products per state.

sqrt, reciprocal, ln, exp and the solve run no ring product.  Each is
a graded recurrence over total degree (Griewank & Walther, Evaluating
Derivatives, ch. 13): the value part first, then for d = 1..cap_d the
degree-d coefficients from lower degrees, through one pair
sum P(p, q)_d = sum_(a<b) (p_a q_b + p_b q_a) + sum p_a q_a over the
pairs a < b, and the squares, of monomials of positive degree whose
product has degree d.  With E the degree operator ((E u)_m = deg(m) u_m):

- sqrt: w_0 = sqrt(u_0), w_d = (u_d - P(w, w)_d) / (2 w_0);
- reciprocal: q_0 = 1 / u_0, q_d = -(u_d q_0 + P(u, q)_d) / u_0;
- ln: l_0 = ln u_0, (E l)_d = (d u_d - P(E l, u)_d) / u_0 and
  l_d = (E l)_d / d, from u E l = E u;
- exp: e_0 = exp(u_0), e_d = ((E u)_d e_0 + P(E u, e)_d) / d, from
  E e = e E u;
- solve a x = b (graded_solve): h = a0^-1 a and c = a0^-1 b, a0^-1 the
  float inverse of a's value part, x_0 = c_0 and x_d = c_d - sum_l
  (P(h_il, x_l)_d + h_il,d x_l,0), x_l carried along the lanes (i, l).

A level gathers each factor once and sums once (_pair_sum): in the
recurrences' (size, lanes) layout, p's gather holds each block of the
level contiguous over the lanes; its pair terms, squares and value-part
terms (u_d q_0, (E u)_d e_0, h_il,d x_l,0) are formed there in place,
and one bincount adds each output's terms in that order, P's and then
the value term's.  P(w, w) sums its pairs, doubles, then adds its
squares: doubling each term first differs once a term overflows.  The
ring's level table (levels) is a view of the product table, taken on
first use: its triples with a <= b and both factors past the constant,
already in table order, cast to the smallest unsigned index type that
holds the ring's (uint16 through the root at n=5) and split by the
output's degree.  At n=4 it holds 82 419 pairs in 0.5 MB, an eighth of
the product table's bytes.

Every operation is budget-invariant: run in a stage ring, it gives
exactly (bit for bit) the root's result restricted to that ring,
because a product coefficient reads only factor coefficients of lower
or equal degree, through the same triples in the same order, and a
level of a graded recurrence reads only lower degrees, through the same
pairs in the same order.

So each stage runs in the ring of the budget its readers need:
ring.stage(bx, by, bd) is the (bx, by, bd) ring under ring's root, bd
min(bx + by, the root's cap_d) unless given (the root itself at the
root's caps; ValueError past them), so a stage whose bx + by is within
the root's total cap is a box and no caller outside this module names
bd.  A derivative or a meet may land in a stage that is no box: F^2's
(1, 8, 8) stage, two y-derivatives above g's (1, 6, 6).  Its monomials
are the root's within its caps, in the root's order, and its keys are the
root's, so the product table it builds on its first product or graded
recurrence is the root's within its caps, mapped entry for entry (1.4
ms for the (1, 6) ring at n=4, 0.9 ms for g's (1, 6, 6) and 0.1 ms for
the (1, 1) ring, where mapping the root's table took 4 ms for the first
and 3 ms for the last); its grad tables are built per kind and target
ring on first use.
SeriesRing(n, cap_x, cap_y) builds a box root of its own caps and keys
(cap_d given, one capped by it), the tests' reference for budget
invariance.
restrict copies series into a smaller ring, and embed zero-fills them
into a larger one.  one_kind runs work of one kind of variable in a
stage ring of the root: work of x alone (coefficient fields, volume
densities) in the x-only stage ring.stage(cap_x, 0), work of y alone (a
DSL metric's norms of y) in ring.stage(0, cap_y); it embeds the results
back, except for coefficient fields, which stay in the x-only stage
(lift=False) for the forms below.

Derivatives, restrictions and products by a y-variable are linear index
maps, each one gather through a cached table: Series.grad takes all n
first derivatives of a kind into a ring (grad_table), restrict stacks a
list of parts of one ring and gathers once, and Series.times_y takes lane
k times y^k = u_k + eta_k as shift_k(s) + u_k s + 0.0, shift_k(s)_m =
s_(m/y^k) (shift_table; 0 where m has no y^k).  That is the table
product bit for bit: of output m's terms all but s_(m/y^k) * 1 and s_m
u_k are products with an exact zero, +-0, which leave bincount's sum,
started at +0, as it is, so it never ends at -0; a sum of two terms
commutes, and + 0.0 turns its -0 to +0.  A non-finite coefficient or
value takes the table (a skipped term would be NaN).

Every sum over y is a product by y-variables, Series.times_y, when y
has the type YVariables, which SeriesRing.y_variables and ring.state
give; y.u holds their values.  Any other y, a plain list of y-variables
too, takes the loop of ring products, with the same bits.
A form with coefficients of x alone, sum_ij a_ij y_i y_j
(quadratic_form) or sum_i b_i y_i (linear_form), runs in its stage
ring ring.stage(cap_x, min(cap_y, 2)) of y's ring, which holds every
monomial the loop's terms keep: its coefficients, floats as constants
and series of the x-only stage of y's ring embedded, are the lanes of
one Series there (as_lanes), times y_i and then y_j by times_y, added
in the loop's (i, j) order, and the sum is embedded into y's ring.  By
budget invariance each lane is the loop's (a_ij * y_i) * y_j
restricted, and the loop's terms keep only +0 outside the stage, so the
sum is the loop's bit for bit while it is finite; an inf or NaN in the
stage does not spread outside it as the loop's products spread it (inf
times an exact zero), so a sum that is not finite takes the loop.  So
does any other coefficient (a series of y's ring, a jet, lanes); the
loop first embeds a coefficient of an x-only ring, as one of x alone.
A Series of coefficients (the spray's braces, S's drift, lemma21's
P_{|0}) is restricted into y's ring and multiplied there.

A Series in an x-only or a stage ring may carry leading component axes:
c of shape (K1, .., size) holds one series per lane, stacked by
restrict or entered through SeriesRing.constant with an array.  The
quadrature volume runs all its sphere directions through the x-only
ring in one pass, and Riemann its 2 n^3 products per call as one
product over the 2 n^3 lanes (term, m, k, i).  Every lane is
bit-identical to the unbatched evaluation: products and graded levels
offset the bincount bins per lane, so each lane sums in the 1-D order
(the ring caches the offset bins by lane count, of the product table
and of each level); value parts of ln and exp use the math module lane
by lane (numpy's vectorised exp and log differ from it in the last bit
on some inputs), and those of sqrt np.sqrt, which rounds correctly, as
math.sqrt does.  An exp whose value part overflows raises DomainError
naming it and its lane.  In a small ring the lanes share one pass over
the table's indices, which saves calls, not work (a (1, 6) product of
dense factors at n=4: 99 us CPU per lane in a batch of 4 and alone, on
a 2-core x86-64 VM); a ring of its own with y-variables, such as the
root, is never batched (n=3: 0.93 ms per lane, against 0.27 ms
unbatched).
"""

import itertools
import math
import numbers
from functools import reduce
from operator import add, mul

import numpy as np

from .errors import DomainError, TowerBudgetError
from .scalars import ipow

# A product gathers only the table rows of its sparser factor's nonzero
# coefficients when its table holds at least ROW_SKIP_MIN_TRIPLES triples
# and that factor has at most size // ROW_SKIP_DENSITY nonzeros; it
# multiplies the pairs of nonzeros alone when two 1-D factors have at most
# that many pairs of them.
ROW_SKIP_MIN_TRIPLES = 16384
ROW_SKIP_DENSITY = 16

# The root's caps (cap_x, cap_y, cap_d).  The GDW test reads one
# x-derivative of the spray's third y-derivative, so F^2 needs x-order 2
# and y-order 8; but no reader reads F^2 past total degree 8
# (engine.metric_series, engine.spray_series): g reads it in the (1, 8,
# 8) stage, and its two y-derivatives put g in (1, 6, 6); the spray's
# x-derivative reads its (2, 7, 8) part; G, and so the graded solve,
# lives in g's (1, 6, 6) stage.  The projective spray's Riemann reads G
# to its full total degree 6, through S = div G: with the root at (2, 8,
# 7) it raises TowerBudgetError (engine.riemann_series).
ROOT_CAPS = (2, 8, 8)


class SeriesRing:
    """Shared tables for one (dimension, cap_x, cap_y, cap_d) truncation."""

    _instances = {}

    @classmethod
    def get(cls, n):
        """The one ROOT_CAPS root of dimension n; every other ring of the
        dimension is a stage of it."""
        ring = cls._instances.get(n)
        if ring is None:
            ring = cls._instances[n] = cls(n, *ROOT_CAPS)
        return ring

    def stage(self, bx, by, bd=None):
        """The (bx, by, bd) stage ring under this ring's root (module
        notes), bd min(bx + by, the root's cap_d) unless given; the root
        itself at its own caps.  ValueError for caps past the root's,
        whose monomials the root does not hold."""
        root = self.root
        caps = (bx, by, min(bx + by, root.cap_d if bd is None else bd))
        ring = root._stages.get(caps)
        if ring is None:
            if not (
                0 <= bx <= root.cap_x
                and 0 <= by <= root.cap_y
                and 0 <= caps[2] <= root.cap_d
            ):
                raise ValueError(
                    "stage %s is past the root's caps %s"
                    % (caps, (root.cap_x, root.cap_y, root.cap_d))
                )
            ring = root._stages[caps] = SeriesRing(self.n, *caps, root)
        return ring

    def __init__(self, n, cap_x, cap_y, cap_d=None, root=None):
        self.n = n
        cap_d = cap_x + cap_y if cap_d is None else min(cap_d, cap_x + cap_y)
        self.cap_x, self.cap_y, self.cap_d = cap_x, cap_y, cap_d
        self.root = root or self
        self._stages = {(cap_x, cap_y, cap_d): self}
        self._triples = None
        self._row_index = None
        self._grad_cache = {}
        self._shift = None
        self._partial_cache = {}
        self._embed_cache = {}
        self._lane_bins = {}
        self._levels = None
        if root is None:
            xes, yes = (
                [e for e in itertools.product(range(cap + 1), repeat=n) if sum(e) <= cap]
                for cap in (cap_x, cap_y)
            )
            powers = np.array(
                [xe + ye for xe in xes for ye in yes if sum(xe) + sum(ye) <= cap_d],
                dtype=np.int64,
            )
            # mixed-radix keys: digit-wise exponent sums never carry, so the
            # key of a product monomial is the sum of the factor keys; the
            # exponents are listed in lexicographic order, so keys ascend
            radix = [2 * cap_x + 1] * n + [2 * cap_y + 1] * n
            self._place = np.append(np.cumprod(radix[:0:-1])[::-1], 1)
            keys = powers @ self._place
        else:
            # the root's monomials within the caps, in the root's order
            keep = (root.xdeg <= cap_x) & (root.ydeg <= cap_y) & (root.deg <= cap_d)
            powers, keys = root._powers[keep], root.keys[keep]
        self._powers = powers  # exponent rows: x-exponents, then y-exponents
        self.size = len(powers)
        self.keys = keys
        self.xdeg = powers[:, :n].sum(axis=1)
        self.ydeg = powers[:, n:].sum(axis=1)
        self.deg = self.xdeg + self.ydeg
        if root is None:
            self._triples = self._build_triples()
            self._work = (np.empty(0), np.empty(0))

    @property
    def triples(self):
        """The product table (iout, ia, ib), sorted by first factor, then
        by second, and the ring's one pair table: the level table is a
        view of it.  A stage ring builds its own on first use: the root's
        triples within its caps, entry for entry."""
        if self._triples is None:
            self._triples = self._build_triples()
        return self._triples

    def _build_triples(self):
        # a pair is a product within the caps exactly when its degrees add
        # up within them: pair each (xdeg, ydeg) class of first factors
        # with every second factor that fits beside the class
        ia, ib = [], []
        for dx in range(self.cap_x + 1):
            for dy in range(min(self.cap_y, self.cap_d - dx) + 1):
                rows = np.flatnonzero((self.xdeg == dx) & (self.ydeg == dy))
                cols = np.flatnonzero(
                    (self.xdeg <= self.cap_x - dx)
                    & (self.ydeg <= self.cap_y - dy)
                    & (self.deg <= self.cap_d - dx - dy)
                )
                ia.append(np.repeat(rows, len(cols)))
                ib.append(np.tile(cols, len(rows)))
        ia, ib = np.concatenate(ia), np.concatenate(ib)
        order = np.argsort(ia * self.size + ib)
        ia, ib = ia[order], ib[order]
        return np.searchsorted(self.keys, self.keys[ia] + self.keys[ib]), ia, ib

    def workspace(self, length):
        """Two float64 buffers of the given length, for a product's gathers
        (module notes): views of the root ring's own, which every product
        under the root reuses and a batch grows."""
        root = self.root
        if len(root._work[0]) < length:
            grown = max(length, len(root.triples[0]))
            root._work = (np.empty(grown), np.empty(grown))
        return root._work[0][:length], root._work[1][:length]

    def lane_bins(self, count, d=None):
        """Bincount bins over count lanes, lane k summing into bins
        width*k.., width being the outputs: of the product table in table
        order, or of level d's [iout | sq_out | r] (levels) for terms with
        the lanes inner (_pair_sum)."""
        bins = self._lane_bins.get((d, count))
        if bins is None:
            if d is None:
                bins = _lane_bins(self.triples[0], self.size, count)
            else:
                rows, iout = self.levels()[d - 1][:2]
                bins = (iout.base[:, None] + len(rows) * np.arange(count)).ravel()
            self._lane_bins[(d, count)] = bins
        return bins

    def levels(self):
        """The level table of the graded recurrences (module notes), built
        on first use: per total degree d = 1..cap_d, a tuple (rows,
        iout, ia, ib, sq_out, sq_src).  rows are the monomials of degree d;
        the pairs a < b of positive degrees whose product is the monomial
        rows[iout] are (ia, ib), in table order; the square of sq_src is
        rows[sq_out].  Every array has the smallest unsigned type that
        holds the ring's indices, and all are views of two, their .base:
        [ia | sq_src | rows | ib], a level's gather, and [iout | sq_out |
        r], r the ranks of rows, its bincount's bins (_pair_sum)."""
        if self._levels is None:
            # the product table's pairs a <= b past the constant (monomial
            # 0, the only one of degree 0), already in table order; cast
            # to the small type before the split by degree, which keeps
            # the build's peak under half the product table's bytes
            small = np.min_scalar_type(self.size)
            iout, ia, ib = self.triples
            keep = (ia <= ib) & (ia > 0)
            iout, ia, ib = (t[keep].astype(small) for t in (iout, ia, ib))
            deg = self.deg.astype(small)
            out_deg = deg[iout]
            rank = np.empty(self.size, dtype=small)  # place among its degree
            self._levels = []
            for d in range(1, self.cap_d + 1):
                rows = np.flatnonzero(deg == d).astype(small)
                rank[rows] = np.arange(len(rows))
                at = out_deg == d
                out, a, b = rank[iout[at]], ia[at], ib[at]
                sq = a == b
                idx = np.concatenate([a[~sq], a[sq], rows, b[~sq]])
                bins = np.concatenate([out[~sq], out[sq], rank[rows]])
                # the ends of the pairs, the squares and the rows in idx
                m, j, k = np.count_nonzero(~sq), len(a), len(a) + len(rows)
                self._levels.append(
                    (idx[j:k], bins[:m], idx[:m], idx[k:], bins[m:j], idx[m:j])
                )
        return self._levels

    def mul_table(self, bx, by):
        """The triples whose output lies within (bx, by), in table order."""
        iout, ia, ib = self.triples
        if (bx, by) == (self.cap_x, self.cap_y):
            return iout, ia, ib
        keep = (self.xdeg[iout] <= bx) & (self.ydeg[iout] <= by)
        return iout[keep], ia[keep], ib[keep]

    def row_index(self):
        """Row starts of the product table, by first and by second factor.

        Returns (starts_a, perm_b, starts_b): the triples with first
        factor i sit at positions starts_a[i]:starts_a[i + 1]; those with
        second factor j at perm_b[starts_b[j]:starts_b[j + 1]], ascending.
        """
        if self._row_index is None:
            _, ia, ib = self.triples
            bounds = np.arange(self.size + 1)
            perm_b = np.argsort(ib, kind="stable")
            self._row_index = (
                np.searchsorted(ia, bounds),
                perm_b,
                np.searchsorted(ib[perm_b], bounds),
            )
        return self._row_index

    def grad_table(self, kind, ring):
        """(ring, src, fac) of Series.grad into ring: the stage of the smallest
        caps of ring and the derivatives' (one order below here in the kind
        and in total degree); per slot (row) and monomial there its source."""
        table = self._grad_cache.get((kind, ring))
        if table is None:
            x = kind == "x"
            low = self.stage(self.cap_x - x, self.cap_y - (not x), self.cap_d - 1)
            out = _smallest(ring, low)
            # each monomial there comes from the one here with the slot's
            # exponent one higher: its key plus the slot's place value
            digits = np.arange(self.n) + (0 if x else self.n)
            src = np.searchsorted(self.keys, out.keys + self.root._place[digits, None])
            fac = (out._powers[:, digits].T + 1).astype(np.float64)
            table = self._grad_cache[(kind, ring)] = (out, src, fac)
        return table

    def shift_table(self):
        """Per slot k (row) and monomial m, the position of m / y^k, or size
        (a zero pad) when m has no y^k: grad_table's map of y^k inverted."""
        if self._shift is None:
            digits = self.n + np.arange(self.n)
            down = np.searchsorted(self.keys, self.keys - self.root._place[digits, None])
            self._shift = np.where(self._powers[:, digits].T > 0, down, self.size)
        return self._shift

    def partial_table(self, nx, ny):
        """Index and factorial-weight arrays of the (nx, ny)-th partials.

        Both have shape (n,)*(nx+ny), indexed by nx x-slots then ny
        y-slots; the partial at those slots is c[idx] * fac.
        """
        key = (nx, ny)
        table = self._partial_cache.get(key)
        if table is None:
            shape = (self.n,) * (nx + ny)
            # the monomial at the slots has the key sum of their place values
            place = self.root._place
            at = np.indices(shape).reshape(nx + ny, math.prod(shape))
            at[nx:] += self.n
            idx = np.searchsorted(self.keys, place[at].sum(axis=0)).reshape(shape)
            # its weight is the product of its exponents' factorials
            factorial = np.cumprod([1.0] + list(range(1, nx + ny + 1)))
            fac = factorial[self._powers[idx]].prod(axis=-1)
            table = self._partial_cache[key] = (idx, fac)
        return table

    def positions_of(self, sub):
        """Positions in this ring of the monomials of a ring within its
        caps under the same root, found by their keys."""
        pos = self._embed_cache.get(sub)
        if pos is None:
            fits = (
                sub.cap_x <= self.cap_x
                and sub.cap_y <= self.cap_y
                and sub.cap_d <= self.cap_d
            )
            if sub.root is not self.root or not fits:
                raise ValueError("positions_of takes a smaller ring of the same root")
            pos = self._embed_cache[sub] = np.searchsorted(self.keys, sub.keys)
        return pos

    # -- constructors ---------------------------------------------------

    def constant(self, value):
        """A constant series, or a batch of them when value is an array."""
        value = np.asarray(value, dtype=np.float64)
        if value.ndim and self.cap_y and self.root is self:
            raise ValueError("only x-only and stage rings take a batch axis")
        c = np.zeros(value.shape + (self.size,))
        c[..., 0] = value
        return Series(self, c)

    def variable_x(self, slot, value):
        return self._variable(slot, value)

    def variable_y(self, slot, value):
        return self._variable(self.n + slot, value)

    def _variable(self, digit, value):
        """The coordinate of exponent digit (x^slot at slot, y^slot at n +
        slot) at the value; ValueError when the ring keeps none of its kind."""
        caps, kind = (self.cap_x, self.cap_y), int(digit >= self.n)
        if not caps[kind]:
            raise ValueError("a %s ring keeps no %s-variable" % (caps, "xy"[kind]))
        c = np.zeros(self.size)
        c[0] = float(value)
        c[np.searchsorted(self.keys, self.root._place[digit])] = 1.0
        return Series(self, c)

    def y_variables(self, u):
        """The y-variables y_i = u_i + eta_i at the values u, as YVariables."""
        return YVariables(self.variable_y(i, v) for i, v in enumerate(u))

    def state(self, x, y):
        """Series vectors for the coordinates of a state: a list of the
        x-variables and the YVariables."""
        xs = [self.variable_x(i, x[i]) for i in range(self.n)]
        return xs, self.y_variables(y[: self.n])


class YVariables(tuple):
    """The y-variables of a ring, from SeriesRing.y_variables: a sum over
    y takes Series.times_y exactly when y has this type (module notes).
    u is their values, the value parts."""

    __slots__ = ()

    @property
    def u(self):
        return np.array([v.c[0] for v in self])


def _where(v, k):
    """Value part k of v (flat index), with its lane if v is batched."""
    t = float(v.ravel()[k])
    return "%r" % t if v.ndim == 0 else "%r (lane %d)" % (t, k)


def _lanes(f, v, what):
    """A math-module function of a value part, lane by lane if batched.
    DomainError "<what> of value part ... overflows" names the first value
    part (and its lane) whose result overflows."""
    out = []
    for t in v.ravel().tolist():
        try:
            out.append(f(t))
        except OverflowError:
            where = _where(v, len(out))
            raise DomainError("%s of value part %s overflows" % (what, where)) from None
    return np.array(out).reshape(v.shape)


def _positive(v, what):
    """DomainError "<what> of non-positive value part ..." naming the first
    offending value part (and its lane, if batched), unless all of v > 0."""
    bad = v <= 0.0
    if np.any(bad):
        where = _where(v, int(np.argmax(bad)))
        raise DomainError("%s of non-positive value part %s" % (what, where))


def _constant_product(a, b):
    """The product of the coefficient arrays a and b when one of them is a
    batch of constants (no nonzero past the value part in any lane): the
    other times the value parts, with -0 turned to +0 (module notes).
    None when neither is, or when a coefficient of either is not finite
    (whose products with the skipped zeros would be NaN)."""
    for const, other in ((a, b), (b, a)):
        # the first lane rules out most factors before a pass over all
        if const.reshape(-1, const.shape[-1])[0, 1:].any() or const[..., 1:].any():
            continue
        if not (np.isfinite(const[..., 0]).all() and np.isfinite(other).all()):
            return None
        c = other * const[..., :1]
        c += 0.0  # bincount starts every sum at +0, so -0 comes out +0
        return c
    return None


def _rows(starts, rows):
    """Table positions of the given rows, in order, from their row starts."""
    lo = starts[rows]
    counts = starts[rows + 1] - lo
    return np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(
        counts.sum()
    )


def _sparse_triples(ring, a, b):
    """The triples (iout, ia, ib) of the product table that a product of
    the coefficient arrays a and b in ring gathers when a factor is sparse
    (module notes), in table order; None when it gathers the whole table.

    Two 1-D factors with at most size // ROW_SKIP_DENSITY pairs of
    nonzeros give the pairs of nonzeros; else a 1-D factor with at most
    that many nonzeros gives the table rows of the sparser factor, for
    every lane of the other.  A non-finite coefficient, whose products
    with the skipped zeros would be NaN, rules the pairs out when it is
    in either factor and the rows when it is in the other.  Only tables
    of at least ROW_SKIP_MIN_TRIPLES triples are worth the check, which
    the caller makes.
    """
    # a boolean mask counts and lists nonzeros several times faster than
    # the float array itself; NaN and inf count as nonzero, and a batched
    # factor as dense
    nza = a != 0.0 if a.ndim == 1 else None
    nzb = b != 0.0 if b.ndim == 1 else None
    na = math.inf if nza is None else np.count_nonzero(nza)
    nb = math.inf if nzb is None else np.count_nonzero(nzb)
    limit = ring.size // ROW_SKIP_DENSITY
    if min(na, nb) > limit:
        return None
    if a.ndim == b.ndim == 1 and na * nb <= limit:
        ra, rb = nza.nonzero()[0], nzb.nonzero()[0]
        if np.isfinite(a[ra]).all() and np.isfinite(b[rb]).all():
            # first factor, then second: the table's order
            ia, ib = np.repeat(ra, nb), np.tile(rb, na)
            fits = (
                (ring.xdeg[ia] + ring.xdeg[ib] <= ring.cap_x)
                & (ring.ydeg[ia] + ring.ydeg[ib] <= ring.cap_y)
                & (ring.deg[ia] + ring.deg[ib] <= ring.cap_d)
            )
            ia, ib = ia[fits], ib[fits]
            return np.searchsorted(ring.keys, ring.keys[ia] + ring.keys[ib]), ia, ib
    first = na <= nb
    dense, nonzero = (b, nza) if first else (a, nzb)
    if not np.isfinite(dense).all():
        return None
    starts_a, perm_b, starts_b = ring.row_index()
    rows = nonzero.nonzero()[0]
    if first:
        pos = _rows(starts_a, rows)
    else:
        pos = np.sort(perm_b[_rows(starts_b, rows)])
    return tuple(t[pos] for t in ring.triples)


def _lane_bins(iout, size, count):
    """Bincount bins over count lanes: lane k sums into bins size*k.."""
    return (iout + size * np.arange(count)[:, None]).ravel()


def _bincount(bins, w, size):
    """Sums of the terms w (lanes, then terms) into size bins per lane.

    bins are one lane's, or every lane's from _lane_bins; each lane sums
    its terms in their order, as an unbatched sum would.  No terms give
    float zeros (bincount of an empty selection gives int64 zeros).
    """
    lanes = w.shape[:-1]
    count = math.prod(lanes)
    if not w.size:
        return np.zeros(lanes + (size,))
    if len(bins) < w.size:
        bins = _lane_bins(bins, size, count)
    c = np.bincount(bins, weights=w.ravel(), minlength=count * size)
    return c.reshape(lanes + (size,))


def _gather(c, idx, buffer, axis=-1):
    """c.take(idx, axis), written into the front of buffer."""
    shape = list(c.shape)
    shape[axis] = len(idx)
    out = buffer[: math.prod(shape)].reshape(shape)
    return c.take(idx, axis=axis, out=out, mode="clip")


def _major(c):
    """Coefficients c as the graded recurrences keep them, (size, lanes)."""
    return np.ascontiguousarray(c.reshape(-1, c.shape[-1]).T)


def _minor(c, shape):
    """A (size, lanes) array back in the coefficient shape."""
    return np.ascontiguousarray(c.T).reshape(shape)


def _pair_sum(ring, d, p, q, value=False):
    """Per monomial r of level d of ring.levels(), in the order of its
    rows: the sum over the level's pairs a < b of p_a q_b + p_b q_a, then
    p_s q_s over its square s, then with value p_r q_0, r's pair with the
    constant (module notes).  p and q are (size, lanes) arrays (_major);
    the result is (lanes, rows).  p is q (sqrt) takes no value.

    p and q are gathered once each, over the level's [ia | sq_src | rows
    | ib]; the terms are formed in p's gather, [pairs | squares | value
    terms], contiguous over the lanes, for one bincount over [iout |
    sq_out | r] (lane_bins)."""
    rows, iout, ia, _, sq_out, _ = ring.levels()[d - 1]
    m, s, w = len(iout), len(sq_out), len(rows)
    lanes = p.shape[1]
    if not m + s:  # degree 1: bincount would add the value part to +0
        return (p[rows] * q[:1] + 0.0).T if value else np.zeros((lanes, w))
    idx = ia.base
    wa, wb = ring.workspace(len(idx) * lanes)
    g = _gather(p, idx, wa, 0)
    h = g if p is q else _gather(q, idx, wb, 0)
    np.multiply(g[:m], h[-m:], out=g[:m])  # p_a q_b
    if p is not q:
        g[:m] += np.multiply(g[-m:], h[:m], out=g[-m:])
        g[m : m + s] *= h[m : m + s]
    terms = m if p is q else m + s
    if value:
        g[m + s : m + s + w] *= q[:1]
        terms += w
    bins = (ring.lane_bins(lanes, d) if lanes > 1 else iout.base)[: terms * lanes]
    out = np.bincount(bins, weights=g[:terms].ravel(), minlength=w * lanes)
    out = out.reshape(lanes, w)
    if p is q:
        out *= 2.0
        if s:
            out[:, sq_out] += (g[m : m + s] * g[m : m + s]).T
    return out


def _smallest(ring, *others):
    """The stage, under ring's root, of the slot-wise smallest caps."""
    caps = [(r.cap_x, r.cap_y, r.cap_d) for r in (ring,) + others]
    return ring.stage(*map(min, zip(*caps)))


def _meet(a, b):
    """a and b in the ring of their common budget: the stage ring of the
    slot-wise smaller caps, under their root."""
    if a.ring is b.ring:
        return a, b
    ring = _smallest(a.ring, b.ring)
    return restrict(a, ring), restrict(b, ring)


class Series:
    __slots__ = ("ring", "c")

    def __init__(self, ring, c):
        self.ring = ring
        self.c = c

    # the budget, trusted x-, y- and total derivative orders, is the
    # ring's caps
    bx = property(lambda self: self.ring.cap_x)
    by = property(lambda self: self.ring.cap_y)
    bd = property(lambda self: self.ring.cap_d)

    def value(self):
        """Value part: a float, or one float per lane of a batch."""
        v = self.c[..., 0]
        return float(v) if v.ndim == 0 else v

    def part(self, index):
        """The components at a numpy index of the leading (batch) axes."""
        return Series(self.ring, self.c[index])

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Series):
            a, b = _meet(self, other)
            return Series(a.ring, a.c + b.c)
        if isinstance(other, numbers.Real):
            c = self.c.copy()
            c[..., 0] += float(other)
            return Series(self.ring, c)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Series):
            a, b = _meet(self, other)
            return Series(a.ring, a.c - b.c)
        if isinstance(other, numbers.Real):
            c = self.c.copy()
            c[..., 0] -= float(other)
            return Series(self.ring, c)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            c = -self.c
            c[..., 0] += float(other)
            return Series(self.ring, c)
        return NotImplemented

    def __neg__(self):
        return Series(self.ring, -self.c)

    def __mul__(self, other):
        if isinstance(other, Series):
            a, b = _meet(self, other)
            ring = a.ring
            if a.c.ndim > 1 or b.c.ndim > 1:
                c = _constant_product(a.c, b.c)
                if c is not None:
                    return Series(ring, c)
            iout, ia, ib = ring.triples
            if len(iout) >= ROW_SKIP_MIN_TRIPLES:
                sparse = _sparse_triples(ring, a.c, b.c)
                if sparse is not None:
                    iout, ia, ib = sparse
            size = ring.size
            m = len(iout)
            if a.c.ndim == 1 and b.c.ndim == 1:
                wa, wb = ring.workspace(m)
                # take with out= copies through a buffer unless mode is not
                # "raise"; the table's indices are valid, so "clip" is exact
                a.c.take(ia, out=wa, mode="clip")
                b.c.take(ib, out=wb, mode="clip")
                wa *= wb
                # bincount of an empty selection would give int64 zeros
                c = np.bincount(iout, weights=wa, minlength=size) if m else np.zeros(size)
                return Series(ring, c)
            # lane k sums into bins size*k.., in the 1-D order; the
            # factors' component axes broadcast against each other
            lanes = np.broadcast_shapes(a.c.shape[:-1], b.c.shape[:-1])
            count = math.prod(lanes)
            bins = ring.lane_bins(count) if m == len(ring.triples[0]) else iout
            wa, wb = ring.workspace(count * m)
            ga, gb = _gather(a.c, ia, wa), _gather(b.c, ib, wb)
            # the product overwrites the gather that has every lane
            full = [g for g in (ga, gb) if g.shape[:-1] == lanes]
            w = np.multiply(ga, gb, out=full[0] if full else None)
            return Series(ring, _bincount(bins, w, size))
        if isinstance(other, numbers.Real):
            return Series(self.ring, self.c * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            a, b = _meet(self, other)
            return a * b.reciprocal()
        if isinstance(other, numbers.Real):
            d = float(other)
            if d == 0.0:
                raise DomainError("division by zero constant")
            return Series(self.ring, self.c / d)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Real):
            return float(other) * self.reciprocal()
        return NotImplemented

    def reciprocal(self):
        # graded (module notes), as are sqrt, exp and ln: level d of the
        # level table fills the degree-d coefficients from lower degrees
        u = _major(self.c)
        if np.any(u[0] == 0.0):
            raise DomainError("reciprocal of zero value part")
        q = np.zeros_like(u)
        q[0] = 1.0 / u[0]
        u0 = u[0][:, None]
        for d, level in enumerate(self.ring.levels(), 1):
            q[level[0]] = (-_pair_sum(self.ring, d, u, q, value=True) / u0).T
        return Series(self.ring, _minor(q, self.c.shape))

    def sqrt(self):
        _positive(self.c[..., 0], "sqrt")
        u = _major(self.c)
        w = np.zeros_like(u)
        w[0] = np.sqrt(u[0])  # correctly rounded, as math.sqrt
        twice = 2.0 * w[0]
        for d, level in enumerate(self.ring.levels(), 1):
            rows = level[0]
            w[rows] = (u[rows] - _pair_sum(self.ring, d, w, w).T) / twice
        return Series(self.ring, _minor(w, self.c.shape))

    def exp(self):
        u = _major(self.c)
        eu = u * self.ring.deg[:, None]
        e = np.zeros_like(u)
        e[0] = _lanes(math.exp, self.c[..., 0], "exp").reshape(-1)
        for d, level in enumerate(self.ring.levels(), 1):
            e[level[0]] = _pair_sum(self.ring, d, eu, e, value=True).T / d
        return Series(self.ring, _minor(e, self.c.shape))

    def ln(self):
        _positive(self.c[..., 0], "ln")
        u = _major(self.c)
        el = np.zeros_like(u)  # E ln u
        out = np.zeros_like(u)
        out[0] = _lanes(math.log, self.c[..., 0], "ln").reshape(-1)
        for d, level in enumerate(self.ring.levels(), 1):
            rows = level[0]
            el[rows] = (d * u[rows] - _pair_sum(self.ring, d, el, u).T) / u[0]
            out[rows] = el[rows] / d
        return Series(self.ring, _minor(out, self.c.shape))

    def powr(self, q):
        q = float(q)
        if q == int(q):
            k = int(q)
            if k == 0:
                return self.ring.constant(1.0)
            out = ipow(self, abs(k))
            return out.reciprocal() if k < 0 else out
        _positive(self.c[..., 0], "fractional power")
        return (self.ln() * q).exp()

    # -- derivatives and extraction -------------------------------------

    def grad(self, kind, ring):
        """The n first derivatives of the kind ("x" or "y") into ring, with
        a leading slot axis, in one gather through SeriesRing.grad_table.
        TowerBudgetError when the kind's budget or bd is exhausted."""
        b = self.bx if kind == "x" else self.by
        if min(b, self.bd) < 1:
            raise TowerBudgetError(
                "%s-derivative budget exhausted (b%s=%d, bd=%d)"
                % (kind, kind, b, self.bd)
            )
        ring, idx, fac = self.ring.grad_table(kind, ring)
        c = self.c.take(idx, axis=-1) * fac
        d = c.ndim - 2  # the slot axis, moved to the front
        return Series(ring, c.transpose(d, *range(d), d + 1))

    def times_y(self, u):
        """s_k y^k per lane k of the leading axis, y^k the slot's y-variable
        at value u[k] in this ring: the table product bit for bit, as a
        shift plus a multiple (module notes)."""
        ring, c, n = self.ring, self.c, len(u)
        u = np.array(u, dtype=np.float64).reshape((n,) + (1,) * (c.ndim - 1))
        shift = ring.shift_table()
        if not (np.isfinite(c).all() and np.isfinite(u).all()):  # NaN terms
            y = np.zeros((n, ring.size))  # u_k at the constant, 1 at eta_k
            y[:, 0], y[shift == 0] = u.flat, 1.0
            return Series(ring, c) * Series(ring, y.reshape(u.shape[:-1] + (-1,)))
        pad = np.concatenate([c, np.zeros(c.shape[:-1] + (1,))], axis=-1)
        out = c * u
        for k in range(n):
            out[k] += pad[k].take(shift[k], axis=-1)
        out += 0.0  # the table's sums start at +0, so -0 comes out +0
        return Series(ring, out)

    def partials(self, nx, ny):
        """Every partial with nx x- and ny y-derivatives, at the base point.

        Indexed [m_1..m_nx, r_1..r_ny] (after any batch axis):
        d^(nx+ny) f / dx^m_1..dx^m_nx dy^r_1..dy^r_ny.
        """
        if nx > self.bx or ny > self.by or nx + ny > self.bd:
            raise TowerBudgetError(
                "(%d, %d) partials beyond budget (%d, %d, %d)"
                % (nx, ny, self.bx, self.by, self.bd)
            )
        idx, fac = self.ring.partial_table(nx, ny)
        return self.c.take(idx, axis=-1) * fac

    def __repr__(self):
        return "Series(n=%d, value=%r, budget=(%d, %d, %d))" % (
            self.ring.n,
            self.value(),
            self.bx,
            self.by,
            self.bd,
        )


def graded_solve(a, b, inverse):
    """x with a x = b for a Series a with lanes [i, l] and b with lanes
    [i] in one ring, given the float inverse of a's value part (module
    notes: h, the preconditioned a, is the identity at degree 0 up to
    rounding)."""
    ring, n = a.ring, len(b.c)
    # sums over j in order, coefficient by coefficient (einsum's order
    # depends on the length), so that the solve is budget-invariant
    h = (inverse[:, :, None, None] * a.c).sum(axis=1)
    h = _major(h.swapaxes(0, 1))  # [m, (l, i)]
    c = (inverse[:, :, None] * b.c).sum(axis=1)
    # x_l in every lane (l, i), so that both factors gather lane for lane
    x = np.zeros((ring.size, n * n))
    x[0] = np.repeat(c[:, 0], n)
    for d, level in enumerate(ring.levels(), 1):
        rows = level[0]
        s = _pair_sum(ring, d, h, x, value=True).reshape(n, n, -1)
        x[rows] = np.repeat((c[:, rows] - s.sum(axis=0)).T, n, axis=1)
    return Series(ring, _minor(x[:, ::n], b.c.shape))


def ln_det(a, det, inverse):
    """ln det a for a Series a with lanes [i, j], given det and the float
    inverse of a's value part (scalars.ring_inv on floats): ln det +
    tr M - tr(M M)/2 with M = inverse a - I, one product of n^2 lanes.
    Exact when M^3 keeps no coefficient in a's ring: M has no value part,
    so in a ring of total degree at most 2 (tau's (1, 1)), and for an a
    of x alone in a ring of x-order at most 2."""
    ring = a.ring
    M = (inverse[:, :, None, None] * a.c).sum(axis=1)
    M[..., 0] = 0.0  # the preconditioned a less I
    MM = Series(ring, M) * Series(ring, M.swapaxes(0, 1))  # lanes [i, l]: M_il M_li
    out = np.trace(M) - MM.c.sum(axis=(0, 1)) * 0.5
    out[0] = math.log(det)
    return Series(ring, out)


def restrict(parts, ring):
    """A series, or a nested list of them, restricted to a smaller ring.

    The result lives in the stage ring, under ring's root, of the
    smallest of ring's caps and the parts' budgets; coefficients are
    copied as they are.  A list becomes a leading component axis: a
    matrix a[i][j] is read as c[i, j, :].
    """
    if isinstance(parts, Series):
        ring = _smallest(ring, parts.ring)
        if parts.ring is ring:
            return parts
        return Series(ring, parts.c[..., parts.ring.positions_of(ring)])
    parts = [p if isinstance(p, Series) else restrict(p, ring) for p in parts]
    if all(p.ring is parts[0].ring for p in parts):  # stack, gather once
        return restrict(Series(parts[0].ring, np.stack([p.c for p in parts])), ring)
    ring = _smallest(ring, *(p.ring for p in parts))
    return Series(ring, np.stack([restrict(p, ring).c for p in parts]))


def embed(src, ring):
    """A series in a larger ring of the same dimension, zero-filled.

    The caller vouches for the coefficients the source ring lacks: an
    x-only quantity has no y-dependence.
    """
    if src.ring is ring:
        return src
    c = np.zeros(src.c.shape[:-1] + (ring.size,))
    c[..., ring.positions_of(src.ring)] = src.c
    return Series(ring, c)


def _within(v, sub):
    """Whether the series v has no nonzero coefficient outside the
    monomials of the smaller ring sub (a mask counts nonzeros several
    times faster than a boolean index copies)."""
    return np.count_nonzero(v.c != 0.0) == np.count_nonzero(
        v.c[..., v.ring.positions_of(sub)] != 0.0
    )


def one_kind(fn, coords, kind, lift=True):
    """fn(coords) for a function fn of coordinates of one kind, "x" or
    "y", alone, run in the stage ring ring.stage(cap_x, 0) or
    ring.stage(0, cap_y) of their ring (module notes).

    Series coordinates of a ring that keeps the other kind's orders, free
    of the other kind, are restricted there (so an affine x = A xs + c
    keeps its shape), and every Series leaf of fn's result, nested lists
    allowed, is embedded back at the leaf's own budget of that kind and
    the ring's caps of the other and of the total degree; with lift
    False the leaves stay in the stage ring, for the coefficients of
    quadratic_form and linear_form.  Floats, one-kind Series, other
    rings' scalars and coordinates that move with the other kind go to fn
    as they are.
    """
    of_x = kind == "x"
    if not all(
        isinstance(v, Series) and (v.ring.cap_y if of_x else v.ring.cap_x)
        for v in coords
    ):
        return fn(coords)
    ring = coords[0].ring
    low = ring.stage(ring.cap_x, 0) if of_x else ring.stage(0, ring.cap_y)
    if not all(_within(v, low) for v in coords):
        return fn(coords)
    out = fn([restrict(v, low) for v in coords])
    return _lifted(out, ring, of_x) if lift else out


def _lifted(out, ring, of_x):
    """Every Series leaf of out, nested lists allowed, of x alone (of_x)
    or of y alone, embedded into ring's stage of the leaf's own budget of
    that kind and ring's caps of the other and of the total degree."""
    if isinstance(out, (list, tuple)):
        return type(out)(_lifted(v, ring, of_x) for v in out)
    if isinstance(out, Series):
        caps = (out.bx, ring.cap_y) if of_x else (ring.cap_x, out.by)
        return embed(out, ring.stage(*caps, ring.cap_d))
    return out


def _of_x(b, y):
    """The coefficients b, with those of an x-only ring under y's root
    (one_kind's leaves, unlifted) embedded into y's ring for the loop."""
    ring = getattr(y[0], "ring", None)
    if not isinstance(ring, SeriesRing):
        return b
    return [
        _lifted(v, ring, True)
        if isinstance(v, Series) and v.ring.root is ring.root and not v.by
        else v
        for v in b
    ]


def quadratic_form(a, y):
    """sum_ij a_ij y_i y_j, a an n x n nested list, added in (i, j) order
    as (a_ij * y_i) * y_j (_form)."""
    return _form([v for row in a for v in row], y, 2)


def linear_form(b, y):
    """sum_i b_i y_i, added in order, with coefficients b a list (_form)
    or one Series whose leading axis holds them (a gradient's slots,
    lanes after it allowed): restricted into y's ring and multiplied by
    Series.times_y when y are YVariables, else the loop."""
    if isinstance(b, Series):
        if isinstance(y, YVariables):
            terms = restrict(b, y[0].ring).times_y(y.u)
            return reduce(add, (terms.part(i) for i in range(len(y))))
        b = [b.part(i) for i in range(len(y))]
    return _form(b, y, 1)


def _form(coefficients, y, degree):
    """The form of the given degree in y, its coefficients in row order
    (module notes).  When y are YVariables and every coefficient is a
    float or a 1-D series of the x-only stage of y's ring: the lanes of
    the forms' stage ring, times y_i (and then y_j) by times_y, added in
    order and embedded into y's ring, if that sum is finite.  Else the
    loop of ring products, where a coefficient of an x-only ring under
    y's root is one of x alone."""
    n = len(y)
    if isinstance(y, YVariables):
        ring = y[0].ring
        form = ring.stage(ring.cap_x, min(ring.cap_y, 2), ring.cap_d)
        s = as_lanes(coefficients, ring.stage(ring.cap_x, 0), form)
        if s is not None:
            c, u = s.c.reshape((n,) * degree + (-1,)), y.u
            for _ in range(degree):  # over the lanes [i, j]: times y_i, then y_j
                c = Series(form, c).times_y(u).c.swapaxes(0, degree - 1)
            total = reduce(add, c.reshape(-1, form.size))
            if np.isfinite(total).all():
                return embed(Series(form, total), ring)
    b = _of_x(coefficients, y)
    slots = itertools.product(range(n), repeat=degree)  # (i, j) in row order
    terms = (reduce(mul, (y[i] for i in t), b[k]) for k, t in enumerate(slots))
    return reduce(add, terms)


def as_lanes(parts, low, ring):
    """Floats and 1-D series of the ring low, listed in order, as one
    Series of ring, a stage within whose caps low lies, with a lane per
    part: floats as constants, series embedded.  None when a part is
    anything else."""
    pos = ring.positions_of(low)
    c = np.zeros((len(parts), ring.size))
    for k, v in enumerate(parts):
        if isinstance(v, Series) and v.ring is low and v.c.ndim == 1:
            c[k, pos] = v.c
        elif isinstance(v, numbers.Real):
            c[k, 0] = v
        else:
            return None
    return Series(ring, c)
