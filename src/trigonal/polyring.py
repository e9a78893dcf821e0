"""Univariate polynomials over finite-field contexts, plus degree-8 binary forms.

A Poly stores a trimmed ascending coefficient tuple together with its field
context (any context from fields.py, duck-typed).  Factorization follows the
classic squarefree / distinct-degree / equal-degree pipeline; the randomized
equal-degree splitting draws from an rng seeded by the SHA-256 of the input's
canonical encoding, so results are bit-stable across runs and call orders,
and the returned factor list is canonically sorted on top of that.  The rng
is seeded on its first draw (_LazyRng), so a split that never draws hashes
nothing, and two linear factors are split by the quadratic formula, one
square root in the field, with no draw.

Both splitting steps take one x^q per polynomial (q the field order) and
reach x^(q^d) through the q-power Frobenius matrix instead of powers with
q^d-sized exponents.  x^q costs only its squarings (fields' pow on x), and
a polynomial that is one distinct-degree part is split in the ring the
distinct-degree step built.  h^((q^d - 1)/2) is N(h)^((q - 1)/2), N(h) the
product of the d conjugates of h, and that power is taken in F_p[N(h)],
of F_p-dimension at most 1/d of the quotient ring's (von zur Gathen and
Shoup, "Computing Frobenius maps and factoring polynomials", 1992).

Every product modulo a fixed modulus (pow_mod, x^q, the Frobenius matrix
and its maps, the conjugate products of the splitting loops) runs in a
quotient ring from _quotient: the packed ring fields.ExtField(F_q, monic
modulus).  Over F_p an element is one int with a coefficient per slot, a
product one int multiply, a fold of the high slots and one slot reduction
(Kronecker substitution; Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", 2009).  Over F_{p^m} the packing has
two levels, a block of slots per coefficient, and a product is still one
int multiply.  Values stay packed through each loop and are unpacked into
a Poly for the gcd.  Poly products, divmod, gcd and eval over every context
add up raw int products and reduce them with the field's _fold once per
output coefficient, and after every _lazy products where the slots hold
fewer (one product over a tower).  gcd runs Euclid on coefficient lists by
pseudo-remainders (Collins, "Subresultants and reduced polynomial remainder
sequences", 1967), with one inverse for the last remainder, and builds a
Poly only for the result.  xgcd is Euclid tracking one cofactor, each
remainder made monic with one inverse so that divmod's loop (_divide)
divides by it, on coefficient lists in and out, for curves.cantor_add.

split_root is the one root finder for an irreducible polynomial: given an
irreducible over a subfield F_q of a field K that it splits in, and x^q
modulo it, it returns one root in K; the others are its q-power Frobenius
conjugates.  roots() is kept for every root of an arbitrary polynomial.
"""

from __future__ import annotations

import functools
import hashlib
import random

from . import fields
from .errors import BadDegree, ContextMismatch, NotMonicCubic, NotSquarefree, ZeroPolynomial


class Poly:
    """Immutable univariate polynomial over a field context."""

    __slots__ = ("field", "c")

    def __init__(self, field, coeffs, trim=True):
        if trim:
            coeffs = list(coeffs)
            z = field.zero
            while coeffs and coeffs[-1] == z:
                coeffs.pop()
        self.field = field
        self.c = tuple(coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, (), trim=False)

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,), trim=False)

    @classmethod
    def const(cls, field, a):
        return cls(field, (a,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one), trim=False)

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(n) for n in ints])

    @property
    def degree(self):
        return len(self.c) - 1

    @property
    def is_zero(self):
        return not self.c

    @property
    def lc(self):
        if not self.c:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.c[-1]

    def __getitem__(self, i):
        return self.c[i] if 0 <= i < len(self.c) else self.field.zero

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field is other.field and self.c == other.c

    def __hash__(self):
        return hash((id(self.field), self.c))

    def encode(self):
        f = self.field
        return tuple(f.encode(x) for x in self.c)

    def sort_key(self):
        return (len(self.c), self.encode())

    def __repr__(self):
        f = self.field
        if not self.c:
            return "0"
        parts = []
        for i in range(len(self.c) - 1, -1, -1):
            ci = self.c[i]
            if ci == f.zero:
                continue
            cs = str(f.encode(ci)) if f.k == 1 else str(list(f.coeffs(ci)))
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"{cs}*x" if cs != "1" else "x")
            else:
                parts.append(f"{cs}*x^{i}" if cs != "1" else f"x^{i}")
        return " + ".join(parts)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        f = self.field
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        return Poly(f, [*map(f.add, a, b), *a[len(b) :]])

    def __neg__(self):
        f = self.field
        return Poly(f, [f.neg(x) for x in self.c], trim=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        a, b = self.c, other.c
        if not a or not b:
            return Poly.zero(f)
        return Poly(f, _convolve(f, a, b))

    def scale(self, c):
        f = self.field
        if c == f.zero:
            return Poly.zero(f)
        return Poly(f, [f.mul(x, c) for x in self.c], trim=False)

    def divmod(self, other):
        """(quotient, remainder), by the remainder loop of _divide."""
        f = self.field
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        b = other.c
        binv = None if b[-1] == f.one else f.inv(b[-1])
        q = [0] * max(0, len(self.c) - len(b) + 1)
        r = _divide(f, list(self.c), b[:-1], binv, q)
        return Poly(f, q), Poly(f, r, trim=False)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        """(monic polynomial, leading coefficient)."""
        c = self.lc
        if c == self.field.one:
            return self, c
        return self.scale(self.field.inv(c)), c

    def eval(self, x):
        fold = self.field._fold
        y = 0
        for ci in reversed(self.c):
            y = fold(y * x + ci)
        return y

    def derivative(self):
        f = self.field
        p, fold = f.p, f._fold
        return Poly(f, [fold(i % p * c) for i, c in enumerate(self.c[1:], 1)])

    def pow_mod(self, n: int, modulus: "Poly"):
        """self^n mod modulus, for n >= 0, in the quotient ring of _quotient (packed over F_p)."""
        b = self % modulus
        if modulus.degree == 0:
            return b  # zero: a unit leaves no remainder
        R = _quotient(modulus)
        return _unpacked(R, R.pow(R.from_coeffs(b.c), n))

    def map_coeffs(self, fn, new_field):
        """fn of every coefficient, read in new_field; fn None keeps the coefficients as they are."""
        if fn is None:
            return Poly(new_field, self.c, trim=False)
        return Poly(new_field, [fn(x) for x in self.c])


def _lincomb(f, terms, n: int) -> list:
    """The n coefficients over f of the sum of c * x^off * row over terms (c, row, off).

    The raw int products are summed and folded once per output coefficient
    (and after every f._lazy terms).
    """
    fold, lazy = f._fold, f._lazy
    out = [0] * n
    for t, (c, row, off) in enumerate(terms):
        if t and t % lazy == 0:
            out = list(map(fold, out))
        if c:
            for j, x in enumerate(row, off):
                out[j] += c * x
    return list(map(fold, out))


def _convolve(f, a, b) -> list:
    """The coefficients of the product of the nonempty sequences a and b over f: _lincomb over the rows of the shorter."""
    if len(a) > len(b):
        a, b = b, a
    return _lincomb(f, zip(a, [b] * len(a), range(len(a))), len(a) + len(b) - 1)


def _sum_of(f, terms) -> list:
    """The trimmed coefficients of the sum of c * x^off * row over the list terms [(c, row, off)]: _lincomb, sized to fit."""
    r = _lincomb(f, terms, max((len(row) + off for _, row, off in terms), default=0))
    while r and not r[-1]:
        r.pop()
    return r


def _divide(f, r: list, b, binv, q: list | None) -> list:
    """The trimmed remainder of the coefficient list r modulo a divisor with low coefficients b.

    The divisor has degree len(b); binv is the inverse of its leading
    coefficient, None when that is one.  q, when given, receives the
    quotient coefficients.  Each step adds raw products of the negated
    quotient coefficient to r's coefficients and folds only the one it
    divides by, and all of them after every f._lazy steps.  r is
    overwritten.
    """
    fold, lazy, neg = f._fold, f._lazy, f.neg
    n = len(b)
    for t, d in enumerate(range(len(r) - n - 1, -1, -1)):
        if t and t % lazy == 0:
            r[: d + n] = map(fold, r[: d + n])
        c = fold(r[d + n])
        if c:
            if binv is not None:
                c = f.mul(c, binv)
            if q is not None:
                q[d] = c
            c = neg(c)
            for i, x in enumerate(b, d):
                r[i] += c * x
    r = list(map(fold, r[:n]))
    while r and not r[-1]:
        r.pop()
    return r


def gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd, by Euclid with pseudo-remainders on coefficient lists and one inverse at the end.

    A step r <- lc(b) r - lc(r) x^k b cancels r's top coefficient with no
    inverse; each remainder is a nonzero multiple of the exact one.  A
    degree gap of one takes both steps in one pass, three products and one
    fold a coefficient, where the slots hold three (not over a tower).  Else
    a step folds lc(b) r - lc(r) b once, over a tower lc(b) r first.
    """
    f = a.field
    one, fold, neg = f.one, f._fold, f.neg
    a, b = (b.c, a.c) if b.is_zero else (a.c, b.c)
    while b:
        r, lb, low = list(a), b[-1], b[:-1]
        if len(r) == len(b) + 1 > 2 and f._lazy > 2:
            c = neg(r[-1])
            e = neg(fold(lb * r[-2] + c * low[-1]))
            L, E = f.mul(lb, lb), f.mul(lb, c)
            r = [fold(L * r[0] + e * low[0])] + [fold(L * x + E * y + e * z) for x, y, z in zip(r[1:-2], low, low[1:])]
        for d in range(len(r) - len(b), -1, -1):
            c = neg(r.pop())
            if c:
                s = lb
                if f._lazy == 1:
                    r, s = [fold(lb * x) for x in r], one
                r = [fold(s * x) for x in r[:d]] + [fold(s * x + c * y) for x, y in zip(r[d:], low)]
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    if a and a[-1] != one:
        c = f.inv(a[-1])
        a = [fold(x * c) for x in a]
    return Poly(f, a, trim=False)


def xgcd(f, a, b):
    """(g, s): g the monic gcd of the coefficient lists a and b over f, s * a = g modulo b.

    Euclid tracking the one cofactor: each remainder is made monic as it is
    produced, with its cofactor scaled alike, so _divide divides by it with
    no inverse.  The other cofactor is (g - s * a) / b, an exact division.
    """
    one, fold, neg = f.one, f._fold, f.neg
    r0, r1, s0, s1 = a, b, [one], []
    while r1:
        if r1[-1] != one:
            c = f.inv(r1[-1])
            r1, s1 = [fold(x * c) for x in r1], [fold(x * c) for x in s1]
        q = [0] * max(0, len(r0) - len(r1) + 1)
        r0, r1 = r1, _divide(f, list(r0), r1[:-1], None, q)
        s0, s1 = s1, _sum_of(f, [(one, s0, 0)] + [(neg(c), s1, i) for i, c in enumerate(q)])
    if r0 and r0[-1] != one:
        c = f.inv(r0[-1])
        r0, s0 = [fold(x * c) for x in r0], [fold(x * c) for x in s0]
    return r0, s0


def crt_terms(field, parts) -> list:
    """The CRT terms u_i = m_i * (r_i / (m_i mod h_i)), m_i the product of the other h, over parts [(h, ring, r)].

    The h are pairwise coprime monic irreducibles, ring is field[x]/(h)
    (None for a linear h, whose r is in field) and r is an element of it.
    u_i is r_i modulo h_i and 0 modulo the others, of degree below the sum
    of the degrees, so sums of the u_i with any signs need no reduction.
    One inverse per part; NotSquarefree when two of the h coincide.
    """
    out = []
    for i, (h, ring, r) in enumerate(parts):
        others = [g for j, (g, _, _) in enumerate(parts) if j != i]
        m = functools.reduce(Poly.__mul__, others) if others else Poly.one(field)
        R = field if ring is None else ring
        d = m.eval(field.neg(h[0])) if ring is None else ring.from_coeffs((m % h).c)
        if d == R.zero:
            raise NotSquarefree("two CRT factors coincide")
        c = R.div(r, d)
        out.append(m.scale(c) if ring is None else m * Poly(field, ring.coeffs(c)))
    return out


def is_squarefree(poly: Poly) -> bool:
    if poly.is_zero:
        raise ZeroPolynomial("squarefreeness of the zero polynomial")
    if poly.degree == 0:
        return True
    return gcd(poly, poly.derivative()).degree == 0


def _pth_root(poly: Poly) -> Poly:
    """Inverse of x -> x^p on polynomials of the form g(x^p)."""
    f = poly.field
    return Poly(f, [f.frobenius_power(c, f.k - 1) for c in poly.c[:: f.p]])


def squarefree_decomposition(poly: Poly):
    """[(monic squarefree, multiplicity)] with poly = lc * prod g^m (Yun, char p)."""
    f = poly.field
    p = f.p
    poly = poly.monic()[0]
    if poly.degree < 1:
        return []
    out = []
    d = poly.derivative()
    if d.is_zero:
        for g, m in squarefree_decomposition(_pth_root(poly)):
            out.append((g, m * p))
        return out
    c = gcd(poly, d)
    w = poly // c
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        for g, m in squarefree_decomposition(_pth_root(c)):
            out.append((g, m * p))
    return out


def _poly_rng(poly: Poly) -> random.Random:
    h = hashlib.sha256(repr((poly.field.p, poly.field.k, poly.encode())).encode()).digest()
    return random.Random(int.from_bytes(h, "big"))


class _LazyRng:
    """_poly_rng(poly), seeded on the first draw: a split that never draws hashes nothing, and the draws are the same."""

    def __init__(self, poly: Poly):
        self._poly = poly

    def __getattr__(self, name):
        # reached only for what the instance lacks: the rng's methods, and _rng before the first draw
        if "_rng" not in self.__dict__:
            self._rng = _poly_rng(self._poly)
        return getattr(self._rng, name)


def _random_poly(field, degree, rng):
    return Poly(field, [field.random(rng) for _ in range(degree)] + [field.one], trim=False)


def _quotient(modulus: Poly, xq: Poly | None = None):
    """The packed ring F_q[x]/(modulus), q the order of the coefficient field, modulus of degree >= 1.

    It is fields.ExtField with the monic modulus, packed on one level over
    F_p and on two over an extension field.  xq, x^q reduced mod modulus,
    seeds the q-power Frobenius matrix when the caller has it; _unpacked
    turns an element into a Poly.
    """
    f = modulus.field
    return fields.ExtField(f, modulus.monic()[0].c, None if xq is None else xq.c)


def _unpacked(R, a) -> Poly:
    """The Poly of the element a of the quotient ring R."""
    return Poly(R.base, R.coeffs(a))


def _conjugate_product(R, h, e: int, n: int, j: int | None = None):
    """h^(e * (1 + q + ... + q^(n-1))) in the quotient ring R, q = p^j (j = R.base.k by default).

    u -> u^q is R.frobenius_power(., j), so for n > 1 that is N^e with
    N = h h^q ... h^(q^(n-1)): n - 1 Frobenius maps and products.  N^e is
    taken in F_p[N] = F_p[t]/(mu), mu the minimal polynomial of N over F_p.
    The F_p coordinates of each power 1, N, N^2, ... are reduced once
    against the echelon rows of the earlier powers, each row carrying the
    combination of powers it stands for; the first power that reduces to 0
    gives mu.  Then one power t^e modulo mu, and the sum of its
    coefficients times the powers.  When R is a product of fields F_{q^n},
    N lies in the F_q-subalgebra, and deg mu is at most dim_{F_p} R / n.
    For e = (q - 1) / 2 that is h^((q^n - 1) / 2) from a power with a
    q-sized exponent in a ring n times smaller.
    """
    if n == 1:
        return R.pow(h, e)
    j = R.base.k if j is None else j
    b = N = h
    for _ in range(n - 1):
        b = R.frobenius_power(b, j)
        N = R.mul(N, b)
    p, D, basis, pows, u = R.p, R.k, [], [], R.one
    while True:
        # the D F_p coordinates of u = N^i, then e_i: the combination of powers the row stands for
        v = [c for w in R.coeffs(u) for c in R.base.coeffs(w)] + [int(k == len(pows)) for k in range(D + 1)]
        for col, row in basis:
            c = v[col]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        col = next((k for k in range(D) if v[k]), None)
        if col is None:
            break
        inv = pow(v[col], -1, p)
        basis.append((col, [x * inv % p for x in v]))
        pows.append(u)
        u = R.mul(u, N) if len(pows) > 1 else N
    # N^i reduced to 0: sum v[D + k] N^k = 0 with v[D + i] = 1, so v[D:] holds mu, monic
    Q = fields.ExtField(fields.prime_field(p), v[D : D + len(pows) + 1])
    return functools.reduce(R.add, map(R.scalar_mul, pows, Q.coeffs(Q.pow(Q.x, e))))


def _distinct_degree(poly: Poly):
    """([(product of irreducibles of degree d, d)], F_q[x]/(poly) or None) for monic squarefree input.

    x^q mod poly (q the field order) is one power in the quotient ring;
    each further x^(q^d) is the q-power Frobenius matrix of F_q[x]/(poly)
    applied to the last one.  The matrix is built only when a second degree
    is needed, so quadratics and cubics never build it.  h stays reduced
    modulo the input while the cofactor shrinks: the gcd with the cofactor
    is unchanged.  The second value is that quotient ring, whose xq() is
    x^q mod poly, or None when none was built (deg poly <= 1).
    """
    x = Poly.x(poly.field)
    out = []
    R = None
    rest = poly
    d = 0
    while rest.degree > 2 * d + 1:
        d += 1
        if R is None:
            R = _quotient(poly)
            h = R.xq()
        else:
            h = R.frobenius_power(h, poly.field.k)
        g = gcd(_unpacked(R, h) - x, rest)
        if g.degree > 0:
            out.append((g, d))
            rest = rest // g
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out, R


def _equal_degree(poly: Poly, d: int, rng, ring=None) -> list:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d irreducibles.

    h^((q^d - 1) / 2) is N(h)^((q - 1) / 2), N(h) the product of the d
    Frobenius conjugates of h, in one quotient ring per poly; the power
    runs in F_p[N(h)], of F_p-dimension at most 1/d of the quotient
    ring's (_conjugate_product).  ring, a quotient ring modulo poly or a
    multiple of it that the caller holds, is poly's ring when its modulus
    is poly, and otherwise its x^q seeds the Frobenius matrix of poly's
    ring for d > 1; each factor's split is seeded from poly's ring.  A
    product of two linear factors is split by the quadratic formula
    (_linear_pair) and draws nothing.
    """
    f = poly.field
    if poly.degree == d:
        return [poly]
    if poly.degree == 2:
        return _linear_pair(poly)
    R = ring
    if R is None or R.deg != poly.degree:
        R = _quotient(poly, _unpacked(ring, ring.xq()) % poly if d > 1 and ring is not None else None)
    e = (f.order - 1) // 2
    while True:
        h = _random_poly(f, rng.randrange(1, poly.degree), rng)
        g = gcd(h, poly)
        if 0 < g.degree < poly.degree:
            break
        t = _unpacked(R, _conjugate_product(R, R.from_coeffs(h.c), e, d)) - Poly.one(f)
        g = gcd(t, poly)
        if 0 < g.degree < poly.degree:
            break
    return _equal_degree(g, d, rng, R) + _equal_degree(poly // g, d, rng, R)


def _linear_pair(poly: Poly) -> list:
    """The linear factors x - (-b +/- sqrt(b^2 - 4c)) / 2 of a monic x^2 + b x + c with two roots in its field.

    A zero discriminant raises NotSquarefree, and one with no square root
    ContextMismatch: the roots are not in the field.
    """
    f = poly.field
    c, b = poly[0], poly[1]
    disc = f.sub(f.sqr(b), f.mul(f.from_int(4), c))
    if disc == f.zero:
        raise NotSquarefree(f"{poly!r} has a double root")
    r = f.sqrt(disc)
    if r is None:
        raise ContextMismatch(f"{poly!r} has no root in {f!r}")
    half = f.from_int((f.p + 1) // 2)
    return [Poly(f, (f.mul(f.add(b, s), half), f.one), trim=False) for s in (r, f.neg(r))]


def _split_squarefree(poly: Poly, rng):
    """(the monic irreducible factors of a monic squarefree poly, F_q[x]/(poly) or None).

    The factors come in the order of the equal-degree step, unsorted; the
    ring is the one _distinct_degree built, whose xq() is x^q mod poly,
    None when it built none.  It also serves the equal-degree step of each
    distinct-degree part, as the part's own ring when poly is one part, so
    a cubic with three roots builds no second one.
    """
    parts, R = _distinct_degree(poly)
    return [irr for prod, d in parts for irr in _equal_degree(prod, d, rng, R)], R


def factorize(poly: Poly):
    """(leading coefficient, [(monic irreducible, multiplicity)]) sorted canonically."""
    if poly.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    lc = poly.lc
    rng = _LazyRng(poly)
    factors = []
    for part, mult in squarefree_decomposition(poly):
        factors += [(irr, mult) for irr in _split_squarefree(part, rng)[0]]
    factors.sort(key=lambda fm: fm[0].sort_key())
    return lc, factors


def roots(poly: Poly) -> list:
    """Distinct roots of poly in its own field."""
    f = poly.field
    if poly.is_zero:
        raise ZeroPolynomial("roots of the zero polynomial")
    rng = _LazyRng(poly)
    sf = poly.monic()[0]
    g = gcd(sf, sf.derivative())
    if g.degree > 0:
        sf = sf // g
    x = Poly.x(f)
    xq = x.pow_mod(f.order, sf)
    lin = gcd(xq - x, sf)
    if lin.degree == 0:
        return []
    out = [f.neg(h.c[0]) for h in _equal_degree(lin, 1, rng)]
    out.sort(key=f.encode)
    return out


def split_root(poly: Poly, xq: Poly | None, field, ring=None):
    """One root in field of a monic irreducible poly over a subfield F_q, with deg poly | [field : F_q].

    xq is x^q mod poly over F_q, or None to have it computed.  ring, the
    quotient ring F_q[x]/(poly) (from _quotient, or an ExtField over F_p
    with poly as modulus) when the caller already holds one, stands in for
    xq.  As poly has F_q coefficients, x^q mod poly is the same over the
    field, and it seeds the q-power map u -> u^q of the packed ring
    field[x]/(poly), whose matrix applies the field's q-power Frobenius to
    every coefficient.  So h^((|field| - 1) / 2) is N(h)^((q - 1) / 2),
    N(h) the product of the n = [field : F_q] conjugates of h, and the
    power runs in F_p[N(h)], of F_p-dimension at most 1/n of the ring's
    (_conjugate_product).  No distinct-degree step
    runs (poly is known to split), and splitting stops at the first linear
    factor.  A quadratic over F_p in a degree-2 field has a closed form
    with one F_p square root instead.  The other roots are the q-power
    conjugates of the one returned.
    """
    K, F = field, poly.field
    if K.p != F.p or K.k % (F.k * poly.degree):
        raise ContextMismatch(f"a degree-{poly.degree} irreducible over {F!r} does not split in {K!r}")
    if poly.degree == 1:
        return K.neg(fields.embed(poly[0], F, K))
    if K.k == 2 and F.k == 1 and poly.degree == 2:
        return _quadratic_root(poly, K)
    rng = _poly_rng(poly)
    s = F.k
    Fq = ring if ring is not None else _quotient(poly, xq)
    pk = fields.embed_poly(poly, F, K)
    R = fields.ExtField(K, pk.c, [fields.embed(c, F, K) for c in Fq.coeffs(Fq.xq())], s)
    e = (F.order - 1) // 2
    one = Poly.one(K)
    g = pk
    while g.degree > 1:
        h = _random_poly(K, rng.randrange(1, pk.degree), rng)
        r = gcd(_unpacked(R, _conjugate_product(R, R.from_coeffs(h.c), e, K.k // s, s)) - one, g)
        if 0 < r.degree < g.degree:
            g = r if 2 * r.degree <= g.degree else g // r
    return K.neg(g.c[0])


def _quadratic_root(poly: Poly, K):
    """A root of an F_p-irreducible x^2 + b1 x + b0 in K = F_p[y]/(y^2 + a1 y + a0).

    (2y + a1)^2 is the modulus discriminant D, and disc(poly) / D is a
    square in F_p because both discriminants are non-squares.  The roots are
    (-b1 +- (2y + a1) * sqrt(disc(poly) / D)) / 2: one F_p square root.
    """
    F = poly.field
    b0, b1 = poly[0], poly[1]
    a0, a1 = K.modulus[0], K.modulus[1]
    disc = F.sub(F.sqr(b1), F.mul(F.from_int(4), b0))
    D = F.sub(F.sqr(a1), F.mul(F.from_int(4), a0))
    r = F.sqrt(F.div(disc, D))
    if r is None:
        raise ContextMismatch(f"{poly!r} does not split in {K!r}")
    return K.from_coeffs((F.mul(F.sub(F.mul(a1, r), b1), F.inv(F.from_int(2))), r))


def exact_square_root(s: Poly):
    """(alpha, r) with s = alpha * r^2, r monic, or None if s/lc(s) is not a square."""
    if s.is_zero:
        raise ZeroPolynomial("square root of the zero polynomial")
    f = s.field
    alpha = s.lc
    if s.degree % 2:
        return None
    g = s.scale(f.inv(alpha))
    m = s.degree // 2
    half = f.inv(f.from_int(2))
    r = [f.zero] * m + [f.one]
    for j in range(1, m + 1):
        # coefficient of x^(2m-j) in r^2: 2*r_{m-j} + sum over strictly-inner pairs
        acc = f.zero
        for i in range(m - j + 1, m):
            i2 = 2 * m - j - i
            if i2 < i:
                break
            prod = f.mul(r[i], r[i2])
            acc = f.add(acc, prod if i2 == i else f.add(prod, prod))
        r[m - j] = f.mul(f.sub(g[2 * m - j], acc), half)
    rp = Poly(f, r, trim=False)
    if rp * rp == g:
        return alpha, rp
    return None


# --- G(t, x): cubic-in-x with polynomial-in-t coefficients ------------------


class BiPoly:
    """Polynomial in x whose coefficients are Polys in t (ascending in x)."""

    __slots__ = ("field", "cx")

    def __init__(self, field, coeffs_x):
        self.field = field
        self.cx = tuple(coeffs_x)

    @property
    def deg_x(self):
        return len(self.cx) - 1


def reduce_mod_cubic(F: Poly, G: BiPoly):
    """(f0, f1, f2) in F_q[t] with f0 + f1*x + f2*x^2 congruent to F(x) mod G(t,x)."""
    if G.deg_x != 3 or G.cx[3] != Poly.one(G.field):
        raise NotMonicCubic("G must be monic of degree 3 in x")
    f = G.field
    cs = [Poly.const(f, c) for c in F.c]
    for i in range(len(cs) - 1, 2, -1):
        ci = cs[i]
        if not ci.is_zero:
            for j in range(3):
                cs[i - 3 + j] = cs[i - 3 + j] - ci * G.cx[j]
            cs[i] = Poly.zero(f)
    while len(cs) < 3:
        cs.append(Poly.zero(f))
    return cs[0], cs[1], cs[2]


# --- binary forms of fixed degree -------------------------------------------


class BinaryForm:
    """Homogeneous form in (u, v): coeffs[i] multiplies u^i v^(d-i)."""

    __slots__ = ("field", "d", "c")

    def __init__(self, field, d, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != d + 1:
            raise BadDegree(f"a binary form of degree {d} needs {d + 1} coefficients, not {len(coeffs)}")
        self.field = field
        self.d = d
        self.c = coeffs

    @classmethod
    def from_affine(cls, poly: Poly, d: int):
        """Homogenize: v^d * poly(u/v)."""
        if poly.degree > d:
            raise ValueError("affine degree exceeds form degree")
        f = poly.field
        return cls(f, d, [poly[i] for i in range(d + 1)])

    @classmethod
    def from_ints(cls, field, d, ints):
        return cls(field, d, [field.from_int(n) for n in ints])

    def affine(self) -> Poly:
        """poly(x) = form(x, 1)."""
        return Poly(self.field, self.c)

    @property
    def is_zero(self):
        z = self.field.zero
        return all(x == z for x in self.c)

    @property
    def v_multiplicity(self) -> int:
        """Multiplicity of the linear factor v, i.e. d - deg(affine part)."""
        if self.is_zero:
            raise ZeroPolynomial("zero form")
        return self.d - self.affine().degree

    def eval(self, u, v):
        f = self.field
        y = f.zero
        up = f.one
        vps = [f.one]
        for _ in range(self.d):
            vps.append(f.mul(vps[-1], v))
        for i, ci in enumerate(self.c):
            if ci != f.zero:
                y = f.add(y, f.mul(ci, f.mul(up, vps[self.d - i])))
            up = f.mul(up, u)
        return y

    def scale(self, c):
        f = self.field
        return BinaryForm(f, self.d, [f.mul(x, c) for x in self.c])

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.field is other.field
            and self.d == other.d
            and self.c == other.c
        )

    def __hash__(self):
        return hash((id(self.field), self.d, self.c))

    def encode(self):
        f = self.field
        return tuple(f.encode(x) for x in self.c)

    def __repr__(self):
        return f"BinaryForm({self.encode()})"

    def substituted(self, a, b, c, d):
        """The form (u, v) -> self(a*u + b*v, c*u + d*v)."""
        f = self.field
        # powers of the two linear forms, as coefficient lists ascending in u
        lin1 = [b, a]  # a*u + b*v
        lin2 = [d, c]  # c*u + d*v
        pow1 = [[f.one]]
        pow2 = [[f.one]]
        for _ in range(self.d):
            pow1.append(_convolve(f, pow1[-1], lin1))
            pow2.append(_convolve(f, pow2[-1], lin2))
        terms = [(ci, _convolve(f, pow1[i], pow2[self.d - i]), 0) for i, ci in enumerate(self.c) if ci != f.zero]
        return BinaryForm(f, self.d, _lincomb(f, terms, self.d + 1))

    def is_squarefree(self) -> bool:
        if self.is_zero:
            raise ZeroPolynomial("zero form")
        return self.v_multiplicity <= 1 and is_squarefree(self.affine())

    def map_coeffs(self, fn, new_field):
        """fn of every coefficient, read in new_field; fn None keeps the coefficients as they are."""
        return BinaryForm(new_field, self.d, self.c if fn is None else [fn(x) for x in self.c])
