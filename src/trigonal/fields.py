"""Exact arithmetic in prime fields F_p (p > 3) and their extensions.

Elements are plain data, interpreted by a field context that is passed
around with them.  An element of F_p is an int in [0, p).  An element of an
extension of F_p is one int too: its coefficients on the polynomial basis
1, x, ..., x^{k-1} of F_p[x]/(modulus) sit in w-bit slots, constant term in
the lowest, w the bit length of _ACC k (p - 1)^2 (Kronecker substitution;
Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", 2009).  An F_p value is therefore its own image in every
extension.  A tower, an extension of an extension F_{p^m}, is one int on
two levels: each of its coefficients is a packed F_{p^m} element in a
block of 2m - 1 slots.  The slots are wide enough for a sum of _ACC - 1
raw products (the accumulation bound), so polynomial code adds raw int
products and reduces once per output coefficient.  coeffs(a) and
from_coeffs(seq) convert between an element and its coefficients over the
base on every context; code outside this module reads and builds elements
only through them.

One quotient-ring context, ExtField(base, modulus), serves every extension:
F_{p^k} itself, the orbit algebras F_p[x]/(orbit polynomial) of the subgroup
enumeration, and the etale factors over F_{q^j} in which phi takes square
roots.  Its ring operations take any monic modulus, so it is also the ring
F_q[x]/(f) in which polyring takes powers and Frobenius maps modulo a fixed
f, over F_p and over F_{p^m} alike.  A product is one int multiply and one
reduction: its high slots fold back by rows x^(k + j) built once per context.

The F_{p^k} contexts are built by make_extension(p, k) with a modulus chosen
deterministically from (p, k): the lexicographically least monic irreducible
of degree k, i.e. the one minimizing the base-p digit value of its non-leading
coefficients.  Repeated calls return the same cached context, so encodings
(the base-order digit values of the coefficients, whatever the packing) are
reproducible across runs.

Every context exposes the same arithmetic surface (add, sub, neg, mul, inv,
div, pow, sqrt, is_square, encode, decode, coeffs, from_coeffs, ...), so
polynomial code in polyring.py works over any of them.  Contexts are
immutable after creation, apart from lazily filled caches of derived
constants, and safe to share across threads/processes.

Square roots take one route.  Tonelli-Shanks runs over F_p alone, its
constants (the 2-adic split of p - 1 and a generator of the 2-Sylow
subgroup) computed once per prime.  An extension of odd degree takes its
root through its norm N(a) in the base, the product of the conjugates of a
over the base; one of even degree through the norm and trace to its
subfield of index 2 (see ExtField.sqrt).  Roots are canonical, the smaller
encoding of +/- r.  An inverse is N(a)^-1 times the product of the other
conjugates.  nonresidue() is a seeded search on every context.  No output
depends on which non-residue a context holds: the anti-fixed fiber
coordinates nu * u_i * u_j of evaluation.fiber_points do not change when nu
changes by a square factor.  In a quadratic extension, sqrt_of_half roots
an element of the subfield.

embed carries an element of F_{p^k1} into F_{p^k2} (k1 | k2) through the
least root, by encoding, of the F_{p^k1} modulus among one
polyring.split_root and its conjugates; embed_poly does that coefficient by
coefficient for a Poly or BinaryForm.  project inverts embed by one _rref
over F_p, the elimination the chord matrix of trigmaps uses too.  F_p is
slot 0 of every extension and a tower's base block 0 of the tower, so both
embed and project as they are.
"""

from __future__ import annotations

import hashlib
import itertools
import random

from . import polyring
from .errors import BadDegree, ContextMismatch, NonPrime, PrimeTooSmall, TooLarge

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)

# Miller-Rabin with this witness set is deterministic below 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test (deterministic below 3.3e24, else 16 extra seeded rounds)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness(a):
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    for a in _MR_WITNESSES:
        if witness(a):
            return False
    if n >= 3_317_044_064_679_887_385_961_981:
        rng = random.Random(n ^ 0x6D72)
        for _ in range(16):
            if witness(rng.randrange(2, n - 1)):
                return False
    return True


def _seed_int(*parts) -> int:
    h = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(h, "big")


class _FieldOps:
    """Generic derived operations shared by all field contexts."""

    def sqr(self, a):
        return self.mul(a, a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        """a^n, left to right: every multiplication is by a, which costs little when a is small.

        x costs only the squarings in a ring with a _fold: a set bit takes
        _xsquare, x r^2, in place of a square and a product.  A
        _LongTowerField, whose _fold raises, takes the generic path.
        """
        if n < 0:
            a = self.inv(a)
            n = -n
        if not n:
            return self.one
        r, mul = a, self.mul
        xsq = self._xpath and self.deg > 1 and a == self.x
        for bit in bin(n)[3:]:
            if bit == "0":
                r = mul(r, r)
            elif xsq:
                r = self._xsquare(r)
            else:
                r = mul(mul(r, r), a)
        return r

    def _xsquare(self, r):
        """x r^2 in one fold: the raw square shifted up one coefficient (a slot over F_p, a block over F_{p^m}).

        Its top coefficient is reduced in the base and added times its row
        x^(2 deg - 1), and _fold takes the rest.  A slot then sums at most
        2 deg - 1 products, as in a product of two elements.
        """
        hs, row = self._xrows[-1]
        c = r * r << self._cshifts[1]
        return self._fold((c & (1 << hs) - 1) + self.base._fold(c >> hs) * row)

    _nonresidue = None

    def nonresidue(self):
        """A fixed quadratic non-residue: the first nonzero seeded random draw that is not a square."""
        if self._nonresidue is None:
            rng = random.Random(_seed_int("nonresidue", self.p, self.k, self.order))
            c = self.zero
            while c == self.zero or self.is_square(c):
                c = self.random(rng)
            self._nonresidue = c
        return self._nonresidue

    def _canonical(self, r):
        """The canonical square root of r^2: the one of r and -r with the smaller encoding."""
        rn = self.neg(r)
        return r if self.encode(r) <= self.encode(rn) else rn


class PrimeField(_FieldOps):
    """Context for F_p, p > 3 prime.  Elements are ints in [0, p)."""

    k = 1

    def __init__(self, p: int):
        if p <= 3:
            raise PrimeTooSmall(f"p = {p} (need p > 3)")
        if not is_prime(p):
            raise NonPrime(f"{p} is not prime")
        self.p = p
        self.order = p
        self.zero = 0
        self.one = 1
        self._fold = p.__rmod__  # c -> c % p, without a Python frame per call

    def __repr__(self):
        return f"GF({self.p})"

    def add(self, a, b):
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def neg(self, a):
        return self.p - a if a else 0

    def mul(self, a, b):
        return a * b % self.p

    # Python ints do not overflow: polyring sums any number of raw products
    _lazy = 1 << 62

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a, n):
        return pow(a, n, self.p)

    def from_int(self, n: int):
        return n % self.p

    def coeffs(self, a) -> tuple:
        return (a,)

    def from_coeffs(self, seq):
        if len(seq) > 1:
            raise ContextMismatch(f"{len(seq)} coefficients for {self!r}")
        return seq[0] % self.p if seq else 0

    def encode(self, a) -> int:
        return a

    def decode(self, n: int):
        if not 0 <= n < self.p:
            raise ValueError("encoding out of range")
        return n

    def elements(self):
        return range(self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def is_square(self, a) -> bool:
        if a == 0:
            return True
        return pow(a, (self.p - 1) // 2, self.p) == 1

    _sqrt_constants = None

    def sqrt(self, a):
        """Canonical square root (smaller encoding), or None for a non-residue: Tonelli-Shanks.

        The split p - 1 = m 2^e and c = nu^m, nu the non-residue, a
        generator of the 2-Sylow subgroup, are computed once per prime.
        """
        if a == 0:
            return 0
        p = self.p
        if self._sqrt_constants is None:
            m, e = p - 1, 0
            while m % 2 == 0:
                m //= 2
                e += 1
            self._sqrt_constants = (m, e, pow(self.nonresidue(), m, p) if e > 1 else None)
        m, e, c = self._sqrt_constants
        if e == 1:
            r = pow(a, (p + 1) // 4, p)
        else:
            # r = a^((m + 1) / 2) and t = a^m = r^2 / a without an inverse
            w = pow(a, (m - 1) // 2, p)
            r = w * a % p
            t = w * r % p
            while t != 1:
                i, t2 = 0, t
                while t2 != 1:
                    t2 = t2 * t2 % p
                    i += 1
                if i >= e:
                    return None
                b = pow(c, 1 << (e - i - 1), p)
                r = r * b % p
                c = b * b % p
                t = t * c % p
                e = i
        return self._canonical(r) if r * r % p == a else None

    def frobenius_power(self, a, j):
        return a


def _irreducible_mod_p(f, p) -> bool:
    """Ben-Or's test for monic f over F_p: gcd(x^(p^i) - x, f) = 1 for every i <= deg f / 2.

    x^(p^i) is x^p, then one Frobenius map per i, in the packed ring
    F_p[x]/(f), and the first i with a common factor rejects f.
    """
    F = prime_field(p)
    R = ExtField(F, f)
    fp, x = polyring.Poly(F, f), polyring.Poly.x(F)
    for i in range(1, (len(f) - 1) // 2 + 1):
        h = R.xq() if i == 1 else R.frobenius_power(h, 1)
        if polyring.gcd(fp, polyring.Poly(F, R.coeffs(h)) - x).degree:
            return False
    return True


_layout_cache: dict[tuple[int, int], tuple] = {}

# The accumulation bound: a slot of a packed F_{p^k} element is wide enough
# for the sum of _ACC products of two of its elements (k products of two
# coefficients each), the fold of one more product included.
_ACC = 16


def _slot_layout(p: int, k: int) -> tuple:
    """The k-slot packing over F_p, computed once and shared by every context of that size.

    (top bit, slot mask, slot shifts, packed ones, packed p, packed
    2^(w-1) - p) for w the bit length of _ACC k (p - 1)^2.
    """
    lay = _layout_cache.get((p, k))
    if lay is None:
        w = (_ACC * k * (p - 1) ** 2).bit_length()
        mask = (1 << w) - 1
        ones = ((1 << (k * w)) - 1) // mask
        lay = _layout_cache[(p, k)] = (w - 1, mask, tuple(range(0, k * w, w)), ones, p * ones, ((1 << (w - 1)) - p) * ones)
    return lay


class ExtField(_FieldOps):
    """Context for the quotient ring base[x]/(modulus), modulus monic over the base context.

    The ring operations (add, sub, neg, mul, pow, scalar_mul, xq,
    frobenius_power(., j) for j < k, coeffs, encode) take any monic
    modulus, so this is also the ring in which polyring runs its products
    and Frobenius maps modulo a fixed polynomial, over F_p and over
    F_{p^m} alike.  Only inv, norm, is_square and sqrt, and
    frobenius_power(., j) for j >= k, need the modulus irreducible, the
    ring a field.

    Every element is one int.  Over F_p (base.k == 1) coefficient i of the
    polynomial basis sits in bits [i w, (i + 1) w), with w the bit length
    of _ACC k (p - 1)^2 and every slot in [0, p) (Kronecker substitution).
    add, sub and neg are SWAR operations on all slots at once: add
    2^(w-1) - p to every slot, read each slot's top bit, subtract p where
    it is set.  mul is one int product; each high slot c_(k+j) adds
    (c_(k+j) mod p) times its row, x^(k+j) mod modulus packed and built
    once, to the low slots, and one pass reduces every slot mod p.  The slot
    width keeps every slot of a product below 2k p^2, and of a sum of up to
    _ACC - 1 products and its rows below 2^w, so no slot carries into the
    next: polyring adds raw products and folds once per output (_lazy, _fold).
    frobenius_power, scalar_mul, embed and project work on packed ints too.

    Over an extension base the context is a _TowerField, packed on two
    levels: see there.

    coeffs(a) and from_coeffs(seq) convert between an element and its
    coefficient sequence over the base, constant term first; encode(a) is
    the base-order digit value of those coefficients, so encodings do not
    depend on the packing.

    x is the class of x, whose powers take squarings alone (pow); xq() is
    x^q, q the base order, computed once or seeded by the constructor's xq
    (an ascending coefficient sequence), and
    x^(p^j) for another j when the constructor names that j.  The
    Frobenius matrices of a -> a^(p^j) are built from it.

    N(a) is a times the product of its other conjugates a^(q^j), 0 < j < deg,
    q the base order: deg - 1 Frobenius maps.  inv divides that product by
    N(a), an element of the base, on every context.  is_square is Euler's
    criterion on the norm.  sqrt takes an odd degree's root through the
    norm, a^((T + 1) / 2) / sqrt(N(a)), and an even degree's through the
    subfield of index 2, from the square roots of the norm and trace to it
    (see sqrt), so every root comes down to Tonelli-Shanks over F_p.  A
    tower of even degree above 2 takes no root: its index-2 subfield
    embeds only through a ring over the tower, which is never built, so
    its sqrt raises ContextMismatch while is_square still answers.
    """

    def __new__(cls, base, modulus, xq=None, j=None):
        # over an extension base the arithmetic is _TowerField's (past the
        # accumulation bound _LongTowerField's), held on the class so that
        # a context is not a reference cycle
        if base.k > 1:
            cls = _LongTowerField if 2 * (len(modulus) - 1) > _ACC else _TowerField
        return super().__new__(cls)

    def __init__(self, base, modulus, xq=None, j=None):
        if modulus[-1] != base.one:
            raise ContextMismatch("the modulus of an extension must be monic")
        self.base = base
        self.p = base.p
        self.deg = len(modulus) - 1
        self.k = base.k * self.deg
        self.modulus = tuple(modulus)
        self.order = base.order**self.deg
        self.zero = 0
        self.one = 1
        self._init_elements()
        negmod = self.from_coeffs([base.neg(c) for c in self.modulus[:-1]])
        self.x = 1 << self._cshifts[1] if self.deg > 1 else negmod
        # the fold rows x^(deg + j) mod modulus, j < deg, by shift-and-fold: x times the row before
        rows, cs, w = [negmod], self._cshifts, self._cmask.bit_length()
        for _ in range(1, self.deg):
            r = rows[-1]
            rows.append(self.add((r & (1 << cs[-1]) - 1) << w, self.scalar_mul(negmod, r >> cs[-1])))
        # (where high coefficient deg + j of a product sits, row j); a product times x has one more
        self._xrows = tuple(((self.deg + j) * w, r) for j, r in enumerate(rows))
        self._rows, self._low = self._xrows[:-1], (1 << self.deg * w) - 1
        self._frob = {}
        self._xfrob = {} if xq is None else {j or base.k: self.from_coeffs(xq)}
        # set here, not on first use: an attribute added later can cost a context CPython's shared layout
        self._half_antifixed = self._nonresidue = self._pair_tables = None

    _lazy = _ACC - 1
    _xpath = True  # pow folds x's squarings by _xrows

    def _init_elements(self):
        """The slot layout and the packed constants of the SWAR arithmetic."""
        self._top, self._mask, self._shifts, self._ones, self._pp, self._half = _slot_layout(self.p, self.k)
        # a coefficient is one slot; a reduction may take _span columns of
        # a linear map (_ACC k products per slot, one left for the partial sum)
        self._cshifts, self._cmask = self._shifts, self._mask
        self._span = _ACC * self.k - 1

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    # -- coefficients, encodings ---------------------------------------------

    def coeffs(self, a) -> tuple:
        """The deg coefficients of a over the base, constant term first."""
        m = self._cmask
        return tuple((a >> s) & m for s in self._cshifts)

    def from_coeffs(self, seq):
        """The element with the given coefficients (at most deg, constant term first)."""
        if len(seq) > self.deg:
            raise ContextMismatch(f"{len(seq)} coefficients for {self!r}")
        p = self.p
        a = 0
        for c, s in zip(seq, self._shifts):
            a |= (c % p) << s
        return a

    def from_int(self, n: int):
        return n % self.p

    def encode(self, a) -> int:
        p, m = self.p, self._mask
        n = 0
        for s in reversed(self._shifts):
            n = n * p + ((a >> s) & m)
        return n

    def decode(self, n: int):
        if not 0 <= n < self.order:
            raise ValueError("encoding out of range")
        p = self.p
        a = 0
        for s in self._shifts:
            n, r = divmod(n, p)
            a |= r << s
        return a

    def elements(self):
        return (self.decode(i) for i in range(self.order))

    def random(self, rng):
        B = self.base
        return self.from_coeffs([B.random(rng) for _ in range(self.deg)])

    # -- norm and square roots ------------------------------------------------

    def norm(self, a):
        """N(a), the product of the conjugates of a, in the base: a times _conjugate_product(a)."""
        return self.mul(a, self._conjugate_product(a))

    def _conjugate_product(self, a):
        """prod_{0 < j < deg} a^(q^j), q the base order, by deg - 1 Frobenius maps."""
        c, prod, m = a, self.one, self.base.k
        for _ in range(1, self.deg):
            c = self.frobenius_power(c, m)
            prod = c if prod == self.one else self.mul(prod, c)
        return prod

    def is_square(self, a) -> bool:
        """Euler's criterion on the norm; zero counts as a square by convention."""
        return a == self.zero or self.base.is_square(self.norm(a))

    def sqrt(self, a):
        """Canonical square root, or None: through the norm at odd degree, the index-2 subfield at even.

        Odd degree d: a^T = N(a) with T = (Q^d - 1) / (Q - 1) odd, Q the
        base order, so a^((T + 1) / 2) squares to a N(a); a is a square iff
        N(a) is one in the base.  Even degree, half the base at degree 2 and
        make_extension(p, k / 2) above it, sigma the |half|-power map: a root
        r has r sigma(r) = s, s^2 = N(a) = a sigma(a), and (r + sigma(r))^2 =
        Tr(a) + 2s, so r = (a + s) / sqrt(Tr(a) + 2s) for the one sign of s
        that makes Tr(a) + 2s a nonzero square.  No root of N(a): a is no
        square here.  No such sign: Tr(r) = 0 and a is a non-square of half
        (sqrt_of_half_nonsquare).
        """
        if a == self.zero:
            return a
        B = self.base
        if self.deg % 2:
            n = B.sqrt(self.norm(a))
            if n is None:
                return None
            # a^((T + 1) / 2) = a (c c^(Q^2) ... c^(Q^(d - 3)))^Q with c = a^((Q + 1) / 2)
            c = prod = self.pow(a, (B.order + 1) // 2) if self.deg > 1 else self.one
            for _ in range(self.deg // 2 - 1):
                c = self.frobenius_power(c, 2 * B.k)
                prod = self.mul(prod, c)
            r = self.mul(a, self.frobenius_power(prod, B.k))
            return self._canonical(self.scalar_mul(r, B.inv(n)))
        half = B if self.deg == 2 else make_extension(self.p, self.k // 2)
        sa = self.frobenius_power(a, half.k)
        n = half.sqrt(project(self.mul(a, sa), self, half))
        if n is None:
            return None
        tr = project(self.add(a, sa), self, half)
        for s in (n, half.neg(n)):
            u = half.add(tr, half.add(s, s))
            tau = None if u == half.zero else half.sqrt(u)
            if tau is not None:
                return self._canonical(self.mul(self.add(a, embed(s, half, self)), embed(half.inv(tau), half, self)))
        return self._canonical(self.sqrt_of_half_nonsquare(half.div(tr, half.from_int(2)), half))

    def sqrt_of_half(self, v, half):
        """A square root here of v in half, the subfield of index 2 (not the canonical root).

        Every element of half is a square here: a square of half keeps its
        root from half, and a non-square goes to sqrt_of_half_nonsquare.
        """
        if 2 * half.k != self.k:
            raise ContextMismatch(f"{half!r} is not of index 2 in {self!r}")
        r = half.sqrt(v)
        return self.sqrt_of_half_nonsquare(v, half) if r is None else embed(r, half, self)

    def sqrt_of_half_nonsquare(self, v, half):
        """sqrt_of_half for a v already known to be a non-square of half.

        d = x - sigma(x), sigma the |half|-power map, is negated by sigma, so d^2 is a
        non-square of half and d sqrt(v / d^2) a root of v.  d and 1 / d^2 are kept here.
        """
        if 2 * half.k != self.k:
            raise ContextMismatch(f"{half!r} is not of index 2 in {self!r}")
        if self._half_antifixed is None or self._half_antifixed[0] is not half:
            d = self.sub(self.x, self.frobenius_power(self.x, half.k))
            self._half_antifixed = (half, d, half.inv(project(self.sqr(d), self, half)))
        _, d, d2inv = self._half_antifixed
        return self.mul(embed(half.sqrt(half.mul(v, d2inv)), half, self), d)

    # -- packed arithmetic ----------------------------------------------------

    def _reduce(self, c):
        """The element whose slots are those of c mod p (c has no slot outside the element's, each below 2^w)."""
        p, m = self.p, self._mask
        r = 0
        for s in self._shifts:
            r |= ((c >> s) & m) % p << s
        return r

    def add(self, a, b):
        s = a + b
        return s - self.p * ((s + self._half) >> self._top & self._ones)

    def sub(self, a, b):
        s = a + self._pp - b
        return s - self.p * ((s + self._half) >> self._top & self._ones)

    def neg(self, a):
        s = self._pp - a
        return s - self.p * ((s + self._half) >> self._top & self._ones)

    def mul(self, a, b):
        c = a * b
        p, m = self.p, self._mask
        # _fold, inlined on the hottest path
        lo = c & self._low
        for hs, row in self._rows:
            lo += ((c >> hs) & m) % p * row
        r = 0
        for s in self._shifts:
            r |= ((lo >> s) & m) % p << s
        return r

    def _fold(self, c):
        """The element of c, a sum of raw products (at most _lazy of them, plus an element)."""
        p, m = self.p, self._mask
        lo = c & self._low
        for hs, row in self._rows:
            lo += ((c >> hs) & m) % p * row
        r = 0
        for s in self._shifts:
            r |= ((lo >> s) & m) % p << s
        return r

    def scalar_mul(self, a, c):
        """a times the base element c."""
        return self._reduce(a * c)

    def inv(self, a):
        """a^-1 = N(a)^-1 * prod_{0 < j < deg} a^(q^j): deg - 1 Frobenius maps and one inverse in the base.

        N(a) is a base element, which sits in the lowest coefficient alone;
        anything else means the modulus is not irreducible.
        """
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        prod = self._conjugate_product(a)
        n = self.mul(a, prod)
        if not 0 < n <= self._cmask:
            raise ZeroDivisionError("element not invertible (modulus not irreducible?)")
        return self.scalar_mul(prod, self.base.inv(n))

    # -- Frobenius maps ---------------------------------------------------------

    def xq(self):
        """x^q mod modulus, q the base order, packed, computed once."""
        return self._x_frobenius(self.base.k)

    def _x_frobenius(self, j: int):
        """x^(p^j) mod modulus, packed (cached): from the seed, the q-power matrix, or a power."""
        xj = self._xfrob.get(j)
        if xj is None:
            m = self.base.k
            if j == m:
                xj = self.pow(self.x, self.base.order)
            elif j % m == 0:
                xj = self._apply(self._frobenius_matrix(m), self._x_frobenius(j - m))
            else:
                xj = self.pow(self.x, self.p**j)
            self._xfrob[j] = xj
        return xj

    def _frobenius_matrix(self, j: int):
        """Packed columns of a -> a^(p^j), a linear map over F_p, for 0 < j < k (cached).

        One column per slot of the packing, in the order of _shifts: the
        image (y^t x^i)^(p^j) = sigma(y^t) (x^(p^j))^i of the basis element
        in coefficient i, base slot t, with sigma the p^j-power map of the
        base (over F_p the columns are just the x^(i p^j)).
        """
        mat = self._frob.get(j)
        if mat is None:
            xpj = self._x_frobenius(j)
            pows = [self.one]
            for _ in range(1, self.deg):
                pows.append(self.mul(pows[-1], xpj))
            B = self.base
            mat = pows
            if B.k > 1:
                # no comprehension: it would make self a cell on every call
                ys = []
                for t in range(B.k):
                    ys.append(B.frobenius_power(B.from_coeffs((0,) * t + (1,)), j))
                mat = []
                for xi in pows:
                    for y in ys:
                        mat.append(self.scalar_mul(xi, y))
            mat = self._frob[j] = tuple(mat)
        return mat

    def _apply(self, mat, a):
        """The linear map with packed columns mat, applied to a: one slot reduction per _span columns."""
        m, step = self._mask, self._span
        out = 0
        if len(mat) <= step:
            for s, col in zip(self._shifts, mat):
                ai = (a >> s) & m
                if ai:
                    out += ai * col
            return self._reduce(out)
        # a tower of degree above _ACC has more columns than a slot may sum
        for lo in range(0, len(mat), step):
            for s, col in zip(self._shifts[lo : lo + step], mat[lo : lo + step]):
                ai = (a >> s) & m
                if ai:
                    out += ai * col
            out = self._reduce(out)
        return out

    def frobenius_power(self, a, j: int):
        """a^(p^j); j is taken mod k, which presumes a field: a ring that is not one takes j < k."""
        j %= self.k
        if j == 0:
            return a
        return self._apply(self._frobenius_matrix(j), a)


class _TowerField(ExtField):
    """ExtField over a packed extension base B = F_{p^m}: two-level packing, one int per element.

    Coefficient i, a packed B element, sits in block i, and the blocks are
    2m - 1 base slots apart, so the product of two coefficients stays
    inside its block and a product of two elements is one int multiply.
    _fold reduces it: each high block j is reduced as a B product (B's
    rows, then every slot mod p) and added times row j to the low blocks,
    which are reduced last as B products too.  The
    slots have B's width: a slot of a product takes at most 2 deg m
    products of two coefficients, within the accumulation bound _ACC m
    while 2 deg <= _ACC, and that leaves room for one element added to
    the product: Poly arithmetic folds after every raw product (_lazy).  A
    longer modulus makes a _LongTowerField.  The SWAR add, sub and neg, the
    Frobenius maps and the encodings run on the used slots as over F_p; a
    Frobenius column is the image of one slot's basis element, so the
    p^j-power map of B acts on every block through the matrix.  norm and
    inv are ExtField's, through the product of the conjugates over B; a
    caller that already holds x^q mod the modulus (evaluation.fiber_points
    does, from splitting the fiber cubic) seeds the q-power matrix with it.
    """

    _lazy = 1

    def _init_elements(self):
        B = self.base
        if B.base.k != 1:
            raise ContextMismatch(f"{B!r} is a tower: no tower is built over one")
        d = self.deg
        self._top, self._mask = B._top, B._mask
        stride = (2 * B.k - 1) * (B._top + 1)
        self._cshifts = tuple(range(0, d * stride, stride))
        self._cmask = (1 << stride) - 1
        self._shifts = tuple(i + t for i in self._cshifts for t in B._shifts)
        self._ones = sum(B._ones << s for s in self._cshifts)
        self._pp, self._half = self.p * self._ones, B._half // B._ones * self._ones
        self._span = _ACC * B.k - 1

    def from_coeffs(self, seq):
        """The element with the given base elements as coefficients (at most deg, constant term first)."""
        if len(seq) > self.deg:
            raise ContextMismatch(f"{len(seq)} coefficients for {self!r}")
        a = 0
        for c, s in zip(seq, self._cshifts):
            a |= c << s
        return a

    def mul(self, a, b):
        return self._fold(a * b)

    def _fold(self, c):
        """The element of c, one raw product of two elements plus an element (or plus a row times a base element)."""
        B = self.base
        p, m, blk, blow, brows, bshifts = self.p, self._mask, self._cmask, B._low, B._rows, B._shifts
        lo = c & self._low
        for hs, row in self._rows:
            v = (c >> hs) & blk
            u = v & blow
            for h, brow in brows:
                u += ((v >> h) & m) % p * brow
            e = 0
            for s in bshifts:
                e |= ((u >> s) & m) % p << s
            if e:
                lo += e * row
        r = 0
        for cs in self._cshifts:
            v = (lo >> cs) & blk
            u = v & blow
            for h, brow in brows:
                u += ((v >> h) & m) % p * brow
            for s in bshifts:
                r |= ((u >> s) & m) % p << (cs + s)
        return r

    def scalar_mul(self, a, c):
        """a times the base element c: every block a B product, folded in B."""
        fold, blk = self.base._fold, self._cmask
        r = 0
        for s in self._cshifts:
            r |= fold(((a >> s) & blk) * c) << s
        return r


class _LongTowerField(_TowerField):
    """A _TowerField whose modulus is past the accumulation bound, 2 deg > _ACC.

    The high blocks of a raw product would overflow a slot as they fold
    back, so mul multiplies as Polys over B, and there is no _fold: Poly
    arithmetic over such a tower raises ContextMismatch, and pow takes x
    by the generic path.
    """

    _xpath = False

    def mul(self, a, b):
        P, B = polyring.Poly, self.base
        return self.from_coeffs((P(B, self.coeffs(a)) * P(B, self.coeffs(b)) % P(B, self.modulus)).c)

    def _fold(self, c):
        raise ContextMismatch(f"a raw product of two elements of {self!r} overflows its slots")


# --- context construction and caching -------------------------------------

_prime_cache: dict[int, PrimeField] = {}
_ext_cache: dict[tuple[int, int], ExtField] = {}


def prime_field(p: int) -> PrimeField:
    f = _prime_cache.get(p)
    if f is None:
        f = PrimeField(p)
        _prime_cache[p] = f
    return f


def _prime_divisors(k: int):
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def _binomial_block_nonempty(p: int, k: int) -> bool:
    """Whether any binomial x^k + c can be irreducible over F_p.

    x^k - a is irreducible iff a is not an r-th power for every prime r | k
    and (when 4 | k) a is outside -4 F^4.  If some r does not divide p - 1
    the r-th power map is onto, and if 4 | k with p = 3 mod 4 then fourth
    powers coincide with squares and -4 F^4 is exactly the non-squares; in
    both cases no binomial qualifies and the whole block can be skipped.
    """
    for r in _prime_divisors(k):
        if (p - 1) % r:
            return False
    if k % 4 == 0 and p % 4 == 3:
        return False
    return True


def _binomial_filter(p: int, k: int, c: int) -> bool:
    """Cheap necessary condition for x^k + c irreducible: -c avoids r-th powers."""
    a = (-c) % p
    for r in _prime_divisors(k):
        if pow(a, (p - 1) // r, p) == 1:
            return False
    return True


# The candidates _lex_min_irreducible tries before it gives up with TooLarge
# (_search_cap).  About one monic polynomial of degree k in k is
# irreducible, but a whole row x^k + a x + b (a fixed, b over F_p) can be
# reducible: no x^22 + x + b is irreducible at p = 2437.  Every p < 2^16 at
# every k <= 24 ends within 4430 candidates (p = 67, k = 24, where no
# x^24 + a x + b is irreducible; above 10^4 within 326); the tests reach
# at most 142 (p = 5, k = 24) and the workloads 7.  For p < _ROW_PRIME
# the cap adds 2p, the binomial block and one full row; a candidate's
# power test there takes under a millisecond at k <= 24, so even a fault
# ends in about a minute.  Above _ROW_PRIME a row costs too much to
# promise, and a (p, k) that needs more than _SEARCH_CAP candidates (none
# is known) gets TooLarge; under a fault in the irreducibility test the
# 160-bit search ends in under a second.
_SEARCH_CAP = 8192
_ROW_PRIME = 2**16


def _search_cap(p: int) -> int:
    return _SEARCH_CAP + 2 * p if p < _ROW_PRIME else _SEARCH_CAP


def _candidates(p: int, k: int):
    """Monic degree-k polynomials over F_p by the base-p digit value of their low coefficients.

    The binomial block (the first p) yields None for a binomial its power
    test rules out, and nothing when provably empty, so the search stays
    fast at cryptographic-size p.
    """
    if _binomial_block_nonempty(p, k):
        for c in range(1, p):
            yield [c] + [0] * (k - 1) + [1] if _binomial_filter(p, k, c) else None
    for enc in range(p, p**k):
        coeffs, n = [], enc
        for _ in range(k):
            n, r = divmod(n, p)
            coeffs.append(r)
        yield coeffs + [1]


def _lex_min_irreducible(p: int, k: int):
    """Lexicographically least monic irreducible of degree k over F_p.

    Candidates x^k + c_{k-1}x^{k-1} + ... + c_0 are ordered by the integer
    sum(c_i p^i); the first irreducible wins.  TooLarge past _search_cap(p)
    candidates.
    """
    if k == 1:
        return (0, 1)
    cap = _search_cap(p)
    for f in itertools.islice(_candidates(p, k), cap):
        if f is not None and _irreducible_mod_p(f, p):
            return tuple(f)
    raise TooLarge(f"no irreducible of degree {k} over GF({p}) among the first {cap} candidates")


def make_extension(p: int, k: int):
    """Context for F_{p^k} with the deterministic modulus; F_p itself for k=1.

    The modulus search is capped (_search_cap): it is checked to finish for
    every p < 2^16 and every k, and there it covers the binomials and a full
    row of trinomials as well.  Above 2^16 a (p, k) that needs more than
    _SEARCH_CAP candidates, none known, raises TooLarge.
    """
    if not isinstance(k, int) or not 1 <= k <= 24:
        raise BadDegree(f"extension degree {k} outside 1..24")
    if k == 1:
        return prime_field(p)
    ctx = _ext_cache.get((p, k))
    if ctx is None:
        base = prime_field(p)
        ctx = ExtField(base, _lex_min_irreducible(p, k))
        _ext_cache[(p, k)] = ctx
    return ctx


# --- embeddings between the deterministic contexts -------------------------

_embed_cache: dict[tuple[int, int, int], tuple] = {}


def _pair_cache(cache, tag, a, b):
    """Where a table of the pair (a, b) is kept: cache for two make_extension contexts, else the
    other context's own tables under tag, which die with it (an orbit algebra is made per curve)."""
    for c in (b, a):
        if c.k > 1 and _ext_cache.get((c.p, c.k)) is not c:
            if c._pair_tables is None:
                c._pair_tables = {}
            return c._pair_tables.setdefault(tag, {})
    return cache


def _root_powers(src: ExtField, dst: ExtField):
    """Powers of the canonical root of src.modulus inside dst (cached, see _pair_cache).

    The canonical root is the least by encoding among one split_root and
    its Frobenius conjugates.
    """
    key = (src.p, src.modulus, dst.k, dst.modulus)
    tab = _embed_cache.get(key)
    if tab is None:
        cache = _pair_cache(_embed_cache, "embed", src, dst)
        tab = cache.get(key)
    if tab is None:
        F = src.base
        mod = polyring.Poly(F, src.modulus)
        r = polyring.split_root(mod, None, dst)
        root = min((dst.frobenius_power(r, i) for i in range(src.k)), key=dst.encode)
        powers = [dst.one]
        for _ in range(src.k - 1):
            powers.append(dst.mul(powers[-1], root))
        tab = cache[key] = tuple(powers)
    return tab


def embed(a, src, dst):
    """Carry a from the (p, k1) context into the (p, k2) context, k1 | k2.

    An F_p value is its own image (it sits in slot 0), and so is an element
    of a tower's own base (it sits in block 0); otherwise the coefficients
    weight the packed powers of the canonical root and one slot reduction
    follows.
    """
    if src is dst:
        return a
    if src.p != dst.p:
        raise ContextMismatch("different characteristics")
    if src.k == 1:
        return a
    if dst.k % src.k != 0:
        raise ContextMismatch(f"{src!r} does not embed in {dst!r}")
    if dst.base is src:
        return a
    acc = 0
    for c, w in zip(src.coeffs(a), _root_powers(src, dst)):
        if c:
            acc += c * w
    return dst._reduce(acc)


def embed_poly(poly, src, dst):
    """Carry a Poly or BinaryForm over src coefficient by coefficient into dst.

    From F_p the coefficient tuple is kept as it is.
    """
    if src is dst:
        return poly
    if src.k == 1:
        if src.p != dst.p:
            raise ContextMismatch("different characteristics")
        return poly.map_coeffs(None, dst)
    return poly.map_coeffs(lambda c: embed(c, src, dst), dst)


def _rref(rows, field):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] != field.zero:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != field.zero:
                c = rows[i][col]
                rows[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


_project_cache: dict[tuple, tuple] = {}


def project(a, big, small):
    """The small-field preimage of a under embed(., small, big), or None.

    The prime subfield is slot 0 alone, and a tower's base block 0 alone.
    Otherwise solves the linear system over F_p expressing a on the embedded
    power basis of the small field: _rref of the basis columns beside an
    identity block leaves a left inverse in the first rows (cached, see
    _pair_cache).
    """
    if big is small:
        return a
    if small.k == 1:
        return a if a < big.p else None
    if small.p != big.p or big.k % small.k:
        raise ContextMismatch(f"{small!r} does not embed in {big!r}")
    if big.base is small:
        return a if a <= big._cmask else None
    key = (small.p, small.modulus, big.k, big.modulus)
    solver = _project_cache.get(key)
    if solver is None:
        cache = _pair_cache(_project_cache, "project", small, big)
        solver = cache.get(key)
    p = big.p
    if solver is None:
        cols = [big.coeffs(w) for w in _root_powers(small, big)]
        # columns: embedded basis vectors, then the identity; rows: big-field coordinates
        aug = [[col[i] for col in cols] + [int(i == j) for j in range(big.k)] for i in range(big.k)]
        rows, pivots = _rref(aug, prime_field(p))
        if pivots[: small.k] != list(range(small.k)):
            raise ContextMismatch(f"the embedded basis of {small!r} is rank-deficient in {big!r}")
        solver = cache[key] = tuple(tuple(row[small.k :]) for row in rows[: small.k])
    ac = big.coeffs(a)
    cand = small.from_coeffs([sum(x * y for x, y in zip(row, ac)) for row in solver])
    if embed(cand, small, big) != a:
        return None
    return cand
