"""Exact arithmetic in prime fields F_p (p > 3) and their extensions.

Elements are plain data, interpreted by a field context that is passed
around with them.  An element of F_p is an int in [0, p).  An element of an
extension of F_p is one int too: its coefficients on the polynomial basis
1, x, ..., x^{k-1} of F_p[x]/(modulus) sit in w-bit slots, constant term in
the lowest, w = 2 bits(p) + bits(2k) + 1 (Kronecker substitution; Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution",
2009).  An F_p value is therefore its own image in every extension.  Only a
tower, an extension of an extension, keeps a tuple of base elements.
coeffs(a) and from_coeffs(seq) convert between an element and its
coefficients over the base on every context; code outside this module
reads and builds elements only through them.

One quotient-ring context, ExtField(base, modulus), serves every extension:
F_{p^k} itself, the orbit algebras F_p[x]/(orbit polynomial) of the subgroup
enumeration, and the etale factors over F_{q^j} in which phi takes square
roots.  Its ring operations take any monic modulus, so it is also the ring
F_p[x]/(f) in which polyring takes powers and Frobenius maps modulo a fixed
f.  Over F_p it runs on packed ints, a product being one int multiply and
one slot reduction; over an extension base it goes through the base
context's operations.

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

Square roots are Tonelli-Shanks with its constants (the 2-adic split of
order - 1 and a generator of the 2-Sylow subgroup) computed once per context.
On an extension, Euler's criterion runs on the norm N(a) = Res(modulus, a)
in the base, so a non-square never reaches Tonelli-Shanks, and an odd-degree
extension takes its roots from the norm instead (see ExtField).
nonresidue() of a prime field is a seeded search; an ExtField reads its
non-residue off the base instead.  No output depends on which non-residue a
context holds: square roots are canonical, and the anti-fixed fiber
coordinates nu * u_i * u_j of evaluation.fiber_points do not change when nu
changes by a square factor.  sqrt_of_half gives a square root in a quadratic
extension of an element of the subfield from square roots in the subfield.

embed carries an element of F_{p^k1} into F_{p^k2} (k1 | k2) through the
least root, by encoding, of the F_{p^k1} modulus among one
polyring.split_root and its conjugates; embed_poly does that coefficient by
coefficient for a Poly or BinaryForm.  project inverts embed by one _rref
over F_p, the elimination the chord matrix of trigmaps uses too.
"""

from __future__ import annotations

import hashlib
import random

from . import polyring
from .errors import BadDegree, ContextMismatch, NonPrime, PrimeTooSmall

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
        """a^n, left to right: every multiplication is by a, which costs little when a is small (x, say)."""
        if n < 0:
            a = self.inv(a)
            n = -n
        if not n:
            return self.one
        r = a
        for bit in bin(n)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    _nonresidue = None
    _sqrt_constants = None

    def nonresidue(self):
        """A fixed quadratic non-residue (deterministic per context)."""
        if self._nonresidue is None:
            self._nonresidue = self._find_nonresidue()
        return self._nonresidue

    def _find_nonresidue(self):
        """The first nonzero seeded random draw that is not a square."""
        rng = random.Random(_seed_int("nonresidue", self.p, self.k, self.order))
        while True:
            c = self.random(rng)
            if c != self.zero and not self.is_square(c):
                return c

    def _two_sylow_generator(self, m: int):
        """nonresidue^m for the odd part m of order - 1: it has order 2^e."""
        return self.pow(self.nonresidue(), m)

    def sqrt(self, a):
        """Canonical square root (smaller encoding), or None for a non-residue."""
        if a == self.zero:
            return self.zero
        return self._tonelli_shanks(a)

    def _sqrt_of_square(self, a, n=None):
        """The canonical root of a, known to be a nonzero square (n, its norm, is unused here)."""
        return self._tonelli_shanks(a)

    def _tonelli_shanks(self, a):
        """Tonelli-Shanks for nonzero a, canonical root or None.

        Works over any context here since the order is an odd prime power.
        The split order - 1 = m 2^e and the generator c of the 2-Sylow
        subgroup are computed once per context.
        """
        if self._sqrt_constants is None:
            m, e = self.order - 1, 0
            while m % 2 == 0:
                m //= 2
                e += 1
            self._sqrt_constants = (m, e, self._two_sylow_generator(m) if e > 1 else None)
        m, e, c = self._sqrt_constants
        if e == 1:
            r = self.pow(a, (self.order + 1) // 4)
        else:
            # r = a^((m + 1) / 2) and t = a^m = r^2 / a without an inverse
            w = self.pow(a, (m - 1) // 2)
            r = self.mul(w, a)
            t = self.mul(w, r)
            while t != self.one:
                i = 0
                t2 = t
                while t2 != self.one:
                    t2 = self.sqr(t2)
                    i += 1
                if i >= e:
                    return None
                b = c
                for _ in range(e - i - 1):
                    b = self.sqr(b)
                r = self.mul(r, b)
                c = self.sqr(b)
                t = self.mul(t, c)
                e = i
        if self.sqr(r) != a:
            return None
        rn = self.neg(r)
        return r if self.encode(r) <= self.encode(rn) else rn

    def frobenius_power(self, a, j: int):
        """a^(p^j); overridden with a matrix fast path on extensions."""
        return self.pow(a, self.p ** (j % self.k))


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

    def frobenius_power(self, a, j):
        return a


def _irreducible_mod_p(f, p) -> bool:
    """Rabin irreducibility test for monic f over F_p, in the packed ring F_p[x]/(f)."""
    k = len(f) - 1
    if k == 1:
        return True
    F = prime_field(p)
    R = ExtField(F, f)
    # powers[j] = x^(p^j) mod f
    powers = [R.x, R.xq()]
    for _ in range(k - 1):
        powers.append(R.frobenius_power(powers[-1], 1))
    if powers[k] != R.x:
        return False
    # gcd(x^(p^(k/r)) - x, f) must be 1 for every prime r | k
    fp = polyring.Poly(F, f)
    x = polyring.Poly.x(F)
    return all(polyring.gcd(fp, polyring.Poly(F, R.coeffs(powers[k // r])) - x).degree == 0 for r in _prime_divisors(k))


_layout_cache: dict[tuple[int, int], tuple] = {}


def _slot_layout(p: int, k: int) -> tuple:
    """The k-slot packing over F_p, computed once and shared by every context of that size.

    (top bit, slot mask, slot shifts, packed ones, packed p, packed
    2^(w-1) - p, fold pairs) for w = 2 bits(p) + bits(2k) + 1; a fold pair
    is (high slot, where its fold lands), from the top slot of a product
    down.
    """
    lay = _layout_cache.get((p, k))
    if lay is None:
        w = 2 * p.bit_length() + (2 * k).bit_length() + 1
        mask = (1 << w) - 1
        ones = ((1 << (k * w)) - 1) // mask
        fold = tuple((j * w, (j - k) * w) for j in range(2 * k - 2, k - 1, -1))
        lay = _layout_cache[(p, k)] = (w - 1, mask, tuple(range(0, k * w, w)), ones, p * ones, ((1 << (w - 1)) - p) * ones, fold)
    return lay


class ExtField(_FieldOps):
    """Context for the quotient ring base[x]/(modulus), modulus monic over the base context.

    The ring operations (add, sub, neg, mul, pow, scalar_mul, xq,
    frobenius_power(., 1), coeffs, encode) take any monic modulus, so over
    F_p this is also the packed ring in which polyring runs its products
    modulo a fixed polynomial.  Only inv, norm, is_square and sqrt, and
    frobenius_power(., j) for j >= k, need the modulus irreducible, the
    ring a field.

    Over F_p (base.k == 1) an element is one int: coefficient i of the
    polynomial basis sits in bits [i w, (i + 1) w) with
    w = 2 bits(p) + bits(2k) + 1, every slot in [0, p) (Kronecker
    substitution).  add, sub and neg are SWAR operations on all slots at
    once: add 2^(w-1) - p to every slot, read each slot's top bit, subtract
    p where it is set.  mul is one int product; each high slot c_j is
    folded back as (c_j mod p) * packed(-modulus mod p) << w (j - k), and
    one pass reduces every slot mod p.  The slot width keeps every slot of
    a product below 2k p^2 < 2^(w-1), so no slot carries into the next.
    frobenius_power, scalar_mul, embed and project work on packed ints too;
    inv and norm unpack once.

    Over an extension base (a tower, as for the etale factors over F_{q^j})
    the context is a _TowerField: an element is a tuple of packed base
    elements and the arithmetic goes through the base context.

    coeffs(a) and from_coeffs(seq) convert between an element and its
    coefficient sequence over the base, constant term first, in either
    representation; encode(a) is the base-order digit value of those
    coefficients, so encodings do not depend on the packing.

    x is the class of x; xq() is x^p, computed once, or seeded by the
    constructor's xp (an ascending coefficient sequence) when the caller
    has it.  The Frobenius matrices are built from it.

    Square roots test Euler's criterion on the norm first, so a non-square
    costs one Euclid over the base.  An odd degree d takes the root as
    a^((T + 1) / 2) / sqrt(N(a)) with T = (Q^d - 1) / (Q - 1), Q the base
    order: a^T = N(a) and T is odd.  N(a) is then known to be a nonzero
    square of the base, whose root runs no second Euler test
    (_sqrt_of_square).  An even degree runs Tonelli-Shanks, whose
    non-residue is read off the base (see _find_nonresidue) instead of
    searched for.
    """

    def __new__(cls, base, modulus, xp=None):
        # over an extension base the arithmetic is _TowerField's, held on
        # the class so that a context is not a reference cycle
        return super().__new__(_TowerField if base.k > 1 else cls)

    def __init__(self, base, modulus, xp=None):
        if modulus[-1] != base.one:
            raise ContextMismatch("the modulus of an extension must be monic")
        self.base = base
        self.p = base.p
        self.deg = len(modulus) - 1
        self.k = base.k * self.deg
        self.modulus = tuple(modulus)
        self.order = base.order**self.deg
        self._init_elements()
        self._frob = {}
        self._xp = None if xp is None else self.from_coeffs(xp)
        self._half_nonresidue_root = None

    def _init_elements(self):
        """The slot layout and the packed constants of the SWAR arithmetic."""
        self._top, self._mask, self._shifts, self._ones, self._pp, self._half, self._fold = _slot_layout(self.p, self.k)
        self._negmod = self.from_coeffs([-c for c in self.modulus[:-1]])
        self.x = self._mask + 1 if self.k > 1 else self._negmod
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    # -- coefficients, encodings ---------------------------------------------

    def coeffs(self, a) -> tuple:
        """The k coefficients of a over F_p, constant term first."""
        m = self._mask
        return tuple((a >> s) & m for s in self._shifts)

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
        """N(a) = Res(modulus, a), the product of the conjugates of a, by Euclid over the base."""
        B = self.base
        z = B.zero
        r0, r1 = list(self.modulus), list(self.coeffs(a))
        acc = B.one
        while True:
            while r1 and r1[-1] == z:
                r1.pop()
            if not r1:
                return z
            n0, n1 = len(r0) - 1, len(r1) - 1
            if n1 == 0:
                return B.mul(acc, B.pow(r1[0], n0))
            # r0 mod r1, then Res(r0, r1) = (-1)^(n0 n1) lc(r1)^(n0 - deg r) Res(r1, r)
            linv = B.inv(r1[-1])
            while len(r0) > n1:
                q = B.mul(r0.pop(), linv)
                if q != z:
                    d = len(r0) - n1
                    for i in range(n1):
                        r0[d + i] = B.sub(r0[d + i], B.mul(q, r1[i]))
            while r0 and r0[-1] == z:
                r0.pop()
            if not r0:
                return z
            acc = B.mul(acc, B.pow(r1[-1], n0 - len(r0) + 1))
            if n0 * n1 % 2:
                acc = B.neg(acc)
            r0, r1 = r1, r0

    def is_square(self, a) -> bool:
        """Euler's criterion on the norm; zero counts as a square by convention."""
        return a == self.zero or self.base.is_square(self.norm(a))

    def sqrt(self, a):
        """Canonical square root, or None; the norm turns a non-square away first."""
        if a == self.zero:
            return self.zero
        n = self.norm(a)
        if not self.base.is_square(n):
            return None
        return self._sqrt_of_square(a, n)

    def _sqrt_of_square(self, a, n=None):
        """The canonical root of a, a nonzero square with norm n (computed if None).

        An even degree runs Tonelli-Shanks.  An odd degree has a^T = N(a)
        with T = (Q^d - 1) / (Q - 1) odd, so a^((T + 1) / 2) squares to
        a N(a) and no 2-Sylow generator is needed; N(a) is a nonzero square
        of the base, whose root runs no Euler test either.
        """
        if self.deg % 2 == 0:
            return self._tonelli_shanks(a)
        B = self.base
        if n is None:
            n = self.norm(a)
        t = (self.order - 1) // (B.order - 1)
        r = self.scalar_mul(self.pow(a, (t + 1) // 2), B.inv(B._sqrt_of_square(n)))
        rn = self.neg(r)
        return r if self.encode(r) <= self.encode(rn) else rn

    def sqrt_of_half(self, v, half):
        """A square root here of v in half, the subfield of index 2 (not the canonical root).

        Every element of half is a square here: a square of half keeps its
        root from half, and a non-square goes to sqrt_of_half_nonsquare.
        """
        if 2 * half.k != self.k:
            raise ContextMismatch(f"{half!r} is not of index 2 in {self!r}")
        r = half.sqrt(v)
        if r is None:
            return self.sqrt_of_half_nonsquare(v, half)
        return embed(r, half, self)

    def sqrt_of_half_nonsquare(self, v, half):
        """sqrt_of_half for a v already known to be a non-square of half.

        v is nu * (v / nu) with nu = half.nonresidue(): the root of v / nu
        comes from half, and the root of nu is taken once and kept on this
        context.
        """
        if 2 * half.k != self.k:
            raise ContextMismatch(f"{half!r} is not of index 2 in {self!r}")
        nu = half.nonresidue()
        if self._half_nonresidue_root is None or self._half_nonresidue_root[0] is not half:
            self._half_nonresidue_root = (half, self.sqrt(embed(nu, half, self)))
        # v / nu is a nonzero square, so its root needs no Euler test first
        r = half._sqrt_of_square(half.div(v, nu))
        return self.mul(embed(r, half, self), self._half_nonresidue_root[1])

    def _find_nonresidue(self):
        """A non-residue read off the base instead of searched for.

        For odd degree a non-residue of the base stays one (its norm is its
        deg-th power).  For even degree the norm of x + c is modulus(-c), so
        the first c = 0, 1, ... that makes it a non-residue of the base gives
        one; the seeded search is the fallback if no such c is in F_p.
        """
        B = self.base
        if self.deg % 2:
            return self.from_coeffs((B.nonresidue(),))
        h = polyring.Poly(B, self.modulus)
        for c in range(self.p):
            cb = B.from_int(c)
            if not B.is_square(h.eval(B.neg(cb))):
                return self.from_coeffs((cb, B.one))
        return _FieldOps._find_nonresidue(self)

    def _two_sylow_generator(self, m: int):
        B = self.base
        nr = self.coeffs(self.nonresidue())
        if all(c == B.zero for c in nr[1:]):
            # a base element has order dividing |B*|: power it in the base
            return self.from_coeffs((B.pow(nr[0], m % (B.order - 1)),))
        return self.pow(self.from_coeffs(nr), m)

    # -- over F_p: packed arithmetic ------------------------------------------

    def _reduce(self, c):
        """The element whose slots are those of c mod p (the first k slots of c, each below 2^w)."""
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
        p, m, nm = self.p, self._mask, self._negmod
        for hi, lo in self._fold:
            c += (((c >> hi) & m) % p * nm) << lo
        # _reduce, inlined on the hottest path
        r = 0
        for s in self._shifts:
            r |= ((c >> s) & m) % p << s
        return r

    def scalar_mul(self, a, c):
        """a times the base element c."""
        return self._reduce(a * c)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        k = self.k
        # extended Euclid on int coefficient lists: s0 * a = r0 and
        # s1 * a = r1 modulo the modulus; the cofactors have degree <= k
        r0, r1 = list(self.modulus), list(self.coeffs(a))
        s0, s1 = [0] * (k + 1), [1] + [0] * k
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if not r1:
                break
            binv = pow(r1[-1], -1, p)
            n = len(r1)
            while len(r0) >= n:
                qc = r0[-1] * binv % p
                if qc:
                    d = len(r0) - n
                    for i in range(n):
                        r0[d + i] = (r0[d + i] - qc * r1[i]) % p
                    for i in range(k + 1 - d):
                        s0[d + i] = (s0[d + i] - qc * s1[i]) % p
                r0.pop()
            r0, r1, s0, s1 = r1, r0, s1, s0
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible (modulus not irreducible?)")
        c = pow(r0[0], -1, p)
        return self.from_coeffs([x * c for x in s0[:k]])

    def xq(self):
        """x^p mod modulus, packed, computed once: the seed of the Frobenius matrices."""
        if self._xp is None:
            self._xp = self.pow(self.x, self.p)
        return self._xp

    def _frobenius_matrix(self, j: int):
        """Packed columns x^(i p^j) mod modulus of a -> a^(p^j), a linear map over F_p, for 0 < j < k."""
        mat = self._frob.get(j)
        if mat is None:
            xpj = self.xq()
            for _ in range(j - 1):
                xpj = self._apply(self._frobenius_matrix(1), xpj)
            cols = [self.one]
            for _ in range(1, self.k):
                cols.append(self.mul(cols[-1], xpj))
            mat = self._frob[j] = tuple(cols)
        return mat

    def _apply(self, mat, a):
        """The linear map with packed columns mat, applied to a: one slot reduction."""
        m = self._mask
        out = 0
        for s, col in zip(self._shifts, mat):
            ai = (a >> s) & m
            if ai:
                out += ai * col
        return self._reduce(out)

    def frobenius_power(self, a, j: int):
        """a^(p^j); j is taken mod k, which presumes a field: a ring that is not one takes j < k."""
        j %= self.k
        if j == 0:
            return a
        return self._apply(self._frobenius_matrix(j), a)


class _TowerField(ExtField):
    """ExtField over an extension base: tuples of base elements, arithmetic through the base."""

    def _init_elements(self):
        B = self.base
        self.zero = (B.zero,) * self.deg
        self.one = (B.one,) + self.zero[1:]

    def coeffs(self, a) -> tuple:
        return a

    def from_coeffs(self, seq):
        if len(seq) > self.deg:
            raise ContextMismatch(f"{len(seq)} coefficients for {self!r}")
        return tuple(seq) + self.zero[len(seq) :]

    def from_int(self, n: int):
        return (self.base.from_int(n),) + self.zero[1:]

    def encode(self, a) -> int:
        n = 0
        B = self.base
        for c in reversed(a):
            n = n * B.order + B.encode(c)
        return n

    def decode(self, n: int):
        if not 0 <= n < self.order:
            raise ValueError("encoding out of range")
        out = []
        B = self.base
        for _ in range(self.deg):
            n, r = divmod(n, B.order)
            out.append(B.decode(r))
        return tuple(out)

    def add(self, a, b):
        F = self.base
        return tuple(F.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        F = self.base
        return tuple(F.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        F = self.base
        return tuple(F.neg(x) for x in a)

    def mul(self, a, b):
        F = self.base
        n = self.deg
        c = [F.zero] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai != F.zero:
                for j, bj in enumerate(b):
                    c[i + j] = F.add(c[i + j], F.mul(ai, bj))
        m = self.modulus
        for i in range(2 * n - 2, n - 1, -1):
            ci = c[i]
            if ci != F.zero:
                d = i - n
                for j in range(n):
                    c[d + j] = F.sub(c[d + j], F.mul(ci, m[j]))
        return tuple(c[:n])

    def scalar_mul(self, a, c):
        F = self.base
        return tuple(F.mul(x, c) for x in a)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        F = self.base
        g, s, _ = polyring.xgcd(polyring.Poly(F, a), polyring.Poly(F, self.modulus))
        if g.degree != 0:
            raise ZeroDivisionError("element not invertible (modulus not irreducible?)")
        return self.from_coeffs(s.c)

    frobenius_power = _FieldOps.frobenius_power


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


def _lex_min_irreducible(p: int, k: int):
    """Lexicographically least monic irreducible of degree k over F_p.

    Candidates x^k + c_{k-1}x^{k-1} + ... + c_0 are ordered by the integer
    sum(c_i p^i); the first irreducible wins.  The binomial block (the first
    p candidates) is power-test filtered and skipped entirely when provably
    empty, so the search stays fast at cryptographic-size p.
    """
    if k == 1:
        return (0, 1)
    if _binomial_block_nonempty(p, k):
        for c in range(1, p):
            if _binomial_filter(p, k, c):
                f = [c] + [0] * (k - 1) + [1]
                if _irreducible_mod_p(f, p):
                    return tuple(f)
    enc = p
    while True:
        coeffs = []
        n = enc
        for _ in range(k):
            n, r = divmod(n, p)
            coeffs.append(r)
        if n:
            raise RuntimeError(f"no irreducible of degree {k} over GF({p})")  # unreachable
        f = coeffs + [1]
        if _irreducible_mod_p(f, p):
            return tuple(f)
        enc += 1


def make_extension(p: int, k: int):
    """Context for F_{p^k} with the deterministic modulus; F_p itself for k=1."""
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


def frobenius(field, a, q: int):
    """The q-power Frobenius a -> a^q, for a in an extension of the field of order q."""
    p = field.p
    j = 0
    qq = q
    while qq > 1:
        if qq % p:
            raise ContextMismatch(f"{q} is not a power of the characteristic {p}")
        qq //= p
        j += 1
    if j == 0 or field.k % j != 0:
        raise ContextMismatch(f"field of order {q} is not a subfield of {field!r}")
    return field.frobenius_power(a, j)


# --- embeddings between the deterministic contexts -------------------------

_embed_cache: dict[tuple[int, int, int], tuple] = {}


def _root_powers(src: ExtField, dst: ExtField):
    """Powers of the canonical root of src.modulus inside dst (cached).

    The canonical root is the least by encoding among one split_root and
    its Frobenius conjugates.
    """
    key = (src.p, src.modulus, dst.k, dst.modulus)
    tab = _embed_cache.get(key)
    if tab is None:
        F = src.base
        mod = polyring.Poly(F, src.modulus)
        r = polyring.split_root(mod, None, dst)
        root = min((dst.frobenius_power(r, i) for i in range(src.k)), key=dst.encode)
        powers = [dst.one]
        for _ in range(src.k - 1):
            powers.append(dst.mul(powers[-1], root))
        tab = tuple(powers)
        _embed_cache[key] = tab
    return tab


def embed(a, src, dst):
    """Carry a from the (p, k1) context into the (p, k2) context, k1 | k2.

    An F_p value is its own image (it sits in slot 0); otherwise the
    coefficients weight the packed powers of the canonical root and one
    slot reduction follows.
    """
    if src is dst:
        return a
    if src.p != dst.p:
        raise ContextMismatch("different characteristics")
    if src.k == 1:
        return a
    if dst.k % src.k != 0:
        raise ContextMismatch(f"{src!r} does not embed in {dst!r}")
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

    Solves the linear system over F_p expressing a on the embedded power
    basis of the small field: _rref of the basis columns beside an identity
    block leaves a left inverse in the first rows (cached per field pair).
    """
    if big is small:
        return a
    if small.k == 1:
        # the prime subfield is slot 0 alone
        return a if a < big.p else None
    key = (small.p, small.modulus, big.k, big.modulus)
    solver = _project_cache.get(key)
    p = big.p
    if solver is None:
        cols = [big.coeffs(w) for w in _root_powers(small, big)]
        # columns: embedded basis vectors, then the identity; rows: big-field coordinates
        aug = [[col[i] for col in cols] + [int(i == j) for j in range(big.k)] for i in range(big.k)]
        rows, pivots = _rref(aug, prime_field(p))
        if pivots[: small.k] != list(range(small.k)):
            raise ContextMismatch(f"the embedded basis of {small!r} is rank-deficient in {big!r}")
        solver = tuple(tuple(row[small.k :]) for row in rows[: small.k])
        _project_cache[key] = solver
    ac = big.coeffs(a)
    cand = small.from_coeffs([sum(x * y for x, y in zip(row, ac)) for row in solver])
    if embed(cand, small, big) != a:
        return None
    return cand
