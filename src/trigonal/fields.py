"""Exact arithmetic in prime fields F_p (p > 3) and their extensions.

Elements are plain data, interpreted by a field context that is passed
around with them: an element of F_p is an int in [0, p), and an element
of an extension is a tuple of base-field elements (coefficients on the
polynomial basis 1, x, ..., x^{n-1} of base[x]/(modulus), constant term
first).

One quotient-ring context, ExtField(base, modulus), serves every extension:
F_{p^k} itself, the orbit algebras F_p[x]/(orbit polynomial) of the subgroup
enumeration, and the etale factors over F_{q^j} in which phi takes square
roots.  Over F_p it runs on int tuples with a Frobenius-matrix fast path;
over an extension base it goes through the base context's operations.

The F_{p^k} contexts are built by make_extension(p, k) with a modulus chosen
deterministically from (p, k): the lexicographically least monic irreducible
of degree k, i.e. the one minimizing the base-p digit value of its non-leading
coefficients.  Repeated calls return the same cached context, so encodings
are reproducible across runs.

Every context exposes the same arithmetic surface (add, sub, neg, mul, inv,
div, pow, sqrt, is_square, encode, decode, ...), so polynomial code in
polyring.py works over any of them.  Contexts are immutable after creation
and safe to share across threads/processes.
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
        if n < 0:
            a = self.inv(a)
            n = -n
        r = self.one
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def is_square(self, a) -> bool:
        """Euler criterion; zero counts as a square by convention."""
        if a == self.zero:
            return True
        return self.pow(a, (self.order - 1) // 2) == self.one

    def nonresidue(self):
        """A fixed quadratic non-residue (deterministic per context)."""
        nr = getattr(self, "_nonresidue", None)
        if nr is None:
            rng = random.Random(_seed_int("nonresidue", self.p, self.k, self.order))
            e = (self.order - 1) // 2
            while True:
                c = self.random(rng)
                if c != self.zero and self.pow(c, e) != self.one:
                    nr = c
                    break
            self._nonresidue = nr
        return nr

    def sqrt(self, a):
        """Canonical square root (smaller encoding), or None for a non-residue.

        Tonelli-Shanks in the multiplicative group; works over any context here
        since the order is odd prime-power q with q odd.
        """
        if a == self.zero:
            return self.zero
        m = self.order - 1
        e = 0
        while m % 2 == 0:
            m //= 2
            e += 1
        if e == 1:
            r = self.pow(a, (self.order + 1) // 4)
        else:
            c = self.pow(self.nonresidue(), m)
            r = self.pow(a, (m + 1) // 2)
            t = self.mul(self.sqr(r), self.inv(a))
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
    """Rabin irreducibility test for monic f over F_p."""
    F = prime_field(p)
    k = len(f) - 1
    if k == 1:
        return True
    fp = polyring.Poly(F, f)
    x = polyring.Poly.x(F)
    xp = x.pow_mod(p, fp)
    cols = polyring._frobenius_columns(xp, fp)
    # powers[j] = x^(p^j) mod f
    powers = [x, xp]
    for _ in range(k - 1):
        powers.append(polyring._apply_frobenius(powers[-1], cols))
    if powers[k] != x:
        return False
    # gcd(x^(p^(k/r)) - x, f) must be 1 for every prime r | k
    return all(polyring.gcd(fp, powers[k // r] - x).degree == 0 for r in _prime_divisors(k))


class ExtField(_FieldOps):
    """Context for base[x]/(modulus), modulus monic irreducible over the base context.

    Elements are tuples of base elements, constant term first, encoded as
    base-order digits.  Over F_p (base.k == 1) they are tuples of ints and
    the arithmetic runs on ints directly, with a Frobenius matrix for
    frobenius_power.  Over an extension base (a tower, as for the etale
    factors over F_{q^j}) the arithmetic goes through the base context.

    xp, x^p mod modulus as an ascending coefficient sequence, seeds the
    Frobenius matrices when the caller has already computed it.
    """

    def __init__(self, base, modulus, xp=None):
        if modulus[-1] != base.one:
            raise ContextMismatch("the modulus of an extension must be monic")
        self.base = base
        self.p = base.p
        self.deg = len(modulus) - 1
        self.k = base.k * self.deg
        self.modulus = tuple(modulus)
        self.order = base.order**self.deg
        self.zero = (base.zero,) * self.deg
        self.one = (base.one,) + (base.zero,) * (self.deg - 1)
        self._frob = {}
        self._xp = None if xp is None else list(xp)
        if base.k > 1:
            for name in ("add", "sub", "neg", "mul", "inv", "frobenius_power"):
                setattr(self, name, getattr(self, "_tower_" + name))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

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

    def elements(self):
        return (self.decode(i) for i in range(self.order))

    def random(self, rng):
        B = self.base
        return tuple(B.random(rng) for _ in range(self.deg))

    # -- over F_p: int coefficients ------------------------------------------

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p = self.p
        k = self.k
        c = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    c[i + j] += ai * bj
        m = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            ci = c[i] % p
            if ci:
                d = i - k
                for j in range(k):
                    c[d + j] -= ci * m[j]
        return tuple(x % p for x in c[:k])

    def scalar_mul(self, a, c: int):
        p = self.p
        return tuple(x * c % p for x in a)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        k = self.k
        # extended Euclid on int coefficient lists: s0 * a = r0 and
        # s1 * a = r1 modulo the modulus; the cofactors have degree <= k
        r0, r1 = list(self.modulus), list(a)
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
        return tuple(x * c % p for x in s0[:k])

    def _frobenius_matrix(self, j: int):
        """Columns of a -> a^(p^j) as a linear map over F_p, for 0 < j < k."""
        mat = self._frob.get(j)
        if mat is None:
            F = self.base
            f = polyring.Poly(F, self.modulus)
            xp = polyring.Poly(F, self._xp) if self._xp is not None else polyring.Poly.x(F).pow_mod(self.p, f)
            cols = polyring._frobenius_columns(xp, f)
            # x^(p^j) mod f, by j - 1 further p-power maps; the columns are
            # the images x^(i p^j) mod f of the basis powers x^i
            xpj = xp
            for _ in range(j - 1):
                xpj = polyring._apply_frobenius(xpj, cols)
            if j > 1:
                cols = polyring._frobenius_columns(xpj, f)
            mat = tuple(col.c + (0,) * (self.k - len(col.c)) for col in cols)
            self._frob[j] = mat
        return mat

    def frobenius_power(self, a, j: int):
        j %= self.k
        if j == 0:
            return a
        cols = self._frobenius_matrix(j)
        p = self.p
        out = [0] * self.k
        for i, ai in enumerate(a):
            if ai:
                col = cols[i]
                for t in range(self.k):
                    out[t] += ai * col[t]
        return tuple(x % p for x in out)

    # -- over an extension base: arithmetic through the base context ---------

    def _tower_add(self, a, b):
        F = self.base
        return tuple(F.add(x, y) for x, y in zip(a, b))

    def _tower_sub(self, a, b):
        F = self.base
        return tuple(F.sub(x, y) for x, y in zip(a, b))

    def _tower_neg(self, a):
        F = self.base
        return tuple(F.neg(x) for x in a)

    def _tower_mul(self, a, b):
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

    def _tower_inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        F = self.base
        g, s, _ = polyring.xgcd(polyring.Poly(F, a), polyring.Poly(F, self.modulus))
        if g.degree != 0:
            raise ZeroDivisionError("element not invertible (modulus not irreducible?)")
        return s.c + (F.zero,) * (self.deg - len(s.c))

    _tower_frobenius_power = _FieldOps.frobenius_power


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
    """Powers of the canonical root of src.modulus inside dst (cached)."""
    key = (src.p, src.modulus, dst.k, dst.modulus)
    tab = _embed_cache.get(key)
    if tab is None:
        mod = polyring.Poly(dst, [dst.from_int(c) for c in src.modulus])
        rts = polyring.roots(mod)
        if not rts:
            raise ContextMismatch(f"{src!r} does not embed in {dst!r}")
        root = min(rts, key=dst.encode)
        powers = [dst.one]
        for _ in range(src.k - 1):
            powers.append(dst.mul(powers[-1], root))
        tab = tuple(powers)
        _embed_cache[key] = tab
    return tab


def embed(a, src, dst):
    """Carry a from the (p, k1) context into the (p, k2) context, k1 | k2."""
    if src is dst:
        return a
    if src.p != dst.p:
        raise ContextMismatch("different characteristics")
    if src.k == 1:
        return dst.from_int(a)
    if dst.k % src.k != 0:
        raise ContextMismatch(f"{src!r} does not embed in {dst!r}")
    powers = _root_powers(src, dst)
    acc = dst.zero
    for c, w in zip(a, powers):
        if c:
            acc = dst.add(acc, dst.scalar_mul(w, c))
    return acc


def as_prime(a, field):
    """The int value of a if it lies in the prime subfield, else None."""
    if field.k == 1:
        return a
    if any(a[1:]):
        return None
    return a[0]


_project_cache: dict[tuple, tuple] = {}


def project(a, big, small):
    """The small-field preimage of a under embed(., small, big), or None.

    Solves the linear system over F_p expressing a on the embedded power
    basis of the small field (row reduction cached per field pair).
    """
    if big is small:
        return a
    if small.k == 1:
        return as_prime(a, big)
    key = (small.p, small.modulus, big.k, big.modulus)
    solver = _project_cache.get(key)
    p = big.p
    if solver is None:
        powers = _root_powers(small, big)
        # columns: embedded basis vectors; rows: big-field coordinates
        rows = [[powers[j][i] for j in range(small.k)] for i in range(big.k)]
        # Gauss: bring to reduced form, remembering the operations via an
        # augmented identity block
        aug = [row + [1 if i == r else 0 for i in range(big.k)] for r, row in enumerate(rows)]
        pivots = []
        r = 0
        for col in range(small.k):
            piv = next((i for i in range(r, big.k) if aug[i][col] % p), None)
            assert piv is not None, "embedding basis must have full rank"
            aug[r], aug[piv] = aug[piv], aug[r]
            inv = pow(aug[r][col], -1, p)
            aug[r] = [x * inv % p for x in aug[r]]
            for i in range(big.k):
                if i != r and aug[i][col] % p:
                    c = aug[i][col]
                    aug[i] = [(x - c * y) % p for x, y in zip(aug[i], aug[r])]
            pivots.append(col)
            r += 1
        solver = (tuple(tuple(row) for row in aug), tuple(pivots))
        _project_cache[key] = solver
    aug, pivots = solver
    vec = list(a)
    coords = [0] * small.k
    for r, col in enumerate(pivots):
        c = sum(aug[r][small.k + j] * vec[j] for j in range(big.k)) % p
        coords[col] = c
    cand = tuple(coords)
    if embed(cand, small, big) != a:
        return None
    return cand
