"""Exact arithmetic in prime fields F_p (p > 3) and extensions F_{p^k}.

Elements are plain data, interpreted by a field context that is passed
around with them: an element of F_p is an int in [0, p), and an element
of F_{p^k} is a length-k tuple of ints (coefficients on the polynomial
basis 1, x, ..., x^{k-1} of F_p[x]/(modulus), constant term first).

Extension contexts are built by make_extension(p, k) with a modulus chosen
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
import itertools
import random

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


# --- minimal list-based polynomial helpers over F_p (for modulus search) ---


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] += ai * bj
    return _ptrim([x % p for x in c])


def _pmod(a, b, p):
    a = [x % p for x in a]
    _ptrim(a)
    n = len(b)
    binv = pow(b[-1], -1, p)
    while len(a) >= n:
        q = a[-1] * binv % p
        d = len(a) - n
        for i in range(n):
            a[d + i] = (a[d + i] - q * b[i]) % p
        _ptrim(a)
    return a


def _pgcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppow_xp(f, p):
    """x^p mod f by square-and-multiply."""
    r = [1]
    b = [0, 1]
    n = p
    while n:
        if n & 1:
            r = _pmod(_pmul(r, b, p), f, p)
        b = _pmod(_pmul(b, b, p), f, p)
        n >>= 1
    return r


def _pcompose(g, h, f, p):
    """g(h) mod f."""
    r = []
    for c in reversed(g):
        r = _pmod(_pmul(r, h, p), f, p)
        if c:
            r = _ptrim([(r[0] + c) % p] + r[1:]) if r else [c]
    return r


def _irreducible_mod_p(f, p) -> bool:
    """Rabin irreducibility test for monic f over F_p."""
    k = len(f) - 1
    if k == 1:
        return True
    xp = _ppow_xp(f, p)
    powers = {1: xp}
    cur = xp
    for j in range(2, k + 1):
        cur = _pcompose(cur, xp, f, p)
        powers[j] = cur
    # x^{p^k} must equal x
    if powers[k] != [0, 1]:
        return False
    kk = k
    for r in _SMALL_PRIMES:
        if r > kk:
            break
        if kk % r == 0:
            h = powers[k // r][:]
            # gcd(x^{p^{k/r}} - x, f) must be 1
            hm = h[:] if h else [0]
            while len(hm) < 2:
                hm.append(0)
            hm[1] = (hm[1] - 1) % p
            g = _pgcd(f, _ptrim(hm), p)
            if len(g) != 1:
                return False
            while kk % r == 0:
                kk //= r
    return True


class ExtField(_FieldOps):
    """Context for F_{p^k} = F_p[x]/(modulus).  Elements are k-tuples of ints.

    xp, x^p mod modulus as an ascending coefficient sequence, seeds the
    Frobenius matrices when the caller has already computed it.
    """

    def __init__(self, base: PrimeField, modulus, xp=None):
        self.base = base
        self.p = base.p
        self.k = len(modulus) - 1
        assert modulus[-1] == 1, "modulus must be monic"
        self.modulus = tuple(modulus)
        self.order = self.p ** self.k
        self.zero = (0,) * self.k
        self.one = (1,) + (0,) * (self.k - 1)
        self._frob = {}
        self._xp = None if xp is None else list(xp)

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.k - 1)

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
        # extended Euclid on coefficient lists
        r0 = list(self.modulus)
        r1 = _ptrim(list(a))
        s0, s1 = [], [1]
        while r1:
            binv = pow(r1[-1], -1, p)
            q = []
            r = r0[:]
            while len(r) >= len(r1):
                qc = r[-1] * binv % p
                d = len(r) - len(r1)
                q.extend([0] * (d + 1 - len(q)))
                q[d] = qc
                for i in range(len(r1)):
                    r[d + i] = (r[d + i] - qc * r1[i]) % p
                _ptrim(r)
            r0, r1 = r1, r
            s0, s1 = s1, _ptrim([(x - y) % p for x, y in itertools.zip_longest(s0, _pmul(q, s1, p), fillvalue=0)])
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible (modulus not irreducible?)")
        c = pow(r0[0], -1, p)
        out = [x * c % p for x in s0]
        out += [0] * (self.k - len(out))
        return tuple(out[: self.k])

    def encode(self, a) -> int:
        n = 0
        for c in reversed(a):
            n = n * self.p + c
        return n

    def decode(self, n: int):
        if not 0 <= n < self.order:
            raise ValueError("encoding out of range")
        out = []
        for _ in range(self.k):
            n, r = divmod(n, self.p)
            out.append(r)
        return tuple(out)

    def elements(self):
        return (self.decode(i) for i in range(self.order))

    def random(self, rng):
        p = self.p
        return tuple(rng.randrange(p) for _ in range(self.k))

    def _frobenius_matrix(self, j: int):
        """Columns of a -> a^(p^j) as a linear map over F_p."""
        j %= self.k
        mat = self._frob.get(j)
        if mat is None:
            f = list(self.modulus)
            xp = self._xp if self._xp is not None else _ppow_xp(f, self.p)
            cur = [0, 1]
            for _ in range(j):
                cur = _pcompose(cur, xp, f, self.p)
            # columns: images of basis powers x^i = cur^i mod f
            cols = []
            acc = [1]
            for _ in range(self.k):
                col = tuple(acc[i] if i < len(acc) else 0 for i in range(self.k))
                cols.append(col)
                acc = _pmod(_pmul(acc, cur, self.p), f, self.p)
            mat = tuple(cols)
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


class QuotientField(_FieldOps):
    """F[x]/(h) for an irreducible h over an arbitrary base context.

    Internal plumbing for square roots in etale-algebra factors; the public
    extension contexts (make_extension) always sit directly over F_p.
    """

    def __init__(self, base, modulus):
        self.base = base
        self.p = base.p
        self.modulus = tuple(modulus)  # tuple of base elements, monic
        self.deg = len(modulus) - 1
        assert modulus[-1] == base.one
        self.k = base.k * self.deg
        self.order = base.order**self.deg
        self.zero = (base.zero,) * self.deg
        self.one = (base.one,) + (base.zero,) * (self.deg - 1)

    def __repr__(self):
        return f"{self.base!r}[x]/(deg {self.deg})"

    def from_base(self, c):
        return (c,) + (self.base.zero,) * (self.deg - 1)

    def from_int(self, n: int):
        return self.from_base(self.base.from_int(n))

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

    def inv(self, a):
        F = self.base
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")

        def trim(v):
            while v and v[-1] == F.zero:
                v.pop()
            return v

        def pmulF(u, v):
            if not u or not v:
                return []
            c = [F.zero] * (len(u) + len(v) - 1)
            for i, ui in enumerate(u):
                if ui != F.zero:
                    for j, vj in enumerate(v):
                        c[i + j] = F.add(c[i + j], F.mul(ui, vj))
            return trim(c)

        r0 = list(self.modulus)
        r1 = trim(list(a))
        s0, s1 = [], [F.one]
        while r1:
            binv = F.inv(r1[-1])
            q = []
            r = r0[:]
            while len(r) >= len(r1):
                qc = F.mul(r[-1], binv)
                d = len(r) - len(r1)
                q.extend([F.zero] * (d + 1 - len(q)))
                q[d] = qc
                for i in range(len(r1)):
                    r[d + i] = F.sub(r[d + i], F.mul(qc, r1[i]))
                trim(r)
            r0, r1 = r1, r
            qs = pmulF(q, s1)
            ln = max(len(s0), len(qs))
            s0, s1 = s1, trim([F.sub(s0[i] if i < len(s0) else F.zero, qs[i] if i < len(qs) else F.zero) for i in range(ln)])
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible")
        c = F.inv(r0[0])
        out = [F.mul(x, c) for x in s0]
        out += [F.zero] * (self.deg - len(out))
        return tuple(out[: self.deg])

    def encode(self, a) -> int:
        n = 0
        B = self.base
        for c in reversed(a):
            n = n * B.order + B.encode(c)
        return n

    def random(self, rng):
        B = self.base
        return tuple(B.random(rng) for _ in range(self.deg))


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
        from . import polyring

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
