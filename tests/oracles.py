"""Reference oracles that only the tests use: brute-force subgroups, binary form factoring,
tuple field arithmetic and polynomials over it, schoolbook F_p[x] powers and Frobenius maps,
point counts by enumeration."""

from trigonal.errors import TooLarge
from trigonal.fields import embed_poly, make_extension
from trigonal.polyring import BinaryForm, factorize, roots
from trigonal.subgroups import TractableSubgroup, _quad_from_pair, normalize_quadratic, splitting_degree


def _pairings(items):
    """All partitions of items into unordered pairs."""
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        pair = (first, items[i])
        rest = items[1:i] + items[i + 1 :]
        for more in _pairings(rest):
            yield [pair] + more


def brute_force_tractable(H):
    """Test all 105 pair-partitions of the Weierstrass points for Galois stability."""
    L = splitting_degree(H)
    if L > 15:
        raise TooLarge(f"splitting field degree {L} > 15")
    E = make_extension(H.field.p, L)
    pts = []
    if H.form.v_multiplicity:
        pts.append(None)
    pts.extend(roots(embed_poly(H.F, H.field, E)))
    assert len(pts) == 8, "curve must have 8 distinct Weierstrass points"

    def frob_pt(r):
        return None if r is None else E.frobenius_power(r, 1)

    out = []
    for pairing in _pairings(pts):
        quads = [_quad_from_pair(E, r1, r2) for r1, r2 in pairing]
        keyset = frozenset(normalize_quadratic(q).encode() for q in quads)
        conj = [_quad_from_pair(E, frob_pt(r1), frob_pt(r2)) for r1, r2 in pairing]
        conjset = frozenset(normalize_quadratic(q).encode() for q in conj)
        if keyset == conjset:
            out.append(TractableSubgroup.from_quads(quads))
    out.sort(key=lambda s: s.key())
    return out


def factor_form(form: BinaryForm):
    """(scalar, [(irreducible BinaryForm normalized, multiplicity)]).

    The affine part is factored with the univariate routine; the factor v
    (coeffs (1, 0, ..., 0) of degree 1) carries the v-multiplicity.
    """
    f = form.field
    aff = form.affine()
    out = []
    vm = form.v_multiplicity
    if vm:
        out.append((BinaryForm(f, 1, (f.one, f.zero)), vm))
    if aff.degree >= 1:
        lc, factors = factorize(aff)
        for g, m in factors:
            out.append((BinaryForm.from_affine(g, g.degree), m))
    else:
        lc = aff.c[0] if aff.c else f.one
    return lc, out


class SchoolbookField:
    """base[x]/(modulus) on coefficient tuples: a schoolbook product and a long division per multiply.

    base is another SchoolbookField, or None for F_p itself, whose elements
    are ints in [0, p).  It shares no code with trigonal.fields, and is the
    reference the packed arithmetic is checked against.
    """

    def __init__(self, p, modulus, base=None):
        self.p = p
        self.base = base
        self.modulus = tuple(modulus)
        self.deg = len(modulus) - 1
        self.zero = (self._bzero(),) * self.deg
        self.one = (self._bone(),) + self.zero[1:]

    def _bzero(self):
        return 0 if self.base is None else self.base.zero

    def _bone(self):
        return 1 if self.base is None else self.base.one

    def _badd(self, a, b):
        return (a + b) % self.p if self.base is None else self.base.add(a, b)

    def _bmul(self, a, b):
        return a * b % self.p if self.base is None else self.base.mul(a, b)

    def _bneg(self, a):
        return -a % self.p if self.base is None else self.base.neg(a)

    def add(self, a, b):
        return tuple(self._badd(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self._bneg(x) for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        n = self.deg
        c = [self._bzero()] * (2 * n - 1)
        for i in range(n):
            for j in range(n):
                c[i + j] = self._badd(c[i + j], self._bmul(a[i], b[j]))
        for i in range(2 * n - 2, n - 1, -1):
            q = c[i]
            for j in range(n + 1):
                c[i - n + j] = self._badd(c[i - n + j], self._bneg(self._bmul(q, self.modulus[j])))
        return tuple(c[:n])

    def pow(self, a, e):
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r


def schoolbook_poly_mul(R, a, b):
    """The product of two coefficient lists over the SchoolbookField R."""
    out = [R.zero] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = R.add(out[i + j], R.mul(x, y))
    return out


def schoolbook_poly_add(R, a, b):
    """The sum of two coefficient lists over the SchoolbookField R."""
    n = max(len(a), len(b))
    return [R.add(x, y) for x, y in zip(list(a) + [R.zero] * (n - len(a)), list(b) + [R.zero] * (n - len(b)))]


def schoolbook_poly_divmod(R, a, b, binv):
    """(quotient, remainder) of coefficient lists over R by long division; binv is the inverse of b's leading coefficient."""
    r = list(a)
    n = len(b) - 1
    q = [R.zero] * max(0, len(r) - n)
    for d in range(len(r) - n - 1, -1, -1):
        qc = q[d] = R.mul(r[d + n], binv)
        for i in range(n + 1):
            r[d + i] = R.sub(r[d + i], R.mul(qc, b[i]))
    return q, r[:n]


def schoolbook_eval(R, a, x):
    """a(x) over R by Horner's rule."""
    y = R.zero
    for c in reversed(a):
        y = R.add(R.mul(y, x), c)
    return y


def schoolbook_of(K):
    """The SchoolbookField of a trigonal field context K over F_p or over an extension of it."""
    base = None if K.base.k == 1 else schoolbook_of(K.base)
    modulus = K.modulus if base is None else tuple(as_tuple(K.base, c) for c in K.modulus)
    return SchoolbookField(K.p, modulus, base)


def as_tuple(K, a):
    """An element of K as the nested coefficient tuples of schoolbook_of(K)."""
    if K.k == 1:
        return a
    return tuple(as_tuple(K.base, c) for c in K.coeffs(a))


def schoolbook_rem(a, modulus, p):
    """a mod modulus over F_p, on ascending int lists: long division, modulus of any leading coefficient."""
    r = [c % p for c in a]
    n = len(modulus) - 1
    linv = pow(modulus[-1], -1, p)
    for i in range(len(r) - 1, n - 1, -1):
        q = r[i] * linv % p
        if q:
            for j in range(n + 1):
                r[i - n + j] = (r[i - n + j] - q * modulus[j]) % p
    r = r[:n]
    while r and not r[-1]:
        r.pop()
    return r


def _schoolbook_mul(a, b, p):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def schoolbook_pow_mod(base, n, modulus, p):
    """base^n mod modulus over F_p, on ascending int lists: right-to-left square and multiply.

    It shares no code with trigonal.polyring or trigonal.fields.
    """
    r = schoolbook_rem([1], modulus, p)
    b = schoolbook_rem(base, modulus, p)
    while n:
        if n & 1:
            r = schoolbook_rem(_schoolbook_mul(r, b, p), modulus, p)
        b = schoolbook_rem(_schoolbook_mul(b, b, p), modulus, p)
        n >>= 1
    return r


def schoolbook_frobenius(u, modulus, p):
    """u^p mod modulus over F_p as sum u_i (x^p)^i mod modulus: the coefficients are fixed by the p-power map."""
    xp = schoolbook_pow_mod([0, 1], p, modulus, p)
    out = [0] * len(modulus)
    xpi = schoolbook_rem([1], modulus, p)  # (x^p)^i mod modulus
    for c in u:
        for j, t in enumerate(xpi):
            out[j] = (out[j] + c * t) % p
        xpi = schoolbook_rem(_schoolbook_mul(xpi, xp, p), modulus, p)
    return schoolbook_rem(out, modulus, p)


def count_points_by_enumeration(H, k):
    """#H(F_{p^k}) by evaluating F at every element against the set of all squares."""
    field = make_extension(H.field.p, k)
    F = embed_poly(H.F, H.field, field)
    squares = {field.mul(z, z) for z in field.elements()}
    n = 0
    for x in field.elements():
        fx = F.eval(x)
        if fx == field.zero:
            n += 1
        elif fx in squares:
            n += 2
    if H.F.degree == 7:
        n += 1
    elif field.from_int(H.F.lc) in squares:
        n += 2
    return n
