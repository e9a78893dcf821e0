"""Reference oracles that only the tests use: brute-force subgroups, binary form factoring,
tuple field arithmetic and polynomials over it, schoolbook F_p[x] powers and Frobenius maps,
the conjugate product of a quotient ring taken as one power in that ring, irreducibility by
factoring, point counts by
enumeration, the reverse composition in the lcm field of its points, the reverse's triple class
carried by two checked Mobius maps, the open points of X counted fiber by fiber, CRT gluing by xgcd
idempotents, Euclid on Poly objects, Cantor's group law on Poly objects, row reduction by the
field's own operations, the chord matrix from every expanded row, the points of a class's support
one by one, powers by the ring's product alone, the cascade fold of a packed product, the norm s(t)
as its thirteen expanded terms."""

import math

from trigonal.curves import _COUNT_GUARD, DivisorClass, cantor_add, cantor_mul
from trigonal.errors import BadSupport, ModelMismatch, NotSquarefree, TooLarge, ZeroPolynomial
from trigonal.evaluation import XPoint, _support_orbits, fiber_points
from trigonal.fields import embed, embed_poly, make_extension, project
from trigonal.polyring import BinaryForm, Poly, factorize, roots
from trigonal.subgroups import TractableSubgroup, _quad_from_pair, normalize_quadratic, splitting_degree
from trigonal.trigmaps import hyperplane_row


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
    if len(pts) != 8:
        raise NotSquarefree("curve must have 8 distinct Weierstrass points")

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


def conjugate_product_direct(R, h, e, n, j=None):
    """h^(e * (1 + q + ... + q^(n-1))) in the quotient ring R, q = p^j: h^e, one power in R itself, times its n - 1 q-power conjugates."""
    j = R.base.k if j is None else j
    b = acc = R.pow(h, e)
    for _ in range(n - 1):
        b = R.frobenius_power(b, j)
        acc = R.mul(acc, b)
    return acc


def is_irreducible(poly: Poly) -> bool:
    """Irreducibility read off factorize: the oracle the moduli search's Ben-Or test is checked against."""
    if poly.is_zero:
        raise ZeroPolynomial("irreducibility of the zero polynomial")
    if poly.degree == 0:
        return False
    _, factors = factorize(poly)
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree == poly.degree


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


def reverse_on_xdivisor_lcm(DX, R, model):
    """The reverse composition in one field: every triple class over F_{p^J}, J the lcm of the
    entry degrees and the model's, summed there with its weight and projected to the model's field."""
    base = model.field
    J = math.lcm(base.k, *(q.field.k for q, _ in DX.entries))
    big = make_extension(base.p, J)
    odd_big = model.base_change(big) if big is not base else model
    total = DivisorClass.identity(odd_big)
    for q, w in DX.entries:
        K = q.field
        q = XPoint(big, embed(q.t, K, big), tuple(embed(c, K, big) for c in q.b))
        total = cantor_add(total, cantor_mul(triple_class_two_stage(R, q, odd_big), w))
    if big is base:
        return total
    a_c = [project(c, big, base) for c in total.a.c]
    b_c = [project(c, big, base) for c in total.b.c]
    if None in a_c or None in b_c:
        raise BadSupport("reverse image is not rational over the base field")
    return DivisorClass(model, Poly(base, a_c), Poly(base, b_c))


def mumford_transform(a, b, matrix, w_scale, field, target_F):
    """Transport a Mumford pair through x -> (alpha x + beta)/(gamma x + delta) by BinaryForm substitutions.

    The point map is (x, y) -> (m(x), w_scale * y / (gamma x + delta)^4).
    Raises BadSupport if the divisor meets the pole (degree would drop), and
    ModelMismatch unless the image satisfies b^2 = target_F mod a.
    """
    al, be, ga, de = matrix
    f = field
    n = a.degree
    det = f.sub(f.mul(al, de), f.mul(be, ga))
    # target a: substitute the adjugate into the degree-n homogenization of a
    a2 = BinaryForm.from_affine(a, n).substituted(de, f.neg(be), f.neg(ga), al).affine()
    if a2.degree != n:
        raise BadSupport("support meets the pole of the coordinate change")
    a2, _ = a2.monic()
    # numerator of b((delta x' - beta)/(-gamma x' + alpha)) at padding degree n-1
    num = BinaryForm(f, n - 1, [b[i] for i in range(n)]).substituted(de, f.neg(be), f.neg(ga), al).affine()
    lin = Poly(f, [al, f.neg(ga)])  # alpha - gamma x'
    b2 = num
    for _ in range(5 - n):
        b2 = b2 * lin
    b2 = b2.scale(f.mul(w_scale, f.inv(f.pow(det, 4)))) % a2
    if not ((b2 * b2 - target_F) % a2).is_zero:
        raise ModelMismatch("transported pair misses the target curve")
    return a2, b2


def triple_class_two_stage(R, q, odd_big):
    """The reverse's triple class of the X-point q, built on the construction's curve and carried to the
    odd model in two checked stages: by pre_transform^-1 to the source curve, then by the model's tau."""
    fib = R.fib
    big, t0, b = odd_big.field, q.t, q.b
    aq = Poly(big, [c.eval(t0) for c in fib.over(big).G])
    rho = R.rho_of(big, R.rho_at(big, t0), b[5])
    bq = Poly(big, [b[2], b[4], b[5]]).scale(big.inv(rho))
    g = fib.gmap
    if not g.pre_transform.is_identity:
        pre = g.pre_transform.base_change(big) if big is not g.field else g.pre_transform
        FH = embed_poly(g.source_curve.F, g.field, big)
        aq, bq = mumford_transform(aq, bq, pre.inverse().m, big.one, big, FH)
    tau = odd_big.tau
    if not tau.is_identity:
        aq, bq = mumford_transform(aq, bq, tau.m, big.pow(tau.det, 4), big, odd_big.F)
    return DivisorClass(odd_big, aq, bq)


def count_X_open(fib, X, k):
    """Number of F_{q^k}-points of X over unramified fiber coordinates, fiber by fiber."""
    p = fib.field.p
    if p**k > _COUNT_GUARD:
        raise TooLarge(f"{p}^{k} exceeds the enumeration guard")
    field = make_extension(p, k)
    n = 0
    for t0 in field.elements():
        if fib.ramified_at(t0, field):
            continue
        n += len(fiber_points(X, t0, field))
    return n


def etale_square_roots_xgcd(Gt, parts, field):
    """Every b in field[x]/(Gt) with b = +/-r modulo each irreducible factor h, as (b0, b1, b2), by xgcd idempotents.

    parts is [(h, r)], r a Poly.  The idempotent of h is (Gt/h) * s reduced mod Gt, s from
    xgcd(Gt/h, h); the sign on the first factor stays + and bit i - 1 of the mask negates factor i.
    """
    crt = []
    for h, _ in parts:
        m_i = Gt // h
        g, s, _ = xgcd_by_polys(m_i, h)
        if g.degree != 0:
            raise NotSquarefree("the fiber cubic has a repeated factor")
        crt.append((m_i * s) % Gt)
    out = []
    for mask in range(2 ** (len(parts) - 1)):
        b = Poly.zero(field)
        for i, ((_, rt), u) in enumerate(zip(parts, crt)):
            term = rt * u
            b = b - term if i and (mask >> (i - 1)) & 1 else b + term
        b = b % Gt
        out.append((b[0], b[1], b[2]))
    return out


def gcd_by_polys(a, b):
    """The monic gcd by Euclid on Poly objects: each remainder made monic by Poly.monic, then Poly.__mod__."""
    while not b.is_zero:
        b = b.monic()[0]
        a, b = b, a % b
    return a if a.is_zero else a.monic()[0]


def xgcd_by_polys(a, b):
    """(g, s, t) with g monic, s*a + t*b = g, dividing by each remainder as it comes and scaling once at the end."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    c = f.inv(r0.lc)
    return r0.scale(c), s0.scale(c), t0.scale(c)


def rref_by_field_ops(rows, field):
    """Reduced row echelon form by the field context's sub, mul and inv, every pivot inverted and
    every row updated: (rows, pivot column list).  The elimination oracle for fields._rref."""
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


def chord_rows_full_expansion(S, H):
    """The reduced row echelon form over F_p of every quadratic's hyperplane row, each expanded on the
    F_p power basis of its field, whatever its rank: the chord matrix when that rank is 4."""
    vectors = []
    for q in S.quads:
        row = hyperplane_row(q)
        cols = [q.field.coeffs(x) for x in row]
        vectors.extend([c[i] for c in cols] for i in range(q.field.k))
    rows, _ = rref_by_field_ops(vectors, H.field)
    return [tuple(r) for r in rows]


def _reduce_mumford_by_polys(F, a, b):
    """Cantor's reduction on Poly objects."""
    while a.degree > 3:
        a2, rem = (F - b * b).divmod(a)
        if not rem.is_zero:
            raise ModelMismatch("b^2 != F mod a in the Cantor reduction: not a Mumford pair")
        a2, _ = a2.monic()
        b = (-b) % a2
        a = a2
    a, _ = a.monic()
    b = b % a if a.degree > 0 else Poly.zero(F.field)
    return a, b


def cantor_add_by_polys(D1, D2):
    """Cantor composition and reduction on Poly objects: two extended gcds, whatever d1 = gcd(a1, a2) is."""
    if D1.model != D2.model:
        raise ModelMismatch("divisor classes live on different models")
    F = D1.model.F
    a1, b1 = D1.a, D1.b
    a2, b2 = D2.a, D2.b
    if a1.degree == 0:
        return D2
    if a2.degree == 0:
        return D1
    d1, e1, e2 = xgcd_by_polys(a1, a2)
    bsum = b1 + b2
    if d1.degree == 0 and bsum.is_zero:
        d = d1
        s1, s2 = e1, e2
        s3 = Poly.zero(F.field)
    else:
        d, c1, c2 = xgcd_by_polys(d1, bsum)
        s1 = c1 * e1
        s2 = c1 * e2
        s3 = c2
    a = (a1 * a2) // (d * d)
    num = s1 * a1 * b2 + s2 * a2 * b1 + s3 * (b1 * b2 + F)
    q, rem = num.divmod(d)
    if not rem.is_zero:
        raise ModelMismatch("the Cantor composition does not divide: not a Mumford pair")
    b = q % a
    a, b = _reduce_mumford_by_polys(F, a, b)
    return DivisorClass(D1.model, a, b, check=False)


def effective_points(D):
    """The points of the effective part, [(field, x, y)] sorted per factor by encoding: each orbit of
    evaluation._support_orbits spelled out by Frobenius maps."""
    orbits = _support_orbits(D)
    if orbits is None:
        return None
    return [(K, K.frobenius_power(x, j), K.frobenius_power(y, j)) for K, x, y, js in orbits for j in js]


def square_and_multiply(K, a, n):
    """a^n for n >= 0 in the ring K, right to left, by K.mul alone: no shortcut for any a."""
    r = K.one
    while n:
        if n & 1:
            r = K.mul(r, a)
        a = K.mul(a, a)
        n >>= 1
    return r


def cascade_fold(K, c):
    """The element of c, a sum of raw products in a packed ring over F_p, by the cascade fold.

    From the top slot of c down to slot deg, each slot j is folded back as
    (c_j mod p) * packed(-modulus mod p) << w (j - deg), so a fold lands in
    the slots below it that are still to be folded; then every low slot is
    reduced mod p.
    """
    p, m, w, d = K.p, K._mask, K._top + 1, K.deg
    negmod = K.from_coeffs([-c % p for c in K.modulus[:-1]])
    for j in range(-(-c.bit_length() // w) - 1, d - 1, -1):
        c += (((c >> j * w) & m) % p * negmod) << (j - d) * w
    return sum(((c >> i * w) & m) % p << i * w for i in range(d))


def cascade_pow(K, a, n):
    """a^n for n > 0, left to right, every product reduced by cascade_fold."""
    r = a
    for bit in bin(n)[3:]:
        r = cascade_fold(K, r * r)
        if bit == "1":
            r = cascade_fold(K, r * a)
    return r


def s_terms_expanded(f0, f1, f2, g0, g1, g2, two, three):
    """The norm of f0 + f1 x + f2 x^2 down x^3 + g2 x^2 + g1 x + g0, as its thirteen expanded terms."""
    return (
        f0 * f0 * f0
        - f0 * f0 * f1 * g2
        - two * f0 * f0 * f2 * g1
        + f0 * f0 * f2 * g2 * g2
        + f0 * f1 * f1 * g1
        + three * f0 * f1 * f2 * g0
        - f0 * f1 * f2 * g1 * g2
        - two * f0 * f2 * f2 * g0 * g2
        + f0 * f2 * f2 * g1 * g1
        - f1 * f1 * f1 * g0
        + f1 * f1 * f2 * g0 * g2
        - f1 * f2 * f2 * g0 * g1
        + f2 * f2 * f2 * g0 * g0
    )
