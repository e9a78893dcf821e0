"""Genus-3 hyperelliptic curves, odd models, and Cantor divisor arithmetic.

A curve is y^2 = F(x) with F squarefree of degree 7 or 8, kept alongside its
degree-8 homogenization F~(u, v).  Divisor-class arithmetic runs on an odd
(degree-7) model: degree-8 curves are carried to one by a Mobius change of
x-coordinate moving a rational Weierstrass point to infinity, and the
transform is recorded so points and divisors can be mapped both ways.
A curve keeps the distinct-degree split of F (OrbitSplit) once an odd model
is built on its own field: that model's rational Weierstrass point, the
tractable-subgroup enumeration and every later odd model share one x^q mod F.

Points at infinity are represented in weighted-projective form (u : v : w)
with weights (1, 1, 4): affine (x, y) is (x : 1 : y) and infinity is (1 : 0 : w).
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import ModelMismatch, NoRationalWeierstrassPoint, NotAFactor, NotAMultiple, NotSquarefree, TooFewPoints, TooLarge
from .fields import _prime_divisors, _slot_layout, embed, embed_poly, make_extension
from .polyring import BinaryForm, Poly, _convolve, _distinct_degree, _divide, _equal_degree, _LazyRng, _sum_of, _unpacked
from .polyring import crt_terms, is_squarefree, roots, xgcd

_COUNT_GUARD = 1 << 30


class Mobius:
    """x -> (a x + b) / (c x + d) on P^1, with the induced curve/point maps."""

    __slots__ = ("field", "m")

    def __init__(self, field, a, b, c, d):
        self.field, self.m = field, (a, b, c, d)
        if self.det == field.zero:
            raise ValueError("singular Mobius matrix")

    @classmethod
    def identity(cls, field):
        return cls(field, field.one, field.zero, field.zero, field.one)

    @property
    def is_identity(self):
        f = self.field
        a, b, c, d = self.m
        return b == f.zero and c == f.zero and a == d

    @property
    def det(self):
        f = self.field
        a, b, c, d = self.m
        return f.sub(f.mul(a, d), f.mul(b, c))

    def inverse(self):
        a, b, c, d = self.m
        f = self.field
        return Mobius(f, d, f.neg(b), f.neg(c), a)

    def apply_uvw(self, pt):
        """Image of a weighted-projective point (u, v, w) on the curve of F~ o adj(m).

        w scales by det^4: F~(adj(m) m (u, v)) = det^8 F~(u, v) = (det^4 w)^2.
        """
        f = self.field
        a, b, c, d = self.m
        u, v, w = pt
        return (
            f.add(f.mul(a, u), f.mul(b, v)),
            f.add(f.mul(c, u), f.mul(d, v)),
            f.mul(f.pow(self.det, 4), w),
        )

    def pullback_form(self, form: BinaryForm) -> BinaryForm:
        """The form in new coordinates: F~'(u', v') = F~(adj applied to (u', v'))."""
        a, b, c, d = self.m
        f = self.field
        return form.substituted(d, f.neg(b), f.neg(c), a)

    def base_change(self, new_field):
        e = lambda x: embed(x, self.field, new_field)
        a, b, c, d = self.m
        return Mobius(new_field, e(a), e(b), e(c), e(d))

    def __eq__(self, other):
        return isinstance(other, Mobius) and self.field is other.field and self.m == other.m

    def __hash__(self):
        return hash((id(self.field), self.m))


def normalize_uvw(field, pt):
    """Scale (u, v, w) to (x, 1, y) or (1, 0, w)."""
    u, v, w = pt
    f = field
    if v != f.zero:
        vi = f.inv(v)
        return (f.mul(u, vi), f.one, f.mul(w, f.pow(vi, 4)))
    ui = f.inv(u)
    return (f.one, f.zero, f.mul(w, f.pow(ui, 4)))


class HCurve:
    """y^2 = F(x) with F squarefree of degree 7 or 8 over a field of char > 3."""

    __slots__ = ("field", "form", "F", "_split")

    def __init__(self, field, form: BinaryForm, check=True):
        if form.d != 8:
            raise ValueError("hyperelliptic form must have total degree 8")
        if form.is_zero or check and not form.is_squarefree():
            raise ValueError("hyperelliptic polynomial must be squarefree")
        self.field = field
        self.form = form
        self.F = form.affine()
        self._split = None
        if self.F.degree not in (7, 8):
            raise ValueError("affine degree must be 7 or 8")

    @classmethod
    def from_coeffs(cls, field, coeffs):
        """Curve from the 9 ascending coefficients a0..a8 of F (a8 may be 0), ints read as F_p values."""
        return cls(field, BinaryForm.from_ints(field, 8, coeffs))

    def twist(self, c):
        """Quadratic twist y^2 = c * F(x)."""
        return HCurve(self.field, self.form.scale(c))

    def base_change(self, new_field):
        """The curve over an extension: squarefreeness survives it, so it is not tested again."""
        return HCurve(new_field, embed_poly(self.form, self.field, new_field), check=False)

    def on_curve(self, pt) -> bool:
        u, v, w = pt
        f = self.field
        return f.sqr(w) == self.form.eval(u, v)

    def orbit_split(self, keep=False):
        """The curve's OrbitSplit: the kept one if there is one, else a new one, kept when keep is set."""
        split = self._split or OrbitSplit(self)
        if keep:
            self._split = split
        return split

    def __eq__(self, other):
        return isinstance(other, HCurve) and self.field is other.field and self.form == other.form

    def __hash__(self):
        return hash((id(self.field), self.form.c))

    def __repr__(self):
        return f"HCurve(p={self.field.p}, F={self.F!r})"


class Orbit(NamedTuple):
    """One Frobenius orbit of Weierstrass points."""

    size: int
    poly: Poly | None  # its monic irreducible factor of F; None for the factor v
    xp: Poly | None  # x^q mod poly, q the order of the curve's field


class OrbitSplit:
    """The Frobenius orbits of a curve's Weierstrass points, found once per curve.

    Construction runs only the distinct-degree step on the monic affine
    part F of F~: for each orbit size d, the product of the orbits of that
    size.  That fixes the pattern.  The equal-degree step splits a part
    when it is first asked for, and every part draws from one rng stream
    in the order of the parts: roots() splits the degree-1 part alone, for
    the odd model's rational Weierstrass point, and orbits() the rest, with
    the draws of one orbits() call.  x^q mod F is computed once, in the
    distinct-degree ring F_q[x]/(F), which also serves the equal-degree
    step; reduced modulo each orbit factor, it seeds the Frobenius matrices
    of the orbit's algebra and of its root finding.  A curve keeps its
    split (HCurve.orbit_split) once OddModel.from_curve has used it, so the
    odd model, the enumeration and every random class share one split.
    """

    def __init__(self, H: HCurve):
        F = H.F.monic()[0]
        # an HCurve's constructor has already rejected a non-squarefree form
        if not isinstance(H, HCurve) and not is_squarefree(F):
            raise NotSquarefree("F~ has a repeated factor")
        self.F = F
        self.has_v = H.form.v_multiplicity == 1
        self.parts, self.ring = _distinct_degree(F)
        self.xp = _unpacked(self.ring, self.ring.xq())
        sizes = [d for g, d in self.parts for _ in range(g.degree // d)]
        sizes += [1] * self.has_v
        self.pattern = tuple(sorted(sizes, reverse=True))
        self._rng, self._found = _LazyRng(F), {}

    def _factors(self, g, d):
        """The monic irreducible factors of the degree-d part g, split on the first call."""
        if d not in self._found:
            self._found[d] = _equal_degree(g, d, self._rng, self.ring)
        return self._found[d]

    def roots(self):
        """The roots of F in the curve's field, from the degree-1 part (it comes first)."""
        f = self.F.field
        return [f.neg(h[0]) for g, d in self.parts[:1] if d == 1 for h in self._factors(g, d)]

    def orbits(self):
        """[Orbit], the factor v first, then by the distinct-degree parts."""
        out = [Orbit(1, None, None)] if self.has_v else []
        for g, d in self.parts:
            out += [Orbit(d, h, self.xp % h) for h in self._factors(g, d)]
        return out


class OddModel:
    """A degree-7 model of a curve, with the Mobius transform that reaches it."""

    __slots__ = ("source", "curve", "tau", "field", "F")

    def __init__(self, source: HCurve, curve: HCurve, tau: Mobius):
        self.source = source
        self.curve = curve
        self.tau = tau
        self.field = curve.field
        self.F = curve.F

    @classmethod
    def from_curve(cls, H: HCurve, field=None):
        """Odd model over the given field (default: the curve's own field).

        A septic is its own odd model.  An octic's least root by encoding
        goes to infinity: on the curve's own field the root comes from its
        OrbitSplit, which the curve then keeps; over an extension, from roots().
        """
        field = H.field if field is None else field
        Hf = H if field is H.field else H.base_change(field)
        if Hf.F.degree == 7:
            return cls(H, Hf, Mobius.identity(field))
        rs = H.orbit_split(keep=True).roots() if Hf is H else roots(Hf.F)
        if not rs:
            raise NoRationalWeierstrassPoint(
                f"F has no root over GF({field.p}^{field.k}); use an extension"
            )
        x0 = min(rs, key=field.encode)
        tau = Mobius(field, field.zero, field.one, field.one, field.neg(x0))
        new_form = tau.pullback_form(Hf.form)
        odd = HCurve(field, new_form)
        if odd.F.degree != 7:
            raise ModelMismatch(f"moving the root {field.encode(x0)} to infinity left degree {odd.F.degree}")
        return cls(H, odd, tau)

    def base_change(self, new_field):
        """The same model (same tau) over an extension."""
        return OddModel(
            self.source.base_change(new_field),
            self.curve.base_change(new_field),
            self.tau.base_change(new_field),
        )

    def to_odd(self, pt):
        """Map a source point (u, v, w) to the odd model."""
        return normalize_uvw(self.field, self.tau.apply_uvw(pt))

    def __eq__(self, other):
        return (
            isinstance(other, OddModel)
            and self.field is other.field
            and self.source == other.source
            and self.tau == other.tau
        )

    def __hash__(self):
        return hash((id(self.field), self.source.form.c, self.tau.m))


class DivisorClass:
    """Reduced Mumford pair (a, b) on an odd model: deg a <= 3, b^2 = F mod a (drawn: see random_class_on)."""

    __slots__ = ("model", "a", "b", "drawn")

    def __init__(self, model: OddModel, a: Poly, b: Poly, check=True):
        self.model = model
        self.a = a
        self.b = b
        self.drawn = None
        if check:
            if a.degree > 3 or a.lc != model.field.one:
                raise ModelMismatch("a Mumford a must be monic of degree at most 3")
            if not (b.is_zero or b.degree < a.degree):
                raise ModelMismatch("a Mumford b must have degree below deg a")
            if not ((b * b - model.F) % a).is_zero:
                raise ModelMismatch("b^2 != F mod a")

    @classmethod
    def identity(cls, model):
        return cls(model, Poly.one(model.field), Poly.zero(model.field), check=False)

    @property
    def is_identity(self):
        return self.a.degree == 0

    def __eq__(self, other):
        return (
            isinstance(other, DivisorClass)
            and self.model == other.model
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.a.c, self.b.c))

    def __repr__(self):
        return f"[a={self.a!r}, b={self.b!r}]"

    def __add__(self, other):
        return cantor_add(self, other)

    def __neg__(self):
        return DivisorClass(self.model, self.a, (-self.b) % self.a, check=False)

    def __sub__(self, other):
        return cantor_add(self, -other)

    def __rmul__(self, n: int):
        return cantor_mul(self, n)

    def order(self, group_order: int) -> int:
        """Exact order given a multiple of it (e.g. #Jac from l_polynomial)."""
        n = group_order
        if not cantor_mul(self, n).is_identity:
            raise NotAMultiple(f"{n} is not a multiple of the order of {self!r}")
        o = n
        for q in _prime_divisors(n):
            while o % q == 0 and cantor_mul(self, o // q).is_identity:
                o //= q
        return o


def _reduce_mumford(f, F, a, b):
    """Cantor's reduction of a semi-reduced pair of monic a and reduced b, on coefficient lists."""
    one, fold, neg = f.one, f._fold, f.neg
    while len(a) > 4:
        r = _sum_of(f, [(one, F, 0)] + [(neg(c), b, i) for i, c in enumerate(b)])
        q = [0] * max(0, len(r) - len(a) + 1)
        if _divide(f, r, a[:-1], None, q):
            raise ModelMismatch("b^2 != F mod a in the Cantor reduction: not a Mumford pair")
        c = f.inv(q[-1])
        a = [fold(x * c) for x in q]
        b = _divide(f, [neg(x) for x in b], a[:-1], None, None)
    return a, b if len(a) > 1 else []


def cantor_add(D1: DivisorClass, D2: DivisorClass) -> DivisorClass:
    """Group law on Pic^0 via Cantor composition and reduction, on coefficient lists.

    One Euclid gives d1 = gcd(a1, a2) and e2 = a2^-1 modulo a1 / d1.  When
    d1 = 1 (disjoint supports) the composition is a = a1 a2 and
    b = b2 + a2 (e2 (b1 - b2) mod a1), already of degree below a's; it
    is b1 modulo a1 and b2 modulo a2, and a semi-reduced pair is unique.
    Otherwise (doubling, or two points over one fiber in the reverse) a
    second Euclid gives d = gcd(d1, b1 + b2) = c1 d1 + s3 (b1 + b2), c1 by
    exact division.  With e1 a1 = d1 - e2 a2, Cantor's numerator
    s1 a1 b2 + s2 a2 b1 + s3 (b1 b2 + F) (s1 = c1 e1, s2 = c1 e2, s3) is
    d b2 + c1 e2 a2 (b1 - b2) + s3 (F - b2^2), and d divides a2.
    """
    if D1.model != D2.model:
        raise ModelMismatch("divisor classes live on different models")
    f, F = D1.model.field, D1.model.F.c
    a1, b1, a2, b2 = D1.a.c, D1.b.c, D2.a.c, D2.b.c
    if len(a1) == 1:
        return D2
    if len(a2) == 1:
        return D1
    one = f.one
    d1, e2 = xgcd(f, a2, a1)
    if len(d1) == 1:
        a = _convolve(f, a1, a2)
        diff = _sum_of(f, [(one, b1, 0), (f.neg(one), b2, 0)])
        u = _divide(f, _convolve(f, e2, diff), a1[:-1], None, None) if diff else []
        b = _sum_of(f, [(one, b2, 0)] + [(c, a2, i) for i, c in enumerate(u)])
    else:
        A2, B1, B2 = D2.a, D1.b, D2.b
        d, s3 = (Poly(f, c, trim=False) for c in xgcd(f, (B1 + B2).c, d1))
        c1 = (d - s3 * (B1 + B2)) // Poly(f, d1, trim=False)
        w, rem = (D1.model.F - B2 * B2).divmod(d)
        if not rem.is_zero:
            raise ModelMismatch("the Cantor composition does not divide: not a Mumford pair")
        A = (D1.a * A2) // (d * d)
        a, b = A.c, (((A2 // d) * c1 * Poly(f, e2, trim=False) * (B1 - B2) + s3 * w + B2) % A).c
    a, b = _reduce_mumford(f, F, a, b)
    return DivisorClass(D1.model, Poly(f, a, trim=False), Poly(f, b, trim=False), check=False)


def cantor_mul(D: DivisorClass, n: int) -> DivisorClass:
    """[n] D by double-and-add."""
    if n < 0:
        return cantor_mul(-D, -n)
    acc = DivisorClass.identity(D.model)
    base = D
    while n:
        if n & 1:
            acc = cantor_add(acc, base)
        n >>= 1
        if n:
            base = cantor_add(base, base)
    return acc


def point_class(model: OddModel, pt) -> DivisorClass:
    """[(P) - (infinity)] for a point P = (u, v, w) on the odd model."""
    f = model.field
    u, v, w = normalize_uvw(f, pt)
    if v == f.zero:
        return DivisorClass.identity(model)
    if not model.curve.on_curve((u, v, w)):
        raise ModelMismatch(f"{(u, v, w)!r} is not a point of the odd model")
    a = Poly(f, [f.neg(u), f.one])
    b = Poly.const(f, w)
    return DivisorClass(model, a, b, check=False)


def class_from_points(model: OddModel, plus, minus) -> DivisorClass:
    """[sum (P_i) - sum (Q_j)] from odd-model points."""
    D = DivisorClass.identity(model)
    for pt in plus:
        D = cantor_add(D, point_class(model, pt))
    for pt in minus:
        D = cantor_add(D, -point_class(model, pt))
    return D


def random_class_on(model: OddModel, rng) -> DivisorClass:
    """A pseudo-uniform class from three random points on the given odd model.

    Draws x until three of them have F(x) a nonzero square; TooFewPoints
    once every element of the field has been drawn without three such x.
    The class keeps the three points, [(x, y)], as its drawn support.
    """
    field = model.field
    F = model.F
    pts = []
    drawn = set()
    while len(pts) < 3:
        if len(drawn) == field.order:
            raise TooFewPoints(f"fewer than three affine x over {field!r} with F(x) a nonzero square")
        x = field.random(rng)
        if x in drawn:
            continue
        drawn.add(x)
        fx = F.eval(x)
        y = None if fx == field.zero else field.sqrt(fx)
        if y is None:
            continue
        if rng.getrandbits(1):
            y = field.neg(y)
        pts.append((x, y))
    parts = [(Poly(field, [field.neg(x), field.one]), None, y) for x, y in pts]
    a = parts[0][0] * parts[1][0] * parts[2][0]
    D = DivisorClass(model, a, sum(crt_terms(field, parts), Poly.zero(field)))
    D.drawn = tuple(pts)
    return D


def random_class(H: HCurve, k: int, rng) -> DivisorClass:
    """A pseudo-uniform class over F_{p^k} (on the odd model built there).

    Over the curve's own field the model's root comes from the curve's kept
    OrbitSplit, so repeated draws factor F once.
    """
    field = make_extension(H.field.p, k) if H.field.k == 1 else H.field
    model = OddModel.from_curve(H, field)
    return random_class_on(model, rng)


def two_torsion_from_pair(model: OddModel, quad: BinaryForm) -> DivisorClass:
    """The 2-torsion class [(W') - (W'')] attached to a quadratic factor of F~."""
    if quad.d != 2:
        raise NotAFactor("expected a binary quadratic form")
    moved = model.tau.pullback_form(embed_poly(quad, quad.field, model.field))
    a = moved.affine()
    if a.degree < 1:
        raise NotAFactor("degenerate pair (double point at infinity)")
    a, _ = a.monic()
    if not is_squarefree(a):
        raise NotAFactor("pair is not squarefree")
    if not (model.F % a).is_zero:
        raise NotAFactor("quadratic does not divide the hyperelliptic polynomial")
    return DivisorClass(model, a, Poly.zero(model.field), check=False)


def frobenius_line_orbits(field):
    """(x0, size): one affine line x0 + F_p, x0 with no constant coefficient, per orbit of x -> x^p on the lines."""
    p = field.p
    seen = bytearray(field.order // p)  # the line of x0 at encode(x0) / p
    for i, met in enumerate(seen):
        if not met:
            x0 = y = field.decode(i * p)
            size = 0
            while size == 0 or y != x0:
                y = field.frobenius_power(y, 1)
                y = field.sub(y, field.coeffs(y)[0])
                seen[field.encode(y) // p] = 1
                size += 1
            yield x0, size


def count_points(H: HCurve, k: int) -> int:
    """#H(F_{p^k}), including points at infinity, along one affine F_p-line per Frobenius orbit of lines.

    F has F_p coefficients, so F(x^p) = F(x)^p: the lines of an orbit of
    frobenius_line_orbits carry as many points each.  Along x0 + F_p,
    D_j = Delta^j F(x0 + a), j = 0, ..., d = deg F, steps from a to a + 1
    as D_j + D_(j+1).  Delta^j F is a polynomial over F_p, so the D_j at
    a = 0 are sum_e x0^e R_e, R_e the y^e coefficients of the Delta^j F(y);
    these identities of polynomials hold for p <= d too, where the
    x0 + a + j repeat.  A value's square class is Euler's criterion on its
    norm, the product of its conjugates, the values at the same a on the
    lines of the x0^(p^i), i < k.  The table packs D_j of line i as one
    element in block j k + i, so a step is one SWAR add of the table and
    the table shifted down k blocks.
    """
    p = H.field.p
    if H.field.k != 1:
        raise ModelMismatch("count_points expects a curve over a prime field")
    if p**k > _COUNT_GUARD:
        raise TooLarge(f"{p}^{k} exceeds the enumeration guard 2^30")
    field, d = make_extension(p, k), H.F.degree
    top, mask, _, ones, _, half = _slot_layout(p, k)
    w = mask.bit_length()
    B, step = k * w, k * k * w  # a block holds one element, a step is k blocks
    emask, full = (1 << B) - 1, (1 << (d + 1) * step) - 1
    ones, half = ones * (full // emask), half * (full // emask)
    R, g = [0] * (d + 1), list(H.F.c)
    for j in range(d + 1):
        for e, c in enumerate(g):
            R[e] |= c << j * step
        g = [sum(comb(m, e) * g[m] for m in range(e + 1, len(g))) % p for e in range(len(g) - 1)]  # g(y + 1) - g(y)
    per = bytearray((pow(z, (p - 1) // 2, p) + 1) % p for z in range(p))  # points by the norm: 1 + its Legendre symbol
    mul, conj, n = field.mul, range(B, step, B), 0
    for x0, size in frobenius_line_orbits(field):
        c = 0
        for i in range(k):
            xe = [field.one, field.frobenius_power(x0, i)]
            while len(xe) <= d:
                xe.append(mul(xe[-1], xe[1]))
            c += sum(a * r for a, r in zip(xe, R)) << i * B  # each slot below (d + 1) p^2 < 2^w
        t, on_line = sum((c >> s & mask) % p << s for s in range(0, (d + 1) * step, w)), 0
        for _ in range(p):
            v = t & emask
            for s in conj:
                v = mul(v, t >> s & emask)
            on_line += per[v]
            t += t >> step
            t -= p * ((t + half) >> top & ones)
        n += size * on_line
    # points at infinity: one on a septic, else two or none as the norm lc^k is a square or not
    return n + (1 if d == 7 else per[pow(H.F.lc, k, p)])


def l_polynomial(H: HCurve):
    """Integer coefficients [1, c1, ..., c6] of the zeta numerator L(T)."""
    q = H.field.p
    if q**3 > _COUNT_GUARD:
        raise TooLarge(f"{q}^3 exceeds the enumeration guard 2^30")
    n1, n2, n3 = counts = [count_points(H, k) for k in (1, 2, 3)]
    s1, s2, s3 = (q**k + 1 - n for k, n in enumerate(counts, 1))
    num = s1 * s1 - s2
    if num % 2:
        raise ModelMismatch(f"point counts {n1}, {n2}, {n3} give a non-integral e2")
    e2 = num // 2
    num = e2 * s1 - s1 * s2 + s3
    if num % 3:
        raise ModelMismatch(f"point counts {n1}, {n2}, {n3} give a non-integral e3")
    return [1, -s1, e2, -(num // 3), q * e2, -q * q * s1, q**3]
