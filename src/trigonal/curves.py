"""Genus-3 hyperelliptic curves, odd models, and Cantor divisor arithmetic.

A curve is y^2 = F(x) with F squarefree of degree 7 or 8, kept alongside its
degree-8 homogenization F~(u, v).  Divisor-class arithmetic runs on an odd
(degree-7) model: degree-8 curves are carried to one by a Mobius change of
x-coordinate moving a rational Weierstrass point to infinity, and the
transform is recorded so points and divisors can be mapped both ways.

Points at infinity are represented in weighted-projective form (u : v : w)
with weights (1, 1, 4): affine (x, y) is (x : 1 : y) and infinity is (1 : 0 : w).
"""

from __future__ import annotations

from .errors import (
    ModelMismatch,
    NoRationalWeierstrassPoint,
    NotAFactor,
    NotAMultiple,
    TooFewPoints,
    TooLarge,
)
from .fields import _prime_divisors, embed, embed_poly, make_extension
from .polyring import BinaryForm, Poly, is_squarefree, roots, xgcd

_COUNT_GUARD = 1 << 30


class Mobius:
    """x -> (a x + b) / (c x + d) on P^1, with the induced curve/point maps."""

    __slots__ = ("field", "m")

    def __init__(self, field, a, b, c, d):
        self.field = field
        det = field.sub(field.mul(a, d), field.mul(b, c))
        if det == field.zero:
            raise ValueError("singular Mobius matrix")
        self.m = (a, b, c, d)

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

    def apply_uvw(self, pt, w_scale=None):
        """Image of a weighted-projective point (u, v, w).

        The default w-scaling det^4 is correct when the target curve carries
        the pulled-back form F~ o adj(m); pass w_scale explicitly otherwise.
        """
        f = self.field
        a, b, c, d = self.m
        u, v, w = pt
        if w_scale is None:
            w_scale = f.pow(self.det, 4)
        return (
            f.add(f.mul(a, u), f.mul(b, v)),
            f.add(f.mul(c, u), f.mul(d, v)),
            f.mul(w_scale, w),
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

    __slots__ = ("field", "form", "F")

    def __init__(self, field, form: BinaryForm):
        if form.d != 8:
            raise ValueError("hyperelliptic form must have total degree 8")
        if form.is_zero or not form.is_squarefree():
            raise ValueError("hyperelliptic polynomial must be squarefree")
        self.field = field
        self.form = form
        self.F = form.affine()
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
        return HCurve(new_field, embed_poly(self.form, self.field, new_field))

    def on_curve(self, pt) -> bool:
        u, v, w = pt
        f = self.field
        return f.sqr(w) == self.form.eval(u, v)

    def __eq__(self, other):
        return isinstance(other, HCurve) and self.field is other.field and self.form == other.form

    def __hash__(self):
        return hash((id(self.field), self.form.c))

    def __repr__(self):
        return f"HCurve(p={self.field.p}, F={self.F!r})"


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
        """Odd model over the given field (default: the curve's own field)."""
        if field is None or field is H.field:
            field = H.field
            Hf = H
        else:
            Hf = H.base_change(field)
        if Hf.F.degree == 7:
            return cls(H, Hf, Mobius.identity(field))
        rs = roots(Hf.F)
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

    def to_source(self, pt):
        """Map an odd-model point (u, v, w) back to the source curve.

        The inverse of (u, v, w) -> (m(u, v), det^4 w) applies the adjugate
        matrix with no w-scaling: F~(adj(m)(u, v)) is literally w^2 there.
        """
        return normalize_uvw(self.field, self.tau.inverse().apply_uvw(pt, self.field.one))

    def __eq__(self, other):
        return (
            isinstance(other, OddModel)
            and self.field is other.field
            and self.source == other.source
            and self.tau == other.tau
        )

    def __hash__(self):
        return hash((id(self.field), self.source.form.c, self.tau.m))


def to_odd_model(H: HCurve, field=None) -> OddModel:
    """Spec-level entry point; see OddModel.from_curve."""
    return OddModel.from_curve(H, field)


class DivisorClass:
    """Reduced Mumford pair (a, b) on an odd model: deg a <= 3, b^2 = F mod a."""

    __slots__ = ("model", "a", "b")

    def __init__(self, model: OddModel, a: Poly, b: Poly, check=True):
        self.model = model
        self.a = a
        self.b = b
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


def _reduce_mumford(F: Poly, a: Poly, b: Poly):
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


def cantor_add(D1: DivisorClass, D2: DivisorClass) -> DivisorClass:
    """Group law on Pic^0 via Cantor composition and reduction."""
    if D1.model != D2.model:
        raise ModelMismatch("divisor classes live on different models")
    F = D1.model.F
    a1, b1 = D1.a, D1.b
    a2, b2 = D2.a, D2.b
    if a1.degree == 0:
        return D2
    if a2.degree == 0:
        return D1
    d1, e1, e2 = xgcd(a1, a2)
    bsum = b1 + b2
    if d1.degree == 0 and bsum.is_zero:
        d = d1
        s1, s2 = e1, e2
        s3 = Poly.zero(F.field)
    else:
        d, c1, c2 = xgcd(d1, bsum)
        s1 = c1 * e1
        s2 = c1 * e2
        s3 = c2
    a = (a1 * a2) // (d * d)
    num = s1 * a1 * b2 + s2 * a2 * b1 + s3 * (b1 * b2 + F)
    q, rem = num.divmod(d)
    if not rem.is_zero:
        raise ModelMismatch("the Cantor composition does not divide: not a Mumford pair")
    b = q % a
    a, b = _reduce_mumford(F, a, b)
    return DivisorClass(D1.model, a, b, check=False)


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


def lagrange_interpolate(field, pts) -> Poly:
    """The unique poly of degree < len(pts) through distinct-x points."""
    total = Poly.zero(field)
    for i, (xi, yi) in enumerate(pts):
        num = Poly.const(field, yi)
        den = field.one
        for j, (xj, _) in enumerate(pts):
            if i != j:
                num = num * Poly(field, [field.neg(xj), field.one])
                den = field.mul(den, field.sub(xi, xj))
        total = total + num.scale(field.inv(den))
    return total


def random_class_on(model: OddModel, rng) -> DivisorClass:
    """A pseudo-uniform class from three random points on the given odd model.

    Draws x until three of them have F(x) a nonzero square; TooFewPoints
    once every element of the field has been drawn without three such x.
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
    a = Poly.one(field)
    for x, _ in pts:
        a = a * Poly(field, [field.neg(x), field.one])
    b = lagrange_interpolate(field, pts)
    return DivisorClass(model, a, b)


def random_class(H: HCurve, k: int, rng) -> DivisorClass:
    """A pseudo-uniform class over F_{p^k} (on the odd model built there)."""
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


def count_points(H: HCurve, k: int) -> int:
    """#H(F_{p^k}), including points at infinity, with F evaluated once per Frobenius orbit.

    F has F_p coefficients, so F(x^p) = F(x)^p, which is zero or a nonzero
    square exactly when F(x) is: every orbit of x -> x^p counts its size
    times the points over its first element.  Squareness is the field's
    Euler criterion (through the norm on an extension).
    """
    p = H.field.p
    if H.field.k != 1:
        raise ModelMismatch("count_points expects a curve over a prime field")
    if p**k > _COUNT_GUARD:
        raise TooLarge(f"{p}^{k} exceeds the enumeration guard 2^30")
    field = make_extension(p, k)
    F = embed_poly(H.F, H.field, field)
    # bit i marks the element of encoding i as a conjugate of an orbit met
    # before: one bit per element where a set of the pending conjugates
    # held tens of bytes each
    seen = bytearray((field.order >> 3) + 1)
    n = 0
    for i in range(field.order):
        if seen[i >> 3] >> (i & 7) & 1:
            continue
        x = field.decode(i)
        size = 1
        y = field.frobenius_power(x, 1)
        while y != x:
            j = field.encode(y)
            seen[j >> 3] |= 1 << (j & 7)
            size += 1
            y = field.frobenius_power(y, 1)
        fx = F.eval(x)
        if fx == field.zero:
            n += size
        elif field.is_square(fx):
            n += 2 * size
    # points at infinity
    if H.F.degree == 7:
        n += 1
    elif field.is_square(field.from_int(H.F.lc)):
        n += 2
    return n


def l_polynomial(H: HCurve):
    """Integer coefficients [1, c1, ..., c6] of the zeta numerator L(T)."""
    q = H.field.p
    if q**3 > _COUNT_GUARD:
        raise TooLarge(f"{q}^3 exceeds the enumeration guard 2^30")
    n1 = count_points(H, 1)
    n2 = count_points(H, 2)
    n3 = count_points(H, 3)
    s1 = q + 1 - n1
    s2 = q * q + 1 - n2
    s3 = q**3 + 1 - n3
    e1 = s1
    num = e1 * s1 - s2
    if num % 2:
        raise ModelMismatch(f"point counts {n1}, {n2}, {n3} give a non-integral e2")
    e2 = num // 2
    num = e2 * s1 - e1 * s2 + s3
    if num % 3:
        raise ModelMismatch(f"point counts {n1}, {n2}, {n3} give a non-integral e3")
    e3 = num // 3
    c1, c2, c3 = -e1, e2, -e3
    return [1, c1, c2, c3, q * c2, q * q * c1, q**3]


def jacobian_order(H: HCurve) -> int:
    """#Jac(H)(F_q) = L(1)."""
    return sum(l_polynomial(H))
