"""Evaluating the isogeny on divisor classes, and the reverse composition.

phi pushes a class through the correspondence: a good point P of H maps to
t = N(x(P))/D(x(P)), and of the (at most four) fiber points of X over t
exactly the two satisfying y(P) * rho(Q) = b02 + b12 x(P) + b22 x(P)^2 lie
under P on the correspondence.  The reverse composition pulls an X-point Q
back to the Mumford triple (G(t(Q), x), (b02 + b12 x + b22 x^2) / rho(Q))
on H and reduces with Cantor arithmetic.  reverse(phi(.)) acts as
multiplication by +/-2 with a consensus sign per construction, which is the
functional certificate used throughout verification.

phi lifts each point without factoring its fiber.  P = (x1, y1) makes x1 a
root of the cubic G(t, x), so the cubic is (x - x1) times a quadratic with
coefficients in K = F_{q^j} (j the degree of P's field), which splits over
K2 = F_{q^(2j)} with one square root.  The lift takes every square root in
the smallest field that holds its argument: the discriminant, and the values
of F at the other two roots when these lie in K, are rooted in K; conjugate
roots share one square root in K2.  The b with b(x1) = y1 are glued by CRT
over K2 from y1 and those square roots, and the sheet test keeps the two
with rho(b22) = b2.  fiber_points, which factors the fiber cubic,
enumerates whole fibers: it counts X's points and is the test oracle for the
lift.  Both glue square roots with the same code.

The support of a class is split with one root per irreducible factor
(polyring.split_root, over F_p or an extension base alike); its other roots
are Frobenius conjugates, and no roots() call runs.

Classes are always re-represented as a difference of two good degree-3
effective divisors before evaluation (support must avoid Weierstrass points,
zeros of D(x), infinity, and ramified fibers), by adding random auxiliary
classes until both sides are clean.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .construction import CorrespondenceR, CurveXModel
from .curves import _COUNT_GUARD, DivisorClass, OddModel, cantor_add, cantor_mul, random_class_on
from .errors import BadSupport, ContextMismatch, ModelMismatch, NotSquarefree, RamifiedFiber, TooLarge
from .fields import ExtField, embed, embed_poly, make_extension, project
from .polyring import BinaryForm, Poly, factorize, is_squarefree, roots, split_root, xgcd


@dataclass(frozen=True)
class XPoint:
    """A point of X|_U: fiber coordinate t and the six b_ij, over some F_{q^k}."""

    field: object
    t: object
    b: tuple  # (b00, b01, b02, b11, b12, b22)

    def bmap(self):
        return dict(zip(("b00", "b01", "b02", "b11", "b12", "b22"), self.b))

    def key(self):
        f = self.field
        return (f.k, f.encode(self.t), tuple(f.encode(x) for x in self.b))


@dataclass(frozen=True)
class XDivisor:
    """Formal integer combination of X-points (possibly over extensions)."""

    entries: tuple  # ((XPoint, weight), ...)

    @property
    def degree(self):
        return sum(w for _, w in self.entries)

    @property
    def is_empty(self):
        return not self.entries


def _square_root_parts(F: Poly, factors, field):
    """One square root of F modulo each irreducible factor h, as [(h, r)].

    factors is [(h, field[x]/(h))], with None as the ring of a linear h.
    None when F is a non-residue modulo some factor: then F has no square
    root in the etale algebra at all.
    """
    parts = []
    for h, ring in factors:
        if ring is None:
            rt = field.sqrt(F.eval(field.neg(h[0])))
            if rt is None:
                return None
            parts.append((h, Poly.const(field, rt)))
        else:
            rt = ring.sqrt(ring.from_coeffs((F % h).c))
            if rt is None:
                return None
            parts.append((h, Poly(field, ring.coeffs(rt))))
    return parts


def _etale_square_roots(Gt: Poly, parts, field):
    """Every b in field[x]/(Gt) with b = +/-r modulo each factor, as (b0, b1, b2).

    parts is [(h, r)] over the irreducible factors of Gt.  The sign on the
    first factor stays +, which picks one of b and -b; the other signs take
    all combinations, glued by CRT.
    """
    crt = []
    for h, _ in parts:
        m_i = Gt // h
        g, s, _ = xgcd(m_i, h)
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


def _fiber_point(X: CurveXModel, field, t0, b, scale):
    """The X-point with coordinates b_ij = scale * b_i * b_j, checked against the model."""
    coords = tuple(
        field.mul(scale, field.mul(u, v))
        for u, v in ((b[0], b[0]), (b[0], b[1]), (b[0], b[2]), (b[1], b[1]), (b[1], b[2]), (b[2], b[2]))
    )
    pt = XPoint(field, t0, coords)
    if not X.contains(field, t0, pt.bmap()):
        raise ModelMismatch("fiber point misses the model of X")
    return pt


def _fiber_cubic(fib, t0, field) -> Poly:
    """G(t0, x) over field; RamifiedFiber when the fiber over t0 degenerates."""
    if fib.ramified_at(t0, field):
        raise RamifiedFiber("t0 lies under a degenerate fiber")
    return Poly(field, [c.eval(t0) for c in fib.over(field).G])


def fiber_points(X: CurveXModel, t0, field) -> list:
    """All field-rational points of X over the unramified fiber coordinate t0.

    A rational point is a Frobenius-stable pair of complementary triples: its
    interpolation b is either fixed (b in the etale algebra field[x]/(G),
    b^2 = F) or negated by Frobenius.  Writing an anti-fixed b as sqrt(nu) * u
    for a fixed non-residue nu reduces the second kind to rational solutions
    of u^2 = F/nu with coordinates b_ij = nu * u_i u_j; a character-parity
    argument shows this branch is empty whenever the construction is
    isogeny-rational (lc(s) a square), but it does populate fibers on the
    non-rational side.  G(t0, x) is factored once for both branches.
    """
    fib = X.fib
    Gt = _fiber_cubic(fib, t0, field)
    over = fib.over(field)
    _, factors = factorize(Gt)
    if any(m != 1 for _, m in factors):
        raise NotSquarefree("the fiber cubic has a repeated factor")
    # one ring per factor serves both branches, Tonelli-Shanks constants included
    rings = [(h, ExtField(field, h.c) if h.degree > 1 else None) for h, _ in factors]
    out = []
    for scale, FF in ((field.one, over.F), (field.nonresidue(), over.F_nu)):
        parts = _square_root_parts(FF, rings, field)
        if parts is None:
            continue
        for b in _etale_square_roots(Gt, parts, field):
            out.append(_fiber_point(X, field, t0, b, scale))
    out.sort(key=XPoint.key)
    return out


def _class_rng(D: DivisorClass, R: CorrespondenceR) -> random.Random:
    h = hashlib.sha256(
        repr((D.a.encode(), D.b.encode(), R.sign, R.fib.s.encode())).encode()
    ).digest()
    return random.Random(int.from_bytes(h, "big"))


_MAX_EXT_DEGREE = 24


def _effective_points(D: DivisorClass):
    """Split the effective part of a reduced class into points over extensions.

    Returns [(field, x, y)] on the odd model, or None if the support is not
    usable: degree < 3, repeated x-coordinates, or points over extensions so
    large that the fiber field would overflow the degree guard (the shuffle
    then looks for a representative with smaller splitting fields).  One
    root of each degree-d support factor comes from split_root and the other
    d - 1 are its conjugates under the base field's Frobenius, sorted by
    encoding.
    """
    model = D.model
    f = model.field
    if D.a.degree != 3 or not is_squarefree(D.a):
        return None
    out = []
    _, factors = factorize(D.a)
    for h, _ in factors:
        if 2 * f.k * h.degree > _MAX_EXT_DEGREE:
            return None
        if h.degree == 1:
            K, xs, bK = f, [f.neg(h[0])], D.b
        else:
            K = make_extension(f.p, f.k * h.degree)
            r = split_root(h, None, K)
            xs = sorted((K.frobenius_power(r, f.k * i) for i in range(h.degree)), key=K.encode)
            bK = embed_poly(D.b, f, K)
        for x0 in xs:
            out.append((K, x0, bK.eval(x0)))
    return out


def _good_curve_points(D: DivisorClass, R: CorrespondenceR):
    """Points of the effective part carried onto the construction's curve.

    Applies odd-model -> source and the trigonal map's pre-transform, then
    checks the full bad-support list; None means try another representative.
    """
    model = D.model
    g = R.fib.gmap
    pts = _effective_points(D)
    if pts is None:
        return None
    out = []
    for K, x0, y0 in pts:
        mk = model if K is model.field else model.base_change(K)
        u, v, w = mk.to_source((x0, K.one, y0))
        if v == K.zero:
            return None
        pre = g.pre_transform if K is g.field else g.pre_transform.base_change(K)
        u, v, w = pre.apply_uvw((u, v, w))
        if v == K.zero:
            return None
        vi = K.inv(v)
        x1 = K.mul(u, vi)
        y1 = K.mul(w, K.pow(vi, 4))
        if y1 == K.zero:
            return None  # Weierstrass support
        DK = embed_poly(g.D, g.field, K)
        NK = embed_poly(g.N, g.field, K)
        if DK.eval(x1) == K.zero:
            return None  # maps to t = infinity
        t0 = K.div(NK.eval(x1), DK.eval(x1))
        if R.fib.ramified_at(t0, K):
            return None
        out.append((K, x1, y1, t0))
    return out


def _phi_point(R: CorrespondenceR, K, x1, y1, t0):
    """The two correspondence points above a good curve point, over K2 = F_{q^(2j)}.

    x1 is a root of G(t0, x), so the fiber needs no factorization: the
    residual quadratic G(t0, x) / (x - x1) has its coefficients in
    K = F_{q^j}, so it splits over K2 with one square root of its
    discriminant.  The division and the discriminant stay in K; when the
    quadratic splits over K, so do its roots and the values of F there, whose
    square roots in K2 come from K (sqrt_of_half).  Otherwise the two roots
    are conjugate over K and so are the square roots of F at them: one K2
    square root serves both.  Gluing y1 at x1 with both signs of the square
    roots of F at the other two roots gives every b with b(x1) = y1, so the
    choice of each root's sign is immaterial.  For such b the sheet test
    y1 * rho = b02 + b12 x1 + b22 x1^2 reads y1 * rho = y1 * b2, so the
    points under P are the ones with rho(b22) = b2.  The points over t0
    whose b is anti-fixed by Frobenius are never among them: there F(x1) / nu
    would be a square, but it is y1^2 / nu.
    """
    K2 = make_extension(K.p, 2 * K.k)
    fib = R.fib
    Gt = _fiber_cubic(fib, t0, K)
    quad, rem = Gt.divmod(Poly(K, [K.neg(x1), K.one]))
    if not rem.is_zero:
        raise ModelMismatch("x(P) is not a root of G(t(P), x)")
    c0, c1 = quad[0], quad[1]
    disc = K.sub(K.sqr(c1), K.mul(K.from_int(4), c0))
    F = fib.over(K).F
    sd = K.sqrt(disc)
    if sd is not None:
        half = K.inv(K.from_int(2))
        xs = [K.mul(K.sub(K.neg(c1), r), half) for r in (sd, K.neg(sd))]
        others = [(embed(x, K, K2), K2.sqrt_of_half(F.eval(x), K)) for x in xs]
    else:
        half = K2.inv(K2.from_int(2))
        x = K2.mul(K2.sub(K2.neg(embed(c1, K, K2)), K2.sqrt_of_half_nonsquare(disc, K)), half)
        rt = K2.sqrt(fib.over(K2).F.eval(x))
        others = [] if rt is None else [(x, rt), (K2.frobenius_power(x, K.k), K2.frobenius_power(rt, K.k))]
    t2 = embed(t0, K, K2)
    picked = []
    if others:
        known = (embed(x1, K, K2), embed(y1, K, K2))
        parts = [(Poly(K2, [K2.neg(x), K2.one]), Poly.const(K2, r)) for x, r in [known] + others]
        for b in _etale_square_roots(embed_poly(Gt, K, K2), parts, K2):
            q = _fiber_point(R.X, K2, t2, b, K2.one)
            if R.rho(K2, t2, q.b[5]) == b[2]:
                picked.append(q)
    if len(picked) != 2:
        raise BadSupport(f"expected 2 matching fiber points, found {len(picked)}")
    picked.sort(key=XPoint.key)
    return picked


def phi_on_class(D: DivisorClass, R: CorrespondenceR, rng=None, attempts=None) -> XDivisor:
    """The image divisor phi(D) on X, as a degree-0 formal sum of X-points."""
    g = R.fib.gmap
    if D.model.source != g.source_curve and D.model.source != R.fib.curve:
        raise ModelMismatch("divisor class does not live on the construction's curve")
    if rng is None:
        rng = _class_rng(D, R)
    if attempts is None:
        # over large base extensions only fully-split supports are usable,
        # so give the shuffle proportionally more tries
        attempts = max(16, 16 * D.model.field.k)
    for _ in range(attempts):
        E = random_class_on(D.model, rng)
        Dp = cantor_add(D, E)
        plus = _good_curve_points(Dp, R)
        minus = _good_curve_points(E, R)
        if plus is None or minus is None:
            continue
        try:
            entries = []
            for K, x1, y1, t0 in plus:
                for q in _phi_point(R, K, x1, y1, t0):
                    entries.append((q, 1))
            for K, x1, y1, t0 in minus:
                for q in _phi_point(R, K, x1, y1, t0):
                    entries.append((q, -1))
        except BadSupport:
            continue
        return XDivisor(tuple(entries))
    raise BadSupport("no good representative found after shuffling")


def _mumford_transform(a: Poly, b: Poly, matrix, w_scale, field, target_F: Poly):
    """Transport a Mumford pair through x -> (alpha x + beta)/(gamma x + delta).

    The point map is (x, y) -> (m(x), w_scale * y / (gamma x + delta)^4).
    Raises BadSupport if the divisor meets the pole (degree would drop).
    """
    al, be, ga, de = matrix
    f = field
    n = a.degree
    det = f.sub(f.mul(al, de), f.mul(be, ga))
    # target a: substitute the adjugate into the degree-n homogenization of a
    aform = BinaryForm.from_affine(a, n)
    a2form = aform.substituted(de, f.neg(be), f.neg(ga), al)
    a2 = a2form.affine()
    if a2.degree != n:
        raise BadSupport("support meets the pole of the coordinate change")
    a2, _ = a2.monic()
    # numerator of b((delta x' - beta)/(-gamma x' + alpha)) at padding degree n-1
    bpad = BinaryForm(f, n - 1, [b[i] for i in range(n)])
    num = bpad.substituted(de, f.neg(be), f.neg(ga), al).affine()
    lin = Poly(f, [al, f.neg(ga)])  # alpha - gamma x'
    b2 = num
    for _ in range(5 - n):
        b2 = b2 * lin
    b2 = b2.scale(f.mul(w_scale, f.inv(f.pow(det, 4)))) % a2
    if not ((b2 * b2 - target_F) % a2).is_zero:
        raise ModelMismatch("transported pair misses the target curve")
    return a2, b2


def _triple_class(R: CorrespondenceR, q: XPoint, odd_big: OddModel):
    """The class [(pi_H preimage triple of q) - 3 inf] on the big-field odd model."""
    fib = R.fib
    K = q.field
    big = odd_big.field
    t0 = embed(q.t, K, big)
    b = {k: embed(v, K, big) for k, v in q.bmap().items()}
    aq = Poly(big, [c.eval(t0) for c in fib.over(big).G])
    rho = R.rho(big, t0, b["b22"])
    bq = Poly(big, [b["b02"], b["b12"], b["b22"]]).scale(big.inv(rho))
    bq = bq % aq
    g = fib.gmap
    # carry the triple from the construction curve back to the source curve
    if not g.pre_transform.is_identity:
        pre = g.pre_transform.base_change(big) if big is not g.field else g.pre_transform
        inv = pre.inverse()
        FH = embed_poly(g.source_curve.F, g.field, big)
        aq, bq = _mumford_transform(aq, bq, inv.m, big.one, big, FH)
    # and onto the odd model
    tau = odd_big.tau
    if not tau.is_identity:
        w_scale = big.pow(tau.det, 4)
        aq, bq = _mumford_transform(aq, bq, tau.m, w_scale, big, odd_big.F)
    return DivisorClass(odd_big, aq, bq)


def reverse_on_xdivisor(DX: XDivisor, R: CorrespondenceR, model: OddModel | None = None) -> DivisorClass:
    """(pi_H)_* (pi_X)^* of an X-divisor, Cantor-reduced on the source odd model."""
    g = R.fib.gmap
    if model is None:
        model = OddModel.from_curve(g.source_curve)
    base = model.field
    if DX.is_empty:
        return DivisorClass.identity(model)
    degs = {e.field.k for e, _ in DX.entries}
    J = math.lcm(base.k, *degs)
    big = make_extension(base.p, J)
    odd_big = model.base_change(big) if big is not base else model
    total = DivisorClass.identity(odd_big)
    for q, w in DX.entries:
        cls = _triple_class(R, q, odd_big)
        total = cantor_add(total, cantor_mul(cls, w))
    if big is base:
        return total
    # the result of a Galois-stable divisor is rational: coerce down
    a_c = [project(c, big, base) for c in total.a.c]
    b_c = [project(c, big, base) for c in total.b.c]
    if any(c is None for c in a_c) or any(c is None for c in b_c):
        raise BadSupport("reverse image is not rational over the base field")
    return DivisorClass(model, Poly(base, a_c), Poly(base, b_c))


def roundtrip(D: DivisorClass, R: CorrespondenceR, rng=None, attempts=8) -> str:
    """Compare reverse(phi(D)) against [2]D and [-2]D: '+2', '-2', or 'mismatch'."""
    if rng is None:
        rng = _class_rng(D, R)
    model = D.model
    twice = cantor_mul(D, 2)
    last = None
    for _ in range(attempts):
        try:
            DX = phi_on_class(D, R, rng)
            E = reverse_on_xdivisor(DX, R, model)
        except BadSupport as exc:
            last = exc
            continue
        if E == twice:
            return "+2"
        if E == -twice:
            return "-2"
        return "mismatch"
    raise BadSupport(f"round trip found no good representative: {last}")


def consensus_sign(classes, R: CorrespondenceR, rng=None) -> str:
    """The shared round-trip sign over a batch of classes ('mixed' on failure)."""
    signs = set()
    for D in classes:
        out = roundtrip(D, R, rng)
        if out == "mismatch":
            return "mixed"
        if D.is_identity or cantor_add(D, D).is_identity:
            continue  # 2-torsion cannot distinguish the sign
        signs.add(out)
    if not signs:
        return "+2"
    if len(signs) > 1:
        return "mixed"
    return signs.pop()


def count_X_open(fib, X: CurveXModel, k: int) -> int:
    """Number of F_{q^k}-points of X over unramified fiber coordinates."""
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


def fiber_partition_oracle(fib, t0, field) -> int:
    """Independent fiber size: Galois-stable triple-pairs among the 6 preimages.

    Splits G(t0, x) and the y-values over an explicit extension, forms the four
    unordered pairs {A, iota(A)} of complementary point triples, and counts the
    ones fixed by the q^k-power Frobenius.  Must equal len(fiber_points).
    """
    base = fib.field
    Gt = _fiber_cubic(fib, t0, field)
    _, factors = factorize(Gt)
    e = math.lcm(*(h.degree for h, _ in factors))
    M = make_extension(base.p, field.k * e * 2)
    GM = embed_poly(Gt, field, M)
    xs = roots(GM)
    if len(xs) != 3:
        raise NotSquarefree("the fiber cubic has a repeated root")
    FM = embed_poly(fib.curve.F, base, M)
    pts = []
    for x in xs:
        y = M.sqrt(FM.eval(x))
        if y is None:
            raise ContextMismatch("the oracle's field does not hold the fiber's y-values")
        if y == M.zero:
            raise RamifiedFiber("the fiber contains a Weierstrass point")
        pts.append((x, y))

    def enc_pt(x, y):
        return (M.encode(x), M.encode(y))

    def frob_triple(tri):
        return frozenset(enc_pt(M.frobenius_power(xv, field.k), M.frobenius_power(yv, field.k)) for xv, yv in tri)

    count = 0
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)):
        A = [(x, y if s > 0 else M.neg(y)) for (x, y), s in zip(pts, signs)]
        iA = [(x, M.neg(y)) for x, y in A]
        keyA = frozenset(enc_pt(*pt) for pt in A)
        keyiA = frozenset(enc_pt(*pt) for pt in iA)
        # decode back to elements for the Frobenius image
        sA = frob_triple(A)
        if sA in (keyA, keyiA):
            count += 1
    return count
