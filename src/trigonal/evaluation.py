"""Evaluating the isogeny on divisor classes, and the reverse composition.

phi pushes a class through the correspondence: a good point P of H maps to
t = N(x(P))/D(x(P)), and of the (at most four) fiber points of X over t
exactly the two satisfying y(P) * rho(Q) = b02 + b12 x(P) + b22 x(P)^2 lie
under P on the correspondence.  The reverse composition pulls an X-point Q
back to the Mumford triple (G(t(Q), x), (b02 + b12 x + b22 x^2) / rho(Q))
on H, built on the odd model from one cached transport of the construction
(CorrespondenceR.transport), and reduces with Cantor arithmetic.  Both ways
cross between the odd model and the construction's curve in one Mobius map,
tau o pre_transform^-1 or its inverse.  reverse(phi(.)) acts as
multiplication by +/-2 with a consensus sign per construction, which is the
functional certificate used throughout verification.

phi lifts each point without factoring its fiber.  P = (x1, y1) makes x1 a
root of the cubic G(t, x), so the cubic is (x - x1) times a quadratic with
coefficients in K = F_{q^j} (j the degree of P's field), which splits over
K2 = F_{q^(2j)}.  Every square root is taken in K: the discriminant's, F's
at the other two roots when these lie in K, and at conjugate roots the one
K2 root they share, through the norm to K (K2.sqrt).  The b with
b(x1) = y1 are glued from the three roots as linear CRT parts, and the
sheet test keeps the two with rho(b22) = b2.  fiber_points enumerates whole
fibers: it counts X's points and is the test oracle for the lift.  It
splits the fiber cubic once, with no squarefree step, the x^q of that split
seeds the norm of every factor ring, and its square roots modulo the
factors are glued as ring elements.  Both glue with polyring.crt_terms, one
inverse per factor (in its ring, or in the field for a linear factor).

A Frobenius orbit over the class's field F_q is the unit of work both ways:
phi checks and lifts one root per support factor (polyring.split_root; the
drawn points of an auxiliary class need no split) and maps that lift to the
conjugates; the reverse builds one triple class per orbit of e X-points,
over F_{q^e}, and sums its conjugates by doubling.

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

from .construction import B_VARS, CorrespondenceR, CurveXModel
from .curves import DivisorClass, OddModel, cantor_add, cantor_mul, random_class_on
from .errors import BadSupport, ContextMismatch, ModelMismatch, NotSquarefree, RamifiedFiber
from .fields import ExtField, embed, embed_poly, make_extension, project
from .polyring import Poly, _LazyRng, _split_squarefree, _sum_of, _unpacked, crt_terms, factorize, is_squarefree, roots, split_root


@dataclass(frozen=True)
class XPoint:
    """A point of X|_U: fiber coordinate t and the six b_ij, over some F_{q^k}."""

    field: object
    t: object
    b: tuple  # (b00, b01, b02, b11, b12, b22)

    def bmap(self):
        return dict(zip(B_VARS, self.b))

    def key(self):
        f = self.field
        return (f.k, f.encode(self.t), tuple(f.encode(x) for x in self.b))

    def frobenius_power(self, j):
        """The conjugate point: t and every b_ij raised to the p^j-th power."""
        f = self.field
        return XPoint(f, f.frobenius_power(self.t, j), tuple(f.frobenius_power(x, j) for x in self.b))


@dataclass(frozen=True)
class XDivisor:
    """Formal integer combination of X-points (possibly over extensions)."""

    entries: tuple  # ((XPoint, weight), ...)

    @property
    def degree(self):
        return sum(w for _, w in self.entries)


def _square_root_parts(F: Poly, factors, field):
    """One square root of F modulo each irreducible factor h, as crt_terms' parts [(h, ring, r)].

    factors is [(h, field[x]/(h))], with None as the ring of a linear h,
    whose root is in field.  None when F is a non-residue modulo some
    factor: then F has no square root in the etale algebra at all.
    """
    parts = []
    for h, ring in factors:
        if ring is None:
            rt = field.sqrt(F.eval(field.neg(h[0])))
        else:
            rt = ring.sqrt(ring.from_coeffs((F % h).c))
        if rt is None:
            return None
        parts.append((h, ring, rt))
    return parts


def _glued_square_roots(field, parts):
    """Every b = u_1 +/- u_2 +/- ... over the crt_terms of parts, as (b0, b1, b2).

    The sign on the first part stays +, which picks one of b and -b; bit
    i - 1 of the mask negates part i.  fiber_points glues the roots modulo
    the factors of the fiber cubic, phi its three known roots.
    """
    u = crt_terms(field, parts)
    out = []
    for mask in range(2 ** (len(u) - 1)):
        b = u[0]
        for i, ui in enumerate(u[1:]):
            b = b - ui if (mask >> i) & 1 else b + ui
        out.append((b[0], b[1], b[2]))
    return out


def _fiber_point(X: CurveXModel, field, t0, eqs, b, scale):
    """The X-point with coordinates b_ij = scale * b_i * b_j, checked against the model's equations eqs = X.at(field, t0)."""
    coords = tuple(
        field.mul(scale, field.mul(u, v))
        for u, v in ((b[0], b[0]), (b[0], b[1]), (b[0], b[2]), (b[1], b[1]), (b[1], b[2]), (b[2], b[2]))
    )
    if not X.holds(field, eqs, coords):
        raise ModelMismatch("fiber point misses the model of X")
    return XPoint(field, t0, coords)


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
    non-rational side.  G(t0, x) is split once for both branches, with no
    squarefree step: an unramified fiber's cubic is squarefree.  The split's
    ring F_q[x]/(G) is an irreducible G's factor ring, and its x^q seeds the
    Frobenius of a quadratic factor's, so a norm there takes no power for it.
    A split that never draws (a cubic with at most one root) seeds no rng.
    """
    fib = X.fib
    Gt = _fiber_cubic(fib, t0, field)
    over = fib.over(field)
    factors, R = _split_squarefree(Gt, _LazyRng(Gt))
    factors.sort(key=Poly.sort_key)
    # one ring per factor serves both branches: an irreducible Gt's is the split's own, and
    # the split's x^q modulo a quadratic factor seeds that factor's
    rings = [
        (h, R if h.degree == 3 else None if h.degree == 1 else ExtField(field, h.c, (_unpacked(R, R.xq()) % h).c))
        for h in factors
    ]
    eqs = X.at(field, t0)
    out = []
    for scale, FF in ((field.one, over.F), (field.nonresidue(), over.F_nu)):
        parts = _square_root_parts(FF, rings, field)
        if parts is None:
            continue
        for b in _glued_square_roots(field, parts):
            out.append(_fiber_point(X, field, t0, eqs, b, scale))
    out.sort(key=XPoint.key)
    return out


def _class_rng(D: DivisorClass, R: CorrespondenceR) -> random.Random:
    h = hashlib.sha256(
        repr((D.a.encode(), D.b.encode(), R.sign, R.fib.s.encode())).encode()
    ).digest()
    return random.Random(int.from_bytes(h, "big"))


_MAX_EXT_DEGREE = 24


def _support_orbits(D: DivisorClass):
    """The effective part of a reduced class as [(field, x, y, js)], one point per support factor.

    x is the factor's split_root, and its points are the p^j-power images of
    (x, y), j in js, in the order of their encodings; a class that
    random_class_on drew reads them off its drawn points.  None if the support
    is not usable: degree < 3, repeated x-coordinates, or points over
    extensions so large that the fiber field would overflow the degree guard.
    """
    f = D.model.field
    if D.drawn is not None:
        if 2 * f.k > _MAX_EXT_DEGREE:
            return None
        return [(f, x, y, [0]) for x, y in sorted(D.drawn, key=lambda pt: f.encode(f.neg(pt[0])))]
    if D.a.degree != 3 or not is_squarefree(D.a):
        return None
    factors, R = _split_squarefree(D.a, _LazyRng(D.a))
    xq = _unpacked(R, R.xq())
    out = []
    for h in sorted(factors, key=Poly.sort_key):
        if 2 * f.k * h.degree > _MAX_EXT_DEGREE:
            return None
        K = make_extension(f.p, f.k * h.degree) if h.degree > 1 else f
        r = split_root(h, xq % h, K)
        js = sorted((f.k * i for i in range(h.degree)), key=lambda j: K.encode(K.frobenius_power(r, j)))
        out.append((K, r, embed_poly(D.b, f, K).eval(r), js))
    return out


def _good_curve_points(D: DivisorClass, R: CorrespondenceR):
    """The factors' points carried onto the construction's curve, as [(K, x1, y1, t0, js)].

    R.transport maps an odd-model point (x0, y0) there in one step, odd model
    -> source -> pre-transform: x1 = U / V for (U : V) = adj(M)(x0, 1), and
    y1 = det(pre)^4 y0 / V^4.  t0 = N(x1) / D(x1) is read from the transported
    cubic forms at x0, so V and D share one inverse.  The full bad-support list,
    the source curve's point at infinity included, is Galois-invariant, so one
    point decides for its factor; None means try another representative.
    """
    model = D.model
    orbits = _support_orbits(D)
    if orbits is None:
        return None
    out = []
    for K, x0, y0, js in orbits:
        tr = R.transport(model.tau if K is model.field else model.tau.base_change(K))
        add, mul, z = K.add, K.mul, K.zero
        a, b, c, d = tr.adj
        # V^3 D(x1): zero where x1 is infinite (V = 0) or maps to t = infinity
        Dx = tr.D.eval(x0)
        if y0 == z or Dx == z or add(mul(tr.src[0], x0), tr.src[1]) == z:
            return None  # Weierstrass support, t = infinity, or the source curve's point at infinity
        V = add(mul(c, x0), d)
        inv = K.inv(mul(V, Dx))
        vi = mul(Dx, inv)
        x1 = mul(add(mul(a, x0), b), vi)
        y1 = mul(tr.y_scale, mul(y0, K.sqr(K.sqr(vi))))
        t0 = mul(tr.N.eval(x0), mul(V, inv))
        if R.fib.ramified_at(t0, K):
            return None
        out.append((K, x1, y1, t0, js))
    return out


def _phi_point(R: CorrespondenceR, K, x1, y1, t0):
    """The two correspondence points above a good curve point, over K2 = F_{q^(2j)}.

    x1 is a root of G(t0, x), so the fiber needs no factorization: the
    residual quadratic G(t0, x) / (x - x1) has its coefficients in
    K = F_{q^j} and splits over K2 with the square root of its
    discriminant.  When it splits over K, F at its roots is rooted from K
    (sqrt_of_half); conjugate roots share one K2 square root of F, taken
    through the norm to K (K2.sqrt): no root runs over K2 itself.  t0 is
    known to be unramified (_good_curve_points tested it), so G(t0, x) is
    built without _fiber_cubic's test.
    Gluing y1 at x1 with both signs of the other two roots' square roots,
    three linear parts of crt_terms (_glued_square_roots), gives every b
    with b(x1) = y1, so the choice of each root's sign is immaterial.  For
    such b the sheet test y1 * rho = b02 + b12 x1 + b22 x1^2 reads
    y1 * rho = y1 * b2, so the points under P are the ones with
    rho(b22) = b2.  The points over t0 whose b is anti-fixed by Frobenius
    are never among them: there F(x1) / nu would be a square, but it is
    y1^2 / nu.
    """
    K2 = make_extension(K.p, 2 * K.k)
    fib = R.fib
    Gt = Poly(K, [c.eval(t0) for c in fib.over(K).G])
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
        eqs, at = R.X.at(K2, t2), R.rho_at(K2, t2)
        pts = [(embed(x1, K, K2), embed(y1, K, K2))] + others
        for b in _glued_square_roots(K2, [(Poly(K2, [K2.neg(x), K2.one]), None, r) for x, r in pts]):
            q = _fiber_point(R.X, K2, t2, eqs, b, K2.one)
            if R.rho_of(K2, at, q.b[5]) == b[2]:
                picked.append(q)
    if len(picked) != 2:
        raise BadSupport(f"expected 2 matching fiber points, found {len(picked)}")
    picked.sort(key=XPoint.key)
    return picked


def phi_on_class(D: DivisorClass, R: CorrespondenceR, rng=None) -> XDivisor:
    """The image divisor phi(D) on X, as a degree-0 formal sum of X-points.

    One lift per support factor: a conjugate's two points are the p^j-power
    images of the lifted pair.
    """
    g = R.fib.gmap
    if D.model.source != g.source_curve and D.model.source != R.fib.curve:
        raise ModelMismatch("divisor class does not live on the construction's curve")
    if rng is None:
        rng = _class_rng(D, R)
    # over large base extensions only fully-split supports are usable, so
    # give the shuffle proportionally more tries
    for _ in range(max(16, 16 * D.model.field.k)):
        E = random_class_on(D.model, rng)
        Dp = cantor_add(D, E)
        plus = _good_curve_points(Dp, R)
        minus = _good_curve_points(E, R)
        if plus is None or minus is None:
            continue
        try:
            entries = []
            for pts, w in ((plus, 1), (minus, -1)):
                for K, x1, y1, t0, js in pts:
                    pair = _phi_point(R, K, x1, y1, t0)
                    for j in js:
                        entries += [(q, w) for q in sorted((q.frobenius_power(j) for q in pair), key=XPoint.key)]
        except BadSupport:
            continue
        return XDivisor(tuple(entries))
    raise BadSupport("no good representative found after shuffling")


def _triple_class(R: CorrespondenceR, q: XPoint, odd_big: OddModel):
    """The class [(pi_H preimage triple of q) - 3 inf] on an odd model over q's field.

    The triple (G(t0, x), (b02 + b12 x + b22 x^2) / rho) is built on the odd
    model from R.transport: a = monic(N' - t0 D'), b = (b02 P0 + b12 P1 + b22 P2)
    / rho mod a.  BadSupport where it meets the pole of pre^-1 or of the
    composite (a's degree drops); DivisorClass checks b^2 = F mod a.
    """
    big, t0, b = odd_big.field, q.t, q.b
    rho = R.rho_of(big, R.rho_at(big, t0), b[5])
    tr = R.transport(odd_big.tau)
    sub, mul = big.sub, big.mul
    a = Poly(big, [sub(n, mul(t0, d)) for n, d in zip(tr.N.c, tr.D.c)])
    if sub(tr.pole[0], mul(t0, tr.pole[1])) == big.zero or a.degree != 3:
        raise BadSupport("support meets the pole of the coordinate change")
    a, _ = a.monic()
    num = Poly(big, _sum_of(big, [(b[2], tr.P[0], 0), (b[4], tr.P[1], 0), (b[5], tr.P[2], 0)]))
    return DivisorClass(odd_big, a, (num % a).scale(big.inv(rho)))


def _orbit_sum(T: DivisorClass, e: int, s: int) -> DivisorClass:
    """T + sigma(T) + ... + sigma^(e-1)(T), sigma the p^s-power map on the coefficients of a and b.

    S_m, the sum of m conjugates, doubles as S_2m = S_m + sigma^m(S_m) and
    steps as S_(m+1) = T + sigma(S_m).
    """
    K = T.model.field

    def conj(D, j):
        a, b = (Poly(K, [K.frobenius_power(c, j) for c in P.c]) for P in (D.a, D.b))
        return DivisorClass(D.model, a, b, check=False)

    S, m = T, 1
    for bit in bin(e)[3:]:
        S, m = cantor_add(S, conj(S, s * m)), 2 * m
        if bit == "1":
            S, m = cantor_add(T, conj(S, s)), m + 1
    return S


def reverse_on_xdivisor(DX: XDivisor, R: CorrespondenceR, model: OddModel | None = None) -> DivisorClass:
    """(pi_H)_* (pi_X)^* of an X-divisor, Cantor-reduced on the source odd model.

    One Frobenius orbit over the model's field F_q at a time: an orbit of e
    points lies over F_{q^e}, where its point is projected (e = 1: F_q
    itself), its triple class built and summed over the orbit (_orbit_sum),
    then projected to F_q and added with the orbit's weight.  BadSupport
    unless every orbit is complete with one weight, as a rational divisor's
    are; ContextMismatch if a point does not project to F_{q^e}.
    """
    g = R.fib.gmap
    if model is None:
        model = OddModel.from_curve(g.source_curve)
    base = model.field
    weights, points = {}, {}
    for q, w in DX.entries:
        weights[q.key()] = weights.get(q.key(), 0) + w
        points[q.key()] = q
    total = DivisorClass.identity(model)
    while points:
        _, q = points.popitem()
        w, e, conj = weights[q.key()], 1, q.frobenius_power(base.k)
        while conj != q:
            if weights.get(conj.key(), 0) != w:
                raise BadSupport("the X-divisor is not Galois-stable over the base field")
            points.pop(conj.key(), None)
            e, conj = e + 1, conj.frobenius_power(base.k)
        K = base if e == 1 else make_extension(base.p, base.k * e)
        c = [project(x, q.field, K) for x in (q.t, *q.b)] if q.field.k % K.k == 0 else [None]
        if None in c:
            raise ContextMismatch(f"an orbit of {e} points does not lie over {K!r}")
        q = XPoint(K, c[0], tuple(c[1:]))
        T = _orbit_sum(_triple_class(R, q, model if K is base else model.base_change(K)), e, base.k)
        a_c, b_c = ([project(x, K, base) for x in P.c] for P in (T.a, T.b))
        if None in a_c + b_c:
            raise BadSupport("reverse image is not rational over the base field")
        total = cantor_add(total, cantor_mul(DivisorClass(model, Poly(base, a_c), Poly(base, b_c)), w))
    return total


def roundtrip(D: DivisorClass, R: CorrespondenceR, rng=None) -> str:
    """Compare reverse(phi(D)) against [2]D and [-2]D: '+2', '-2', or 'mismatch'."""
    if rng is None:
        rng = _class_rng(D, R)
    model = D.model
    twice = cantor_mul(D, 2)
    last = None
    for _ in range(8):
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
