"""The explicit trigonal construction: G(t, x), the model of X, and the correspondence.

From a trigonal map g = N/D and the curve's polynomial F this builds
  G(t, x) = N(x) - t D(x) = x^3 + g2(t) x^2 + g1(t) x + g0(t),
  f0 + f1 x + f2 x^2 = F(x) mod G(t, x),
the 13-term product polynomial s(t) (the norm of F down the fibration, which
is alpha times a perfect square), the delta-polynomials of the plane model,
and the correspondence data rho = (d4 b22^2 + d2 b22 + d0) / d1 with a sign
selecting the two sheets (the negated sheet induces the negated isogeny).

The construction is rational over F_q exactly when alpha = lc(s) is a square;
otherwise delta1 (and with it rho and the correspondence) lives over F_{q^2}
and the object is flagged non-rational but still fully inspectable.

assess(S, H) runs the whole chain of tests that decides a subgroup's fate
(chord matrix, pencil discriminant, trigonal map, lc(s) a square); the
survey and the CLI both read their flags from its Verdict.  It reads lc(s)'s
square class from one nonzero value s(t0), which needs only F mod the scalar
cubic G(t0, x), and builds the fibration only when a caller reads it.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import NamedTuple

from .curves import HCurve
from .errors import BadSign, ContextMismatch, DegenerateConfiguration, SquareRootObstruction
from .fields import embed, embed_poly, make_extension
from .polyring import BinaryForm, BiPoly, Poly, exact_square_root, reduce_mod_cubic
from .subgroups import TractableSubgroup
from .trigmaps import TrigonalMap, _compose_mobius, build_M, kernel_basis, rationality_discriminant, trigonal_map_for

B_VARS = ("b00", "b01", "b02", "b11", "b12", "b22")  # the order of an X-point's b
# the six rank-1 relations among the b_ij = b_i b_j, as index pairs into B_VARS: b01^2 = b00 b11,
# b01 b02 = b00 b12, b02^2 = b00 b22, b02 b11 = b01 b12, b02 b12 = b01 b22, b12^2 = b11 b22
X_QUADRICS = (((1, 1), (0, 3)), ((1, 2), (0, 4)), ((2, 2), (0, 5)), ((2, 3), (1, 4)), ((2, 4), (1, 5)), ((4, 4), (3, 5)))


def _embedding_cache():
    """A per-object cache of fixed polynomials carried into other fields, keyed by the target context."""
    return dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)


class FibrationOver(NamedTuple):
    """The fixed polynomials of a fibration carried into one field."""

    quad_disc: Poly
    cubic_disc: Poly
    s: Poly
    F: Poly  # the curve's polynomial
    G: tuple  # the x-coefficients of G(t, x), Polys in t
    F_nu: Poly  # F / nu, nu the field's non-residue (fiber_points' anti-fixed branch)


@dataclass(frozen=True)
class TrigonalFibration:
    field: object
    curve: HCurve
    gmap: TrigonalMap
    g0: Poly
    g1: Poly
    g2: Poly
    G: BiPoly
    f0: Poly
    f1: Poly
    f2: Poly
    s: Poly
    alpha: object
    r: Poly  # monic, s = alpha * r^2
    quad_disc: Poly  # f1^2 - 4 f0 f2, the discriminant of F mod G in x (the plane model's delta0)
    cubic_disc: Poly  # the discriminant of G in x (the plane model's delta4)
    _embed_cache: dict = _embedding_cache()

    def over(self, field) -> FibrationOver:
        """The two discriminants, s, F, the coefficients of G and F / nu carried into field, once per field."""
        got = self._embed_cache.get(field)
        if got is None:
            polys = (self.quad_disc, self.cubic_disc, self.s, self.curve.F) + self.G.cx
            e = [embed_poly(q, self.field, field) for q in polys]
            F_nu = e[3].scale(field.inv(field.nonresidue()))
            got = self._embed_cache[field] = FibrationOver(e[0], e[1], e[2], e[3], tuple(e[4:]), F_nu)
        return got

    def ramified_at(self, t0, field=None) -> bool:
        """Whether the 6-point fiber of the composed degree-6 map degenerates at t0.

        Three causes: the cubic G(t0, x) has a repeated root (cubic_disc),
        the quadratic F mod G has one (quad_disc), or the fiber contains a
        Weierstrass pair — which happens exactly at the roots of s, since
        s(t0) is the product of F over the fiber's x-coordinates.
        """
        f = self.field if field is None else field
        e = self.over(f)
        z = f.zero
        return e.quad_disc.eval(t0) == z or e.cubic_disc.eval(t0) == z or e.s.eval(t0) == z


def _discriminant_cubic(g0: Poly, g1: Poly, g2: Poly) -> Poly:
    """-27 g0^2 + 18 g0 g1 g2 - 4 g0 g2^3 - 4 g1^3 + g1^2 g2^2, the discriminant of x^3 + g2 x^2 + g1 x + g0."""
    f = g0.field
    c = lambda n: Poly.const(f, f.from_int(n))
    return (
        -(c(27) * g0 * g0)
        + c(18) * g0 * g1 * g2
        - c(4) * g0 * g2 * g2 * g2
        - c(4) * g1 * g1 * g1
        + g1 * g1 * g2 * g2
    )


def _s_terms(f0, f1, f2, g0, g1, g2):
    """The norm of f0 + f1 x + f2 x^2 down x^3 + g2 x^2 + g1 x + g0: over Polys in t, or F_p ints at one t.

    Horner in f0, ((f0 + a) f0 + b) f0 + c, fourteen products: with
    u = f2 g2 - f1 and w = f2^2 g1 - f1 u, a = g2 u - 2 f2 g1,
    b = g1 w + f2 g0 (f1 - 2u) and c = g0 (f2^2 f2 g0 - f1 w).
    """
    u = f2 * g2 - f1
    f2g1, f2g0, f2sq = f2 * g1, f2 * g0, f2 * f2
    w = f2sq * g1 - f1 * u
    a = g2 * u - f2g1 - f2g1
    b = g1 * w + f2g0 * (f1 - u - u)
    return ((f0 + a) * f0 + b) * f0 + g0 * (f2sq * f2g0 - f1 * w)


def build_fibration(g: TrigonalMap, H: HCurve) -> TrigonalFibration:
    """Assemble the fibration data for the trigonal map g over the curve H.

    H may be a quadratic twist of the curve g was built for (the pairing
    structure only depends on F up to scalars); its F is what gets reduced.
    """
    f = g.field
    if H.field is not f:
        raise ContextMismatch(f"the curve is over {H.field!r}, the trigonal map over {f!r}")
    one = Poly.one(f)
    t = Poly.x(f)
    g2 = -t
    g1 = Poly.const(f, g.n1) - t.scale(g.d1)
    g0 = Poly.const(f, g.n0) - t.scale(g.d0)
    G = BiPoly(f, (g0, g1, g2, one))
    f0, f1, f2 = reduce_mod_cubic(H.F, G)
    c = lambda n: Poly.const(f, f.from_int(n))
    s = _s_terms(f0, f1, f2, g0, g1, g2)
    if s.is_zero:
        raise SquareRootObstruction("s(t) vanishes identically")
    root = exact_square_root(s)
    if root is None:
        raise SquareRootObstruction("s(t) is not lc(s) times a perfect square")
    alpha, r = root
    quad_disc = f1 * f1 - c(4) * f0 * f2
    return TrigonalFibration(
        field=f, curve=H, gmap=g, g0=g0, g1=g1, g2=g2, G=G, f0=f0, f1=f1, f2=f2,
        s=s, alpha=alpha, r=r, quad_disc=quad_disc, cubic_disc=_discriminant_cubic(g0, g1, g2),
    )


def isogeny_is_rational(fib: TrigonalFibration) -> bool:
    """Prop.-6 style criterion: the leading coefficient of s is a square (assess reads it from one s(t0))."""
    return fib.field.is_square(fib.alpha)


def _isog_from_value(g: TrigonalMap) -> bool | None:
    """Whether s(t0) is a square at the first t0 = 0, 1, ... with s(t0) != 0; None if all min(p, 9) are zero.

    s = alpha r^2, so a nonzero s(t0) has alpha's square class.  s = +-Res_x(G, F)
    has degree <= 8 (G's coefficients are linear in t), so nine zeros mean s = 0.
    """
    f = g.field
    fold = f._fold
    for t0 in range(min(f.p, 9)):
        G = (fold(g.n0 - t0 * g.d0), fold(g.n1 - t0 * g.d1), fold(-t0))
        r = g.curve.F % Poly(f, G + (f.one,))
        s0 = fold(_s_terms(r[0], r[1], r[2], *G))
        if s0:
            return f.is_square(s0)
    return None


@dataclass(frozen=True)
class Verdict:
    """The fate of one subgroup.

    trig (a rational trigonal map exists) and isog (the isogeny is rational)
    are True, False, or None when the chain stopped before their test.
    failure is the DegenerateConfiguration or SquareRootObstruction that
    stopped it, if any.
    """

    trig: bool | None
    isog: bool | None
    map: TrigonalMap | None = None
    failure: DegenerateConfiguration | SquareRootObstruction | None = None

    @functools.cached_property
    def fibration(self) -> TrigonalFibration | None:
        """The map's fibration, built on first read; None when isog was not decided."""
        return None if self.isog is None else build_fibration(self.map, self.map.curve)


def assess(S: TractableSubgroup, H: HCurve, full: bool = True) -> Verdict:
    """Decide S: chord matrix, pencil discriminant, map, s(t0) a square.

    With full=False the chain stops after the discriminant.  isog comes from
    one nonzero s(t0); only if every tried value is zero is the fibration built
    here (s = 0 fails with SquareRootObstruction).  The map is kept for callers
    that go on to build the correspondence, and the fibration on first read.
    """
    f = H.field
    trig = None
    try:
        alpha, beta = kernel_basis(build_M(S, H), f)
        trig = f.is_square(rationality_discriminant(f, alpha, beta))
        if not (trig and full):
            return Verdict(trig, None)
        g = trigonal_map_for(S, H, _kernel=(alpha, beta))
        isog = _isog_from_value(g)
        if isog is None:
            isog = isogeny_is_rational(build_fibration(g, g.curve))
    except (DegenerateConfiguration, SquareRootObstruction) as exc:
        return Verdict(trig, None, failure=exc)
    return Verdict(trig, isog, g)


@dataclass(frozen=True)
class CurveXModel:
    """X|_U in A^1 x A^6: three linear-in-b_ij equations plus the six quadrics.

    The equations are a few products of the fibration's polynomials, formed
    when rows is first read, so a construction that is only kept holds no
    second copy of them.
    """

    fib: TrigonalFibration
    _embed_cache: dict = _embedding_cache()

    @functools.cached_property
    def rows(self) -> tuple:
        """Three (coeff dict var -> Poly, const Poly) pairs."""
        fib = self.fib
        f = fib.field
        one = Poly.one(f)
        two = Poly.const(f, f.from_int(2))
        g0, g1, g2 = fib.g0, fib.g1, fib.g2
        c0 = ({"b22": g2 * g0, "b12": -(two * g0), "b00": one}, -fib.f0)
        c1 = ({"b22": g2 * g1 - g0, "b12": -(two * g1), "b01": two}, -fib.f1)
        c2 = ({"b22": g2 * g2 - g1, "b12": -(two * g2), "b02": two, "b11": one}, -fib.f2)
        return (c0, c1, c2)

    def at(self, field, t0) -> tuple:
        """The three equations at t0 over field, ((constant, ((index into b, coefficient), ...)), ...).

        Each t-polynomial is evaluated once, for every candidate point over t0 (holds).
        """
        rows = self._embed_cache.get(field)
        if rows is None:
            e = lambda pol: embed_poly(pol, self.fib.field, field)
            rows = self._embed_cache[field] = [
                (e(const), [(B_VARS.index(var), e(pol)) for var, pol in coeffs.items()]) for coeffs, const in self.rows
            ]
        return tuple((const.eval(t0), tuple((i, pol.eval(t0)) for i, pol in coeffs)) for const, coeffs in rows)

    @staticmethod
    def holds(field, eqs, b) -> bool:
        """Whether b = (b00, b01, b02, b11, b12, b22) satisfies the equations eqs = at(field, t0) and the six quadrics."""
        z, add, mul = field.zero, field.add, field.mul
        for const, coeffs in eqs:
            acc = const
            for i, c in coeffs:
                acc = add(acc, mul(c, b[i]))
            if acc != z:
                return False
        return all(mul(b[i], b[j]) == mul(b[k], b[m]) for (i, j), (k, m) in X_QUADRICS)

    def contains(self, field, t0, b) -> bool:
        return self.holds(field, self.at(field, t0), tuple(b[v] for v in B_VARS))


def build_X(fib: TrigonalFibration) -> CurveXModel:
    """The model of X|_U over fib: three linear-in-b_ij equations (plus the fixed quadrics)."""
    return CurveXModel(fib)


@dataclass(frozen=True)
class PlaneQuarticModel:
    """delta-polynomials of the singular plane model (d4 b^2 + d2 b + d0)^2 = d1^2 b."""

    delta0: Poly
    delta1: Poly  # over delta1_field (F_q, or F_{q^2} when not rational)
    delta2: Poly
    delta4: Poly
    delta1_field: object
    rational: bool


def build_plane_model(fib: TrigonalFibration) -> PlaneQuarticModel:
    f = fib.field
    c = lambda n: Poly.const(f, f.from_int(n))
    g0, g1, g2 = fib.g0, fib.g1, fib.g2
    f0, f1, f2 = fib.f0, fib.f1, fib.f2
    delta2 = (
        c(12) * f0 * g1
        - c(4) * f0 * g2 * g2
        - c(18) * f1 * g0
        + c(2) * f1 * g1 * g2
        + c(12) * f2 * g0 * g2
        - c(4) * f2 * g1 * g1
    )
    # delta0 and delta4 are the fibration's two discriminants
    delta0, delta4 = fib.quad_disc, fib.cubic_disc
    rational = f.is_square(fib.alpha)
    if rational:
        root_alpha = f.sqrt(fib.alpha)
        delta1 = fib.r.scale(f.mul(f.from_int(8), root_alpha))
        d1f = f
    else:
        d1f = make_extension(f.p, 2)
        alpha2 = embed(fib.alpha, f, d1f)
        root_alpha = d1f.sqrt(alpha2)
        if root_alpha is None:
            # unreachable: every element of F_p is a square in F_{p^2}
            raise SquareRootObstruction("alpha has no square root over the quadratic extension")
        r2 = embed_poly(fib.r, f, d1f)
        delta1 = r2.scale(d1f.mul(d1f.from_int(8), root_alpha))
    return PlaneQuarticModel(delta0, delta1, delta2, delta4, d1f, rational)


class Transport(NamedTuple):
    """The construction's coordinates carried to one odd model, over one field (CorrespondenceR.transport).

    M = tau o pre^-1 takes the construction's x to the odd model's, and y to
    det(tau)^4 y / (gamma x + delta)^4.  Its adjugate takes an odd-model x0
    to (U : V) = adj(M)(x0, 1) on the construction's curve, with
    y = det(pre)^4 y0 / V^4 there.
    """

    adj: tuple  # adj(M) = pre o adj(tau), as a Mobius matrix
    src: tuple  # adj(tau)'s second row: zero at the x0 over the source curve's point at infinity
    y_scale: object  # det(pre)^4
    N: Poly  # the cubic forms of N and D (D's is v D) under adj(M), four coefficients each
    D: Poly
    P: tuple  # c (x^i under adj(M)) (alpha - gamma x)^2 = c (delta x - beta)^i (alpha - gamma x)^(4 - i); c = det(pre)^-4
    pole: tuple  # the cubic forms of N and D at pre(1, 0), the x where pre^-1 has its pole


@dataclass(frozen=True)
class CorrespondenceR:
    """The correspondence (G(t,x), y -/+ (b02 + b12 x + b22 x^2)/rho) between H and X."""

    fib: TrigonalFibration
    X: CurveXModel
    plane: PlaneQuarticModel
    sign: int  # +1 for R, -1 for R'
    _embed_cache: dict = _embedding_cache()
    _transport_cache: dict = _embedding_cache()

    def transport(self, tau) -> Transport:
        """The construction's coordinates on the odd model that tau reaches, over tau's field, built once per tau.

        A degree-3 Mumford pair (a, b) lands there as a' = monic(a's cubic form
        under adj(M)) and b' = c (b's form at degree 2 under adj(M)) (alpha - gamma x)^2
        mod a': both linear in the coefficients of a and b.
        """
        got = self._transport_cache.get(tau)
        if got is None:
            g, K = self.fib.gmap, tau.field
            pre = g.pre_transform if K is g.field else g.pre_transform.base_change(K)
            M = _compose_mobius(tau, pre.inverse())
            al, be, ga, de = M.m
            adj = (de, K.neg(be), K.neg(ga), al)
            N3, D3 = (BinaryForm.from_affine(embed_poly(h, g.field, K), 3) for h in (g.N, g.D))
            y_scale = K.pow(pre.det, 4)
            u, w = Poly(K, [K.neg(be), de]), Poly(K, [al, K.neg(ga)])
            w2 = (w * w).scale(K.inv(y_scale))
            P = ((w2 * w * w).c, (w2 * u * w).c, (w2 * u * u).c)
            pu, pv = pre.m[0], pre.m[2]
            got = self._transport_cache[tau] = Transport(
                adj, (K.neg(tau.m[2]), tau.m[0]), y_scale,
                Poly(K, N3.substituted(*adj).c, trim=False), Poly(K, D3.substituted(*adj).c, trim=False),
                P, (N3.eval(pu, pv), D3.eval(pu, pv)),
            )
        return got

    def rho_at(self, field, t0) -> tuple:
        """(d4, d2, d0, +/-1/d1) at t0, so that rho_of gives rho at every b22 over t0 with no evaluation or inverse."""
        deltas = self._embed_cache.get(field)
        if deltas is None:
            f0 = self.fib.field
            pl = self.plane
            deltas = self._embed_cache[field] = (
                embed_poly(pl.delta4, f0, field),
                embed_poly(pl.delta2, f0, field),
                embed_poly(pl.delta0, f0, field),
                embed_poly(pl.delta1, pl.delta1_field, field),
            )
        d4, d2, d0, d1 = (d.eval(t0) for d in deltas)
        c = field.inv(d1)
        return d4, d2, d0, c if self.sign > 0 else field.neg(c)

    @staticmethod
    def rho_of(field, at, b22):
        """The square root of b22 on X|_U, (d4 b22^2 + d2 b22 + d0) / d1 with the sign of the sheet, from at = rho_at(field, t0)."""
        d4, d2, d0, c = at
        return field.mul(field.add(field.mul(field.add(field.mul(d4, b22), d2), b22), d0), c)

    def rho(self, field, t0, b22):
        return self.rho_of(field, self.rho_at(field, t0), b22)


def build_correspondence(fib: TrigonalFibration, sign: int = +1) -> CorrespondenceR:
    if sign not in (+1, -1):
        raise BadSign(f"sign {sign!r} (need +1 or -1)")
    return CorrespondenceR(fib, build_X(fib), build_plane_model(fib), sign)
