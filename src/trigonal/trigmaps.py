"""Trigonal maps for tractable subgroups, via lines in P^3.

Each Weierstrass pair spans a chord of the twisted cubic; a line meeting all
four chords projects P^3 to P^1 so that paired points collide, and composing
with the rational normal embedding gives the degree-3 map
g(x) = (x^3 + n1 x + n0) / (x^2 + d1 x + d0).

The four chord conditions give a 4x6 matrix M on Plucker coordinates whose
kernel is a pencil of candidate lines; intersecting the pencil with the
Plucker quadric is a binary quadratic whose discriminant decides whether the
map can be taken rational (it is a square exactly when one exists).
"""

from __future__ import annotations

import hashlib
import operator
import random

from .curves import HCurve, Mobius
from .errors import ContextMismatch, DegeneratePair, DegenerateConfiguration, NotRational
from .fields import _rref, embed_poly
from .polyring import BinaryForm, Poly, gcd
from .subgroups import TractableSubgroup


def plucker_of_pair(quad: BinaryForm):
    """Plucker coordinates of the chord through the two roots of a quadratic.

    For a*u^2 + b*uv + c*v^2 the chord of the twisted cubic through the
    embedded roots is (c^2 : -cb : b^2 - ac : a^2 : ab : ac).  Six products:
    the discriminant b^2 - 4ac is formed from b^2 and ac by additions.
    """
    f = quad.field
    c, b, a = quad.c
    ac = f.mul(a, c)
    mid = f.sub(f.sqr(b), ac)  # b^2 - ac; the discriminant is mid - 3ac
    if f.sub(mid, f.add(ac, f.add(ac, ac))) == f.zero:
        raise DegeneratePair("quadratic has a double root")
    return (f.sqr(c), f.neg(f.mul(c, b)), mid, f.sqr(a), f.mul(a, b), ac)


def hyperplane_row(quad: BinaryForm):
    """Coefficient row of the 'meets the chord' hyperplane (Plucker coordinates)."""
    v = plucker_of_pair(quad)
    return (v[3], v[4], v[5], v[0], v[1], v[2])


def plucker_form(field, v):
    """The Grassmannian quadric v0*v3 + v1*v4 + v2*v5."""
    acc = field.zero
    for i in range(3):
        acc = field.add(acc, field.mul(v[i], v[i + 3]))
    return acc


def build_M(S: TractableSubgroup, H: HCurve):
    """The 4x6 chord-condition matrix, reduced to an F_q-rational row basis.

    Rows attached to conjugate quadratics live in extensions, but the row
    space is Frobenius-stable; expanding each row on the F_p power basis of
    its field and row-reducing over F_p recovers the rational form.  The
    expanded rows of a row r span every row of its Frobenius conjugates,
    so the quadratics join an echelon basis one at a time: r is first
    reduced over its own field against the basis rows, and only a nonzero
    remainder, in the free columns, is expanded and reduced with the basis.
    A conjugate of an expanded quadratic leaves none, so once the rank is 4
    nothing more is expanded, and the remainder checks each later
    quadratic exactly: a nonzero one makes the rank above 4.  The reduced
    row echelon form of a row space is unique, so M is the one that
    reducing every expanded row at once gives, and DegenerateConfiguration
    is raised exactly when that rank is not 4.
    """
    base = H.field
    if base.k != 1:
        raise ContextMismatch(f"the chord matrix is built over a prime field, not {base!r}")
    rows, pivots, free, negs = [], [], range(6), []
    for q in S.quads:
        K = q.field
        row = hyperplane_row(q)
        left = [row[c] for c in free]
        if rows:
            # raw products with the negated F_p entries of the basis, one fold per free column
            at = [row[c] for c in pivots]
            left = [K._fold(x + sum(map(operator.mul, at, col))) for x, col in zip(left, negs)]
        if not any(left):
            continue
        expanded = []
        for xs in zip(*map(K.coeffs, left)):
            v = [base.zero] * 6
            for c, x in zip(free, xs):
                v[c] = x
            expanded.append(v)
        rows, pivots = _rref(rows + expanded, base)
        if len(rows) > 4:
            raise DegenerateConfiguration(f"chord matrix has rank at least {len(rows)}, expected 4")
        free = [c for c in range(6) if c not in pivots]
        negs = [[base.neg(r[c]) for r in rows] for c in free]
    if len(rows) != 4:
        raise DegenerateConfiguration(f"chord matrix has rank {len(rows)}, expected 4")
    return [tuple(r) for r in rows]


def kernel_basis(M, field):
    """Basis (alpha, beta) of the 2-dimensional kernel of the 4x6 matrix."""
    rows, pivots = _rref(M, field)
    free = [c for c in range(6) if c not in pivots]
    if len(free) != 2:
        raise DegenerateConfiguration(f"kernel has dimension {len(free)}, expected 2")
    basis = []
    for fc in free:
        v = [field.zero] * 6
        v[fc] = field.one
        for r, pc in zip(rows, pivots):
            v[pc] = field.neg(r[fc])
        basis.append(tuple(v))
    return basis[0], basis[1]


def _sum_shift3(field, u, v):
    """sum_i u_i v_{i+3 mod 6}."""
    acc = field.zero
    for i in range(6):
        acc = field.add(acc, field.mul(u[i], v[(i + 3) % 6]))
    return acc


def rationality_discriminant(field, alpha, beta):
    """(sum a_i b_{i+3})^2 - (sum a_i a_{i+3})(sum b_i b_{i+3}), indices mod 6."""
    b = _sum_shift3(field, alpha, beta)
    aa = _sum_shift3(field, alpha, alpha)
    bb = _sum_shift3(field, beta, beta)
    return field.sub(field.sqr(b), field.mul(aa, bb))


def _pencil_roots(field, alpha, beta):
    """Intersections of the kernel pencil with the Plucker quadric.

    Returns the (mu, lam) roots of QA*mu^2 + B*mu*lam + QB*lam^2 = 0, i.e. the
    points mu*alpha + lam*beta lying on the quadric, canonically ordered
    (finite lam first by encoding, the (0 : 1) root last).
    """
    QA = plucker_form(field, alpha)
    QB = plucker_form(field, beta)
    B = _sum_shift3(field, alpha, beta)
    if QA == field.zero and QB == field.zero and B == field.zero:
        raise DegenerateConfiguration("entire pencil lies on the quadric")
    roots = []
    if QB != field.zero:
        disc = field.sub(field.sqr(B), field.mul(field.from_int(4), field.mul(QA, QB)))
        r = field.sqrt(disc)
        if r is None:
            raise NotRational("pencil meets the quadric only over a quadratic extension")
        inv2qb = field.inv(field.add(QB, QB))
        lam1 = field.mul(field.sub(r, B), inv2qb)
        lam2 = field.mul(field.sub(field.neg(r), B), inv2qb)
        roots = [(field.one, lam1)]
        if lam2 != lam1:
            roots.append((field.one, lam2))
    else:
        roots = [(field.zero, field.one)]
        if B != field.zero:
            roots.insert(0, (field.one, field.div(field.neg(QA), B)))
    roots.sort(key=lambda ml: (ml[0] == field.zero, field.encode(ml[1])))
    return roots


class TrigonalMap:
    """Degree-3 map x -> (x^3 + n1 x + n0) / (x^2 + d1 x + d0) for a subgroup."""

    __slots__ = ("field", "n1", "n0", "d1", "d0", "curve", "subgroup", "pre_transform", "source_curve")

    def __init__(self, field, n1, n0, d1, d0, curve, subgroup, pre_transform, source_curve):
        self.field = field
        self.n1, self.n0, self.d1, self.d0 = n1, n0, d1, d0
        self.curve = curve
        self.subgroup = subgroup
        self.pre_transform = pre_transform
        self.source_curve = source_curve

    @property
    def N(self) -> Poly:
        f = self.field
        return Poly(f, [self.n0, self.n1, f.zero, f.one])

    @property
    def D(self) -> Poly:
        f = self.field
        return Poly(f, [self.d0, self.d1, f.one])

    def coeffs(self):
        return (self.n1, self.n0, self.d1, self.d0)

    def __repr__(self):
        f = self.field
        e = f.encode
        return f"TrigonalMap(N=x^3+{e(self.n1)}x+{e(self.n0)}, D=x^2+{e(self.d1)}x+{e(self.d0)})"


def _map_from_root(field, alpha, beta, root):
    """(n1, n0, d1, d0) of the line v = mu alpha + lam beta, read off its equations in closed form.

    The equations (0, -v3, -v4, -v5), (v3, 0, -v2, v1), (v4, v2, 0, -v0), (v5, -v1, v0, 0) have rank 2
    iff v is on the Plucker quadric (their Pfaffian), and then reach the (u0, u1) echelon shape iff
    v3 != 0, with rows (1, 0, -v2, v1) / v3 and (0, 1, v4, v5) / v3.
    """
    mu, lam = root
    v = [field.add(field.mul(mu, a), field.mul(lam, b)) for a, b in zip(alpha, beta)]
    if v[3] == field.zero or plucker_form(field, v) != field.zero:
        raise DegenerateConfiguration("line equations do not reach the (u0, u1) echelon shape")
    i = field.inv(v[3])
    return field.neg(field.mul(v[2], i)), field.mul(v[1], i), field.mul(v[4], i), field.mul(v[5], i)


def _transform_subgroup(S: TractableSubgroup, mob: Mobius) -> TractableSubgroup:
    quads = []
    for q in S.quads:
        mk = mob.base_change(q.field) if q.field is not mob.field else mob
        quads.append(mk.pullback_form(q))
    return TractableSubgroup.from_quads(quads)


def _try_build(field, alpha, beta, root, H, S):
    n1, n0, d1, d0 = _map_from_root(field, alpha, beta, root)
    g = TrigonalMap(field, n1, n0, d1, d0, H, S, Mobius.identity(field), H)
    if not verify_trigonal(g, S):
        raise DegenerateConfiguration("N and D share a factor, or the map fails the pairing conditions")
    return g


def trigonal_map_for(S: TractableSubgroup, H: HCurve, _depth=0, _kernel=None) -> TrigonalMap:
    """An F_q-rational trigonal map for S in normal form.

    Picks the canonical pencil root, falling back to the second root when the
    first line degenerates (meets the twisted cubic).  Raises NotRational when
    the Prop.-3 style discriminant is a non-square, and DegenerateConfiguration
    if no usable map remains after 8 random Mobius changes of the x-coordinate.
    _kernel is kernel_basis(build_M(S, H), H.field) when the caller has it.
    """
    field = H.field
    if _kernel is None:
        _kernel = kernel_basis(build_M(S, H), field)
    alpha, beta = _kernel
    last = None
    for root in _pencil_roots(field, alpha, beta):
        try:
            return _try_build(field, alpha, beta, root, H, S)
        except DegenerateConfiguration as exc:
            last = exc
    if _depth >= 8:
        raise last
    seed = hashlib.sha256(repr(("mobius-retry", field.p, S.key(), _depth)).encode()).digest()
    rng = random.Random(int.from_bytes(seed, "big"))
    while True:
        a, b, c, d = (field.random(rng) for _ in range(4))
        if field.sub(field.mul(a, d), field.mul(b, c)) != field.zero:
            break
    mob = Mobius(field, a, b, c, d)
    H2 = HCurve(field, mob.pullback_form(H.form))
    S2 = _transform_subgroup(S, mob)
    g2 = trigonal_map_for(S2, H2, _depth + 1)
    pre = mob if g2.pre_transform.is_identity else _compose_mobius(g2.pre_transform, mob)
    return TrigonalMap(field, g2.n1, g2.n0, g2.d1, g2.d0, g2.curve, g2.subgroup, pre, H)


def _compose_mobius(outer: Mobius, inner: Mobius) -> Mobius:
    f = outer.field
    (a1, b1, c1, d1), (a2, b2, c2, d2) = outer.m, inner.m
    dot = lambda x1, y1, x2, y2: f.add(f.mul(x1, x2), f.mul(y1, y2))  # a row of outer times a column of inner
    return Mobius(f, dot(a1, b1, a2, c2), dot(a1, b1, b2, d2), dot(c1, d1, a2, c2), dot(c1, d1, b2, d2))


def verify_trigonal(g: TrigonalMap, S: TractableSubgroup) -> bool:
    """Does g identify the two roots of every quadratic of S, as points of P^1?

    Root-free test: reduce N and D modulo the quadratic; the two values agree
    in P^1 iff the two linear remainders are proportional.  A pair containing
    x = infinity maps there together iff D vanishes at the affine partner.
    """
    if gcd(g.N, g.D).degree != 0:
        # a common factor: the candidate line passes through an embedded
        # Weierstrass point, and the map drops to degree <= 2
        return False
    for q in S.quads:
        K = q.field
        NK = embed_poly(g.N, g.field, K)
        DK = embed_poly(g.D, g.field, K)
        c0, c1, c2 = q.c
        if c2 == K.zero:
            # pair {infinity, -c0/c1}
            if c1 == K.zero:
                raise DegeneratePair("double root at infinity")
            x = K.neg(K.div(c0, c1))
            if DK.eval(x) != K.zero:
                return False
            continue
        aq = Poly(K, [c0, c1, c2])
        nr = NK % aq
        dr = DK % aq
        det = K.sub(K.mul(nr[1], dr[0]), K.mul(nr[0], dr[1]))
        if det != K.zero:
            return False
    return True
