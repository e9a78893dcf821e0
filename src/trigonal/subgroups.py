"""Rational tractable subgroups: Galois-stable pairings of the 8 Weierstrass points.

A tractable subgroup is stored as its four coprime quadratic factors of F~,
normalized to a canonical scaling, so subgroups compare as plain value objects.

Enumeration factors over F_q alone: each Frobenius orbit of Weierstrass
points is an F_q-irreducible factor h, whose quadratics are built in its own
algebra F_q[x]/(h); canonical() projects them into the deterministic context
of degree at most 4 that holds their coefficients.  Larger deterministic
contexts only appear in subgroup_elements, which materializes divisor
classes over the splitting field.

Each curve's octic is split once (OrbitSplit): the distinct-degree step
alone gives the pattern, and a pattern without tractable subgroups stops
there.  A cross pairing needs the roots of the second orbit o2 in the
first orbit's algebra K, ordered as the least root by encoding followed by
its Frobenius conjugates, so finding any one root fixes the whole chain.  That
root comes from polyring.split_root: for m = 2 its closed form with one F_p
square root; for m = 3, 4 it skips the x^(p^m) step (o2 is known to split in
K) and takes h^((p^m - 1)/2) as N(h)^((p - 1)/2), N(h) the product of
the m Frobenius conjugates of h, powered in F_p[N(h)] of degree at most m
instead of the m^2-dimensional ring, splitting only until one linear
factor appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .curves import DivisorClass, HCurve, OddModel, cantor_add, two_torsion_from_pair
from .errors import ContextMismatch, NotAFactor, NotAPartitionOf8, NotSquarefree
from .fields import ExtField, embed_poly, make_extension, project
from .polyring import BinaryForm, Poly, _distinct_degree, _equal_degree, _LazyRng, _unpacked, is_squarefree, split_root

# s(T) for each factor-degree pattern of F~ with any Galois-stable pairing.
PATTERN_COUNTS = {
    (8,): 1,
    (6, 2): 1,
    (6, 1, 1): 1,
    (4, 2, 1, 1): 1,
    (4, 2, 2): 3,
    (4, 1, 1, 1, 1): 3,
    (3, 3, 2): 3,
    (3, 3, 1, 1): 3,
    (4, 4): 5,
    (2, 2, 2, 1, 1): 7,
    (2, 2, 1, 1, 1, 1): 9,
    (2, 1, 1, 1, 1, 1, 1): 15,
    (2, 2, 2, 2): 25,
    (1, 1, 1, 1, 1, 1, 1, 1): 105,
}


def count_for_pattern(pattern) -> int:
    """Number of rational tractable subgroups for a factor-degree pattern of F~."""
    t = tuple(sorted(pattern, reverse=True))
    if sum(t) != 8 or any(d < 1 for d in t):
        raise NotAPartitionOf8(f"{pattern!r} is not a partition of 8")
    return PATTERN_COUNTS.get(t, 0)


def normalize_quadratic(form: BinaryForm) -> BinaryForm:
    """Scale a binary quadratic canonically: monic in u, else unit uv coefficient; a monic form is returned as it is."""
    f = form.field
    c0, c1, c2 = form.c
    if c2 == f.one:
        return form
    if c2 != f.zero:
        return form.scale(f.inv(c2))
    if c1 != f.zero:
        return form.scale(f.inv(c1))
    return form.scale(f.inv(c0))


@dataclass(frozen=True)
class TractableSubgroup:
    """Four coprime quadratic factors of F~ whose pairing is Galois-stable."""

    quads: tuple  # 4 normalized BinaryForms, canonically sorted

    @classmethod
    def from_quads(cls, quads):
        qs = [normalize_quadratic(q) for q in quads]
        qs.sort(key=lambda q: (q.field.k, q.encode()))
        return cls(tuple(qs))

    def key(self):
        return tuple((q.field.k, q.encode()) for q in self.quads)

    def key_in(self, big_field):
        """Canonical frozenset of the quadratics carried into a common field."""
        out = []
        for q in self.quads:
            out.append(normalize_quadratic(embed_poly(q, q.field, big_field)).encode())
        return frozenset(out)

    def canonical(self):
        """Each quadratic projected into the smallest F_{p^d} holding its coefficients.

        An orbit's quadratics are a Frobenius-stable set, so every embedding
        of its algebra carries them onto the same set.
        """
        out = []
        for q in self.quads:
            A = q.field
            for d in (d for d in range(1, A.k + 1) if A.k % d == 0):
                K = make_extension(A.p, d)
                c = [project(x, A, K) for x in q.c]
                if None not in c:
                    break
            out.append(BinaryForm(K, 2, c))
        return TractableSubgroup.from_quads(out)

    def field_degrees(self):
        return tuple(q.field.k for q in self.quads)

    def __repr__(self):
        return f"TractableSubgroup({[q.encode() for q in self.quads]})"


class Orbit(NamedTuple):
    """One Frobenius orbit of Weierstrass points."""

    size: int
    poly: Poly | None  # its monic irreducible factor of F; None for the factor v
    xp: Poly | None  # x^p mod poly


class OrbitSplit:
    """The Frobenius orbits of a curve's Weierstrass points, found once per curve.

    Construction runs only the distinct-degree step on the monic affine
    part F of F~: for each orbit size d, the product of the orbits of that
    size.  That fixes the pattern.  orbits() runs the equal-degree step.
    x^p mod F is computed once, in the distinct-degree ring F_p[x]/(F),
    which also serves the equal-degree step; reduced modulo each orbit
    factor, it seeds the Frobenius matrices of the orbit's algebra and of
    its root finding.
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

    def orbits(self):
        """[Orbit], the factor v first, then by the distinct-degree parts."""
        rng = _LazyRng(self.F)
        out = [Orbit(1, None, None)] if self.has_v else []
        for g, d in self.parts:
            for h in _equal_degree(g, d, rng, self.ring):
                out.append(Orbit(d, h, self.xp % h))
        return out


def pattern_of(H: HCurve):
    return OrbitSplit(H).pattern


def _matchings(orbits):
    """All pairings of orbits: even orbits may self-pair, equal sizes cross at m offsets."""
    if not orbits:
        yield []
        return
    o = orbits[0]
    rest = orbits[1:]
    if o[0] % 2 == 0:
        for m in _matchings(rest):
            yield [("self", o)] + m
    for idx, o2 in enumerate(rest):
        if o2[0] == o[0]:
            rem = rest[:idx] + rest[idx + 1 :]
            for j in range(o[0]):
                for m in _matchings(rem):
                    yield [("cross", o, o2, j)] + m


def _quad_from_pair(field, r1, r2) -> BinaryForm:
    """The quadratic form with roots r1, r2 in P^1 (None = (1:0))."""
    f = field
    if r1 is None and r2 is None:
        raise ValueError("degenerate pair at infinity")
    if r1 is None or r2 is None:
        r = r2 if r1 is None else r1
        return BinaryForm(f, 2, (f.neg(r), f.one, f.zero))  # v*(u - r*v)
    return BinaryForm(f, 2, (f.mul(r1, r2), f.neg(f.add(r1, r2)), f.one))


class _Materializer:
    """Builds and caches each orbit's quadratics in its own algebra F_p[x]/(h).

    An even orbit self-pairs by Y^2 - (theta + theta^sigma) Y + theta theta^sigma,
    sigma the p^(m/2)-power Frobenius: m/2 products with the p-power matrix.
    Two equal-size orbits cross-pair at m offsets in the first one's algebra.
    """

    def __init__(self, H: HCurve):
        self.H = H
        self._self_cache = {}
        self._root_cache = {}
        self._alg_cache = {}

    def _algebra(self, orbit: Orbit):
        """F_p[x]/(poly) as an extension context with the orbit's own modulus."""
        key = orbit.poly.encode()
        A = self._alg_cache.get(key)
        if A is None:
            A = ExtField(self.H.field, orbit.poly.c, orbit.xp.c)
            self._alg_cache[key] = A
        return A

    def self_quads(self, orbit: Orbit):
        m, poly = orbit.size, orbit.poly
        key = (m, poly.encode() if poly else None)
        got = self._self_cache.get(key)
        if got is None:
            if m == 2:
                got = [BinaryForm(self.H.field, 2, (poly[0], poly[1], self.H.field.one))]
            else:
                # every conjugate comes from the p-power matrix alone, so the
                # algebra builds (and the subgroup keeps) no other matrix
                A = self._algebra(orbit)
                theta = pi = A.from_coeffs((0, 1))
                for _ in range(m // 2):
                    pi = A.frobenius_power(pi, 1)
                coeffs = (A.mul(theta, pi), A.neg(A.add(theta, pi)), A.one)
                got = [BinaryForm(A, 2, coeffs)]
                for _ in range(1, m // 2):
                    coeffs = tuple(A.frobenius_power(c, 1) for c in coeffs)
                    got.append(BinaryForm(A, 2, coeffs))
            self._self_cache[key] = got
        return got

    def ordered_roots(self, orbit: Orbit, field):
        """Roots of the orbit in the given field, Frobenius-ordered from the least.

        One root is found by split_root and its conjugates give the rest, so
        the chain is the same whichever root the search lands on.
        """
        size, poly = orbit.size, orbit.poly
        key = (size, poly.encode() if poly else None, id(field))
        got = self._root_cache.get(key)
        if got is None:
            if poly is None:
                got = [None]
            elif field.modulus == poly.c:
                # the orbit's own algebra: its roots are theta and conjugates
                theta = field.from_coeffs((0, 1))
                got = [theta]
                for _ in range(size - 1):
                    got.append(field.frobenius_power(got[-1], 1))
            else:
                # the orbit's algebra, when one was built, is split_root's ring
                conj = [split_root(poly, orbit.xp, field, self._alg_cache.get(poly.encode()))]
                for _ in range(size - 1):
                    conj.append(field.frobenius_power(conj[-1], 1))
                if len(set(conj)) != size:
                    raise ContextMismatch(f"{poly!r} does not have {size} roots in {field!r}")
                i = min(range(size), key=lambda j: field.encode(conj[j]))
                got = conj[i:] + conj[:i]
            self._root_cache[key] = got
        return got

    def cross_quads(self, o1: Orbit, o2: Orbit, j):
        m = o1.size
        f = self.H.field
        if m == 1:
            r1 = None if o1.poly is None else f.neg(o1.poly[0])
            r2 = None if o2.poly is None else f.neg(o2.poly[0])
            return [_quad_from_pair(f, r1, r2)]
        K = self._algebra(o1)
        rs1 = self.ordered_roots(o1, K)
        rs2 = self.ordered_roots(o2, K)
        return [_quad_from_pair(K, rs1[i], rs2[(i + j) % m]) for i in range(m)]


def enumerate_tractable(H: HCurve, fast: bool = False, split: OrbitSplit | None = None):
    """All F_q-rational tractable subgroups of Jac(H)[2] (canonically sorted).

    fast=True keeps the quadratics in the orbit algebras (the survey hot path:
    same subgroups, same downstream linear algebra); otherwise canonical()
    carries each subgroup into the deterministic contexts.  split is the
    curve's OrbitSplit when the caller already has it; a pattern with no
    tractable subgroup returns before the equal-degree step.
    """
    if split is None:
        split = OrbitSplit(H)
    if not count_for_pattern(split.pattern):
        return []
    orbits = split.orbits()
    orbits.sort(key=lambda o: (-o.size, o.poly.encode() if o.poly else ()))
    mat = _Materializer(H)
    out = []
    for matching in _matchings(orbits):
        quads = []
        for item in matching:
            if item[0] == "self":
                quads.extend(mat.self_quads(item[1]))
            else:
                _, o1, o2, j = item
                quads.extend(mat.cross_quads(o1, o2, j))
        if len(quads) != 4:
            raise NotAPartitionOf8(f"a pairing of the orbits gave {len(quads)} quadratics, not 4")
        out.append(TractableSubgroup.from_quads(quads))
    # the subgroups keep the orbit algebras for their ring arithmetic only,
    # not the Frobenius matrices the enumeration built in them
    for A in mat._alg_cache.values():
        A._frob.clear()
    if not fast:
        out = [S.canonical() for S in out]
    out.sort(key=lambda s: s.key())
    return out


def splitting_degree(H: HCurve) -> int:
    return math.lcm(*pattern_of(H))


def subgroup_elements(S: TractableSubgroup, H: HCurve):
    """The 8 classes of the subgroup, as divisor classes over the splitting field."""
    L = splitting_degree(H)
    E = make_extension(H.field.p, L)
    model = OddModel.from_curve(H, E)
    gens = [two_torsion_from_pair(model, q) for q in S.quads]
    elems = {}

    def put(D):
        elems[(D.a.c, D.b.c)] = D

    put(DivisorClass.identity(model))
    for g in gens:
        put(g)
    put(cantor_add(gens[0], gens[1]))
    put(cantor_add(gens[0], gens[2]))
    put(cantor_add(gens[0], gens[3]))
    if len(elems) != 8:
        raise NotAFactor("the quadratics do not generate a subgroup (Z/2Z)^3")
    total = gens[0]
    for g in gens[1:]:
        total = cantor_add(total, g)
    if not total.is_identity:
        raise NotAFactor("the four quadratics do not pair all eight Weierstrass points")
    return list(elems.values())


# --- Expectation of success over random curves ------------------------------


@dataclass(frozen=True)
class ExpectationResult:
    value: Fraction
    decimal4: str

    def __str__(self):
        return f"{self.value} ~ {self.decimal4}"


def _partitions(n: int, largest=None):
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def partition_weight(t) -> Fraction:
    """Asymptotic probability 1 / prod(nu! * n^nu) of factor pattern t."""
    w = Fraction(1)
    for n in set(t):
        nu = t.count(n)
        w /= Fraction(math.factorial(nu) * n**nu)
    return w


def expectation(success_prob=Fraction(1, 4)) -> ExpectationResult:
    """Exact expected fraction of curves admitting a rational isogeny.

    Sums (1 - (1 - p)^{s(T)}) * weight(T) over all 22 partitions T of 8,
    where s(T) is the tractable-subgroup count of the pattern.
    """
    p = Fraction(success_prob)
    if not 0 <= p <= 1:
        raise ValueError("success probability must lie in [0, 1]")
    total = Fraction(0)
    for t in _partitions(8):
        s = PATTERN_COUNTS.get(t, 0)
        if s:
            total += (1 - (1 - p) ** s) * partition_weight(t)
    scaled = round(total * 10**4)
    return ExpectationResult(total, f"{scaled // 10**4}.{scaled % 10**4:04d}")
