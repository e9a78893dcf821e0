"""Tractable subgroup enumeration, the pattern table, and the expectation sum."""

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import curve_with_pattern, run_under
from oracles import brute_force_tractable, factor_form
from trigonal.curves import HCurve, OrbitSplit, cantor_add
from trigonal.errors import NotAPartitionOf8
from trigonal.fields import make_extension, prime_field
from trigonal.polyring import Poly, roots
from trigonal.subgroups import (
    PATTERN_COUNTS,
    _Materializer,
    count_for_pattern,
    enumerate_tractable,
    expectation,
    partition_weight,
    pattern_of,
    splitting_degree,
    subgroup_elements,
    _partitions,
)


def test_ex37_curve_has_one_subgroup(ex37_curve, ex37_subgroup):
    assert pattern_of(ex37_curve) == (6, 1, 1)
    subs = enumerate_tractable(ex37_curve)
    assert len(subs) == 1
    S = subs[0]
    assert sorted(S.field_degrees()) == [1, 3, 3, 3]
    # the rational quadratic is uv + 20v^2
    assert any(q.field.k == 1 and q.encode() == (20, 1, 0) for q in S.quads)


def test_ex37_subgroup_conjugate_coefficients(ex37_subgroup):
    # u^2 + xi1 uv + xi2 v^2 with xi1^3 + 29 xi1^2 + 9 xi1 + 13 = 0, xi2 = xi1^50100
    E3 = make_extension(37, 3)
    quads = [q for q in ex37_subgroup.quads if q.field.k == 3]
    assert len(quads) == 3
    minpoly = Poly.from_ints(E3, [13, 9, 29, 1])
    for q in quads:
        xi1 = q.c[1]
        xi2 = q.c[0]
        assert minpoly.eval(xi1) == E3.zero
        assert E3.pow(xi1, 50100) == xi2
    # and they are one Frobenius orbit
    xi = quads[0].c[1]
    orbit = {xi, E3.frobenius_power(xi, 1), E3.frobenius_power(xi, 2)}
    assert orbit == {q.c[1] for q in quads}


def test_enumerate_matches_brute_force_worked_example(ex37_curve):
    subs = enumerate_tractable(ex37_curve)
    bf = brute_force_tractable(ex37_curve)
    E = make_extension(37, splitting_degree(ex37_curve))
    assert {s.key_in(E) for s in subs} == {s.key_in(E) for s in bf}


def test_enumerate_matches_brute_force_random():
    rng = random.Random(21)
    from trigonal.survey import random_curve

    checked = 0
    while checked < 25:
        H = random_curve(101, rng)
        L = splitting_degree(H)
        if L > 15:
            continue
        subs = enumerate_tractable(H)
        assert len(subs) == count_for_pattern(pattern_of(H))
        bf = brute_force_tractable(H)
        E = make_extension(101, L)
        assert {s.key_in(E) for s in subs} == {s.key_in(E) for s in bf}
        checked += 1


def test_fast_representation_agrees():
    rng = random.Random(22)
    from trigonal.survey import random_curve

    for _ in range(15):
        H = random_curve(101, rng)
        a = enumerate_tractable(H)
        b = enumerate_tractable(H, fast=True)
        assert len(a) == len(b)
        # the orbit algebras the subgroups keep drop their Frobenius matrices; the map is rebuilt on use
        for A, c in {(id(q.field), x): (q.field, x) for s in b for q in s.quads if q.field.k > 1 for x in q.c}.values():
            assert A.frobenius_power(c, 1) == A.pow(c, 101)
        L = splitting_degree(H)
        if L <= 12:
            E = make_extension(101, L)
            assert {s.key_in(E) for s in a} == {s.key_in(E) for s in b}


def test_pattern_counts_table():
    assert count_for_pattern((2, 2, 2, 2)) == 25
    assert count_for_pattern((8,)) == 1
    assert count_for_pattern((7, 1)) == 0
    assert count_for_pattern((5, 3)) == 0
    assert count_for_pattern((1,) * 8) == 105
    # order does not matter
    assert count_for_pattern((1, 2, 1, 2, 1, 1)) == 9
    with pytest.raises(NotAPartitionOf8):
        count_for_pattern((5, 4))
    with pytest.raises(NotAPartitionOf8):
        count_for_pattern((8, 0))


def test_counts_by_constructed_pattern():
    F1009 = prime_field(1009)
    rng = random.Random(23)
    for pattern in ((6, 2), (4, 2, 2), (4, 4), (5, 3)):
        H = curve_with_pattern(F1009, pattern, rng)
        assert pattern_of(H) == tuple(sorted(pattern, reverse=True))
        assert len(enumerate_tractable(H)) == count_for_pattern(pattern)


def test_fully_split_curve_has_105():
    F1009 = prime_field(1009)
    rng = random.Random(24)
    H = curve_with_pattern(F1009, (1,) * 8, rng)
    subs = enumerate_tractable(H)
    assert len(subs) == 105
    # trivial Galois action: brute force keeps all 105 candidate pairings
    assert len(brute_force_tractable(H)) == 105


def test_subgroup_quads_multiply_to_F(ex37_curve, ex37_subgroup):
    # product of the four quadratics equals F~ up to a scalar in F_q*
    from trigonal.fields import embed

    L = splitting_degree(ex37_curve)
    E = make_extension(37, L)
    prod = [E.one]
    for q in ex37_subgroup.quads:
        qe = q.map_coeffs(lambda x: embed(x, q.field, E), E)
        new = [E.zero] * (len(prod) + 2)
        for i, ci in enumerate(prod):
            for j, gj in enumerate(qe.c):
                new[i + j] = E.add(new[i + j], E.mul(ci, gj))
        prod = new
    FE = [embed(c, ex37_curve.field, E) for c in ex37_curve.form.c]
    # proportional
    scal = None
    for a, b in zip(prod, FE):
        if b != E.zero:
            scal = E.div(a, b)
            break
    assert scal is not None
    assert all(a == E.mul(scal, b) for a, b in zip(prod, FE))


def test_subgroup_elements_structure(ex37_curve, ex37_subgroup):
    els = subgroup_elements(ex37_subgroup, ex37_curve)
    assert len(els) == 8
    for D in els:
        assert cantor_add(D, D).is_identity
    assert sum(1 for D in els if D.is_identity) == 1


def test_expectation_values():
    assert expectation(Fraction(1, 4)).decimal4 == "0.1857"
    assert expectation(Fraction(1, 2)).decimal4 == "0.3113"
    assert expectation(0).value == 0
    # monotone in p
    vals = [expectation(Fraction(n, 10)).value for n in range(0, 11)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # p = 1: every curve with a subgroup succeeds; equals the table-pattern mass
    mass = sum(partition_weight(t) for t in PATTERN_COUNTS)
    assert expectation(1).value == mass == Fraction(20224, 40320)


def test_partition_generator():
    parts = list(_partitions(8))
    assert len(parts) == 22
    assert all(sum(t) == 8 for t in parts)
    assert sum(partition_weight(t) for t in parts) == 1


# --- one factorization per curve, one root per cross orbit -------------------

P30 = 750175891  # deterministic_prime(30, 0), 3 mod 4; 37 and 53 are 1 mod 4


def _roots_chain(poly, field):
    """Reference chain: all roots by roots(), the least by encoding, then its conjugates."""
    rs = roots(poly.map_coeffs(field.from_int, field))
    assert len(rs) == poly.degree
    chain = [min(rs, key=field.encode)]
    for _ in range(poly.degree - 1):
        chain.append(field.frobenius_power(chain[-1], 1))
    return chain


@pytest.mark.parametrize("p", [37, 53, P30])
@pytest.mark.parametrize("pattern", [(2, 2, 2, 2), (3, 3, 1, 1), (4, 4)], ids=str)
@pytest.mark.parametrize("fast", [False, True], ids=["canonical", "fast"])
def test_cross_orbit_chain_matches_roots(p, pattern, fast):
    F = prime_field(p)
    m = pattern[0]
    rng = random.Random(40 + p + m)
    for _ in range(2):
        H = curve_with_pattern(F, pattern, rng)
        orbits = [o for o in OrbitSplit(H).orbits() if o.size == m]
        mat = _Materializer(H)
        for o1 in orbits:
            K = mat._algebra(o1) if fast else make_extension(p, m)
            for o2 in orbits:
                assert mat.ordered_roots(o2, K) == _roots_chain(o2.poly, K)


# --- canonical contexts by projection from the orbit algebras -----------------

# SHA-256 of the canonical key lists below, recorded while canonical subgroups
# were still built by factoring over the deterministic extensions
CANONICAL_KEYS_SHA256 = "8bcf237689149c3f7a74470f5ce9fd10c342a081ab5239459202366d61bbafe9"


def _curves_with_subgroups(p, n, seed):
    from trigonal.survey import random_curve

    rng = random.Random(seed)
    out = []
    while len(out) < n:
        H = random_curve(p, rng)
        if count_for_pattern(pattern_of(H)):
            out.append(H)
    return out


def test_canonical_keys_frozen():
    keys, shapes = [], set()
    for p in (37, 101, 1009, 10**6 + 3):
        for H in _curves_with_subgroups(p, 20, p):
            subs = enumerate_tractable(H)
            keys.append([S.key() for S in subs])
            shapes |= {tuple(sorted(S.field_degrees())) for S in subs}
    assert shapes == {(1, 3, 3, 3), (4, 4, 4, 4), (1, 1, 2, 2), (2, 2, 2, 2), (1, 1, 1, 1)}
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == CANONICAL_KEYS_SHA256


@pytest.mark.parametrize("p", [37, 101, 1009, 10**6 + 3, 2**61 - 1])
def test_canonical_of_the_fast_subgroups_is_the_enumeration(p):
    for H in _curves_with_subgroups(p, 8, p + 1):
        fast = sorted((S.canonical() for S in enumerate_tractable(H, fast=True)), key=lambda s: s.key())
        assert fast == enumerate_tractable(H)


def _v_curve(F, rng):
    """A curve with F of degree 7, so v is one of the Weierstrass orbits."""
    while True:
        coeffs = [F.random(rng) for _ in range(7)] + [F.one, F.zero]
        try:
            return HCurve.from_coeffs(F, coeffs)
        except ValueError:
            continue


@pytest.mark.parametrize("p", [37, 101, P30])
def test_distinct_degree_pattern_matches_factorization(p):
    from trigonal.survey import random_curve

    F = prime_field(p)
    rng = random.Random(41)
    curves = [random_curve(p, rng) for _ in range(25)] + [_v_curve(F, rng) for _ in range(5)]
    for H in curves:
        split = OrbitSplit(H)
        _, factors = factor_form(H.form)
        assert all(mult == 1 for _, mult in factors)
        assert split.pattern == tuple(sorted((g.d for g, _ in factors), reverse=True))
        assert split.pattern == pattern_of(H)
        # the equal-degree step recovers exactly the irreducible factors
        got = sorted(o.poly.encode() for o in split.orbits() if o.poly is not None)
        want = sorted(g.affine().monic()[0].encode() for g, _ in factors if g.affine().degree > 0)
        assert got == want
        assert split.has_v == (H.F.degree == 7)
        for o in split.orbits():
            if o.poly is not None:
                assert o.xp == Poly.x(F).pow_mod(p, o.poly)


def test_typed_errors_survive_python_O():
    # the orbit checks raise TrigonalError subclasses, not asserts
    code = """
import types
from trigonal.errors import ContextMismatch, NotSquarefree
from trigonal.fields import make_extension, prime_field
from trigonal.polyring import BinaryForm, Poly, split_root
from trigonal.curves import OrbitSplit
F = prime_field(37)
sq = Poly.from_ints(F, [1, 2, 1]) * Poly.from_ints(F, [3, 0, 5, 0, 0, 1])
try:
    OrbitSplit(types.SimpleNamespace(F=sq, form=BinaryForm.from_affine(sq, 8)))
except NotSquarefree:
    print("ok1")
cubic = Poly.from_ints(F, [3, 0, 0, 1])  # -3 is not a cube mod 37
try:
    split_root(cubic, Poly.x(F).pow_mod(37, cubic), make_extension(37, 2))
except ContextMismatch:
    print("ok2")
"""
    out = run_under(["-O"], code)
    assert out.stdout.split() == ["ok1", "ok2"], out.stderr


def test_subgroup_elements_checks_survive_python_O():
    # quadratics that are not a pairing of the Weierstrass points raise
    # NotAFactor, not an assert: a repeated pair, then pairs that share a point
    code = """
from trigonal.curves import HCurve
from trigonal.errors import NotAFactor
from trigonal.fields import prime_field
from trigonal.polyring import Poly
from trigonal.subgroups import TractableSubgroup, _quad_from_pair, subgroup_elements
F = prime_field(101)
Fx = Poly.one(F)
for i in range(1, 9):
    Fx = Fx * Poly.from_ints(F, [-i, 1])
H = HCurve.from_coeffs(F, list(Fx.c))
for pairs in ([(1, 2)] * 4, [(1, 2), (1, 3), (4, 5), (6, 7)]):
    try:
        subgroup_elements(TractableSubgroup(tuple(_quad_from_pair(F, i, j) for i, j in pairs)), H)
    except NotAFactor as exc:
        print(str(exc).split()[-1])
"""
    out = run_under(["-O"], code)
    assert out.stdout.split() == ["(Z/2Z)^3", "points"], out.stderr
