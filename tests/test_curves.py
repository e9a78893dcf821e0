"""Curves, odd models, Cantor arithmetic, point counts, L-polynomials."""

import random

import pytest

from conftest import run_under
from ex37 import EX37_DLP_MULTIPLIER, EX37_F, EX37_JAC_ORDER, EX37_L
from trigonal.curves import (
    DivisorClass,
    HCurve,
    OddModel,
    cantor_add,
    cantor_mul,
    class_from_points,
    count_points,
    frobenius_line_orbits,
    jacobian_order,
    l_polynomial,
    point_class,
    random_class,
    random_class_on,
    two_torsion_from_pair,
)
from trigonal.errors import ModelMismatch, NoRationalWeierstrassPoint, NotAFactor, NotAMultiple, TooFewPoints, TooLarge
from trigonal.fields import ExtField, embed_poly, make_extension, prime_field
from trigonal.polyring import BinaryForm, Poly, gcd, is_irreducible
from trigonal.subgroups import splitting_degree, subgroup_elements
from trigonal.survey import deterministic_prime, random_curve
from oracles import cantor_add_by_polys, count_points_by_enumeration


def test_odd_model_identity_for_degree_7(ex37_curve):
    model = OddModel.from_curve(ex37_curve)
    assert model.tau.is_identity
    assert model.curve == ex37_curve


def test_odd_model_moves_root_at_zero():
    F101 = prime_field(101)
    # F = x * (irreducible septic): root at x = 0, so tau is x -> 1/x
    rng = random.Random(3)
    while True:
        sept = Poly(F101, [F101.random(rng) for _ in range(7)] + [F101.one], trim=False)
        if is_irreducible(sept):
            break
    F = sept.shifted(1)
    H = HCurve.from_coeffs(F101, [F[i] for i in range(9)])
    assert H.F.degree == 8
    model = OddModel.from_curve(H)
    assert model.F.degree == 7
    assert model.tau.m == (0, 1, 1, 0)  # x -> 1/(x - 0)
    # round-trip random points through the transform
    for _ in range(20):
        x = F101.random(rng)
        fx = H.F.eval(x)
        if x == 0 or not F101.is_square(fx) or fx == 0:
            continue
        y = F101.sqrt(fx)
        pt = model.to_odd((x, F101.one, y))
        assert model.curve.on_curve(pt)
        back = model.to_source(pt)
        assert back == (x, F101.one, y)


def test_odd_model_requires_rational_weierstrass_point():
    F101 = prime_field(101)
    rng = random.Random(5)
    while True:
        oct_ = Poly(F101, [F101.random(rng) for _ in range(8)] + [F101.one], trim=False)
        if is_irreducible(oct_):
            break
    H = HCurve.from_coeffs(F101, [oct_[i] for i in range(9)])
    with pytest.raises(NoRationalWeierstrassPoint):
        OddModel.from_curve(H)
    # but the model exists over F_{101^8}
    model = OddModel.from_curve(H, make_extension(101, 8))
    assert model.F.degree == 7


def test_base_change_equals_the_checked_curve(ex37_curve):
    # base_change skips the squarefree test, which an extension cannot fail
    rng = random.Random(61)
    for H in (ex37_curve, random_curve(101, rng), random_curve(10**6 + 3, rng)):
        for k in (2, 3):
            K = make_extension(H.field.p, k)
            assert H.base_change(K) == HCurve(K, embed_poly(H.form, H.field, K))


def test_cantor_identity_and_inverse(ex37_curve):
    rng = random.Random(7)
    D = random_class(ex37_curve, 1, rng)
    assert cantor_add(D, -D).is_identity
    assert (D + DivisorClass.identity(D.model)) == D


def test_cantor_group_laws_random(ex37_curve):
    rng = random.Random(8)
    for _ in range(10):
        A = random_class(ex37_curve, 1, rng)
        B = random_class(ex37_curve, 1, rng)
        C = random_class(ex37_curve, 1, rng)
        assert cantor_add(A, B) == cantor_add(B, A)
        assert cantor_add(cantor_add(A, B), C) == cantor_add(A, cantor_add(B, C))


def test_worked_example_dlp_relation(ex37_curve, ex37_model):
    D = class_from_points(ex37_model, [(10, 1, 28)], [(14, 1, 6)])
    Dp = class_from_points(ex37_model, [(19, 1, 28)], [(36, 1, 13)])
    assert cantor_mul(D, EX37_DLP_MULTIPLIER) == Dp


def test_group_order_annihilates(ex37_curve):
    rng = random.Random(9)
    for _ in range(3):
        D = random_class(ex37_curve, 1, rng)
        assert cantor_mul(D, EX37_JAC_ORDER).is_identity


def test_model_mismatch_rejected(ex37_curve):
    F101 = prime_field(101)
    other = HCurve.from_coeffs(F101, [1, 1, 0, 0, 0, 0, 0, 1, 0])
    rng = random.Random(10)
    D1 = random_class(ex37_curve, 1, rng)
    D2 = random_class(other, 1, rng)
    with pytest.raises(ModelMismatch):
        cantor_add(D1, D2)


def test_count_points_examples(ex37_curve):
    assert count_points(ex37_curve, 1) == 42
    n2 = count_points(ex37_curve, 2)
    assert n2 == 37**2 + 1 - (EX37_L[1] ** 2 - 2 * EX37_L[2])  # power sums
    with pytest.raises(TooLarge):
        count_points(ex37_curve, 24)


def test_count_points_sheet_identity():
    rng = random.Random(11)
    F101 = prime_field(101)
    from trigonal.survey import random_curve

    for _ in range(4):
        H = random_curve(101, rng)
        c = F101.nonresidue()
        assert count_points(H, 1) + count_points(H.twist(c), 1) == 2 * 101 + 2
        assert count_points(H, 1) <= 2 * 101 + 2


def test_infinity_point_count():
    # odd model: exactly one point at infinity; degree 8: 0 or 2 by lc residue
    F37 = prime_field(37)
    H7 = HCurve.from_coeffs(F37, EX37_F)
    affine = sum(
        1 if H7.F.eval(x) == 0 else (2 if F37.is_square(H7.F.eval(x)) else 0) for x in range(37)
    )
    assert count_points(H7, 1) == affine + 1


def test_l_polynomial_worked_example(ex37_curve):
    assert l_polynomial(ex37_curve) == EX37_L
    assert EX37_L[0] == 1
    assert sum(EX37_L) == EX37_JAC_ORDER
    assert jacobian_order(ex37_curve) == EX37_JAC_ORDER


def test_l_polynomial_weil_bounds():
    # |c_i| <= binom(6, i) q^(i/2): reciprocal roots have absolute value sqrt(q)
    import math

    rng = random.Random(12)
    from trigonal.survey import random_curve

    for p in (37, 53):
        H = random_curve(p, rng)
        L = l_polynomial(H)
        for i, c in enumerate(L):
            assert abs(c) <= math.comb(6, i) * p ** (i / 2) + 1e-9
        # functional equation
        assert L[4] == p * L[2] and L[5] == p * p * L[1] and L[6] == p**3


def test_two_torsion_classes(ex37_curve, ex37_model, ex37_subgroup):
    F37 = prime_field(37)
    T = two_torsion_from_pair(ex37_model, ex37_subgroup.quads[0])
    assert not T.is_identity and cantor_add(T, T).is_identity
    # degenerate pair rejected
    with pytest.raises(NotAFactor):
        two_torsion_from_pair(ex37_model, BinaryForm.from_ints(F37, 2, [0, 0, 1]))
    # a quadratic that is not a factor
    with pytest.raises(NotAFactor):
        two_torsion_from_pair(ex37_model, BinaryForm.from_ints(F37, 2, [1, 5, 1]))


def test_four_pair_classes_sum_to_identity(ex37_curve, ex37_subgroup):
    L = splitting_degree(ex37_curve)
    model = OddModel.from_curve(ex37_curve, make_extension(37, L))
    total = DivisorClass.identity(model)
    classes = [two_torsion_from_pair(model, q) for q in ex37_subgroup.quads]
    for T in classes:
        assert cantor_add(T, T).is_identity
        total = cantor_add(total, T)
    assert total.is_identity
    # pairwise independent: the four classes are distinct
    keys = {(T.a.c, T.b.c) for T in classes}
    assert len(keys) == 4


def test_random_class_determinism(ex37_curve):
    D1 = random_class(ex37_curve, 1, random.Random(99))
    D2 = random_class(ex37_curve, 1, random.Random(99))
    assert D1 == D2
    assert D1.a.degree <= 3
    assert cantor_mul(D1, EX37_JAC_ORDER).is_identity


def test_point_class_infinity_is_identity(ex37_model):
    F37 = ex37_model.field
    assert point_class(ex37_model, (F37.one, F37.zero, F37.zero)).is_identity


def test_divisor_class_order(ex37_curve):
    D = random_class(ex37_curve, 1, random.Random(4))
    o = D.order(EX37_JAC_ORDER)
    assert EX37_JAC_ORDER % o == 0
    assert cantor_mul(D, o).is_identity
    for q in (2, 13, 2141):
        if o % q == 0:
            assert not cantor_mul(D, o // q).is_identity


def test_l_polynomial_guard_precedes_counting(monkeypatch):
    from trigonal import curves

    # 1031^3 > 2^30 although 1031 and 1031^2 are below it
    H = HCurve.from_coeffs(prime_field(1031), [1, 1, 0, 0, 0, 0, 0, 0, 1])

    def no_count(*args):
        raise AssertionError("count_points ran before the guard")

    monkeypatch.setattr(curves, "count_points", no_count)
    with pytest.raises(TooLarge):
        l_polynomial(H)


def test_random_class_draws_are_unchanged(ex37_curve):
    # encodings of random_class over F_37, F_37^2 and F_37^3, recorded before
    # random_class_on took one square root per x instead of a test and a root
    import hashlib

    out = []
    for k in (1, 2, 3):
        rng = random.Random(500 + k)
        for _ in range(4):
            D = random_class(ex37_curve, k, rng)
            out.append((k, D.a.encode(), D.b.encode()))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "5405e58bf34011fcc04ed5c1d14d0983801d839bb6fd453c369c419919830672"


# survey.random_curve(5, random.Random(12)): its odd model has a single
# affine x with F(x) a nonzero square, and the curve has a rational trigonal map
SMALL_F5 = [3, 2, 4, 2, 1, 3, 0, 2, 3]


def test_random_class_on_terminates_on_a_small_model(tmp_path):
    # the sampler and the CLI command that reaches it run in a child process,
    # so a hang fails the test at the timeout instead of stalling the suite
    import json

    path = tmp_path / "h5.json"
    path.write_text(json.dumps({"p": "5", "f": [str(c) for c in SMALL_F5]}))
    code = """
import random, sys
from trigonal.cli import main
from trigonal.curves import HCurve, OddModel, random_class_on
from trigonal.errors import TooFewPoints
from trigonal.fields import prime_field
H = HCurve.from_coeffs(prime_field(5), %r)
try:
    random_class_on(OddModel.from_curve(H), random.Random(0))
except TooFewPoints as exc:
    print(exc.code)
sys.exit(main(["verify", "--curve", sys.argv[1]]))
""" % SMALL_F5
    out = run_under([], code, str(path), timeout=60)
    assert out.stdout.split() == ["too_few_points"], out.stderr
    assert out.returncode == 1 and json.loads(out.stderr)["error"] == "too_few_points"


def test_divisor_class_checks_survive_python_O():
    # the Mumford validations raise ModelMismatch, not asserts
    code = """
from trigonal.curves import DivisorClass, HCurve, OddModel
from trigonal.errors import ModelMismatch
from trigonal.fields import prime_field
from trigonal.polyring import Poly
F = prime_field(37)
model = OddModel.from_curve(HCurve.from_coeffs(F, [2, 29, 12, 33, 20, 15, 28, 1, 0]))
x = Poly.from_ints(F, [0, 1])
for a, b in ((x * x * x * x, Poly.zero(F)), (x, x), (x, Poly.const(F, 5))):
    try:
        DivisorClass(model, a, b)
    except ModelMismatch:
        print("ok")
"""
    out = run_under(["-O"], code)
    assert out.stdout.split() == ["ok"] * 3, out.stderr


# the two divisibility checks of l_polynomial raise a typed error, also under python -O


def _counts_for(monkeypatch, counts):
    from trigonal import curves

    monkeypatch.setattr(curves, "count_points", lambda H, k: counts[k])


def test_l_polynomial_rejects_counts_with_a_non_integral_e2(monkeypatch, ex37_curve):
    q = 37
    # s1 = 0 and s2 = 1, so e1 s1 - s2 is odd
    _counts_for(monkeypatch, {1: q + 1, 2: q * q, 3: q**3 + 1})
    with pytest.raises(ModelMismatch):
        l_polynomial(ex37_curve)


def test_l_polynomial_rejects_counts_with_a_non_integral_e3(monkeypatch, ex37_curve):
    q = 37
    # s1 = s2 = 0 and s3 = 1, so e2 s1 - e1 s2 + s3 is not a multiple of 3
    _counts_for(monkeypatch, {1: q + 1, 2: q * q + 1, 3: q**3})
    with pytest.raises(ModelMismatch):
        l_polynomial(ex37_curve)


# --- point counts per Frobenius orbit against the enumeration ---------------


def test_count_points_matches_enumeration_on_the_worked_example(ex37_curve):
    for k in (1, 2, 3):
        assert count_points(ex37_curve, k) == count_points_by_enumeration(ex37_curve, k)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_count_points_matches_enumeration(p):
    rng = random.Random(80 + p)
    degrees = set()
    for _ in range(6):
        H = random_curve(p, rng)
        degrees.add(H.F.degree)
        for k in (1, 2, 3):
            assert count_points(H, k) == count_points_by_enumeration(H, k), (H, k)
        # a twist changes which F(x) are squares, and over an even degree the lc
        H = H.twist(prime_field(p).nonresidue())
        for k in (1, 2):
            assert count_points(H, k) == count_points_by_enumeration(H, k), (H, k)
    assert 8 in degrees


# --- one F_p-line per Frobenius orbit of lines ------------------------------


def _septic(p, rng):
    """A random squarefree curve with F of degree 7 (a rational point at infinity, no eighth root)."""
    while True:
        try:
            return HCurve.from_coeffs(prime_field(p), [rng.randrange(p) for _ in range(7)] + [1 + rng.randrange(p - 1), 0])
        except ValueError:
            continue


@pytest.mark.parametrize("p", [5, 7])
def test_count_points_matches_enumeration_over_a_quartic_extension(p):
    # the lines x0 + F_p with x0 in F_{p^2} make Frobenius orbits of size 2 inside F_{p^4}
    rng = random.Random(180 + p)
    assert {size for _, size in frobenius_line_orbits(make_extension(p, 4))} == {1, 2, 4}
    for H in (random_curve(p, rng), random_curve(p, rng), _septic(p, rng)):
        assert count_points(H, 4) == count_points_by_enumeration(H, 4), H


@pytest.mark.parametrize("p", [5, 7, 11])
def test_count_points_matches_enumeration_on_twists_and_septics(p):
    rng = random.Random(190 + p)
    nu = prime_field(p).nonresidue()
    for _ in range(3):
        for H in (random_curve(p, rng).twist(nu), _septic(p, rng), _septic(p, rng).twist(nu)):
            assert H.F.degree == 7 or H.F.lc != 0
            for k in (1, 2, 3):
                assert count_points(H, k) == count_points_by_enumeration(H, k), (H, k)


@pytest.mark.parametrize("p, k", [(5, 1), (5, 2), (5, 4), (5, 5), (5, 6), (7, 3), (7, 4), (11, 3), (37, 3)])
def test_frobenius_line_orbits_cover_every_line_once(p, k):
    # over F_{5^5} the lines with x0^5 - x0 in F_5^* are fixed too (Artin-Schreier), not only F_5 itself
    field = make_extension(p, k)
    orbits = list(frobenius_line_orbits(field))
    assert sum(size for _, size in orbits) == p ** (k - 1)
    assert all(field.coeffs(x0)[0] == 0 and k % size == 0 for x0, size in orbits)
    lines = set()
    for x0, size in orbits:
        y = x0
        for _ in range(size):
            lines.add(field.encode(y) // p)
            y = field.frobenius_power(y, 1)
            y = field.sub(y, field.coeffs(y)[0])
        assert y == x0
    assert len(lines) == p ** (k - 1)


def test_count_points_takes_one_norm_per_value_on_one_line_per_orbit(monkeypatch, ex37_curve):
    # no wall clock: over F_37^3 the values are those of 1 + (37^2 - 1) / 3 lines of 37
    # elements, each norm k - 1 products, and each orbit's tables k d products more
    p, k, d = 37, 3, ex37_curve.F.degree
    calls = {"norm": 0, "mul": 0}

    def counting(name):
        real = getattr(ExtField, name)

        def counted(self, *args):
            calls[name] += 1
            return real(self, *args)

        return counted

    for name in calls:
        monkeypatch.setattr(ExtField, name, counting(name))
    c1, c2, c3 = EX37_L[1:4]
    assert count_points(ex37_curve, k) == p**k + 1 - (-(c1**3) + 3 * c1 * c2 - 3 * c3)  # the power sum s3
    values = p**k // k + p
    assert calls["norm"] <= values
    assert calls["mul"] + (k - 1) * calls["norm"] <= (k - 1) * values + k * d * (p ** (k - 1) // k + p)


# L(T) of six random_curve draws from random.Random(2026), recorded from the
# count that evaluated F once per Frobenius orbit of elements
FROZEN_L = [
    (41, [1, -2, 95, -92, 3895, -3362, 68921]),
    (43, [1, 6, 29, 244, 1247, 11094, 79507]),
    (47, [1, 8, 34, -12, 1598, 17672, 103823]),
    (53, [1, 9, 105, 657, 5565, 25281, 148877]),
    (41, [1, -2, 43, -211, 1763, -3362, 68921]),
    (53, [1, 13, 122, 962, 6466, 36517, 148877]),
]


def test_l_polynomial_frozen_on_random_curves():
    rng = random.Random(2026)
    assert [(p, l_polynomial(random_curve(p, rng))) for p, _ in FROZEN_L] == FROZEN_L


# --- typed errors where asserts stood (also under python -O) ----------------


def test_order_rejects_a_non_multiple(ex37_curve):
    D = random_class(ex37_curve, 1, random.Random(90))
    n = D.order(EX37_JAC_ORDER)
    assert n > 1
    with pytest.raises(NotAMultiple):
        D.order(n + 1)


def test_point_class_rejects_a_point_off_the_model(ex37_model):
    F = ex37_model.field
    x = F.from_int(1)
    w = F.from_int(1)
    if ex37_model.curve.on_curve((x, F.one, w)):
        w = F.from_int(2)
    with pytest.raises(ModelMismatch):
        point_class(ex37_model, (x, F.one, w))


def test_cantor_add_rejects_pairs_that_are_not_mumford(ex37_model):
    # a = (x - 1)(x - 2)(x - 3); neither b squares to F modulo a
    F = ex37_model.field
    a = Poly.from_ints(F, [-6, 11, -6, 1])

    def cls(b):
        return DivisorClass(ex37_model, a, Poly.from_ints(F, b), check=False)

    # the reduction of a + a finds b^2 != F mod a
    with pytest.raises(ModelMismatch, match="reduction"):
        cantor_add(cls([1]), cls([1]))
    # b1 + b2 = x - 1 shares a factor with a, and the composition does not divide
    with pytest.raises(ModelMismatch, match="composition"):
        cantor_add(cls([0]), cls([-1, 1]))


def _cantor_model(where, ex37_model):
    """The worked example's odd model over F_37^k, or a seeded septic's over the 30- or 160-bit prime."""
    if where.startswith("37"):
        k = int(where[3:] or 1)
        return ex37_model if k == 1 else ex37_model.base_change(make_extension(37, k))
    F = prime_field(deterministic_prime(int(where), 0))
    rng = random.Random(where)
    while True:
        try:
            H = HCurve.from_coeffs(F, [F.random(rng) for _ in range(7)] + [1, 0])
        except ValueError:
            continue
        return OddModel.from_curve(H)


def _cantor_pairs(model, rng):
    """Seeded pairs for the group law, the inputs built by the Poly-level oracle: random classes, D + D,
    D + (-D), the identity, classes of degree 1 and 2, and supports that share a point (d1 != 1),
    with equal or opposite y there."""
    f, F = model.field, model.F

    def point():
        while True:
            x = f.random(rng)
            y = f.sqrt(F.eval(x))
            if y is not None and y != f.zero:
                return point_class(model, (x, f.one, y))

    P, Q, S, T = (point() for _ in range(4))
    PQ, PS, mPS = cantor_add_by_polys(P, Q), cantor_add_by_polys(P, S), cantor_add_by_polys(-P, S)
    PQS, PQT, PQmS = (cantor_add_by_polys(PQ, U) for U in (S, T, -S))
    O = DivisorClass.identity(model)
    pairs = [(PQ, PS), (PQ, mPS), (PQS, PQT), (PQS, PQmS), (PQS, -PQS), (PQS, PQS), (PQS, P), (PQ, -P)]
    pairs += [(P, Q), (P, P), (P, -P), (PQ, PQ), (PQ, S), (O, O), (O, PQS), (PQS, O), (P, PQT)]
    for _ in range(6):
        D, E = random_class_on(model, rng), random_class_on(model, rng)
        pairs += [(D, E), (D, D), (D, -D), (D, cantor_add_by_polys(D, E)), (D, P), (E, PQ)]
    return pairs


@pytest.mark.parametrize("where", ["37", "37^2", "37^3", "30", "160"])
def test_cantor_add_on_lists_matches_the_poly_oracle(where, ex37_model):
    # one Euclid on coefficient lists gives the same reduced (a, b) as Cantor's two xgcds on Polys
    model = _cantor_model(where, ex37_model)
    rng = random.Random(f"cantor {where}")
    seen_shared = 0
    for A, B in _cantor_pairs(model, rng):
        got, want = cantor_add(A, B), cantor_add_by_polys(A, B)
        assert (got.a.c, got.b.c) == (want.a.c, want.b.c), (A, B)
        assert got.model is A.model and got.a.lc == model.field.one
        seen_shared += A.a.degree > 0 and B.a.degree > 0 and gcd(A.a, B.a).degree > 0
    assert seen_shared >= 10


def test_cantor_add_on_lists_matches_the_poly_oracle_on_two_torsion(ex37_subgroup, ex37_curve):
    # the 8 classes of the worked example's subgroup, over its splitting field: every sum of two
    els = subgroup_elements(ex37_subgroup, ex37_curve)
    for A in els:
        for B in els:
            got, want = cantor_add(A, B), cantor_add_by_polys(A, B)
            assert (got.a.c, got.b.c) == (want.a.c, want.b.c)
