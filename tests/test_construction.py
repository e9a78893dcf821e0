"""The explicit construction: G, the f_i, s(t), the deltas, X's equations.

The symbolic identities behind the formulas are cross-checked against sympy
as an independent oracle (resultants, discriminants, symmetric reduction).
"""

import random

import pytest

from conftest import constructions, count_fibrations
from ex37 import (
    EX37_DELTA0,
    EX37_DELTA1,
    EX37_DELTA2,
    EX37_DELTA4,
    EX37_G,
    EX37_X_ROWS,
)
from trigonal.construction import (
    _s_terms,
    assess,
    build_correspondence,
    build_fibration,
    build_plane_model,
    build_X,
    embed_poly,
    isogeny_is_rational,
)
from trigonal.curves import HCurve
from trigonal.errors import BadSign, ContextMismatch, DegenerateConfiguration, SquareRootObstruction
from trigonal.evaluation import fiber_points
from trigonal.fields import make_extension, prime_field
from trigonal.polyring import Poly, exact_square_root
from trigonal.subgroups import enumerate_tractable
from trigonal.survey import deterministic_prime, random_curve
from trigonal.trigmaps import verify_trigonal


def test_worked_example_G(ex37_fibration):
    assert ex37_fibration.g2.encode() == EX37_G["g2"]
    assert ex37_fibration.g1.encode() == EX37_G["g1"]
    assert ex37_fibration.g0.encode() == EX37_G["g0"]


def test_g2_is_minus_t_always():
    rng = random.Random(41)
    F101 = prime_field(101)
    for H, S, g, fib in constructions(101, 5, rng):
        assert fib.g2 == -Poly.x(F101)


def test_worked_example_deltas(ex37_fibration):
    plane = build_plane_model(ex37_fibration)
    assert plane.delta0.encode() == EX37_DELTA0
    assert plane.delta2.encode() == EX37_DELTA2
    assert plane.delta4.encode() == EX37_DELTA4
    assert plane.rational
    d1 = plane.delta1.encode()
    neg = tuple(37 - c if c else 0 for c in EX37_DELTA1)
    assert d1 in (EX37_DELTA1, neg)
    # here the canonical square root reproduces the reference sign exactly
    assert d1 == EX37_DELTA1


def test_worked_example_s_matches_delta1(ex37_fibration):
    F37 = ex37_fibration.field
    d1 = Poly.from_ints(F37, list(EX37_DELTA1))
    eighth = d1.scale(F37.inv(8))
    assert eighth * eighth == ex37_fibration.s


def test_worked_example_x_model(ex37_fibration):
    X = build_X(ex37_fibration)
    for row, (want_coeffs, want_const) in zip(X.rows, EX37_X_ROWS):
        coeffs, const = row
        got = {var: pol.encode() for var, pol in coeffs.items() if not pol.is_zero}
        want = {var: tuple(c for c in enc) for var, enc in want_coeffs.items()}
        assert got == want
        assert const.encode() == want_const  # the equation's constant term is -f_i


def test_delta0_identity():
    rng = random.Random(42)
    for H, S, g, fib in constructions(101, 5, rng):
        plane = build_plane_model(fib)
        four = Poly.const(fib.field, fib.field.from_int(4))
        assert plane.delta0 == fib.f1 * fib.f1 - four * fib.f0 * fib.f2


def test_congruence_reverified():
    # f0 + f1 x + f2 x^2 - F(x) is divisible by G(t, x)
    rng = random.Random(43)
    for H, S, g, fib in constructions(101, 5, rng):
        f = fib.field
        cs = [Poly.const(f, c) for c in fib.curve.F.c]
        while len(cs) < 3:
            cs.append(Poly.zero(f))
        cs[0] = cs[0] - fib.f0
        cs[1] = cs[1] - fib.f1
        cs[2] = cs[2] - fib.f2
        for i in range(len(cs) - 1, 2, -1):
            ci = cs[i]
            if not ci.is_zero:
                for j in range(3):
                    cs[i - 3 + j] = cs[i - 3 + j] - ci * fib.G.cx[j]
                cs[i] = Poly.zero(f)
        assert all(c.is_zero for c in cs)


def test_lemma4_square_root_succeeds():
    rng = random.Random(44)
    for H, S, g, fib in constructions(101, 30, rng):
        assert exact_square_root(fib.s) == (fib.alpha, fib.r)
        assert (fib.r * fib.r).scale(fib.alpha) == fib.s


def test_degree7_vs_degree8_f_degrees():
    rng = random.Random(45)
    seen = {7: 0, 8: 0}
    for H, S, g, fib in constructions(101, 25, rng):
        d = fib.curve.F.degree
        bound = 5 if d == 7 else 6
        assert max(fib.f0.degree, fib.f1.degree, fib.f2.degree) <= bound
        seen[d] += 1
        if all(v >= 3 for v in seen.values()):
            break


def test_twist_antisymmetry():
    rng = random.Random(46)
    F101 = prime_field(101)
    c = F101.nonresidue()
    for H, S, g, fib in constructions(101, 25, rng):
        Ht = fib.curve.twist(c)
        fibt = build_fibration(g, Ht)
        # s scales by c^3
        assert fibt.s == fib.s.scale(F101.pow(c, 3))
        assert isogeny_is_rational(fib) != isogeny_is_rational(fibt)


def test_nonrational_construction_flagged_over_quadratic_extension():
    rng = random.Random(47)
    F101 = prime_field(101)
    c = F101.nonresidue()
    for H, S, g, fib in constructions(101, 1, rng):
        bad = fib if not isogeny_is_rational(fib) else build_fibration(g, fib.curve.twist(c))
        plane = build_plane_model(bad)
        assert not plane.rational
        assert plane.delta1_field.k == 2
        E2 = plane.delta1_field
        d1s = plane.delta1
        s_e = embed_poly(bad.s, F101, E2)
        assert d1s * d1s == s_e.scale(E2.from_int(64))


def test_prop5_quartic_identity_sampled(ex37_fibration, ex37_R):
    plane = ex37_R.plane
    fib = ex37_fibration
    count = 0
    for k in (1, 2):
        K = make_extension(37, k)
        d4 = embed_poly(plane.delta4, fib.field, K)
        d2 = embed_poly(plane.delta2, fib.field, K)
        d0 = embed_poly(plane.delta0, fib.field, K)
        d1 = embed_poly(plane.delta1, plane.delta1_field, K)
        for i in range(K.order):
            if count >= 120:
                break
            t0 = K.decode(i)
            if fib.ramified_at(t0, K):
                continue
            for q in fiber_points(ex37_R.X, t0, K):
                b22 = q.b[5]
                lhs = K.sqr(
                    K.add(K.add(K.mul(d4.eval(t0), K.sqr(b22)), K.mul(d2.eval(t0), b22)), d0.eval(t0))
                )
                assert lhs == K.mul(K.sqr(d1.eval(t0)), b22)
                count += 1
    assert count >= 100


def test_rho_squares_to_b22(ex37_R):
    K = make_extension(37, 2)
    fib = ex37_R.fib
    count = 0
    for i in range(K.order):
        if count >= 40:
            break
        t0 = K.decode(i)
        if fib.ramified_at(t0, K):
            continue
        for q in fiber_points(ex37_R.X, t0, K):
            rho = ex37_R.rho(K, t0, q.b[5])
            assert K.sqr(rho) == q.b[5]
            count += 1
    assert count >= 40


def test_sign_flips_rho(ex37_fibration):
    Rp = build_correspondence(ex37_fibration, +1)
    Rm = build_correspondence(ex37_fibration, -1)
    F37 = ex37_fibration.field
    for t0 in range(5, 12):
        if ex37_fibration.ramified_at(t0):
            continue
        for q in fiber_points(Rp.X, t0, F37):
            assert Rm.rho(F37, t0, q.b[5]) == F37.neg(Rp.rho(F37, t0, q.b[5]))


def test_square_root_obstruction_on_invalid_pairing(ex37_curve, ex37_subgroup, F37):
    # a map that is NOT trigonal for the subgroup leaves s without a square root
    from trigonal.curves import Mobius
    from trigonal.trigmaps import TrigonalMap

    bogus = TrigonalMap(F37, 1, 2, 3, 4, ex37_curve, ex37_subgroup, Mobius.identity(F37), ex37_curve)
    with pytest.raises(SquareRootObstruction):
        build_fibration(bogus, ex37_curve)


# --- symbolic oracles (sympy) ------------------------------------------------


def test_s_equals_resultant_symbolically():
    import sympy as sp

    x, t = sp.symbols("x t")
    f0, f1, f2, g0, g1, g2 = sp.symbols("f0 f1 f2 g0 g1 g2")
    G = x**3 + g2 * x**2 + g1 * x + g0
    quad = f2 * x**2 + f1 * x + f0
    res = sp.resultant(G, quad, x)
    s = (
        f0**3 - f0**2 * f1 * g2 - 2 * f0**2 * f2 * g1 + f0**2 * f2 * g2**2
        + f0 * f1**2 * g1 + 3 * f0 * f1 * f2 * g0 - f0 * f1 * f2 * g1 * g2
        - 2 * f0 * f2**2 * g0 * g2 + f0 * f2**2 * g1**2 - f1**3 * g0
        + f1**2 * f2 * g0 * g2 - f1 * f2**2 * g0 * g1 + f2**3 * g0**2
    )
    assert sp.expand(res - s) == 0


def test_delta4_is_cubic_discriminant_symbolically():
    import sympy as sp

    x = sp.symbols("x")
    g0, g1, g2 = sp.symbols("g0 g1 g2")
    G = sp.Poly(x**3 + g2 * x**2 + g1 * x + g0, x)
    disc = sp.discriminant(G.as_expr(), x)
    delta4 = -27 * g0**2 + 18 * g0 * g1 * g2 - 4 * g0 * g2**3 - 4 * g1**3 + g1**2 * g2**2
    assert sp.expand(disc - delta4) == 0


def test_u_locus_second_factor_is_negated_discriminant():
    import sympy as sp

    g0, g1, g2 = sp.symbols("g0 g1 g2")
    u_locus_factor = 4 * g2**3 * g0 - g2**2 * g1**2 - 18 * g2 * g1 * g0 + 4 * g1**3 + 27 * g0**2
    delta4 = -27 * g0**2 + 18 * g0 * g1 * g2 - 4 * g0 * g2**3 - 4 * g1**3 + g1**2 * g2**2
    assert sp.expand(u_locus_factor + delta4) == 0


def test_delta2_from_symmetric_functions():
    # delta2 = -2 * sum_i F(x_i) (x_j - x_k)^2 over the roots x_i of G,
    # compared as polynomials in the roots (g2 = -e1, g1 = e2, g0 = -e3)
    import sympy as sp

    f0, f1, f2 = sp.symbols("f0 f1 f2")
    x1, x2, x3 = sp.symbols("x1 x2 x3")
    lhs = sp.expand(
        -2
        * sum(
            (f2 * xi**2 + f1 * xi + f0) * (xj - xk) ** 2
            for xi, xj, xk in ((x1, x2, x3), (x2, x3, x1), (x3, x1, x2))
        )
    )
    g2 = -(x1 + x2 + x3)
    g1 = x1 * x2 + x2 * x3 + x3 * x1
    g0 = -(x1 * x2 * x3)
    delta2 = (
        12 * f0 * g1 - 4 * f0 * g2**2 - 18 * f1 * g0 + 2 * f1 * g1 * g2
        + 12 * f2 * g0 * g2 - 4 * f2 * g1**2
    )
    assert sp.expand(lhs - delta2) == 0


def test_delta0_from_symmetric_functions():
    # delta4 * (f1^2 - 4 f0 f2) = 2 sum_i Gamma_i^2 - (sum_i Gamma_i)^2 with
    # Gamma_i = F(x_i) (x_j - x_k)^2: the constant coefficient of the proof's
    # quartic relation matches delta0 after dividing by the discriminant
    import sympy as sp

    f0, f1, f2 = sp.symbols("f0 f1 f2")
    x1, x2, x3 = sp.symbols("x1 x2 x3")
    gammas = [
        (f2 * xi**2 + f1 * xi + f0) * (xj - xk) ** 2
        for xi, xj, xk in ((x1, x2, x3), (x2, x3, x1), (x3, x1, x2))
    ]
    lhs = sp.expand(2 * sum(g * g for g in gammas) - sum(gammas) ** 2)
    disc = sp.expand(((x1 - x2) * (x2 - x3) * (x3 - x1)) ** 2)
    delta0 = f1**2 - 4 * f0 * f2
    assert sp.expand(lhs - disc * delta0) == 0


def test_assess_reaches_each_step():
    H = HCurve.from_coeffs(prime_field(5), [0, 3, 0, 2, 4, 1, 4, 4, 0])
    subs = enumerate_tractable(H)
    verdicts = [assess(S, H) for S in subs]
    assert [(v.trig, v.isog) for v in verdicts] == [
        (True, True), (True, False), (False, None), (False, None), (True, False), (True, None), (False, None),
    ]
    for v in verdicts:
        if v.map is not None:
            assert verify_trigonal(v.map, v.map.subgroup)
            assert v.isog == isogeny_is_rational(v.fibration)
        else:
            assert v.fibration is None and v.isog is None
    # subgroup 5 fails after its discriminant
    assert isinstance(verdicts[5].failure, DegenerateConfiguration)
    assert all(v.failure is None for i, v in enumerate(verdicts) if i != 5)
    # full=False stops after the discriminant
    short = [assess(S, H, full=False) for S in subs]
    assert [v.trig for v in short] == [v.trig for v in verdicts]
    assert all(v.map is None and v.isog is None and v.failure is None for v in short)


def test_assess_records_a_degenerate_chord_matrix():
    H = HCurve.from_coeffs(prime_field(7), [4, 4, 1, 5, 5, 3, 0, 4, 1])
    v = assess(enumerate_tractable(H)[0], H)
    assert v.trig is None and v.isog is None and v.map is None
    assert isinstance(v.failure, DegenerateConfiguration)
    assert "rank 3" in str(v.failure)


def test_build_fibration_rejects_a_curve_over_another_field(ex37_map, ex37_curve):
    # a typed error, also under python -O
    with pytest.raises(ContextMismatch):
        build_fibration(ex37_map, ex37_curve.base_change(make_extension(37, 2)))


def test_build_correspondence_rejects_a_bad_sign(ex37_fibration):
    for sign in (0, 2, -2):
        with pytest.raises(BadSign):
            build_correspondence(ex37_fibration, sign)


# --- the verdict from one value of s -----------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11, 37, deterministic_prime(30, 0), deterministic_prime(64, 0)])
def test_value_verdict_matches_the_fibration(p, monkeypatch):
    from trigonal import construction
    from trigonal.curves import Mobius
    from trigonal.polyring import roots
    from trigonal.trigmaps import TrigonalMap

    calls = count_fibrations(monkeypatch)
    f = prime_field(p)
    rng = random.Random(p)
    maps = 0
    while maps < 25:
        H = random_curve(p, rng)
        for S in enumerate_tractable(H, fast=True):
            v = assess(S, H)
            if v.map is not None:
                maps += 1
                assert v.isog == isogeny_is_rational(build_fibration(v.map, v.map.curve))
    # s = alpha r^2 with deg r <= 4 < p: no genuine map has s(t0) = 0 at every tried t0
    assert calls == []
    if p > 7:
        return
    # N and D sharing a root of F put a Weierstrass point in every fiber, so
    # s = 0: every tried value vanishes, and the fibration built instead fails
    while True:
        H = random_curve(p, rng)
        rs = roots(H.F)
        subs = [S for S in enumerate_tractable(H, fast=True) if assess(S, H, full=False).trig]
        if rs and subs:
            break
    rho = rs[0]
    n0 = f.neg(f.add(f.pow(rho, 3), rho))
    d0 = f.neg(f.add(f.sqr(rho), rho))
    bad = TrigonalMap(f, f.one, n0, f.one, d0, H, subs[0], Mobius.identity(f), H)
    monkeypatch.setattr(construction, "trigonal_map_for", lambda S, H, _kernel: bad)
    v = assess(subs[0], H)
    assert calls == [bad]
    assert v.trig and v.isog is None and v.map is None
    assert isinstance(v.failure, SquareRootObstruction)


def test_verdict_builds_its_fibration_on_first_read(monkeypatch, ex37_curve, ex37_subgroup, ex37_fibration):
    calls = count_fibrations(monkeypatch)
    v = assess(ex37_subgroup, ex37_curve)
    assert v.isog and calls == []
    fib = v.fibration
    assert calls == [v.map]
    assert v.fibration is fib and len(calls) == 1
    assert fib.s == ex37_fibration.s and isogeny_is_rational(fib) == v.isog


@pytest.mark.parametrize("p", [5, 7, 37, deterministic_prime(160, 0)])
def test_horner_s_matches_the_thirteen_terms(p):
    from oracles import s_terms_expanded

    f, rng = prime_field(p), random.Random(p % 1013)
    c = lambda n: Poly.const(f, f.from_int(n))
    g2 = Poly(f, [f.zero, f.neg(f.one)])
    for _ in range(20):
        # the degrees of a fibration's f_i and g_i, and zero and constant ones
        f0, f1, f2 = (Poly(f, [f.random(rng) for _ in range(rng.randrange(0, 5))]) for _ in range(3))
        g0, g1 = (Poly(f, [f.random(rng) for _ in range(rng.randrange(0, 3))]) for _ in range(2))
        assert _s_terms(f0, f1, f2, g0, g1, g2) == s_terms_expanded(f0, f1, f2, g0, g1, g2, c(2), c(3))
        # on ints the two are one polynomial over Z
        vals = [rng.randrange(-p, p) for _ in range(6)]
        assert _s_terms(*vals) == s_terms_expanded(*vals, 2, 3)
