"""Polynomial arithmetic, factorization, exact square roots, bivariate reduction."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_irreducible
from trigonal.errors import BadDegree, ContextMismatch, NotMonicCubic, NotSquarefree, ZeroPolynomial
from trigonal.fields import ExtField, embed, embed_poly, make_extension, prime_field
from trigonal.polyring import (
    BinaryForm,
    BiPoly,
    Poly,
    _conjugate_product,
    _distinct_degree,
    _equal_degree,
    _quotient,
    _random_poly,
    _unpacked,
    exact_square_root,
    factorize,
    gcd,
    is_squarefree,
    reduce_mod_cubic,
    roots,
    split_root,
    xgcd,
)
from trigonal.survey import deterministic_prime
from ex37 import EX37_F
from oracles import (
    conjugate_product_direct,
    factor_form,
    gcd_by_polys,
    is_irreducible,
    schoolbook_frobenius,
    schoolbook_pow_mod,
    schoolbook_rem,
    xgcd_by_polys,
)


def test_factorize_x2_minus_1():
    F37 = prime_field(37)
    f = Poly.from_ints(F37, [-1, 0, 1])
    lc, facs = factorize(f)
    assert lc == 1
    assert {g.encode() for g, _ in facs} == {(1, 1), (36, 1)}  # x - 36 and x - 1


def test_factorize_ex37_curve_pattern():
    F37 = prime_field(37)
    F = Poly.from_ints(F37, EX37_F)
    _, facs = factorize(F)
    assert sorted(g.degree for g, _ in facs) == [1, 6]
    assert all(m == 1 for _, m in facs)


def test_x2_plus_1_irreducible_over_F7():
    # -1 is not among the squares {0, 1, 2, 4} mod 7
    assert {y * y % 7 for y in range(7)} == {0, 1, 2, 4}
    F7 = prime_field(7)
    _, facs = factorize(Poly.from_ints(F7, [1, 0, 1]))
    assert len(facs) == 1 and facs[0][0].degree == 2


def test_factorize_zero_rejected():
    F37 = prime_field(37)
    with pytest.raises(ZeroPolynomial):
        factorize(Poly.zero(F37))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=9))
def test_factorize_roundtrip_prime_field(coeffs):
    F101 = prime_field(101)
    f = Poly(F101, coeffs)
    if f.is_zero:
        return
    lc, facs = factorize(f)
    prod = Poly.const(F101, lc)
    for g, m in facs:
        assert g.lc == F101.one
        for _ in range(m):
            prod = prod * g
    assert prod == f


def test_factorize_roundtrip_extension():
    E = make_extension(13, 2)
    rng = random.Random(4)
    for _ in range(10):
        f = Poly(E, [E.random(rng) for _ in range(6)] + [E.one], trim=False)
        lc, facs = factorize(f)
        prod = Poly.const(E, lc)
        for g, m in facs:
            for _ in range(m):
                prod = prod * g
        assert prod == f


def test_factorize_with_multiplicities():
    F37 = prime_field(37)
    x = Poly.x(F37)
    one = Poly.one(F37)
    f = (x - one) * (x - one) * (x + one) * x * x * x
    _, facs = factorize(f)
    assert sorted((g.encode(), m) for g, m in facs) == [
        (((0, 1)), 3),
        (((1, 1)), 1),
        (((36, 1)), 2),
    ]


def test_pth_power_factorization():
    # f = g(x^5) over F_5: squarefree decomposition must take 5th roots
    F5 = prime_field(5)
    g = Poly.from_ints(F5, [1, 1])  # x + 1
    f = Poly(F5, [1, 0, 0, 0, 0, 1])  # x^5 + 1 = (x + 1)^5
    _, facs = factorize(f)
    assert facs == [(g, 5)]


def test_is_squarefree():
    F37 = prime_field(37)
    assert not is_squarefree(Poly.from_ints(F37, [0, 0, 1]))  # x^2
    assert is_squarefree(Poly.from_ints(F37, EX37_F))
    assert is_squarefree(Poly.from_ints(F37, [2, -3, 1]))  # (x-1)(x-2)
    with pytest.raises(ZeroPolynomial):
        is_squarefree(Poly.zero(F37))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 36), min_size=1, max_size=6), st.lists(st.integers(0, 36), min_size=1, max_size=6))
def test_xgcd_identity(ca, cb):
    F37 = prime_field(37)
    a, b = Poly(F37, ca), Poly(F37, cb)
    if a.is_zero and b.is_zero:
        return
    g, s = (Poly(F37, c) for c in xgcd(F37, a.c, b.c))
    # the other cofactor by exact division
    t, rem = (g - s * a).divmod(b) if not b.is_zero else (Poly.zero(F37), g - s * a)
    assert rem.is_zero
    assert s * a + t * b == g
    if not (a.is_zero or b.is_zero):
        assert (a % g).is_zero and (b % g).is_zero


def _cubic(field, g0, g1, g2):
    one = Poly.one(field)
    return BiPoly(field, (g0, g1, g2, one))


def test_reduce_mod_cubic_low_degree():
    F37 = prime_field(37)
    t = Poly.x(F37)
    G = _cubic(F37, -t, Poly.zero(F37), Poly.zero(F37))  # x^3 - t
    f0, f1, f2 = reduce_mod_cubic(Poly.from_ints(F37, [0, 1]), G)
    assert (f0, f1, f2) == (Poly.zero(F37), Poly.one(F37), Poly.zero(F37))
    f0, f1, f2 = reduce_mod_cubic(Poly.from_ints(F37, [0, 0, 0, 1]), G)
    assert (f0.encode(), f1.is_zero, f2.is_zero) == ((0, 1), True, True)  # x^3 = t


def test_reduce_mod_cubic_congruence():
    # f0 + f1 x + f2 x^2 - F must be divisible by G in F_q[t][x]
    F101 = prime_field(101)
    rng = random.Random(9)
    t = Poly.x(F101)
    for _ in range(10):
        g0 = Poly(F101, [F101.random(rng), F101.random(rng)])
        g1 = Poly(F101, [F101.random(rng), F101.random(rng)])
        G = _cubic(F101, g0, g1, -t)
        F = Poly(F101, [F101.random(rng) for _ in range(8)] + [F101.one], trim=False)
        f0, f1, f2 = reduce_mod_cubic(F, G)
        assert max(p.degree for p in (f0, f1, f2)) <= 6  # <= 5 when deg F = 7
        # remainder check by long division in x over F_q[t]
        cs = [Poly.const(F101, c) for c in F.c]
        cs[0] = cs[0] - f0
        cs[1] = cs[1] - f1
        cs[2] = cs[2] - f2
        for i in range(len(cs) - 1, 2, -1):
            ci = cs[i]
            if not ci.is_zero:
                for j in range(3):
                    cs[i - 3 + j] = cs[i - 3 + j] - ci * G.cx[j]
                cs[i] = Poly.zero(F101)
        assert all(c.is_zero for c in cs), "congruence fails"


def test_reduce_mod_cubic_requires_monic():
    F37 = prime_field(37)
    t = Poly.x(F37)
    G = BiPoly(F37, (t, t, t, Poly.const(F37, 2)))
    with pytest.raises(NotMonicCubic):
        reduce_mod_cubic(Poly.from_ints(F37, [1, 1]), G)


def test_exact_square_root_examples():
    F37 = prime_field(37)
    t = Poly.x(F37)
    assert exact_square_root((t * t).scale(4)) == (4, t)
    assert exact_square_root(Poly.from_ints(F37, [1, 0, 1])) is None  # t^2 + 1
    with pytest.raises(ZeroPolynomial):
        exact_square_root(Poly.zero(F37))


def test_exact_square_root_random_roundtrip():
    F101 = prime_field(101)
    rng = random.Random(11)
    for _ in range(40):
        deg = rng.randrange(0, 6)
        r = Poly(F101, [F101.random(rng) for _ in range(deg)] + [F101.one], trim=False)
        alpha = 0
        while alpha == 0:
            alpha = F101.random(rng)
        s = (r * r).scale(alpha)
        assert exact_square_root(s) == (alpha, r)
        # perturb one coefficient: almost surely not a square anymore
        bumped = list(s.c)
        bumped[0] = F101.add(bumped[0], F101.one)
        got = exact_square_root(Poly(F101, bumped))
        if got is not None:
            a2, r2 = got
            assert (r2 * r2).scale(a2) == Poly(F101, bumped)


def test_binary_form_factor_tracks_v_multiplicity():
    F37 = prime_field(37)
    form = BinaryForm.from_ints(F37, 8, EX37_F)
    assert form.v_multiplicity == 1
    lc, facs = factor_form(form)
    assert sorted(g.d for g, _ in facs) == [1, 1, 6]
    # v itself is one of the factors
    assert any(g.c == (F37.one, F37.zero) for g, _ in facs)
    # product reassembles the form (coefficient convolution)
    cur = [lc]
    for g, m in facs:
        for _ in range(m):
            new = [F37.zero] * (len(cur) + g.d)
            for i, ci in enumerate(cur):
                if ci != F37.zero:
                    for j, gj in enumerate(g.c):
                        new[i + j] = F37.add(new[i + j], F37.mul(ci, gj))
            cur = new
    assert tuple(cur) == form.c


def test_roots_basic():
    # over F_7, -1 is a non-square, so x^2 + 1 contributes no roots
    F7 = prime_field(7)
    x = Poly.x(F7)
    f = (x - Poly.const(F7, 3)) * (x - Poly.const(F7, 5)) * (x * x + Poly.one(F7))
    assert set(roots(f)) == {3, 5}


# --- Frobenius-matrix distinct- and equal-degree steps ----------------------

P30 = 750175891  # deterministic_prime(30, 0), 3 mod 4


def _plain_distinct_degree(poly):
    """Reference: every x^(q^d) by a fresh pow_mod modulo the shrinking cofactor."""
    f = poly.field
    out = []
    h = x = Poly.x(f)
    d = 0
    while poly.degree > 2 * d + 1:
        d += 1
        h = h.pow_mod(f.order, poly)
        g = gcd(h - x, poly)
        if g.degree > 0:
            out.append((g, d))
            poly = poly // g
            h = h % poly
    if poly.degree > 0:
        out.append((poly, poly.degree))
    return out


def _plain_equal_degree(poly, d, rng):
    """Reference: Cantor-Zassenhaus with the power (q^d - 1) / 2 taken directly."""
    f = poly.field
    if poly.degree == d:
        return [poly]
    e = (f.order**d - 1) // 2
    while True:
        h = _random_poly(f, rng.randrange(1, poly.degree), rng)
        g = gcd(h, poly)
        if 0 < g.degree < poly.degree:
            break
        g = gcd(h.pow_mod(e, poly) - Poly.one(f), poly)
        if 0 < g.degree < poly.degree:
            break
    return _plain_equal_degree(g, d, rng) + _plain_equal_degree(poly // g, d, rng)


@pytest.mark.parametrize("field", [prime_field(37), prime_field(53), prime_field(P30), make_extension(13, 2)], ids=repr)
def test_distinct_degree_matches_plain_pow_mod(field):
    rng = random.Random(31)
    checked = 0
    for degree in list(range(4, 13)) * 3 + [7] * 6:
        f = _random_poly(field, degree, rng)
        if not is_squarefree(f):
            continue
        parts, R = _distinct_degree(f)
        assert parts == _plain_distinct_degree(f)
        assert _unpacked(R, R.xq()) == Poly.x(field).pow_mod(field.order, f)
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("p", [37, 53, P30])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_equal_degree_matches_plain_power(p, d):
    # same rng, same random choices: the split (and its order) is identical
    F = prime_field(p)
    rng = random.Random(32 + d)
    for count in (2, 3):
        prod = Poly.one(F)
        seen = set()
        while len(seen) < count:
            g = _random_poly(F, d, rng)
            if g.encode() not in seen and is_irreducible(g):
                seen.add(g.encode())
                prod = prod * g
        seed = rng.random()
        got = _equal_degree(prod, d, random.Random(seed))
        if d == 1:
            # the quadratic formula emits the last two roots in its own order
            got = sorted(got, key=Poly.sort_key)
            assert got == sorted(_plain_equal_degree(prod, d, random.Random(seed)), key=Poly.sort_key)
        else:
            assert got == _plain_equal_degree(prod, d, random.Random(seed))
        assert sorted(g.encode() for g in got) == sorted(seen)


P160 = deterministic_prime(160, 0)


@pytest.mark.parametrize(
    "field", [prime_field(37), prime_field(53), prime_field(P30), prime_field(P160), make_extension(13, 2), make_extension(37, 2)], ids=repr
)
def test_two_and_three_roots_split_as_cantor_zassenhaus_does(field):
    # the last two roots come from the quadratic formula: the factor set of
    # the plain split, and two roots alone draw nothing (rng None)
    rng = random.Random(field.order % 10007)
    x = Poly.x(field)
    for count in (2, 3) * 4:
        rs = set()
        while len(rs) < count:
            rs.add(field.random(rng))
        prod = functools.reduce(Poly.__mul__, [x - Poly.const(field, r) for r in rs])
        seed = rng.random()
        got = _equal_degree(prod, 1, random.Random(seed) if count == 3 else None)
        want = _plain_equal_degree(prod, 1, random.Random(seed))
        assert sorted(got, key=Poly.sort_key) == sorted(want, key=Poly.sort_key)
        assert sorted(h.encode() for h in got) == sorted(((field.encode(field.neg(r)), 1) for r in rs))


@pytest.mark.parametrize("field", [prime_field(37), prime_field(P160), make_extension(37, 2)], ids=repr)
def test_a_quadratic_without_two_roots_raises(field):
    # an irreducible or square quadratic has no two linear factors: the
    # quadratic formula raises where Cantor-Zassenhaus would draw for ever
    rng = random.Random(field.order % 10009)
    x = Poly.x(field)
    r = Poly.const(field, field.random(rng))
    with pytest.raises(NotSquarefree):
        _equal_degree((x - r) * (x - r), 1, None)
    nu = Poly.const(field, field.nonresidue())
    with pytest.raises(ContextMismatch):
        _equal_degree(x * x - nu, 1, None)


def test_monic_divisor_skips_the_inverse():
    E = make_extension(13, 2)
    rng = random.Random(33)
    for _ in range(20):
        a = Poly(E, [E.random(rng) for _ in range(7)])
        b = Poly(E, [E.random(rng) for _ in range(3)] + [E.one])
        q, r = a.divmod(b)
        assert q * b + r == a and r.degree < b.degree
        two = E.from_int(2)
        q2, r2 = a.divmod(b.scale(two))  # the non-monic path
        assert (q2.scale(two), r2) == (q, r)


# --- split_root, the one root finder ----------------------------------------

P61 = 2**61 - 1


def _split_root_chain(poly, K):
    """split_root's root and its conjugates under the Frobenius of poly's field, sorted."""
    F = poly.field
    r = split_root(poly, Poly.x(F).pow_mod(F.order, poly), K)
    return sorted((K.frobenius_power(r, F.k * i) for i in range(poly.degree)), key=K.encode)


@pytest.mark.parametrize("p, k", [(37, 2), (53, 2), (37, 3)])
@pytest.mark.parametrize("d", [2, 3])
def test_split_root_over_a_subfield_matches_roots(p, k, d):
    F = make_extension(p, k)
    K = make_extension(p, k * d)
    rng = random.Random(50 + p + 10 * k + d)
    for _ in range(4):
        poly = random_irreducible(F, d, rng)
        assert _split_root_chain(poly, K) == roots(embed_poly(poly, F, K))


@pytest.mark.parametrize("p", [37, P30, P61])
def test_split_root_closed_form_on_quadratics(p):
    F = prime_field(p)
    K = make_extension(p, 2)
    rng = random.Random(51 + p % 1000)
    for _ in range(6):
        poly = random_irreducible(F, 2, rng)
        assert _split_root_chain(poly, K) == roots(embed_poly(poly, F, K))


@pytest.mark.parametrize("m", [2, 4, 6])
def test_split_root_into_an_orbit_algebra(m):
    # the target is F_p[x]/(h) for the orbit's own irreducible h, not make_extension's modulus
    F = prime_field(53)
    rng = random.Random(52 + m)
    h = random_irreducible(F, m, rng)
    A = ExtField(F, h.c, Poly.x(F).pow_mod(53, h).c)
    for d in (dd for dd in (1, 2, 3, 4, 6) if m % dd == 0):
        poly = random_irreducible(F, d, rng)
        assert _split_root_chain(poly, A) == roots(embed_poly(poly, F, A))


def test_split_root_rejects_a_field_it_does_not_split_in():
    F = make_extension(37, 2)
    poly = random_irreducible(F, 3, random.Random(53))
    with pytest.raises(ContextMismatch):
        split_root(poly, Poly.x(F).pow_mod(F.order, poly), make_extension(37, 4))


def test_binary_form_rejects_a_wrong_coefficient_count():
    # a typed error, also under python -O
    F = prime_field(37)
    with pytest.raises(BadDegree):
        BinaryForm(F, 2, (F.one, F.one))
    with pytest.raises(BadDegree):
        BinaryForm(F, 2, (F.one,) * 4)


# --- packed products modulo a fixed F_p[x] modulus --------------------------


def _test_moduli(p, rng):
    """Moduli over F_p of degree 1 to 8: random monic, non-monic, reducible,
    with a repeated factor, and every coefficient p - 1.

    Below 64 bits every degree gets every kind; above, the kinds take turns
    over the degrees, which keeps the schoolbook reference quick.
    """

    def rand(d, lc=1):
        return [rng.randrange(p) for _ in range(d)] + [lc]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    out = []
    for d in range(1, 9):
        lin = rand(1)
        kinds = [rand(d), rand(d, rng.randrange(2, p))]
        if d > 1:
            kinds += [mul(rand(1), rand(d - 1)), mul(mul(lin, lin), rand(d - 2))]
        out += kinds if p.bit_length() < 64 else [kinds[d % len(kinds)]]
    out += [[p - 1] * 4, [p - 1] * 9]
    return out


@pytest.mark.parametrize("p", [5, 37, P30, deterministic_prime(64, 0), deterministic_prime(160, 0)], ids=lambda p: f"{p.bit_length()}bit")
def test_packed_pow_mod_matches_schoolbook(p):
    F = prime_field(p)
    rng = random.Random(60 + p % 1000)
    for mod in _test_moduli(p, rng):
        d = len(mod) - 1
        m = Poly(F, mod)
        bases = [[], [0, 1], [rng.randrange(p) for _ in range(d + 3)] + [1], [p - 1] * d, [p - 1] * (d + 3)]
        for n in (0, 1, 2, p, p * p, (p**d - 1) // 2):
            for b in bases:
                got = Poly(F, b).pow_mod(n, m)
                assert list(got.c) == schoolbook_pow_mod(b, n, mod, p), (mod, b, n)


@pytest.mark.parametrize("p", [5, 37, P30, deterministic_prime(64, 0), deterministic_prime(160, 0)], ids=lambda p: f"{p.bit_length()}bit")
def test_packed_frobenius_matches_schoolbook(p):
    # x^p, the p-power matrix and map, and the conjugate product of the
    # splitting loops, in the packed ring of every test modulus
    F = prime_field(p)
    rng = random.Random(61 + p % 1000)
    for mod in _test_moduli(p, rng):
        d = len(mod) - 1
        R = _quotient(Poly(F, mod))
        assert list(_unpacked(R, R.xq()).c) == schoolbook_pow_mod([0, 1], p, mod, p)
        cols = [list(_unpacked(R, c).c) for c in R._frobenius_matrix(1)]
        assert cols == [schoolbook_pow_mod([0, 1], i * p, mod, p) for i in range(d)]
        for u in ([], [p - 1] * d, [rng.randrange(p) for _ in range(d)]):
            u = schoolbook_rem(u, mod, p)
            a = R.from_coeffs(u)
            assert list(_unpacked(R, R.frobenius_power(a, 1)).c) == schoolbook_frobenius(u, mod, p)
            e = (p - 1) // 2
            total = sum(e * p**i for i in range(d))
            got = _unpacked(R, _conjugate_product(R, a, e, d))
            assert list(got.c) == schoolbook_pow_mod(u, total, mod, p), (mod, u)


# --- lazy Poly arithmetic over packed fields ----------------------------------


def _trimmed(seq, zero):
    seq = list(seq)
    while seq and seq[-1] == zero:
        seq.pop()
    return seq


# (p, m, degree): F_{p^m} itself for degree 1, else a tower of that degree
# over it, up to the accumulation bound 2 * degree <= 16
_LAZY_CONTEXTS = [(37, 2, 1), (P30, 4, 1), (deterministic_prime(160, 0), 4, 1), (37, 2, 2), (37, 2, 3), (37, 2, 8), (53, 3, 2)]


@pytest.mark.parametrize(
    "p, m, degree",
    [pytest.param(p, m, d, id=f"{str(p)[:6]}-{m}" + (f"-tower{d}" if d > 1 else "")) for p, m, d in _LAZY_CONTEXTS],
)
def test_lazy_poly_arithmetic_at_the_accumulation_bound(p, m, degree):
    # raw products are summed and folded once per output coefficient, and
    # after every K._lazy of them (every one over a tower): all-(p - 1)
    # coefficients make every sum its largest, at lengths up to, at and
    # past the bound
    from oracles import as_tuple, schoolbook_eval, schoolbook_of, schoolbook_poly_add, schoolbook_poly_divmod, schoolbook_poly_mul

    rng = random.Random(70 + p % 1000 + m)
    K = make_extension(p, m)
    top = K.from_coeffs([p - 1] * m)
    if degree > 1:
        K = ExtField(K, random_irreducible(K, degree, rng).c)
        top = K.from_coeffs([top] * degree)
    R = schoolbook_of(K)

    def tup(poly):
        return [as_tuple(K, c) for c in poly.c]

    lazy = K._lazy
    divisors = [Poly(K, [top] * 3 + [K.one]), Poly(K, [top] * 5), Poly(K, [K.random(rng) for _ in range(3)] + [top])]
    for n in (lazy - 1, lazy, lazy + 1, 2 * lazy, 2 * lazy + 1, 3 * lazy + 2):
        a = Poly(K, [top] * n)
        for b in (a, Poly(K, [top] * (lazy + 1)), Poly(K, [K.random(rng) for _ in range(n)] + [top])):
            assert tup(a * b) == _trimmed(schoolbook_poly_mul(R, tup(a), tup(b)), R.zero)
            assert tup(a + b) == _trimmed(schoolbook_poly_add(R, tup(a), tup(b)), R.zero)
        for b in divisors:
            q, r = a.divmod(b)
            want_q, want_r = schoolbook_poly_divmod(R, tup(a), tup(b), as_tuple(K, K.inv(b.lc)))
            assert (tup(q), tup(r)) == (_trimmed(want_q, R.zero), _trimmed(want_r, R.zero))
        for x in (top, K.random(rng)):
            assert as_tuple(K, a.eval(x)) == schoolbook_eval(R, tup(a), as_tuple(K, x))
    # a zero coefficient at a multiple of K._lazy adds no product but still
    # counts towards the bound: the rows after it must not overflow a slot
    for n in (2 * lazy + 1, 3 * lazy + 2):
        a = Poly(K, [K.zero if i in (lazy, 2 * lazy) else top for i in range(n)])
        for b in (a, Poly(K, [top] * (n + 1))):
            assert tup(a * b) == _trimmed(schoolbook_poly_mul(R, tup(a), tup(b)), R.zero)
            assert tup(b * a) == tup(a * b)


def test_poly_over_a_tower_past_the_accumulation_bound_raises():
    # a raw product of two elements of a degree-9 tower may overflow its
    # slots: the ring still multiplies, Poly arithmetic over it refuses
    K = make_extension(37, 2)
    T = ExtField(K, [K.one] + [K.zero] * 8 + [K.one])
    assert T.mul(T.x, T.x) == T.from_coeffs([K.zero, K.zero, K.one])
    with pytest.raises(ContextMismatch):
        Poly(T, [T.one, T.x]) * Poly(T, [T.x, T.x])


def test_substituted_over_a_packed_field_matches_evaluation():
    # form(a u + b v, c u + d v) at (u, v) is the substituted form at (u, v)
    K = make_extension(37, 2)
    rng = random.Random(71)
    top = K.from_coeffs([36, 36])
    for d in (2, 8):
        for coeffs in ([top] * (d + 1), [K.random(rng) for _ in range(d + 1)]):
            form = BinaryForm(K, d, coeffs)
            a, b, c, e = (K.random(rng) for _ in range(4))
            sub = form.substituted(a, b, c, e)
            for _ in range(4):
                u, v = K.random(rng), K.random(rng)
                assert sub.eval(u, v) == form.eval(K.add(K.mul(a, u), K.mul(b, v)), K.add(K.mul(c, u), K.mul(e, v)))


# --- the conjugate product of the splitting loops, norm first ---------------

_P160 = deterministic_prime(160, 0)


def _distinct_irreducibles(field, d, r, rng):
    """r distinct monic irreducibles of degree d over field."""
    out = {}
    while len(out) < r:
        g = random_irreducible(field, d, rng)
        out[g.encode()] = g
    return list(out.values())


@pytest.mark.parametrize("field", [prime_field(5), prime_field(37), prime_field(P30), prime_field(_P160), make_extension(37, 2)], ids=repr)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_conjugate_product_matches_the_direct_power_on_products_of_irreducibles(field, d):
    # _equal_degree's ring: F_q[x] modulo r distinct degree-d irreducibles,
    # n = d; N = h h^q ... h^(q^(d-1)) lies in the r-fold product of F_q
    rng = random.Random(80 + d + field.order % 1000)
    e = (field.order - 1) // 2
    for r in (1, 2, 3, 4):
        R = _quotient(functools.reduce(Poly.__mul__, _distinct_irreducibles(field, d, r, rng)))
        for a in (R.random(rng), R.random(rng), R.x):
            assert _conjugate_product(R, a, e, d) == conjugate_product_direct(R, a, e, d), (r, a)


@pytest.mark.parametrize("p, s, m", [(_P160, 1, 3), (_P160, 1, 4), (37, 2, 4), (37, 1, 4)], ids=lambda v: str(v)[:6])
def test_conjugate_product_matches_the_direct_power_in_split_root_rings(p, s, m):
    # split_root's ring: F_{p^m}[x]/(poly), poly an irreducible of degree
    # m / s over F_{p^s}, seeded with x^(p^s) taken over F_{p^s}; n = m / s
    F, K = make_extension(p, s), make_extension(p, m)
    rng = random.Random(81 + p % 1000 + 10 * s + m)
    e, n = (F.order - 1) // 2, m // s
    for _ in range(3):
        poly = random_irreducible(F, n, rng)
        Fq = _quotient(poly)
        R = ExtField(K, embed_poly(poly, F, K).c, [embed(c, F, K) for c in Fq.coeffs(Fq.xq())], s)
        for a in (R.random(rng), R.random(rng), R.from_coeffs([K.random(rng)])):
            assert _conjugate_product(R, a, e, n, s) == conjugate_product_direct(R, a, e, n, s)


@pytest.mark.parametrize("field", [prime_field(5), prime_field(37), prime_field(_P160), make_extension(37, 2)], ids=repr)
def test_conjugate_product_with_a_degenerate_norm(field):
    # h in F_q (mu linear over F_p when q = p), h = 0 and 1, h sharing a
    # factor with the modulus (a zero component), and moduli with repeated
    # factors, where the ring is no product of fields and h may be nilpotent
    rng = random.Random(82 + field.order % 1000)
    e = (field.order - 1) // 2
    for d in (2, 3):
        g1, g2, g3 = _distinct_irreducibles(field, d, 3, rng)
        for mod in (g1 * g2 * g3, g1 * g1 * g2, g1 * g1 * g1, g1 * g1 * g2 * g2):
            R = _quotient(mod)
            hs = [R.zero, R.one, R.from_coeffs([field.random(rng)]), R.from_coeffs([field.neg(field.one)])]
            hs += [R.from_coeffs((g1 * _random_poly(field, d - 1, rng) % mod).c), R.from_coeffs((g1 * g2 % mod).c)]
            for a in hs + [R.random(rng)]:
                assert _conjugate_product(R, a, e, d) == conjugate_product_direct(R, a, e, d), (mod, a)


@pytest.mark.parametrize("m", [3, 4])
def test_split_root_takes_at_most_2m_tower_products_per_attempt(m, monkeypatch):
    # op count, no wall clock: a Cantor-Zassenhaus attempt takes N(h) in
    # m - 1 products and the powers of N up to its minimal polynomial in at
    # most m - 1 more (the first attempt of a call also builds the q-power
    # matrix, m - 1); taking h^((p - 1) / 2) in the m^2-dimensional ring
    # instead costs about 240 products at 160 bits
    from trigonal import fields, polyring

    F, K = prime_field(_P160), make_extension(_P160, m)
    rng = random.Random(83 + m)
    polys = [random_irreducible(F, m, rng) for _ in range(6)]
    xqs = [Poly.x(F).pow_mod(_P160, g) for g in polys]
    count = {"products": 0, "attempts": 0}
    mul, conjugate_product = fields._TowerField.mul, polyring._conjugate_product

    def counting_mul(self, a, b):
        count["products"] += 1
        return mul(self, a, b)

    def counting_conjugate_product(*args):
        count["attempts"] += 1
        return conjugate_product(*args)

    monkeypatch.setattr(fields._TowerField, "mul", counting_mul)
    monkeypatch.setattr(polyring, "_conjugate_product", counting_conjugate_product)
    found = [split_root(g, xq, K) for g, xq in zip(polys, xqs)]
    monkeypatch.undo()
    assert all(embed_poly(g, F, K).eval(r) == K.zero for g, r in zip(polys, found))
    assert count["attempts"] >= len(polys)
    assert count["products"] <= 2 * m * count["attempts"], count


# --- Euclid on coefficient lists --------------------------------------------


def _gcd_fields():
    """(field, degree of its test irreducibles): F_p at 30 and 160 bits, F_37^2, and two towers over
    which nothing is factored (their irreducibles are linear): a cubic extension of F_37^2, and one of
    degree 8 over F_181^2, at the accumulation bound with little room above it in a slot (the
    bound 32 (181 - 1)^2 is 0.99 of 2^20)."""
    K, K181 = make_extension(37, 2), make_extension(181, 2)
    T = ExtField(K, random_irreducible(K, 3, random.Random(101)).c)
    T8 = ExtField(K181, random_irreducible(K181, 8, random.Random(101)).c)
    fields = [(prime_field(P30), 2), (prime_field(_P160), 2), (K, 2), (T, 1), (T8, 1)]
    return [pytest.param(f, d, id=repr(f)) for f, d in fields]


def _gcd_inputs(f, d, rng):
    """Pairs (a, b) over f: zero, constants, equal, coprime, with a common factor, and random.

    Degree gaps reach 24, and top (every slot p - 1) as the leading or
    every coefficient makes each raw sum of a pseudo-remainder step its
    largest, over F_p and over the tower.
    """

    def rand(n, lead=None):
        return Poly(f, [f.random(rng) for _ in range(n)] + [lead or f.random(rng)])

    top = f.decode(f.order - 1)
    zero, one, two, topc = Poly.zero(f), Poly.one(f), Poly.const(f, f.from_int(2)), Poly.const(f, top)
    g1, g2, g3 = _distinct_irreducibles(f, d, 3, rng)
    pairs = [(zero, zero), (rand(3), zero), (zero, rand(4)), (one, rand(5)), (rand(5), two), (two, zero)]
    for _ in range(4):
        a, c = rand(rng.randrange(0, 6)), rand(rng.randrange(0, 3))
        pairs += [(a, a), (a.scale(f.from_int(3)), a), (a * c, c), (c, a * c), (a * c, a * rand(2))]
    pairs += [(g1 * g2, g2 * g3), (g1 * g1 * g2, g1 * g3), (g1, g2), (g1 * g2 * g3, (g1 * g2).derivative())]
    pairs += [(rand(rng.randrange(0, 8)), rand(rng.randrange(0, 8))) for _ in range(12)]
    pairs += [(zero, two), (two, topc), (topc, zero), (topc, rand(24)), (rand(24, top), one)]
    for m in (1, 2, 3):
        full = Poly(f, [top] * (m + 1))
        pairs += [(rand(24), rand(m)), (rand(m, top), rand(24, top)), (Poly(f, [top] * 25), full), (rand(24 - m, top) * full, full)]
        pairs += [(rand(24 - m) * g1, rand(m - 1, top) * g1)]
    pairs += [(rand(8, top), rand(7, top)), (Poly(f, [top] * 9), Poly(f, [top] * 8)), (Poly(f, [top] * 9), rand(6, top))]
    pairs += [(Poly(f, [top] * n + [f.neg(top)]), Poly(f, [top] * 8)) for n in (7, 8, 9, 24)]
    return pairs


@pytest.mark.parametrize("field, d", _gcd_fields())
def test_gcd_on_coefficient_lists_matches_the_poly_oracle(field, d):
    rng = random.Random(field.order % 1009)
    for a, b in _gcd_inputs(field, d, rng):
        got = gcd(a, b)
        want = gcd_by_polys(a, b)
        assert got == want, (a, b)
        assert got.is_zero or got.lc == field.one
        assert gcd(b, a) == want


@pytest.mark.parametrize("field, d", _gcd_fields())
def test_xgcd_with_monic_remainders_matches_the_poly_oracle(field, d):
    rng = random.Random(field.order % 1013)
    for a, b in _gcd_inputs(field, d, rng):
        g, s = (Poly(field, c) for c in xgcd(field, a.c, b.c))
        assert (g, s) == xgcd_by_polys(a, b)[:2], (a, b)
        assert g.is_zero or ((g - s * a) % b if not b.is_zero else g - s * a).is_zero


@pytest.mark.parametrize("field, d", _gcd_fields())
def test_gcd_takes_at_most_one_inverse(field, d, monkeypatch):
    # pseudo-remainder steps divide by nothing: the one inverse makes the
    # last remainder monic
    rng = random.Random(field.order % 1019)
    pairs = _gcd_inputs(field, d, rng)
    want = [gcd_by_polys(a, b) for a, b in pairs]
    inverses = []
    inv = field.inv
    monkeypatch.setattr(field, "inv", lambda a: inverses.append(a) or inv(a))
    counts = []
    for (a, b), g in zip(pairs, want):
        inverses.clear()
        assert gcd(a, b) == g, (a, b)
        counts.append(len(inverses))
    assert max(counts) == 1


def _max_slot(K, c):
    """The largest slot of the nonnegative int c in K's packing."""
    w, m, out = K._top + 1, K._mask, 0
    while c:
        out, c = max(out, c & m), c >> w
    return out


@pytest.mark.parametrize("field, d", [p for p in _gcd_fields() if p.values[0].k > 1])
def test_gcd_folds_within_the_accumulation_bound(field, d, monkeypatch):
    # every raw sum gcd folds is at most _lazy raw products of two elements
    # plus an element (one product over a tower): no slot above the
    # largest of the all-(p - 1) sum
    top = field.decode(field.order - 1)
    bound = _max_slot(field, field._lazy * top * top + top)
    pairs = _gcd_inputs(field, d, random.Random(field.order % 1021))
    want = [gcd_by_polys(a, b) for a, b in pairs]
    sums = []
    fold = field._fold
    monkeypatch.setattr(field, "_fold", lambda c: sums.append(_max_slot(field, c)) or fold(c))
    assert [gcd(a, b) for a, b in pairs] == want
    assert 0 < max(sums) <= bound
