"""Polynomial arithmetic, factorization, exact square roots, bivariate reduction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_irreducible
from trigonal.errors import BadDegree, ContextMismatch, NotMonicCubic, ZeroPolynomial
from trigonal.fields import ExtField, embed_poly, make_extension, prime_field
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
    is_irreducible,
    is_squarefree,
    reduce_mod_cubic,
    roots,
    split_root,
    xgcd,
)
from trigonal.survey import deterministic_prime
from ex37 import EX37_F
from oracles import factor_form, schoolbook_frobenius, schoolbook_pow_mod, schoolbook_rem


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
    g, s, t = xgcd(a, b)
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
        parts, xq = _distinct_degree(f)
        assert parts == _plain_distinct_degree(f)
        assert xq == Poly.x(field).pow_mod(field.order, f)
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
        assert got == _plain_equal_degree(prod, d, random.Random(seed))
        assert sorted(g.encode() for g in got) == sorted(seen)


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
