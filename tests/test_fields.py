"""Field contexts: construction, Frobenius, square roots, embeddings."""

import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_under
from trigonal import fields
from trigonal.errors import BadDegree, ContextMismatch, NonPrime, PrimeTooSmall, TooLarge
from trigonal.fields import (
    ExtField,
    embed,
    is_prime,
    make_extension,
    prime_field,
    project,
)
from trigonal.polyring import Poly
from oracles import is_irreducible


def test_make_extension_orders():
    assert make_extension(37, 1).order == 37
    assert make_extension(37, 3).order == 50653


def test_make_extension_rejects_bad_input():
    with pytest.raises(NonPrime):
        make_extension(4, 2)
    with pytest.raises(PrimeTooSmall):
        make_extension(3, 2)
    with pytest.raises(BadDegree):
        make_extension(37, 0)
    with pytest.raises(BadDegree):
        make_extension(37, 25)


def test_deterministic_modulus_is_lexicographically_least():
    E = make_extension(37, 3)
    # oracle: scan candidates in encoding order and stop at the first irreducible
    F37 = prime_field(37)
    found = None
    for enc in range(200):
        c = [enc % 37, (enc // 37) % 37, (enc // 37**2) % 37]
        f = Poly(F37, c + [1], trim=False)
        if is_irreducible(f):
            found = tuple(c) + (1,)
            break
    assert E.modulus == found
    assert make_extension(37, 3) is E  # cached context


def test_extension_field_axioms_random():
    E = make_extension(101, 4)
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = (E.random(rng) for _ in range(3))
        assert E.mul(a, E.add(b, c)) == E.add(E.mul(a, b), E.mul(a, c))
        if a != E.zero:
            assert E.mul(a, E.inv(a)) == E.one
        assert E.encode(E.decode(E.encode(a))) == E.encode(a)


def test_frobenius_examples():
    F37 = prime_field(37)
    assert F37.frobenius_power(5, 1) == 5
    E = make_extension(37, 3)
    # a root of the modulus maps to another root
    xi = E.from_coeffs((0, 1, 0))
    img = E.frobenius_power(xi, 1)
    mod = Poly(E, [E.from_int(c) for c in E.modulus])
    assert mod.eval(img) == E.zero and img != xi
    # order of the Galois group
    a = E.decode(12345)
    b = a
    for _ in range(3):
        b = E.frobenius_power(b, 1)
    assert b == a


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 37**2 - 1), st.integers(0, 37**2 - 1))
def test_frobenius_is_an_automorphism(na, nb):
    E = make_extension(37, 2)
    a, b = E.decode(na), E.decode(nb)
    f = lambda x: E.frobenius_power(x, 1)
    assert f(E.mul(a, b)) == E.mul(f(a), f(b))
    assert f(E.add(a, b)) == E.add(f(a), f(b))


def test_sqrt_prime_examples():
    F37 = prime_field(37)
    assert F37.sqrt(16) == 4  # canonical choice: 4, not 33
    # oracle: exhaust all squares mod 37
    squares = {y * y % 37 for y in range(37)}
    assert 2 not in squares and F37.sqrt(2) is None and not F37.is_square(2)
    assert 7 in squares and F37.is_square(7)
    assert F37.sqrt(0) == 0 and F37.is_square(0)


def test_sqrt_all_elements_small_fields():
    for p, k in ((37, 1), (37, 2), (13, 3), (5, 2)):
        E = make_extension(p, k)
        squares = set()
        for i in range(E.order):
            z = E.decode(i)
            squares.add(E.encode(E.mul(z, z)))
        for i in range(E.order):
            a = E.decode(i)
            r = E.sqrt(a)
            if E.encode(a) in squares:
                assert r is not None and E.mul(r, r) == a
                # canonical: the smaller of the two roots
                assert E.encode(r) <= E.encode(E.neg(r))
            else:
                assert r is None
                assert not E.is_square(a)


def test_nonresidue_scaling_flips_is_square():
    E = make_extension(37, 2)
    c = E.nonresidue()
    rng = random.Random(1)
    for _ in range(60):
        a = E.random(rng)
        if a == E.zero:
            continue
        assert E.is_square(a) != E.is_square(E.mul(c, a))


def test_embedding_is_a_field_homomorphism():
    E2 = make_extension(37, 2)
    E6 = make_extension(37, 6)
    rng = random.Random(2)
    for _ in range(25):
        a, b = E2.random(rng), E2.random(rng)
        ea, eb = embed(a, E2, E6), embed(b, E2, E6)
        assert embed(E2.mul(a, b), E2, E6) == E6.mul(ea, eb)
        assert embed(E2.add(a, b), E2, E6) == E6.add(ea, eb)
    assert embed(prime_field(37).from_int(5), prime_field(37), E6) == E6.from_int(5)
    with pytest.raises(ContextMismatch):
        embed(E2.one, E2, make_extension(37, 3))


def test_project_inverts_embed():
    E3 = make_extension(37, 3)
    E6 = make_extension(37, 6)
    rng = random.Random(3)
    for _ in range(25):
        a = E3.random(rng)
        assert project(embed(a, E3, E6), E6, E3) == a
    # an element outside the subfield projects to None
    gen = E6.decode(37)  # the polynomial generator, degree 6 over F_37
    assert project(gen, E6, E3) is None


def test_is_prime_basics():
    assert is_prime(2) and is_prime(37) and is_prime(1073741789)
    assert not is_prime(1) and not is_prime(4) and not is_prime(57 * 59)
    assert is_prime(1008945029102471339)  # 60-bit


def test_extfield_with_custom_modulus():
    # the quotient-algebra representation used on the survey fast path
    F37 = prime_field(37)
    A = ExtField(F37, (2, 0, 0, 1))  # x^3 + 2
    assert A.order == 37**3
    a = A.decode(1000)
    assert A.mul(a, A.inv(a)) == A.one
    assert A.frobenius_power(a, 3) == a


# make_extension(p, k).modulus as recorded before the modulus search moved
# onto Poly; encodings frozen elsewhere are built on these moduli
_P30 = 750175891  # survey.deterministic_prime(30, 0)
_P160 = 1126306621479607957118579180556230119350271587529  # (160, 0)
FROZEN_MODULI = {
    (37, 2): (2, 0, 1),
    (37, 3): (2, 0, 0, 1),
    (37, 4): (2, 0, 0, 0, 1),
    (37, 5): (5, 1, 0, 0, 0, 1),
    (37, 6): (2, 0, 0, 0, 0, 0, 1),
    (101, 2): (2, 0, 1),
    (101, 3): (1, 1, 0, 1),
    (101, 4): (2, 0, 0, 0, 1),
    (101, 5): (2, 0, 0, 0, 0, 1),
    (101, 6): (3, 1, 0, 0, 0, 0, 1),
    (_P30, 2): (1, 0, 1),
    (_P30, 3): (3, 0, 0, 1),
    (_P30, 4): (3, 1, 0, 0, 1),
    (_P160, 2): (7, 0, 1),
    (_P160, 3): (3, 0, 0, 1),
    (_P160, 4): (7, 0, 0, 0, 1),
}


def test_deterministic_moduli_frozen():
    from trigonal.survey import deterministic_prime

    assert (deterministic_prime(30, 0), deterministic_prime(160, 0)) == (_P30, _P160)
    for (p, k), modulus in FROZEN_MODULI.items():
        assert make_extension(p, k).modulus == modulus, (p, k)


def _irreducible_over(K, degree, rng):
    while True:
        m = [K.random(rng) for _ in range(degree)] + [K.one]
        if is_irreducible(Poly(K, m)):
            return m


@pytest.mark.parametrize("k, degree", [(2, 3), (3, 2)])
def test_extfield_over_a_tower_base(k, degree):
    # F_{37^k}[x]/(h) with h irreducible of the given degree: a field of order 37^6
    K = make_extension(37, k)
    rng = random.Random(10 * k + degree)
    A = ExtField(K, _irreducible_over(K, degree, rng))
    assert A.order == 37**6 and A.k == 6
    elements = [A.random(rng) for _ in range(24)]
    for a, b, c in zip(elements, elements[1:], elements[2:]):
        assert A.mul(a, A.add(b, c)) == A.add(A.mul(a, b), A.mul(a, c))
        assert A.mul(A.mul(a, b), c) == A.mul(a, A.mul(b, c))
        assert A.mul(a, b) == A.mul(b, a)
        assert A.add(A.sub(a, b), b) == a and A.add(a, A.neg(a)) == A.zero
        assert A.mul(a, A.one) == a
    for a in elements[:8]:
        if a == A.zero:
            continue
        assert A.mul(a, A.inv(a)) == A.one
        a2 = A.mul(a, a)
        r = A.sqrt(a2)
        assert A.mul(r, r) == a2
        euler = A.pow(a, (A.order - 1) // 2) == A.one
        assert A.is_square(a) == euler == (A.sqrt(a) is not None)
        assert A.pow(a, A.order) == a  # a^(37^6) = a: the multiplication is the field's
        # base-order digits, constant term first
        assert A.encode(a) == sum(K.encode(c) * K.order**i for i, c in enumerate(A.coeffs(a)))
        assert A.decode(A.encode(a)) == a
    with pytest.raises(ZeroDivisionError):
        A.inv(A.zero)


def test_extfield_rejects_a_non_monic_modulus():
    F37 = prime_field(37)
    with pytest.raises(ContextMismatch):
        ExtField(F37, (2, 0, 3))
    K = make_extension(37, 2)
    with pytest.raises(ContextMismatch):
        ExtField(K, (K.one, K.one, K.from_int(2)))


# --- square roots: Tonelli-Shanks constants per context, Euler through the norm


def _reference_sqrt(K, a, z):
    """Plain Euler criterion and Tonelli-Shanks from scratch, canonical root or None.

    z is any non-residue of K.
    """
    if a == K.zero:
        return K.zero
    q = K.order
    if K.pow(a, (q - 1) // 2) != K.one:
        return None
    m, e = q - 1, 0
    while m % 2 == 0:
        m //= 2
        e += 1
    x, b, g = K.pow(a, (m + 1) // 2), K.pow(a, m), K.pow(z, m)
    while b != K.one:
        i, b2 = 0, b
        while b2 != K.one:
            b2 = K.mul(b2, b2)
            i += 1
        t = g
        for _ in range(e - i - 1):
            t = K.mul(t, t)
        x, g = K.mul(x, t), K.mul(t, t)
        b, e = K.mul(b, g), i
    xn = K.neg(x)
    return x if K.encode(x) <= K.encode(xn) else xn


def _tower(p, k, degree, seed):
    K = make_extension(p, k)
    return ExtField(K, _irreducible_over(K, degree, random.Random(seed)))


def _algebra(p, degree, seed):
    """F_p[x]/(h) for a seeded irreducible h, as the orbit algebras of the subgroup enumeration are built."""
    F = prime_field(p)
    return ExtField(F, _irreducible_over(F, degree, random.Random(seed)))


def _sqrt_contexts():
    yield from (prime_field(p) for p in (37, 53, 43, 59, 103))  # p = 1 and p = 3 mod 4
    yield from (make_extension(37, k) for k in range(2, 7))
    yield from (make_extension(43, k) for k in (2, 3))
    for p in (37, 53):
        yield from (_tower(p, 2, degree, 7 * p + degree) for degree in (2, 3))
    # an odd-degree base, a large base, and algebras that are not make_extension contexts
    yield pytest.param(_tower(37, 3, 2, 16), id="GF(37^6)/tower over GF(37^3)")
    yield pytest.param(_tower(10**6 + 3, 2, 2, 17), id="GF(1000003^4)/tower")
    yield pytest.param(_algebra(37, 4, 18), id="GF(37^4)/algebra")
    yield pytest.param(_algebra(101, 6, 19), id="GF(101^6)/algebra")


def _context_id(K):
    return repr(K) + ("/tower" if K.k > 1 and K.base.k > 1 else "")


@pytest.mark.parametrize("K", list(_sqrt_contexts()), ids=_context_id)
def test_sqrt_and_is_square_match_the_reference(K):
    rng = random.Random(K.order % 1000)
    samples = [K.zero, K.one, K.nonresidue()] + [K.random(rng) for _ in range(40)]
    samples += [K.mul(a, a) for a in samples[3:23]]
    z = next(a for a in samples[3:] if a != K.zero and K.pow(a, (K.order - 1) // 2) != K.one)
    for a in samples:
        want = _reference_sqrt(K, a, z)
        assert K.sqrt(a) == want
        assert K.is_square(a) == (want is not None)


@pytest.mark.parametrize(
    "p, k, degree", [(37, 1, 2), (37, 1, 3), (37, 1, 4), (37, 2, 2), (37, 2, 3), (53, 2, 2), (53, 2, 3)]
)
def test_etale_contexts_hold_a_nonresidue(p, k, degree):
    K = make_extension(p, k)
    rng = random.Random(p * k + degree)
    for _ in range(4):
        A = ExtField(K, _irreducible_over(K, degree, rng))
        nu = A.nonresidue()
        assert A.pow(nu, (A.order - 1) // 2) != A.one  # a non-residue by Euler's criterion


def _seeded_tower(p, k, degree, seed):
    """A tower whose q-power Frobenius is seeded with x^q mod its modulus, as evaluation.fiber_points seeds it."""
    K = make_extension(p, k)
    h = _irreducible_over(K, degree, random.Random(seed))
    return ExtField(K, h, Poly.x(K).pow_mod(K.order, Poly(K, h)).c)


def test_norm_is_the_product_of_the_conjugates():
    rng = random.Random(11)
    seeded, long_tower = _seeded_tower(37, 2, 3, 6), _tower(37, 2, 9, 8)
    assert isinstance(long_tower, fields._LongTowerField)
    for A in (make_extension(37, 3), make_extension(53, 4), _tower(37, 2, 3, 5), seeded, long_tower):
        B = A.base
        for _ in range(10):
            a = A.random(rng)
            prod = A.one
            for i in range(A.deg):
                prod = A.mul(prod, A.pow(a, B.order**i))
            assert A.coeffs(prod) == (A.norm(a),) + A.coeffs(A.zero)[1:]


def test_sqrt_of_half_squares_back():
    rng = random.Random(12)
    for p, j in ((37, 1), (43, 1), (37, 2), (53, 3)):
        K, K2 = make_extension(p, j), make_extension(p, 2 * j)
        for _ in range(20):
            v = K.random(rng)
            r = K2.sqrt_of_half(v, K)
            assert K2.mul(r, r) == embed(v, K, K2)
            if not K.is_square(v):
                r = K2.sqrt_of_half_nonsquare(v, K)
                assert K2.mul(r, r) == embed(v, K, K2)
    for method in (ExtField.sqrt_of_half, ExtField.sqrt_of_half_nonsquare):
        with pytest.raises(ContextMismatch):
            method(make_extension(37, 6), 2, prime_field(37))


def _euler_nonresidue(K):
    """A non-residue of K by Euler's criterion on seeded draws, for _reference_sqrt."""
    rng = random.Random(K.order % 1009)
    while True:
        z = K.random(rng)
        if z != K.zero and K.pow(z, (K.order - 1) // 2) != K.one:
            return z


def test_sqrt_through_half_is_the_canonical_root():
    # the root through the norm to the index-2 subfield is the reference's:
    # the canonical root or None, on every element of F_5^2 and F_37^2, on
    # seeded elements at 30 bits, and on the subfield's squares, non-squares
    # and zero
    from trigonal.survey import deterministic_prime

    for p in (5, 37):
        K2 = make_extension(p, 2)
        z = _euler_nonresidue(K2)
        assert all(K2.sqrt(a) == _reference_sqrt(K2, a, z) for a in K2.elements())
    rng = random.Random(13)
    p = deterministic_prime(30, 0)
    for j in (1, 2, 3):
        K, K2 = make_extension(p, j), make_extension(p, 2 * j)
        z = _euler_nonresidue(K2)
        sub = [embed(K.random(rng), K, K2) for _ in range(20)]
        cases = [K2.random(rng) for _ in range(40)] + sub + [K2.zero]
        seen = set()
        for a in cases:
            r = K2.sqrt(a)
            assert r == _reference_sqrt(K2, a, z)
            seen.add((a in sub, r is None))
        assert seen == {(False, False), (False, True), (True, False)}, seen
        assert any(not K.is_square(project(a, K2, K)) for a in sub)


@pytest.mark.parametrize("k, degree", [(2, 3), (3, 2)])
def test_a_towers_base_embeds_and_projects_as_block_0(k, degree):
    # block 0 is the image embed's rule gives, the least root by encoding of
    # the base's modulus; project reads it back, is None off block 0, and
    # None into F_p off slot 0
    T = _tower(37, k, degree, 30 + k)
    B, F = T.base, prime_field(37)
    xb = embed(B.x, B, T)
    assert Poly(T, list(B.modulus)).eval(xb) == T.zero
    assert min((T.frobenius_power(xb, i) for i in range(B.k)), key=T.encode) == xb
    rng = random.Random(31)
    for b in [B.zero, B.one, B.x] + [B.random(rng) for _ in range(20)]:
        t = embed(b, B, T)
        assert t == b and T.coeffs(t) == (b,) + (B.zero,) * (T.deg - 1)
        assert project(t, T, B) == b
        assert T.mul(t, embed(B.x, B, T)) == embed(B.mul(b, B.x), B, T)
    assert project(T.x, T, B) is None
    assert all(project(T.add(embed(b, B, T), T.x), T, B) is None for b in (B.zero, B.x))
    assert project(embed(B.x, B, T), T, F) is None
    assert project(embed(5, F, T), T, F) == 5


def test_a_tower_of_even_degree_above_2_takes_no_root():
    T = _tower(37, 2, 4, 32)
    rng = random.Random(33)
    elements = [T.random(rng) for _ in range(6)]
    for a in elements + [T.mul(a, a) for a in elements]:
        assert T.is_square(a) == (T.pow(a, (T.order - 1) // 2) == T.one)
        with pytest.raises(ContextMismatch):
            T.sqrt(a)


def test_project_rank_check_survives_python_O():
    # a rank-deficient embedded basis raises ContextMismatch, not an assert
    code = """
from trigonal import fields
from trigonal.errors import ContextMismatch
small, big = fields.make_extension(37, 2), fields.make_extension(37, 4)
fields._embed_cache[(small.p, small.modulus, big.k, big.modulus)] = (big.one, big.one)
try:
    fields.project(big.one, big, small)
except ContextMismatch:
    print("ok")
"""
    out = run_under(["-O"], code)
    assert out.stdout.split() == ["ok"], out.stderr


def test_root_powers_tables_unchanged():
    # every embedding table, digested and recorded before embed took its
    # root from split_root instead of roots()
    from trigonal.survey import deterministic_prime

    cases = [(37, k1, k2) for k1, k2 in ((2, 4), (2, 6), (3, 6), (4, 8), (3, 12))]
    for bits in (30, 64, 160):
        p = deterministic_prime(bits, 0)
        cases += [(p, k1, k2) for k1, k2 in ((2, 4), (3, 6), (4, 8))]
    h = hashlib.sha256()
    for p, k1, k2 in cases:
        src, dst = make_extension(p, k1), make_extension(p, k2)
        tab = fields._root_powers(src, dst)
        h.update(repr((p, k1, k2, [dst.encode(w) for w in tab])).encode())
    assert h.hexdigest() == "c530c11c04a451a2131d26778146be4e9b4be8757984fe57a2be535df65a2c1d"


def test_tower_context_is_freed_without_the_collector():
    # the tower arithmetic lives on the class, so dropping a tower context
    # frees it by reference counting alone
    gc.disable()
    try:
        T = _tower(37, 2, 3, 11)
        assert isinstance(T, ExtField)
        a = T.random(random.Random(13))
        assert T.mul(a, T.inv(a)) == T.one
        assert T.sqrt(T.sqr(a)) in (a, T.neg(a))
        ref = weakref.ref(T)
        del T
        assert ref() is None
    finally:
        gc.enable()


def test_canonical_enumerations_leave_the_pair_caches_flat():
    # an orbit algebra keeps its embed and project tables on itself, so
    # canonical enumerations of many curves add nothing to the module-level
    # caches, which hold pairs of make_extension contexts only
    from trigonal.subgroups import enumerate_tractable
    from trigonal.survey import random_curve

    rng = random.Random(60)
    p = 10**6 + 3
    enumerate_tractable(random_curve(p, rng))
    sizes = (len(fields._embed_cache), len(fields._project_cache))
    projected = 0
    for _ in range(200):
        for S in enumerate_tractable(random_curve(p, rng)):
            projected += sum(k > 1 for k in S.field_degrees())
    assert projected > 50
    assert (len(fields._embed_cache), len(fields._project_cache)) == sizes


def test_algebra_tables_die_with_the_algebra():
    # F_37[x]/(h) for a random sextic h: the embed and project tables of
    # F_37^2 in it live on the algebra and go with it
    E2 = make_extension(37, 2)
    h = _irreducible_over(prime_field(37), 6, random.Random(15))
    gc.disable()
    try:
        sizes = (len(fields._embed_cache), len(fields._project_cache))
        A = ExtField(prime_field(37), h)
        assert A.modulus != make_extension(37, 6).modulus
        a = E2.random(random.Random(14))
        assert project(embed(a, E2, A), A, E2) == a
        assert len(A._pair_tables) == 2  # one embed table, one project table
        assert (len(fields._embed_cache), len(fields._project_cache)) == sizes
        ref = weakref.ref(A)
        del A
        assert ref() is None
    finally:
        gc.enable()


# --- packed arithmetic against the schoolbook tuple reference ------------------

_PACKED_FIELDS = [(37, 2), (37, 3), (5, 24), (_P30, 4), (_P30, 6), (_P30, 8), (_P160, 4), (_P160, 8)]
# packed contexts, then towers over a packed base
_ORACLE_CONTEXTS = [make_extension(p, k) for p, k in _PACKED_FIELDS] + [
    _tower(37, 2, 3, 21),
    _tower(53, 3, 2, 22),
    _tower(_P30, 2, 2, 23),
]


def _operands(K, rng, n=8):
    """zero, one, the all-(p - 1) element (every slot at its worst case) and random draws."""
    B = K.base
    top = B.from_coeffs([B.p - 1] * B.deg) if B.k > 1 else B.p - 1
    return [K.zero, K.one, K.from_coeffs([top] * K.deg), K.neg(K.one)] + [K.random(rng) for _ in range(n)]


@pytest.mark.parametrize("K", _ORACLE_CONTEXTS, ids=_context_id)
def test_arithmetic_matches_the_schoolbook_reference(K):
    from oracles import as_tuple, schoolbook_of

    R = schoolbook_of(K)
    rng = random.Random(K.order % 10007)
    xs = _operands(K, rng)
    for a in xs:
        ta = as_tuple(K, a)
        assert as_tuple(K, K.neg(a)) == R.neg(ta)
        for b in xs:
            tb = as_tuple(K, b)
            assert as_tuple(K, K.add(a, b)) == R.add(ta, tb)
            assert as_tuple(K, K.sub(a, b)) == R.sub(ta, tb)
            assert as_tuple(K, K.mul(a, b)) == R.mul(ta, tb)
        if a != K.zero:
            assert R.mul(ta, as_tuple(K, K.inv(a))) == R.one
    with pytest.raises(ZeroDivisionError):
        K.inv(K.zero)


@pytest.mark.parametrize("K", _ORACLE_CONTEXTS, ids=_context_id)
def test_frobenius_power_matches_the_schoolbook_reference(K):
    from oracles import as_tuple, schoolbook_of

    R = schoolbook_of(K)
    rng = random.Random(K.order % 10009)
    for a in _operands(K, rng, n=2)[2:]:
        for j in sorted({1, K.k - 1}):
            assert as_tuple(K, K.frobenius_power(a, j)) == R.pow(as_tuple(K, a), K.p**j)


@pytest.mark.parametrize("K", _ORACLE_CONTEXTS, ids=_context_id)
def test_encodings_and_coefficients_round_trip(K):
    B = K.base
    rng = random.Random(K.order % 10037)
    for a in _operands(K, rng):
        cs = K.coeffs(a)
        assert len(cs) == K.deg
        assert K.encode(a) == sum(B.encode(c) * B.order**i for i, c in enumerate(cs))
        assert K.decode(K.encode(a)) == a
        assert K.from_coeffs(cs) == a
    for _ in range(8):
        cs = tuple(B.random(rng) for _ in range(K.deg))
        assert K.coeffs(K.from_coeffs(cs)) == cs
        assert K.from_coeffs(cs[:1]) == K.from_coeffs(cs[:1] + (B.zero,) * (K.deg - 1))
    with pytest.raises(ContextMismatch):
        K.from_coeffs((B.one,) * (K.deg + 1))


def _fold_contexts():
    """Rings over F_p with a seeded dense monic modulus, and make_extension's, at k = 1, 2, 3, 8."""
    for p in (37, _P30, _P160):
        rng = random.Random(p % 1009)
        for k in (1, 2, 3, 8):
            yield pytest.param(ExtField(prime_field(p), [rng.randrange(p) for _ in range(k)] + [1]), id=f"dense-{p}-{k}")
            if k > 1:
                yield pytest.param(make_extension(p, k), id=f"ext-{p}-{k}")


@pytest.mark.parametrize("K", list(_fold_contexts()))
def test_fold_rows_match_the_cascade_fold(K):
    # each high slot folded by its precomputed row x^(deg + j), against the
    # cascade that folds the slots one below the other from the top down
    from oracles import cascade_fold, cascade_pow

    rng = random.Random(K.order % 10039)
    xs = _operands(K, rng)
    for a in xs:
        for b in xs:
            assert K.mul(a, b) == cascade_fold(K, a * b)
    # the largest raw sums polyring folds at once: _lazy raw products plus an element
    top = xs[2]
    sums = [top + K._lazy * top * top]
    sums += [rng.choice(xs) + sum(a * b for a, b in zip(rng.choices(xs, k=K._lazy), rng.choices(xs, k=K._lazy))) for _ in range(4)]
    for c in sums:
        assert K._fold(c) == cascade_fold(K, c)
    for n in (1, 2, 3, K.p - 1, K.p, K.p**K.deg, rng.randrange(1, K.order)):
        assert K.pow(K.x, n) == cascade_pow(K, K.x, n)


def _odd_sqrt_contexts():
    for p in (37, _P30, _P160):
        yield from (make_extension(p, k) for k in (3, 5))
    yield from (_tower(37, 2, degree, 40 + degree) for degree in (3, 5))


@pytest.mark.parametrize("K", list(_odd_sqrt_contexts()), ids=_context_id)
def test_odd_degree_sqrt_matches_the_single_power(K):
    # a^((T + 1) / 2), T = (Q^d - 1) / (Q - 1), through Frobenius maps
    # against the one power of (d - 1) log Q bits it replaces
    B, rng = K.base, random.Random(K.order % 10061)
    t = (K.order - 1) // (B.order - 1)
    draws = [K.random(rng) for _ in range(6)]
    for a in [K.one, K.nonresidue()] + draws + [K.mul(b, b) for b in draws]:
        n = B.sqrt(K.norm(a))
        want = None if n is None else K._canonical(K.scalar_mul(K.pow(a, (t + 1) // 2), B.inv(n)))
        assert K.sqrt(a) == want


def test_project_into_a_field_that_does_not_embed_is_a_context_mismatch():
    # as embed raises for the same pair
    E2, E3 = make_extension(37, 2), make_extension(37, 3)
    for a, big, small in [(5, prime_field(37), E2), (E3.one, E3, E2), (E2.one, E2, make_extension(41, 2))]:
        with pytest.raises(ContextMismatch):
            embed(small.one, small, big)
        with pytest.raises(ContextMismatch):
            project(a, big, small)


@pytest.mark.parametrize(
    "p, k1, k2", [(37, 1, 2), (37, 1, 3), (37, 2, 6), (5, 12, 24), (_P30, 4, 8), (_P160, 4, 8)], ids=lambda v: str(v)[:6]
)
def test_embed_and_project_match_the_schoolbook_reference(p, k1, k2):
    from oracles import as_tuple, schoolbook_of

    src, dst = make_extension(p, k1), make_extension(p, k2)
    R = schoolbook_of(dst)
    rng = random.Random(p * k2 + k1)
    if k1 == 1:
        for c in (0, 1, p - 1, rng.randrange(p)):
            assert embed(c, src, dst) == c and as_tuple(dst, c) == (c,) + (0,) * (k2 - 1)
            assert project(c, dst, src) == c
        assert project(dst.from_coeffs((0, 1)), dst, src) is None
        return
    root = as_tuple(dst, fields._root_powers(src, dst)[1])
    # the root is a root of src.modulus under the reference arithmetic
    acc = R.zero
    for c in reversed(src.modulus):
        acc = R.add(R.mul(acc, root), (c,) + R.zero[1:])
    assert acc == R.zero
    for a in _operands(src, rng):
        want = R.zero
        for c in reversed(src.coeffs(a)):
            want = R.add(R.mul(want, root), (c,) + R.zero[1:])
        ea = embed(a, src, dst)
        assert as_tuple(dst, ea) == want
        assert project(ea, dst, src) == a
    assert project(dst.from_coeffs((0, 1)), dst, src) is None


# --- two-level packed rings over F_{p^m} against the schoolbook reference ------


def _moduli_over(K, d, rng):
    """Monic moduli of degree d over K: irreducible (d <= 8), reducible, with a repeated factor, and every slot p - 1."""

    def rand(n):
        return Poly(K, [K.random(rng) for _ in range(n)] + [K.one])

    lin = rand(1)
    out = [rand(1) * rand(d - 1), lin * lin * rand(d - 2), Poly(K, [_operands(K, rng, 0)[2]] * d + [K.one])]
    if d <= 8:
        out.insert(0, Poly(K, _irreducible_over(K, d, rng)))
    return [m.c for m in out]


# (p, m, d): the ring F_{p^m}[x]/(modulus of degree d); d = 8 is the
# longest modulus multiplied as one int product, d = 9 multiplies as Polys
# and d = 17 also splits its Frobenius map
_TWO_LEVEL = [(37, 2, 2), (37, 2, 3), (37, 2, 8), (37, 2, 9), (37, 2, 17), (_P30, 4, 4), (_P160, 4, 4)]


@pytest.mark.parametrize("p, m, d", _TWO_LEVEL, ids=lambda v: str(v)[:6])
def test_two_level_ring_matches_the_schoolbook_reference(p, m, d):
    from oracles import as_tuple, schoolbook_of

    K = make_extension(p, m)
    rng = random.Random(p % 1000 + 10 * m + d)
    for mod in _moduli_over(K, d, rng):
        A = ExtField(K, mod)
        R = schoolbook_of(A)
        xs = _operands(A, rng, n=2)
        for a in xs:
            ta = as_tuple(A, a)
            assert as_tuple(A, A.neg(a)) == R.neg(ta)
            for b in xs:
                tb = as_tuple(A, b)
                assert as_tuple(A, A.add(a, b)) == R.add(ta, tb)
                assert as_tuple(A, A.sub(a, b)) == R.sub(ta, tb)
                assert as_tuple(A, A.mul(a, b)) == R.mul(ta, tb)
            c = _operands(K, rng, 0)[2]
            assert as_tuple(A, A.scalar_mul(a, c)) == R.mul(ta, as_tuple(A, A.from_coeffs((c,))))
            assert A.decode(A.encode(a)) == a and A.from_coeffs(A.coeffs(a)) == a
        # x^q for q = |K|, the q-power map, and the p-power map
        assert as_tuple(A, A.xq()) == R.pow(as_tuple(A, A.x), K.order)
        a = xs[2]
        assert as_tuple(A, A.frobenius_power(a, m)) == R.pow(as_tuple(A, a), K.order)
        assert as_tuple(A, A.frobenius_power(a, 1)) == R.pow(as_tuple(A, a), p)


@pytest.mark.parametrize("p, s, m, d", [(37, 1, 2, 2), (37, 1, 2, 3), (37, 1, 6, 3), (37, 2, 4, 2), (_P30, 2, 4, 4)], ids=lambda v: str(v)[:6])
def test_twisted_frobenius_of_split_root_matches_the_schoolbook_reference(p, s, m, d):
    # split_root's ring: F_{p^m}[x]/(poly) for poly over the subfield
    # F_{p^s}, seeded with x^(p^s) mod poly taken over the subfield; its
    # q-power map applies the p^s-power Frobenius of F_{p^m} to every
    # coefficient
    from oracles import as_tuple, schoolbook_of
    from trigonal.polyring import _conjugate_product, _quotient

    F, K = make_extension(p, s), make_extension(p, m)
    rng = random.Random(p % 1000 + 100 * s + 10 * m + d)
    for poly in (Poly(F, _irreducible_over(F, d, rng)), Poly(F, [F.random(rng) for _ in range(d)] + [F.one])):
        Fq = _quotient(poly)
        A = ExtField(K, fields.embed_poly(poly, F, K).c, [embed(c, F, K) for c in Fq.coeffs(Fq.xq())], s)
        R = schoolbook_of(A)
        q = p**s
        for a in _operands(A, rng, n=2)[2:]:
            ta = as_tuple(A, a)
            assert as_tuple(A, A.frobenius_power(a, s)) == R.pow(ta, q)
            e = (q - 1) // 2
            n = m // s
            got = _conjugate_product(A, a, e, n, s)
            assert as_tuple(A, got) == R.pow(ta, sum(e * q**i for i in range(n)))


def _xpath_rings():
    """Flat rings and towers over F_37^2, F_37^3 and a 30-bit F_p^2 at degrees 2 to 8, the fold rows at their worst.

    A tower's modulus has every slot of every low coefficient at 1, so its
    first row -modulus has every slot at p - 1, or at p - 1 itself.  A
    degree-9 tower is a _LongTowerField.
    """
    for p, k in ((37, 3), (_P30, 4), (_P160, 8)):
        yield pytest.param(make_extension(p, k), id=f"flat-{p}-{k}")
    for p, m in ((37, 2), (37, 3), (_P30, 2)):
        K = make_extension(p, m)
        ones = K.from_coeffs([1] * m)
        for d in range(2, 10 if (p, m) == (37, 2) else 9):
            for c in (ones, K.neg(ones)):
                yield pytest.param(ExtField(K, [c] * d + [K.one]), id=f"tower-{p}-{m}-{d}-{K.encode(c)}")


@pytest.mark.parametrize("A", list(_xpath_rings()))
def test_x_powers_match_square_and_multiply_and_pow_mod(A):
    # pow on x shifts each square up one coefficient (a slot, or a block in a
    # tower) and folds its top one by x^(2 deg - 1): against the ring's own
    # product alone, Poly.pow_mod over the base, and the schoolbook x^q
    from oracles import as_tuple, schoolbook_of, square_and_multiply

    B = A.base
    assert A._xpath == (B.k == 1 or 2 * A.deg <= fields._ACC)
    modulus = Poly(B, A.modulus)
    rng = random.Random(A.order % 10069)
    for n in (1, 2, 3, A.p - 1, A.p, B.order - 1, B.order, B.order**2 + 1, 2**40 - 1, rng.randrange(1, A.order)):
        want = square_and_multiply(A, A.x, n)
        assert A.pow(A.x, n) == want
        assert Poly.x(B).pow_mod(n, modulus) == Poly(B, A.coeffs(want))
    R = schoolbook_of(A)
    assert as_tuple(A, A.xq()) == R.pow(as_tuple(A, A.x), B.order)
    if not A._xpath:
        with pytest.raises(ContextMismatch):
            A._xsquare(A.x)
        return
    # one step on the all-(p - 1) element, every slot of the square at its largest
    top = _operands(A, rng, 0)[2]
    assert A._xsquare(top) == A.mul(A.mul(top, top), A.x)
    assert as_tuple(A, A._xsquare(top)) == R.mul(R.mul(as_tuple(A, top), as_tuple(A, top)), as_tuple(A, A.x))


def _spy_on_the_irreducibility_test(monkeypatch, answer):
    """The candidates make_extension tests, each answered by answer(f, p)."""
    tried = []

    def spy(f, p):
        tried.append(list(f))
        return answer(f, p)

    monkeypatch.setattr(fields, "_irreducible_mod_p", spy)
    monkeypatch.setattr(fields, "_ext_cache", {})
    return tried


def test_the_modulus_search_gives_up_past_its_cap(monkeypatch):
    # a fault under the irreducibility test once made make_extension search
    # for ever at 160 bits; every candidate now failing ends it in TooLarge
    tried = _spy_on_the_irreducibility_test(monkeypatch, lambda f, p: False)
    with pytest.raises(TooLarge):
        make_extension(_P160, 8)
    assert 0 < len(tried) <= fields._SEARCH_CAP


@pytest.mark.parametrize("p", [65521, 65537])
def test_the_modulus_search_cap_covers_a_full_row_below_2_16(p, monkeypatch):
    # below 2^16 the cap covers the binomials and the whole row x^2 + x + b;
    # above it, _SEARCH_CAP candidates alone
    tried = _spy_on_the_irreducibility_test(monkeypatch, lambda f, p: False)
    with pytest.raises(TooLarge):
        make_extension(p, 2)
    if p < 2**16:
        assert len(tried) <= fields._SEARCH_CAP + 2 * p
        assert sum(f[1] == 1 for f in tried) == p
    else:
        assert len(tried) <= fields._SEARCH_CAP


@pytest.mark.parametrize("p, k, tests, modulus", [(67, 24, 4430, (7, 0, 1)), (2437, 22, 2450, (12, 2, 0))])
def test_the_longest_measured_modulus_searches_end_inside_the_cap(p, k, tests, modulus, monkeypatch):
    # p = 67, k = 24: the most candidates any p < 10^4 needs; p = 2437, k = 22:
    # no x^22 + x + b is irreducible, so the whole row is tried
    tried = _spy_on_the_irreducibility_test(monkeypatch, fields._irreducible_mod_p)
    K = make_extension(p, k)
    assert K.modulus[:3] == modulus and K.modulus[3:] == (0,) * (k - 3) + (1,)
    assert len(tried) == tests <= fields._SEARCH_CAP
    assert sum(f[1] == 1 and not any(f[2:-1]) for f in tried) == p


# every (p, k) Tier-1 builds with make_extension, and the SHA-256 of the
# list of their (p, k, modulus), recorded while Rabin's test chose them
_TIER1_EXTENSIONS = {
    5: (2, 3, 4, 5, 6, 12, 24),
    7: (2, 3, 4),
    11: (2, 3, 4),
    13: (2, 3, 4),
    37: (2, 3, 4, 5, 6, 8, 9, 12, 24),
    41: (2, 3),
    43: (2, 3),
    47: (2, 3),
    53: (2, 3, 4, 6, 8, 12),
    67: (24,),
    101: (2, 3, 4, 5, 6, 7, 8, 10, 12, 15),
    1009: (2, 3, 4, 6, 7, 8, 15),
    2437: (22,),
    65521: (2,),
    65537: (2,),
    1000003: (2, 3, 4),
    _P30: (2, 3, 4, 5, 6, 8),
    2**61 - 1: (2, 3, 4),
    17852487187150343363: (2, 3, 4, 6, 8),  # survey.deterministic_prime(64, 0)
    _P160: (2, 3, 4, 5, 6, 8),
}
_TIER1_MODULI_SHA256 = "c75016dc03bfb184d697198df2aa4849f25c27fb2c8ab08ad707d533da7c9a9c"


def test_the_lex_min_moduli_tier1_builds_are_frozen():
    # Ben-Or's test must pick the moduli Rabin's picked: every encoding over
    # an extension depends on them
    got = [(p, k, make_extension(p, k).modulus) for p, ks in sorted(_TIER1_EXTENSIONS.items()) for k in ks]
    assert len(got) == 81
    assert hashlib.sha256(repr(got).encode()).hexdigest() == _TIER1_MODULI_SHA256


@pytest.mark.parametrize("p, k", [(5, 4), (5, 5), (7, 3), (11, 2)])
def test_the_irreducibility_test_counts_gauss_formula(p, k):
    # monic irreducibles of degree k over F_p: (1/k) sum over d | k of mu(d) p^(k/d)
    mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1}
    want = sum(mu[d] * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
    polys = ([n // p**i % p for i in range(k)] + [1] for n in range(p**k))
    assert sum(fields._irreducible_mod_p(f, p) for f in polys) == want


def test_no_tower_over_a_tower():
    T = _tower(37, 2, 2, 31)
    with pytest.raises(ContextMismatch):
        ExtField(T, (T.one, T.zero, T.one))
