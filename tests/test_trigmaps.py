"""Trigonal maps: Plucker geometry, the chord matrix, rationality, normal forms."""

import random

import pytest

from conftest import constructions, run_under
from ex37 import EX37_D, EX37_N
from oracles import chord_rows_full_expansion
from trigonal.curves import Mobius
from trigonal.errors import DegenerateConfiguration, DegeneratePair, NotRational
from trigonal.fields import make_extension, prime_field
from trigonal.polyring import BinaryForm
from trigonal.subgroups import TractableSubgroup, enumerate_tractable
from trigonal.trigmaps import (
    TrigonalMap,
    build_M,
    kernel_basis,
    plucker_form,
    plucker_of_pair,
    rationality_discriminant,
    hyperplane_row,
    trigonal_map_for,
    verify_trigonal,
    _pencil_roots,
    _try_build,
)


def test_plucker_examples():
    F37 = prime_field(37)
    uv = BinaryForm.from_ints(F37, 2, [0, 1, 0])
    assert plucker_of_pair(uv) == (0, 0, 1, 0, 0, 0)
    q = BinaryForm.from_ints(F37, 2, [2, -3, 1])  # u^2 - 3uv + 2v^2
    v = plucker_of_pair(q)
    assert v == (4, 6, 7, 1, 37 - 3, 2)
    assert plucker_form(F37, v) == 0


def test_plucker_always_on_quadric():
    rng = random.Random(31)
    E = make_extension(101, 2)
    for _ in range(50):
        a, b, c = (E.random(rng) for _ in range(3))
        disc = E.sub(E.sqr(b), E.mul(E.from_int(4), E.mul(a, c)))
        if disc == E.zero:
            continue
        v = plucker_of_pair(BinaryForm(E, 2, (c, b, a)))
        assert plucker_form(E, v) == E.zero


def test_plucker_degenerate_pair_rejected():
    F37 = prime_field(37)
    with pytest.raises(DegeneratePair):
        plucker_of_pair(BinaryForm.from_ints(F37, 2, [1, 2, 1]))  # (u + v)^2


@pytest.mark.parametrize("p, k", [(37, 1), (37, 2), (37, 3), (1000003, 1), (101, 4)])
def test_hyperplane_rows_of_seeded_quadratics_unchanged(p, k):
    # the row from six shared products against (a^2, ab, ac, c^2, -cb, b^2 - ac) with its
    # discriminant b^2 - 4ac taken apart; a double root still raises DegeneratePair
    E = make_extension(p, k)
    rng = random.Random(p * k)
    for i in range(60):
        a, b, c = (E.random(rng) for _ in range(3))
        if i % 10 == 0 and E.is_square(E.mul(a, c)):
            b = E.mul(E.from_int(2), E.sqrt(E.mul(a, c)))  # b^2 = 4ac
        quad = BinaryForm(E, 2, (c, b, a))
        if E.sub(E.sqr(b), E.mul(E.from_int(4), E.mul(a, c))) == E.zero:
            with pytest.raises(DegeneratePair):
                hyperplane_row(quad)
            continue
        want = (E.sqr(a), E.mul(a, b), E.mul(a, c), E.sqr(c), E.neg(E.mul(c, b)), E.sub(E.sqr(b), E.mul(a, c)))
        assert hyperplane_row(quad) == want


def test_build_M_worked_example(ex37_curve, ex37_subgroup, F37):
    M = build_M(ex37_subgroup, ex37_curve)
    assert len(M) == 4
    alpha, beta = kernel_basis(M, F37)
    # kernel vectors really annihilate M
    for row in M:
        for v in (alpha, beta):
            assert sum(r * x for r, x in zip(row, v)) % 37 == 0
    # the solved pencil roots land on the Plucker quadric (lines meeting all four chords)
    for mu, lam in _pencil_roots(F37, alpha, beta):
        pt = tuple(F37.add(F37.mul(mu, a), F37.mul(lam, b)) for a, b in zip(alpha, beta))
        assert plucker_form(F37, pt) == 0
        for row in M:
            assert sum(r * x for r, x in zip(row, pt)) % 37 == 0


def test_build_M_order_invariant(ex37_curve, ex37_subgroup, F37):
    # permuting the quadratics leaves the kernel unchanged
    quads = list(ex37_subgroup.quads)
    perm = TractableSubgroup(tuple(quads[::-1]))
    M1 = build_M(ex37_subgroup, ex37_curve)
    M2 = build_M(perm, ex37_curve)
    assert M1 == M2  # both reduced to RREF


def test_rationality_discriminant_worked_example(ex37_curve, ex37_subgroup, F37):
    alpha, beta = kernel_basis(build_M(ex37_subgroup, ex37_curve), F37)
    d = rationality_discriminant(F37, alpha, beta)
    assert F37.is_square(d)


def test_discriminant_basis_change_invariance(ex37_curve, ex37_subgroup, F37):
    alpha, beta = kernel_basis(build_M(ex37_subgroup, ex37_curve), F37)
    rng = random.Random(33)
    d0 = rationality_discriminant(F37, alpha, beta)
    for _ in range(10):
        a, b, c, d = (F37.random(rng) for _ in range(4))
        if F37.sub(F37.mul(a, d), F37.mul(b, c)) == 0:
            continue
        a2 = tuple(F37.add(F37.mul(a, x), F37.mul(b, y)) for x, y in zip(alpha, beta))
        b2 = tuple(F37.add(F37.mul(c, x), F37.mul(d, y)) for x, y in zip(alpha, beta))
        d2 = rationality_discriminant(F37, a2, b2)
        assert F37.is_square(d2) == F37.is_square(d0)


def test_discriminant_perfect_square_case(F37):
    # alpha with sum alpha_i alpha_{i+3} = 0 makes the discriminant a visible square
    alpha = (1, 0, 0, 0, 5, 7)  # 2*(a0 a3 + a1 a4 + a2 a5) = 0
    beta = (2, 3, 4, 5, 6, 7)
    d = rationality_discriminant(F37, alpha, beta)
    s = sum(alpha[i] * beta[(i + 3) % 6] for i in range(6)) % 37
    assert d == s * s % 37
    assert F37.is_square(d)


def test_ex37_map_is_produced_and_verifies(ex37_map, ex37_subgroup):
    assert ex37_map.coeffs() == (EX37_N[0], EX37_N[1], EX37_D[0], EX37_D[1])
    assert verify_trigonal(ex37_map, ex37_subgroup)


def test_reference_nd_passes_verification(ex37_curve, ex37_subgroup, F37):
    g = TrigonalMap(
        F37, EX37_N[0], EX37_N[1], EX37_D[0], EX37_D[1],
        ex37_curve, ex37_subgroup, Mobius.identity(F37), ex37_curve,
    )
    assert verify_trigonal(g, ex37_subgroup)


def test_wrong_map_fails_verification(ex37_map, ex37_subgroup, F37):
    bad = TrigonalMap(
        F37, ex37_map.n1, F37.add(ex37_map.n0, F37.one), ex37_map.d1, ex37_map.d0,
        ex37_map.curve, ex37_subgroup, Mobius.identity(F37), ex37_map.curve,
    )
    assert not verify_trigonal(bad, ex37_subgroup)


def _pencil_maps(g):
    """The maps built from each root of g's pencil that does not degenerate."""
    alpha, beta = kernel_basis(build_M(g.subgroup, g.curve), g.field)
    maps = []
    for root in _pencil_roots(g.field, alpha, beta):
        try:
            maps.append(_try_build(g.field, alpha, beta, root, g.curve, g.subgroup))
        except DegenerateConfiguration:
            pass
    return maps


def test_both_pencil_roots_give_maps(ex37_map, ex37_subgroup):
    coeffs = [m.coeffs() for m in _pencil_maps(ex37_map) if verify_trigonal(m, ex37_subgroup)]
    assert len(coeffs) == 2 and coeffs[0] != coeffs[1] and ex37_map.coeffs() in coeffs


def test_both_roots_on_random_constructions():
    rng = random.Random(34)
    for H, S, g, fib in constructions(101, 10, rng):
        assert verify_trigonal(g, S)
        maps = _pencil_maps(g)
        assert all(verify_trigonal(m, g.subgroup) for m in maps)
        assert g.coeffs() in [m.coeffs() for m in maps]


def test_not_rational_raised_on_nonsquare_disc():
    rng = random.Random(35)
    from trigonal.survey import random_curve

    hits = 0
    while hits < 5:
        H = random_curve(101, rng)
        F101 = H.field
        for S in enumerate_tractable(H):
            from trigonal.errors import DegenerateConfiguration

            try:
                alpha, beta = kernel_basis(build_M(S, H), F101)
            except DegenerateConfiguration:
                continue
            d = rationality_discriminant(F101, alpha, beta)
            if not F101.is_square(d):
                with pytest.raises(NotRational):
                    trigonal_map_for(S, H)
                hits += 1


def test_verify_symmetric_under_pair_swap(ex37_map, ex37_subgroup):
    # the condition g(W') = g(W'') does not depend on which root is called W'
    # (the root-free criterion never orders the roots; permuting quadratics
    # and rescaling them must not change the verdict)
    F37 = ex37_map.field
    quads = [q.scale(q.field.from_int(3)) for q in ex37_subgroup.quads]
    S2 = TractableSubgroup(tuple(quads[::-1]))
    assert verify_trigonal(ex37_map, S2)


def test_map_shape_invariants():
    rng = random.Random(36)
    for H, S, g, fib in constructions(101, 8, rng):
        # N monic cubic with no x^2 term; D monic quadratic; coprime
        assert g.N.degree == 3 and g.N.lc == g.field.one and g.N[2] == g.field.zero
        assert g.D.degree == 2 and g.D.lc == g.field.one
        from trigonal.polyring import gcd

        assert gcd(g.N, g.D).degree == 0


def test_build_M_over_an_extension_survives_python_O():
    # the prime-field check raises ContextMismatch, not an assert
    code = """
from ex37 import EX37_F
from trigonal.curves import HCurve
from trigonal.errors import ContextMismatch
from trigonal.fields import make_extension
from trigonal.trigmaps import build_M
try:
    build_M(None, HCurve.from_coeffs(make_extension(37, 2), EX37_F))
except ContextMismatch:
    print("ok")
"""
    out = run_under(["-O"], code)
    assert out.stdout.split() == ["ok"], out.stderr


# --- the chord matrix against the full expansion ------------------------------

# the first trial of survey30's pass (master seed 20080514 at the 30-bit
# prime, trials 0..999) for each field-degree shape the pass meets: these
# nine are all of them
_SURVEY30_SHAPES = {
    (8, 8, 8, 8): 0,
    (1, 6, 6, 6): 1,
    (1, 1, 4, 4): 12,
    (2, 2, 4, 4): 20,
    (1, 3, 3, 3): 35,
    (1, 1, 1, 1): 51,
    (1, 1, 2, 2): 51,
    (2, 2, 2, 2): 58,
    (4, 4, 4, 4): 146,
}


def _survey30_subgroups():
    """[(S, H)] over the trials of _SURVEY30_SHAPES, in the orbit algebras as the survey builds them."""
    from trigonal.survey import deterministic_prime, random_curve, trial_rng

    p = deterministic_prime(30, 0)
    out = []
    for i in sorted(set(_SURVEY30_SHAPES.values())):
        H = random_curve(p, trial_rng(20080514, i))
        out += [(S, H) for S in enumerate_tractable(H, fast=True)]
    return out


def _chord_outcome(S, H):
    """build_M's matrix, or None when it raises DegenerateConfiguration."""
    try:
        return build_M(S, H)
    except DegenerateConfiguration:
        return None


def test_build_M_matches_the_full_expansion_on_every_survey30_shape():
    pairs = _survey30_subgroups()
    assert {S.field_degrees() for S, _ in pairs} == set(_SURVEY30_SHAPES)
    for S, H in pairs:
        for T in (S, S.canonical()):
            want = chord_rows_full_expansion(T, H)
            assert len(want) == 4
            assert _chord_outcome(T, H) == want, T


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_build_M_raises_exactly_when_the_full_expansion_has_another_rank(p):
    # small primes make rank-3 configurations (shapes (4,4,4,4), (1,1,2,2),
    # (1,3,3,3) and (1,6,6,6) among these curves)
    from trigonal.survey import random_curve

    rng = random.Random(p)
    degenerate = 0
    for _ in range(60):
        H = random_curve(p, rng)
        for S in enumerate_tractable(H, fast=True) + enumerate_tractable(H):
            want = chord_rows_full_expansion(S, H)
            got = _chord_outcome(S, H)
            if len(want) == 4:
                assert got == want, S
            else:
                assert got is None, S
                degenerate += 1
    assert degenerate > 0


def _random_quad(K, rng):
    """A monic quadratic over K with two distinct roots."""
    while True:
        b, c = K.random(rng), K.random(rng)
        if K.sub(K.sqr(b), K.mul(K.from_int(4), c)) != K.zero:
            return BinaryForm(K, 2, (c, b, K.one))


def test_build_M_rejects_a_subgroup_that_is_not_galois_stable():
    # hand-made quadratics whose expanded rows have rank above 4: the rank
    # passes 4 inside one quadratic's rows, or a quadratic after rank 4 leaves
    # a remainder, or one quadratic of a real subgroup is swapped for another
    # in its algebra
    from trigonal.survey import random_curve

    rng = random.Random(91)
    F = prime_field(101)
    H = random_curve(101, rng)
    K2, K4 = make_extension(101, 2), make_extension(101, 4)
    made = [
        TractableSubgroup.from_quads([_random_quad(K2, rng) for _ in range(4)]),
        TractableSubgroup.from_quads([_random_quad(F, rng) for _ in range(3)] + [_random_quad(K4, rng)]),
        TractableSubgroup.from_quads([_random_quad(F, rng), _random_quad(F, rng), _random_quad(K2, rng), _random_quad(K2, rng)]),
    ]
    cases = [(S, H) for S in made]
    for S, H30 in _survey30_subgroups():
        if S.field_degrees() in ((8, 8, 8, 8), (4, 4, 4, 4), (1, 6, 6, 6)):
            quads = list(S.quads)
            quads[-1] = _random_quad(quads[-1].field, rng)
            cases.append((TractableSubgroup.from_quads(quads), H30))
    for S, H in cases:
        assert len(chord_rows_full_expansion(S, H)) > 4, S
        with pytest.raises(DegenerateConfiguration):
            build_M(S, H)


def test_build_M_reduces_at_most_4_plus_the_largest_degree_rows_at_once(monkeypatch):
    # op count, no wall clock: a quadratic's rows are expanded only while the
    # rank is below 4, and each _rref call then holds the basis (at most 3
    # rows) and one quadratic's expansion; expanding every quadratic instead
    # hands _rref 32 rows for an (8, 8, 8, 8) subgroup
    from trigonal import trigmaps

    calls = []
    rref = trigmaps._rref

    def counting_rref(rows, field):
        rows = list(rows)
        calls.append(len(rows))
        return rref(rows, field)

    monkeypatch.setattr(trigmaps, "_rref", counting_rref)
    for S, H in _survey30_subgroups():
        del calls[:]
        build_M(S, H)
        assert calls and max(calls) <= 4 + max(S.field_degrees()), (S.field_degrees(), calls)


@pytest.mark.parametrize("bits", [None, 30, 160])
def test_map_from_root_matches_row_reduction(bits):
    # seeded pencils: their quadric points, points off the quadric, and
    # pencils whose every point has v3 = 0
    from oracles import map_from_line_by_rref
    from trigonal.survey import deterministic_prime
    from trigonal.trigmaps import _map_from_root

    field = prime_field(37 if bits is None else deterministic_prime(bits, 0))
    rng = random.Random(bits)
    seen = {"map": 0, "v3 = 0": 0, "off the quadric": 0}
    for trial in range(120):
        alpha, beta = ([field.random(rng) for _ in range(6)] for _ in range(2))
        if trial % 4 == 0:
            alpha[3] = beta[3] = field.zero
        try:
            roots = _pencil_roots(field, alpha, beta)
        except (NotRational, DegenerateConfiguration):
            roots = []
        for mu, lam in roots + [(field.random(rng), field.random(rng))]:
            v = [field.add(field.mul(mu, a), field.mul(lam, b)) for a, b in zip(alpha, beta)]
            want = map_from_line_by_rref(field, v)
            if want is None:
                with pytest.raises(DegenerateConfiguration):
                    _map_from_root(field, alpha, beta, (mu, lam))
                seen["v3 = 0" if v[3] == field.zero else "off the quadric"] += 1
            else:
                assert _map_from_root(field, alpha, beta, (mu, lam)) == want
                seen["map"] += 1
    assert min(seen.values()) >= 10, seen
