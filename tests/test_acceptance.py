"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The survey criterion honors TRIGONAL_THREADS.
"""

import json
import random
import time
from fractions import Fraction

from conftest import constructions, curve_with_pattern
from oracles import brute_force_tractable
from ex37 import (
    EX37_D,
    EX37_DELTA0,
    EX37_DELTA1,
    EX37_DELTA2,
    EX37_DELTA4,
    EX37_DLP_MULTIPLIER,
    EX37_F,
    EX37_G,
    EX37_L,
    EX37_N,
    EX37_X_ROWS,
)
from trigonal.construction import (
    build_correspondence,
    build_fibration,
    build_plane_model,
    build_X,
    isogeny_is_rational,
)
from trigonal.curves import (
    Mobius,
    OddModel,
    cantor_add,
    cantor_mul,
    class_from_points,
    l_polynomial,
    random_class,
    two_torsion_from_pair,
)
from trigonal.errors import DegenerateConfiguration, NotRational
from trigonal.evaluation import (
    consensus_sign,
    fiber_points,
    phi_on_class,
    reverse_on_xdivisor,
    roundtrip,
)
from trigonal.fields import make_extension, prime_field
from trigonal.polyring import Poly, exact_square_root
from trigonal.subgroups import (
    PATTERN_COUNTS,
    count_for_pattern,
    enumerate_tractable,
    expectation,
    splitting_degree,
    subgroup_elements,
)
from trigonal.survey import SurveyConfig, deterministic_prime, run_survey
from trigonal.trigmaps import (
    TrigonalMap,
    build_M,
    kernel_basis,
    rationality_discriminant,
    trigonal_map_for,
    verify_trigonal,
)

# canonical encodings of the worked example's subgroup (modulus of F_{37^3} is x^3 + 2)
EX37_RATIONAL_QUAD = (20, 1, 0)
EX37_CONJUGATE_QUADS = {(3994, 829, 1), (21828, 1310, 1), (27674, 644, 1)}

SURVEY_PRIME = deterministic_prime(30, 0)  # 750175891
SURVEY_SEED = 20080514


def _report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_worked_example_enumeration(ex37_curve, tmp_path, capsys):
    from trigonal.cli import main as cli_main

    curve_path = tmp_path / "h37.json"
    curve_path.write_text(json.dumps({"p": "37", "f": [str(c) for c in EX37_F]}))
    t0 = time.time()
    code = cli_main(["analyze", "--curve", str(curve_path)])
    elapsed = time.time() - t0
    doc = json.loads(capsys.readouterr().out)
    ok = code == 0 and doc["num_tractable"] == 1
    subs = enumerate_tractable(ex37_curve)
    ok &= len(subs) == 1
    S = subs[0]
    keys = {(q.field.k, q.encode()) for q in S.quads}
    ok &= (1, EX37_RATIONAL_QUAD) in keys
    ok &= {enc for k, enc in keys if k == 3} == EX37_CONJUGATE_QUADS
    # reference fidelity: the uv-coefficients satisfy xi^3 + 29 xi^2 + 9 xi + 13 = 0
    # and the v^2-coefficient is xi^50100
    E3 = make_extension(37, 3)
    minpoly = Poly.from_ints(E3, [13, 9, 29, 1])
    for q in S.quads:
        if q.field.k == 3:
            ok &= minpoly.eval(q.c[1]) == E3.zero
            ok &= E3.pow(q.c[1], 50100) == q.c[0]
    ok &= elapsed < 1.0
    _report(1, ok, f"(analyze: 1 subgroup, canonical factors match, {elapsed:.3f}s)")


def test_criterion_2_trigonal_map(ex37_curve, ex37_subgroup, ex37_map, F37):
    ok = verify_trigonal(ex37_map, ex37_subgroup)
    reference_nd = TrigonalMap(
        F37, EX37_N[0], EX37_N[1], EX37_D[0], EX37_D[1],
        ex37_curve, ex37_subgroup, Mobius.identity(F37), ex37_curve,
    )
    ok &= verify_trigonal(reference_nd, ex37_subgroup)
    _report(2, ok, f"(constructed map {ex37_map.coeffs()}, reference (N, D) verified)")


def test_criterion_3_construction_worked_example(ex37_curve, ex37_subgroup, F37):
    g = TrigonalMap(
        F37, EX37_N[0], EX37_N[1], EX37_D[0], EX37_D[1],
        ex37_curve, ex37_subgroup, Mobius.identity(F37), ex37_curve,
    )
    fib = build_fibration(g, ex37_curve)
    ok = fib.g2.encode() == EX37_G["g2"]
    ok &= fib.g1.encode() == EX37_G["g1"]
    ok &= fib.g0.encode() == EX37_G["g0"]
    X = build_X(fib)
    for row, (want_coeffs, want_const) in zip(X.rows, EX37_X_ROWS):
        coeffs, const = row
        got = {var: pol.encode() for var, pol in coeffs.items() if not pol.is_zero}
        ok &= got == dict(want_coeffs)
        ok &= const.encode() == want_const
    plane = build_plane_model(fib)
    ok &= plane.delta0.encode() == EX37_DELTA0
    ok &= plane.delta2.encode() == EX37_DELTA2
    ok &= plane.delta4.encode() == EX37_DELTA4
    neg = tuple((37 - c) % 37 for c in EX37_DELTA1)
    ok &= plane.delta1.encode() in (EX37_DELTA1, neg)
    _report(3, ok, "(G, X equations, deltas exact; delta1 up to sign)")


def test_criterion_4_zeta_function(ex37_curve):
    t0 = time.time()
    L = l_polynomial(ex37_curve)
    elapsed = time.time() - t0
    ok = L == EX37_L and elapsed < 60
    _report(4, ok, f"(L = {L}, {elapsed:.1f}s)")


def test_criterion_5_dlp_relation_and_roundtrip(ex37_curve, ex37_model, ex37_R):
    t0 = time.time()
    D = class_from_points(ex37_model, [(10, 1, 28)], [(14, 1, 6)])
    Dp = class_from_points(ex37_model, [(19, 1, 28)], [(36, 1, 13)])
    ok = cantor_mul(D, EX37_DLP_MULTIPLIER) == Dp
    out = roundtrip(D, ex37_R, random.Random(5))
    ok &= out in ("+2", "-2")
    rng = random.Random(6)
    classes = [D] + [random_class(ex37_curve, 1, rng) for _ in range(20)]
    sign = consensus_sign(classes, ex37_R, random.Random(7))
    ok &= sign == out
    elapsed = time.time() - t0
    ok &= elapsed < 60
    _report(5, ok, f"(D' = [22359]D, consensus {sign} over 21 classes, {elapsed:.1f}s)")


def test_criterion_6_lemma1_table():
    t0 = time.time()
    F1009 = prime_field(1009)
    rng = random.Random(61)
    patterns = list(PATTERN_COUNTS.keys()) + [(7, 1), (5, 3), (3, 2, 2, 1)]
    lines = []
    ok = True
    for pattern in patterns:
        H = curve_with_pattern(F1009, pattern, rng)
        want = count_for_pattern(pattern)
        subs = enumerate_tractable(H)
        bf = brute_force_tractable(H)
        E = make_extension(1009, splitting_degree(H))
        same = {s.key_in(E) for s in subs} == {s.key_in(E) for s in bf}
        good = len(subs) == want and len(bf) == want and same
        ok &= good
        lines.append(f"{pattern}:{len(subs)}/{want}{'' if good else '!'}")
    elapsed = time.time() - t0
    ok &= elapsed < 300
    _report(6, ok, f"({'; '.join(lines)}; {elapsed:.0f}s)")


def test_criterion_7_expectation():
    e14 = expectation(Fraction(1, 4))
    e12 = expectation(Fraction(1, 2))
    ok = e14.decimal4 == "0.1857" and e12.decimal4 == "0.3113"
    ok &= 0 < e14.value < e12.value < 1
    _report(7, ok, f"(1/4 -> {e14.decimal4}, 1/2 -> {e12.decimal4}, exact rationals)")


def test_criterion_8_survey_desk_scale():
    t0 = time.time()
    cfg = SurveyConfig(p=SURVEY_PRIME, samples=20000, seed=SURVEY_SEED, depth="full")
    stats, _ = run_survey(cfg)
    elapsed = time.time() - t0
    sub = float(stats.subgroup_fraction())
    trig = float(stats.trig_fraction())
    isog = float(stats.isog_fraction())
    succ = float(stats.success_fraction())
    ok = abs(sub - 0.50) <= 0.02
    ok &= abs(trig - 0.50) <= 0.02
    ok &= abs(isog - 0.50) <= 0.02
    ok &= abs(succ - 0.186) <= 0.015
    ok &= elapsed < 1800
    _report(
        8,
        ok,
        f"(p={SURVEY_PRIME}: subgroup {sub:.4f}, trig {trig:.4f}, isog {isog:.4f}, "
        f"success {succ:.4f}; {elapsed:.0f}s)",
    )


def test_criterion_9a_subgroup_structure():
    rng = random.Random(91)
    F53 = prime_field(53)
    checked = 0
    ok = True
    from conftest import random_hcurve

    while checked < 8:
        H = random_hcurve(53, rng)
        subs = enumerate_tractable(H)
        if not subs or splitting_degree(H) > 8:
            continue
        for S in subs[:2]:
            els = subgroup_elements(S, H)
            ok &= len(els) == 8
            ok &= all(cantor_add(D, D).is_identity for D in els)
            model = els[0].model
            total = None
            for q in S.quads:
                T = two_torsion_from_pair(model, q)
                total = T if total is None else cantor_add(total, T)
            ok &= total.is_identity
            checked += 1
            if checked >= 8:
                break
    _report("9a", ok, f"({checked} subgroups: 8 elements, order <= 2, generators multiply to 0)")


def test_criterion_9b_prop3_iff():
    rng = random.Random(92)
    F101 = prime_field(101)
    from conftest import random_hcurve

    n = degenerate = 0
    ok = True
    while n < 1000:
        H = random_hcurve(101, rng)
        for S in enumerate_tractable(H):
            try:
                alpha, beta = kernel_basis(build_M(S, H), F101)
            except DegenerateConfiguration:
                degenerate += 1
                continue
            square = F101.is_square(rationality_discriminant(F101, alpha, beta))
            try:
                trigonal_map_for(S, H)
                outcome = "map"
            except NotRational:
                outcome = "notrational"
            except DegenerateConfiguration:
                outcome = "degenerate"
                degenerate += 1
            # NotRational exactly on non-square discriminants, in both directions
            ok &= (outcome == "notrational") == (not square)
            if outcome != "degenerate":
                ok &= (outcome == "map") == square
                n += 1
    _report("9b", ok, f"({n} subgroups: success <=> square discriminant; {degenerate} degenerate boundary cases reported)")


def test_criterion_9c_lemma4():
    rng = random.Random(93)
    count = 0
    ok = True
    for H, S, g, fib in constructions(101, 60, rng):
        got = exact_square_root(fib.s)
        ok &= got == (fib.alpha, fib.r)
        ok &= (fib.r * fib.r).scale(fib.alpha) == fib.s
        count += 1
    _report("9c", ok, f"({count} fibrations: s = alpha * r^2 exactly)")


def test_criterion_9d_plane_quartic_identity():
    rng = random.Random(94)
    from trigonal.construction import embed_poly

    total_constructions = 0
    ok = True
    for H, S, g, fib in constructions(53, 3, rng):
        plane = build_plane_model(fib)
        R = build_correspondence(fib)
        count = 0
        for k in (1, 2):
            K = make_extension(53, k)
            d4 = embed_poly(plane.delta4, fib.field, K)
            d2 = embed_poly(plane.delta2, fib.field, K)
            d0 = embed_poly(plane.delta0, fib.field, K)
            d1 = embed_poly(plane.delta1, plane.delta1_field, K) if plane.delta1_field.k <= K.k else None
            if d1 is None:
                continue
            for i in range(K.order):
                if count >= 110:
                    break
                t0 = K.decode(i)
                if fib.ramified_at(t0, K):
                    continue
                for q in fiber_points(R.X, t0, K):
                    b22 = q.b[5]
                    lhs = K.sqr(K.add(K.add(K.mul(d4.eval(t0), K.sqr(b22)), K.mul(d2.eval(t0), b22)), d0.eval(t0)))
                    ok &= lhs == K.mul(K.sqr(d1.eval(t0)), b22)
                    count += 1
        ok &= count >= 100
        total_constructions += 1
    _report("9d", ok, f"({total_constructions} constructions x >= 100 sampled X-points)")


def test_criterion_9e_twist_antisymmetry():
    rng = random.Random(95)
    F101 = prime_field(101)
    c = F101.nonresidue()
    count = 0
    ok = True
    for H, S, g, fib in constructions(101, 200, rng):
        fibt = build_fibration(g, fib.curve.twist(c))
        ok &= isogeny_is_rational(fib) != isogeny_is_rational(fibt)
        count += 1
    _report("9e", ok, f"({count} (H, S, g) triples: exactly one of H/twist passes)")


def test_criterion_9f_roundtrip_consensus(ex37_curve, ex37_subgroup, ex37_model, ex37_R):
    rng = random.Random(96)
    n_classes = 0
    n_constructions = 0
    ok = True
    for p in (37, 53):
        for H, S, g, fib in constructions(p, 10, rng, need_isogeny=True, need_odd_model=True):
            R = build_correspondence(fib)
            model = OddModel.from_curve(g.source_curve)
            signs = set()
            for i in range(5):
                D = random_class(g.source_curve, 1, rng)
                Dodd = cantor_mul(D, 1 << 21)
                out = roundtrip(Dodd, R, random.Random(1000 * p + i))
                if out == "mismatch":
                    ok = False
                    continue
                if not Dodd.is_identity:
                    signs.add(out)
                n_classes += 1
            ok &= len(signs) <= 1
            n_constructions += 1
    # kernel annihilation: all 8 subgroup elements die, on the worked example
    els = subgroup_elements(ex37_subgroup, ex37_curve)
    big_model = els[0].model
    for s in els:
        out = reverse_on_xdivisor(phi_on_class(s, ex37_R), ex37_R, big_model)
        ok &= out.is_identity
    ok &= n_classes >= 100 and n_constructions >= 20
    _report(
        "9f",
        ok,
        f"({n_classes} odd-order classes over {n_constructions} constructions, "
        "consensus sign each; kernel of the worked example annihilated)",
    )


def test_criterion_10_performance_160bit():
    p = deterministic_prime(160, 0)
    F = prime_field(p)
    rng = random.Random(101)
    from conftest import random_hcurve

    t0 = time.time()
    built = None
    while built is None:
        H = random_hcurve(p, rng)
        for S in enumerate_tractable(H, fast=True):
            try:
                g = trigonal_map_for(S, H)
            except (NotRational, DegenerateConfiguration):
                continue
            fib = build_fibration(g, g.curve)
            if not isogeny_is_rational(fib):
                continue
            R = build_correspondence(fib)
            built = (H, S, g, fib, R)
            break
    elapsed = time.time() - t0
    ok = elapsed < 60
    ok &= R.plane.rational and verify_trigonal(g, g.subgroup)
    _report(10, ok, f"(160-bit prime, curve search + full construction in {elapsed:.2f}s)")
