"""Isogeny evaluation: fibers, the correspondence, and the +/-2 round trip."""

import hashlib
import random

import pytest

from conftest import constructions, run_under
from ex37 import EX37_DLP_MULTIPLIER, EX37_JAC_ORDER
from trigonal.construction import B_VARS, build_correspondence, build_fibration, embed_poly
from trigonal import evaluation
from trigonal.curves import (
    DivisorClass,
    OddModel,
    cantor_mul,
    class_from_points,
    random_class,
    random_class_on,
    two_torsion_from_pair,
)
from trigonal.errors import BadSupport, ContextMismatch, NoRationalWeierstrassPoint, RamifiedFiber
from trigonal.evaluation import (
    XDivisor,
    _glued_square_roots,
    _triple_class,
    consensus_sign,
    fiber_partition_oracle,
    fiber_points,
    phi_on_class,
    reverse_on_xdivisor,
    roundtrip,
    _phi_point,
)
from trigonal.fields import ExtField, embed, make_extension, prime_field
from trigonal.polyring import Poly, _poly_rng, _split_squarefree, _unpacked, factorize, is_squarefree, roots
from trigonal.subgroups import subgroup_elements

from oracles import count_X_open, effective_points, etale_square_roots_xgcd, reverse_on_xdivisor_lcm, triple_class_two_stage


def test_fiber_sizes_and_oracle(ex37_fibration, ex37_R):
    F37 = prime_field(37)
    sizes = {}
    for t0 in range(37):
        if ex37_fibration.ramified_at(t0):
            continue
        pts = fiber_points(ex37_R.X, t0, F37)
        assert fiber_partition_oracle(ex37_fibration, t0, F37) == len(pts)
        sizes[len(pts)] = sizes.get(len(pts), 0) + 1
    assert set(sizes) <= {0, 1, 2, 4}
    assert len(sizes) > 1


def test_fiber_oracle_across_constructions():
    # module invariant: oracle equality on >= 500 fibers across constructions
    rng = random.Random(51)
    total = 0
    for H, S, g, fib in constructions(53, 6, rng):
        R = build_correspondence(fib)
        for k in (1, 2):
            K = make_extension(53, k)
            for i in range(K.order):
                if total >= 510:
                    break
                t0 = K.decode(i)
                if fib.ramified_at(t0, K):
                    continue
                assert len(fiber_points(R.X, t0, K)) == fiber_partition_oracle(fib, t0, K)
                total += 1
    assert total >= 500


def test_ramified_fiber_rejected(ex37_fibration, ex37_R):
    F37 = prime_field(37)
    hit = False
    for t0 in range(37):
        if ex37_fibration.ramified_at(t0):
            with pytest.raises(RamifiedFiber):
                fiber_points(ex37_R.X, t0, F37)
            hit = True
    assert hit


def test_fiber_points_satisfy_model(ex37_fibration, ex37_R):
    K = make_extension(37, 2)
    n = 0
    for i in range(K.order):
        if n > 30:
            break
        t0 = K.decode(i)
        if ex37_fibration.ramified_at(t0, K):
            continue
        for q in fiber_points(ex37_R.X, t0, K):
            assert ex37_R.X.contains(K, t0, q.bmap())
            n += 1


def test_fiber_points_frozen_over_f37_2(ex37_fibration, ex37_R):
    # the point keys of every unramified fiber over F_37^2, digested and
    # recorded while fiber_points still factored each cubic with factorize
    K = make_extension(37, 2)
    h = hashlib.sha256()
    n = 0
    for t0 in K.elements():
        if ex37_fibration.ramified_at(t0, K):
            continue
        keys = [q.key() for q in fiber_points(ex37_R.X, t0, K)]
        n += len(keys)
        h.update(repr((K.encode(t0), keys)).encode())
    assert n == 1327
    assert h.hexdigest() == "14bfa11d5391d30d0fb910aa963cb817b0f9a0f49243d256cc97a94014fc1bb1"


def test_phi_identity_is_empty(ex37_model, ex37_R):
    out = phi_on_class(DivisorClass.identity(ex37_model), ex37_R)
    assert out.degree == 0


def test_phi_point_image_has_degree_two(ex37_curve, ex37_R):
    # pi_H has degree 2: each good point selects exactly two fiber points
    F37 = prime_field(37)
    g = ex37_R.fib.gmap
    n = 0
    for x in range(37):
        fx = ex37_curve.F.eval(x)
        if fx == 0 or not F37.is_square(fx):
            continue
        y = F37.sqrt(fx)
        if g.D.eval(x) == 0:
            continue
        t0 = F37.div(g.N.eval(x), g.D.eval(x))
        if ex37_R.fib.ramified_at(t0):
            continue
        picked = _phi_point(ex37_R, F37, x, y, t0)
        assert len(picked) == 2
        # and the involuted point selects the complementary pair
        other = _phi_point(ex37_R, F37, x, F37.neg(y), t0)
        K2 = make_extension(37, 2)
        whole = fiber_points(ex37_R.X, embed(t0, F37, K2), K2)
        union = {q.key() for q in picked} | {q.key() for q in other}
        assert union == {q.key() for q in whole}
        assert len(union) == 4
        n += 1
        if n >= 8:
            break
    assert n >= 5


def test_reverse_of_empty_is_identity(ex37_R, ex37_model):
    assert reverse_on_xdivisor(XDivisor(()), ex37_R, ex37_model).is_identity


def test_roundtrip_worked_example_divisor(ex37_model, ex37_R):
    D = class_from_points(ex37_model, [(10, 1, 28)], [(14, 1, 6)])
    out = roundtrip(D, ex37_R)
    assert out in ("+2", "-2")


def test_roundtrip_consensus_and_sign_flip(ex37_curve, ex37_model, ex37_R, ex37_fibration):
    rng = random.Random(52)
    classes = [random_class(ex37_curve, 1, rng) for _ in range(6)]
    sign = consensus_sign(classes, ex37_R, random.Random(1))
    assert sign in ("+2", "-2")
    # composing both legs through the same sheet cancels the sheet sign
    Rm = build_correspondence(ex37_fibration, -1)
    assert consensus_sign(classes, Rm, random.Random(2)) == sign
    # the sheet choice negates phi itself: cross-sheet composition flips the sign
    D = classes[0]
    twice = cantor_mul(D, 2)
    plus = reverse_on_xdivisor(phi_on_class(D, ex37_R), ex37_R, ex37_model)
    cross = reverse_on_xdivisor(phi_on_class(D, Rm), ex37_R, ex37_model)
    assert {plus, cross} == {twice, -twice}
    # and pointwise, the two sheets select complementary halves of each fiber
    F37 = prime_field(37)
    g = ex37_R.fib.gmap
    for x in range(37):
        fx = ex37_curve.F.eval(x)
        if fx == 0 or not F37.is_square(fx) or g.D.eval(x) == 0:
            continue
        t0 = F37.div(g.N.eval(x), g.D.eval(x))
        if ex37_R.fib.ramified_at(t0):
            continue
        y = F37.sqrt(fx)
        a = {q.key() for q in _phi_point(ex37_R, F37, x, y, t0)}
        b = {q.key() for q in _phi_point(Rm, F37, x, y, t0)}
        assert not (a & b) and len(a | b) == 4
        break


def test_homomorphism_transport_worked_example(ex37_model, ex37_R):
    D = class_from_points(ex37_model, [(10, 1, 28)], [(14, 1, 6)])
    Dp = class_from_points(ex37_model, [(19, 1, 28)], [(36, 1, 13)])
    ED = reverse_on_xdivisor(phi_on_class(D, ex37_R), ex37_R, ex37_model)
    EDp = reverse_on_xdivisor(phi_on_class(Dp, ex37_R), ex37_R, ex37_model)
    assert cantor_mul(ED, EX37_DLP_MULTIPLIER) == EDp


def test_kernel_annihilation_rational_part(ex37_model, ex37_subgroup, ex37_R):
    T = two_torsion_from_pair(ex37_model, ex37_subgroup.quads[0])
    out = reverse_on_xdivisor(phi_on_class(T, ex37_R), ex37_R, ex37_model)
    assert out.is_identity


def test_nondegeneracy_odd_prime_order(ex37_curve, ex37_model, ex37_R):
    # 55666 = 2 * 13 * 2141: build a class of order 13 and check transport
    rng = random.Random(53)
    while True:
        D = random_class(ex37_curve, 1, rng)
        D13 = cantor_mul(D, EX37_JAC_ORDER // 13)
        if not D13.is_identity:
            break
    assert cantor_mul(D13, 13).is_identity
    E = reverse_on_xdivisor(phi_on_class(D13, ex37_R), ex37_R, ex37_model)
    assert not E.is_identity
    assert cantor_mul(E, 13).is_identity  # order exactly 13


def test_count_X_open(ex37_fibration, ex37_R):
    n1 = count_X_open(ex37_fibration, ex37_R.X, 1)
    # #X(F_37) = 42 from the zeta function; the open model misses only
    # boundary points, and the R/R' choice does not change X
    assert n1 <= 42
    Rm = build_correspondence(ex37_fibration, -1)
    assert count_X_open(ex37_fibration, Rm.X, 1) == n1
    assert n1 == 33  # frozen: 4 ramified rational fibers account for the rest


def test_transport_linearity_random():
    rng = random.Random(54)
    for H, S, g, fib in constructions(53, 2, rng, need_isogeny=True, need_odd_model=True):
        R = build_correspondence(fib)
        model = OddModel.from_curve(g.source_curve)
        D = random_class(g.source_curve, 1, rng)
        Dodd = cantor_mul(D, 1 << 21)  # odd order: kills the 2-primary part
        m = 5
        lhs = reverse_on_xdivisor(phi_on_class(cantor_mul(Dodd, m), R), R, model)
        rhs = cantor_mul(reverse_on_xdivisor(phi_on_class(Dodd, R), R, model), m)
        assert lhs == rhs


def _rho_filtered_fiber(R, K, x1, y1, t0):
    """The reference lift: all fiber points over F_{q^(2j)}, then the sheet test."""
    K2 = make_extension(K.p, 2 * K.k)
    t2, x2, y2 = (embed(v, K, K2) for v in (t0, x1, y1))
    picked = []
    for q in fiber_points(R.X, t2, K2):
        b = q.bmap()
        rhs = K2.add(b["b02"], K2.add(K2.mul(b["b12"], x2), K2.mul(b["b22"], K2.sqr(x2))))
        if K2.mul(y2, R.rho(K2, t2, b["b22"])) == rhs:
            picked.append(q)
    if len(picked) != 2:
        raise BadSupport(f"expected 2 matching fiber points, found {len(picked)}")
    return picked


def _good_points(fib, K, rng, count):
    """Random good points (x, y, t0) of the construction's curve over K."""
    g = fib.gmap
    F = embed_poly(fib.curve.F, fib.field, K)
    N = embed_poly(g.N, g.field, K)
    D = embed_poly(g.D, g.field, K)
    out = []
    for _ in range(50 * count):
        x = K.random(rng)
        fx, d = F.eval(x), D.eval(x)
        if fx == K.zero or d == K.zero or not K.is_square(fx):
            continue
        t0 = K.div(N.eval(x), d)
        if not fib.ramified_at(t0, K):
            out.append((x, K.sqrt(fx), t0))
            if len(out) == count:
                break
    return out


def _lift_outcome(lift, R, K, x1, y1, t0):
    try:
        return [q.key() for q in lift(R, K, x1, y1, t0)]
    except BadSupport:
        return "bad_support"


def test_phi_point_matches_rho_filtered_fiber_points(ex37_fibration):
    # the lift from the known root picks exactly the fiber points that the
    # sheet test picks among all of fiber_points, on both sheets and both
    # y signs, and fails with BadSupport on exactly the same points (the first
    # F_53 construction drawn here is not isogeny-rational, which is where
    # the y-lifts at conjugate roots can fail)
    rng = random.Random(57)
    fibs = [ex37_fibration] + [fib for _, _, _, fib in constructions(53, 3, rng)]
    residual = {"split": 0, "irreducible": 0}
    outcomes = {"points": 0, "bad_support": 0}
    for fib in fibs:
        sheets = [build_correspondence(fib, sign) for sign in (+1, -1)]
        for k in (1, 2):
            K = make_extension(fib.field.p, k)
            for x1, y1, t0 in _good_points(fib, K, rng, 4):
                Gt = Poly(K, [embed_poly(c, fib.field, K).eval(t0) for c in fib.G.cx])
                quad = Gt // Poly(K, [K.neg(x1), K.one])
                disc = K.sub(K.sqr(quad[1]), K.mul(K.from_int(4), quad[0]))
                residual["split" if K.is_square(disc) else "irreducible"] += 1
                for R in sheets:
                    for y in (y1, K.neg(y1)):
                        got = _lift_outcome(_phi_point, R, K, x1, y, t0)
                        assert got == _lift_outcome(_rho_filtered_fiber, R, K, x1, y, t0)
                        outcomes["points" if got != "bad_support" else "bad_support"] += 1
    assert residual["split"] and residual["irreducible"], residual
    assert outcomes["points"] >= 40 and outcomes["bad_support"], outcomes


def test_phi_point_reaches_every_square_root_case(ex37_fibration):
    # the lift takes its square roots in K = F_{q^j} where it can: the residual
    # quadratic splits over K or has conjugate roots, and F at its roots is a
    # square or not (in K for split roots, in K2 for conjugate ones); each case
    # agrees with the reference lift
    rng = random.Random(58)
    fibs = [ex37_fibration] + [fib for _, _, _, fib in constructions(53, 3, random.Random(57))]
    cases = {}
    for fib in fibs:
        R = build_correspondence(fib, +1)
        for k in (1, 2):
            K = make_extension(fib.field.p, k)
            K2 = make_extension(fib.field.p, 2 * k)
            F = embed_poly(fib.curve.F, fib.field, K)
            for x1, y1, t0 in _good_points(fib, K, rng, 12):
                Gt = Poly(K, [embed_poly(c, fib.field, K).eval(t0) for c in fib.G.cx])
                quad = Gt // Poly(K, [K.neg(x1), K.one])
                if K.is_square(K.sub(K.sqr(quad[1]), K.mul(K.from_int(4), quad[0]))):
                    case = ("split", all(K.is_square(F.eval(r)) for r in roots(quad)))
                else:
                    rest = embed_poly(quad, K, K2)
                    case = ("conjugate", K2.is_square(embed_poly(F, K, K2).eval(roots(rest)[0])))
                got = _lift_outcome(_phi_point, R, K, x1, y1, t0)
                assert got == _lift_outcome(_rho_filtered_fiber, R, K, x1, y1, t0)
                cases[case] = cases.get(case, 0) + 1
    assert set(cases) == {("split", True), ("split", False), ("conjugate", True), ("conjugate", False)}, cases


def test_phi_point_does_not_retest_ramification(ex37_fibration, monkeypatch):
    # _good_curve_points has found t0 unramified before it lifts a point, so
    # the lift builds G(t0, x) without testing the fiber again
    from trigonal.construction import TrigonalFibration

    R = build_correspondence(ex37_fibration, +1)
    rng = random.Random(59)
    points = []
    for k in (1, 2):
        K = make_extension(37, k)
        points += [(K, x1, y1, t0) for x1, y1, t0 in _good_points(ex37_fibration, K, rng, 6)]
    want = [_lift_outcome(_phi_point, R, *pt) for pt in points]

    def ramified_at(self, t0, field=None):
        raise AssertionError("ramified_at ran inside _phi_point")

    monkeypatch.setattr(TrigonalFibration, "ramified_at", ramified_at)
    assert [_lift_outcome(_phi_point, R, *pt) for pt in points] == want
    assert len(points) == 12 and "bad_support" not in want


def _reference_effective_points(D):
    """The support split with roots() over each factor's field."""
    f = D.model.field
    if D.a.degree != 3 or not is_squarefree(D.a):
        return None
    out = []
    for h, _ in factorize(D.a)[1]:
        if 2 * f.k * h.degree > 24:
            return None
        K = make_extension(f.p, f.k * h.degree) if h.degree > 1 else f
        bK = embed_poly(D.b, f, K)
        out += [(K, x, bK.eval(x)) for x in roots(embed_poly(h, f, K))]
    return out


def _odd_model_curve(p, rng):
    from conftest import random_hcurve

    while True:
        H = random_hcurve(p, rng)
        try:
            OddModel.from_curve(H)
            return H
        except NoRationalWeierstrassPoint:
            continue


@pytest.mark.parametrize("bits, k", [(30, 1), (64, 1), (None, 2)])
def test_effective_points_match_the_roots_reference(ex37_curve, bits, k):
    # one root per support factor and its Frobenius conjugates give the same
    # sorted points as roots(); an F_37^2 model keeps roots()
    from trigonal.survey import deterministic_prime

    rng = random.Random(59)
    H = ex37_curve if bits is None else _odd_model_curve(deterministic_prime(bits, 0), rng)
    degrees = set()
    for _ in range(10):
        D = random_class(H, k, rng) + random_class(H, k, rng)
        if D.a.degree == 3:
            degrees |= {h.degree for h, _ in factorize(D.a)[1]}
        assert effective_points(D) == _reference_effective_points(D)
    assert degrees == {1, 2, 3}, degrees


def _roundtrip_construction(bits):
    """The pipeline benchmark's roundtrip construction: the first isogeny-rational
    map of a curve with an odd model, at deterministic_prime(bits, 0)."""
    from trigonal import construction, subgroups, survey, trigmaps
    from trigonal.errors import DegenerateConfiguration, NotRational

    p = survey.deterministic_prime(bits, 0)
    rng = random.Random(bits)
    while True:
        H = _odd_model_curve(p, rng)
        for S in subgroups.enumerate_tractable(H, fast=True):
            try:
                g = trigmaps.trigonal_map_for(S, H)
            except (NotRational, DegenerateConfiguration):
                continue
            fib = construction.build_fibration(g, g.curve)
            if construction.isogeny_is_rational(fib):
                return g, construction.build_correspondence(fib)


@pytest.fixture(scope="module")
def phi_classes(ex37_curve, ex37_R):
    """(D, R, phi(D)) for seeded classes: the worked example over F_37 and
    F_37^2, and the 30- and 64-bit roundtrip constructions."""
    cases = [(ex37_curve, ex37_R, 1), (ex37_curve, ex37_R, 2)]
    for bits in (30, 64):
        g, R = _roundtrip_construction(bits)
        cases.append((g.source_curve, R, 1))
    out = []
    for i, (H, R, k) in enumerate(cases):
        rng = random.Random(70 + i)
        for _ in range(4):
            D = random_class(H, k, rng)
            out.append((D, R, phi_on_class(D, R)))
    return out


def test_phi_entries_frozen(phi_classes):
    # the (key, weight) lists, digested and recorded while phi still lifted
    # every conjugate of a support point on its own
    h = hashlib.sha256()
    for _, _, DX in phi_classes:
        h.update(repr([(q.key(), w) for q, w in DX.entries]).encode())
    assert {q.field.k for _, _, DX in phi_classes for q, _ in DX.entries} == {2, 4, 6, 8, 12}
    assert h.hexdigest() == "2e09fd18afee2b024e8354ada954395a5d9530f5a8b3aa5a569cc6d9c5483739"


def test_reverse_matches_the_lcm_field_oracle(phi_classes, ex37_curve, ex37_subgroup, ex37_R):
    # one orbit at a time over each point's own field against every triple
    # class summed in the lcm field; also on the kernel classes over the
    # splitting field of the worked example
    for D, R, DX in phi_classes:
        E = reverse_on_xdivisor(DX, R, D.model)
        assert E == reverse_on_xdivisor_lcm(DX, R, D.model)
        assert E in (cantor_mul(D, 2), cantor_mul(D, -2))
    els = subgroup_elements(ex37_subgroup, ex37_curve)
    big_model = els[0].model
    assert big_model.field.k > 1
    for T in els:
        DX = phi_on_class(T, ex37_R)
        assert reverse_on_xdivisor(DX, ex37_R, big_model) == reverse_on_xdivisor_lcm(DX, ex37_R, big_model)


def _forced_retry_construction(g0):
    """g0's subgroup and source curve with every pencil root refused at _depth 0, so that
    trigonal_map_for takes a random Mobius change of x and pre_transform is not the identity."""
    from trigonal import trigmaps
    from trigonal.errors import DegenerateConfiguration

    H, real = g0.source_curve, trigmaps._try_build

    def refuse(field, alpha, beta, roots, which, curve, S):
        if curve is H:
            raise DegenerateConfiguration("refused at _depth 0")
        return real(field, alpha, beta, roots, which, curve, S)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trigmaps, "_try_build", refuse)
        g = trigmaps.trigonal_map_for(g0.subgroup, H)
    assert not g.pre_transform.is_identity
    return g, build_correspondence(build_fibration(g, g.curve))


def _outcome(fn, R, q, odd):
    try:
        return fn(R, q, odd)
    except BadSupport:
        return "BadSupport"


@pytest.fixture(scope="module")
def transport_cases(ex37_map, ex37_R, ex37_fibration):
    """(name, g, R) for the worked example (both signs, a degree-7 F: tau is the identity), the
    30-, 64- and 160-bit roundtrip constructions, and forced Mobius retries at F_37 and 30 bits."""
    cases = [("ex37+", ex37_map, ex37_R), ("ex37-", ex37_map, build_correspondence(ex37_fibration, -1))]
    cases += [(f"{bits}-bit", *_roundtrip_construction(bits)) for bits in (30, 64, 160)]
    cases += [(f"{name} retry", *_forced_retry_construction(g)) for name, g, _ in (cases[0], cases[2])]
    return cases


def test_transported_triples_match_the_two_stage_oracle(transport_cases):
    # the triple built on the odd model from one cached transport equals the
    # two-stage Mobius transport with its two model checks, on the points of
    # open fibers over F_q and F_q^2, on phi's points, and where the triple
    # meets the pole of pre^-1 (BadSupport on both)
    poles = 0
    for name, g, R in transport_cases:
        model = OddModel.from_curve(g.source_curve)
        assert model.tau.is_identity == name.startswith("ex37")
        points = []
        for k in (1, 2):
            K = make_extension(R.fib.field.p, k)
            i, n = 0, len(points)
            while len(points) < n + 6:
                t0 = K.from_int(i)
                i += 1
                if not R.fib.ramified_at(t0, K):
                    points += fiber_points(R.X, t0, K)
        D = random_class(g.source_curve, 1, random.Random(len(name)))
        points += [q for q, _ in phi_on_class(D, R).entries]
        for q in points:
            odd = model if q.field is model.field else model.base_change(q.field)
            assert _outcome(_triple_class, R, q, odd) == _outcome(triple_class_two_stage, R, q, odd), name
        # the fiber through the construction's x over the source curve's point at infinity
        f = g.field
        pa, pc = g.pre_transform.m[0], g.pre_transform.m[2]
        if pc == f.zero or g.D.eval(f.div(pa, pc)) == f.zero:
            continue
        xp = f.div(pa, pc)
        tp = f.div(g.N.eval(xp), g.D.eval(xp))
        if R.fib.ramified_at(tp):
            continue  # a degree-7 source curve: its point at infinity is a Weierstrass point
        for K in (make_extension(f.p, k) for k in (1, 2, 3)):
            pts = fiber_points(R.X, embed(tp, f, K), K)
            for q in pts:
                odd = model if K is model.field else model.base_change(K)
                assert _outcome(_triple_class, R, q, odd) == "BadSupport" == _outcome(triple_class_two_stage, R, q, odd)
            if pts:
                poles += 1
                break
    assert poles == 1


def test_the_transport_is_built_on_first_use(ex37_fibration, ex37_model):
    # build_correspondence builds nothing new; the first reverse builds one
    # transport per (tau, field), and the forward path shares it
    R = build_correspondence(ex37_fibration)
    assert R._transport_cache == {}
    D = class_from_points(ex37_model, [(10, 1, 28)], [(14, 1, 6)])
    assert roundtrip(D, R) in ("+2", "-2")
    taus = list(R._transport_cache)
    assert taus and all(tau.is_identity for tau in taus)
    assert len({tau.field.k for tau in taus}) == len(taus)
    assert R.transport(taus[0]) is R._transport_cache[taus[0]]


def test_forced_retry_roundtrip(transport_cases):
    # with pre_transform not the identity, phi's points go through the
    # cached inverse composite and the reverse lands on +/-2D
    for name, g, R in transport_cases[-2:]:
        rng = random.Random(71)
        model = OddModel.from_curve(g.source_curve)
        for _ in range(2):
            D = random_class(g.source_curve, 1, rng)
            assert D.model == model
            assert roundtrip(D, R) in ("+2", "-2"), name
    # a support point over the source curve's point at infinity is refused,
    # though pre_transform makes it affine on the construction's curve
    _, g, R = transport_cases[-1]
    K = make_extension(g.field.p, 2)
    model = OddModel.from_curve(g.source_curve).base_change(K)
    x0 = K.div(model.tau.m[0], model.tau.m[2])
    pts = []
    while len(pts) < 3:
        x = K.random(rng)
        y = K.sqrt(model.F.eval(x))
        if y:
            pts.append((x, K.one, y))
    assert evaluation._good_curve_points(class_from_points(model, pts, []), R) is not None
    D = class_from_points(model, [(x0, K.one, K.sqrt(model.F.eval(x0)))] + pts[:2], [])
    assert D.a.degree == 3 and evaluation._good_curve_points(D, R) is None


def test_reverse_rejects_an_incomplete_orbit(phi_classes):
    # a divisor missing one conjugate of a point, or weighting it apart from
    # the rest of its orbit, is not rational
    hit = 0
    for D, R, DX in phi_classes:
        s = D.model.field.k
        for i, (q, w) in enumerate(DX.entries):
            if q.frobenius_power(s) == q:
                continue
            for changed in ((), ((q, 2 * w),)):
                with pytest.raises(BadSupport):
                    reverse_on_xdivisor(XDivisor(DX.entries[:i] + changed + DX.entries[i + 1 :]), R, D.model)
            hit += 1
            break
    assert hit == len(phi_classes)


def test_typed_errors_survive_python_O():
    # the evaluation checks raise TrigonalError subclasses, not asserts; the
    # CRT terms refuse a repeated factor, linear or with a ring, and the model
    # check that guards every transported triple refuses b^2 != F mod a
    code = """
from trigonal.curves import DivisorClass, HCurve, OddModel
from trigonal.errors import ModelMismatch, NotSquarefree
from trigonal.fields import ExtField, prime_field
from trigonal.polyring import Poly, crt_terms, is_irreducible
F = prime_field(37)
h1, h2 = Poly.from_ints(F, [36, 1]), Poly.from_ints(F, [35, 1])
q = Poly.from_ints(F, [2, 0, 1])
R = ExtField(F, q.c)
try:
    crt_terms(F, [(h1, None, 1), (h1, None, 1), (h2, None, 1)])
except NotSquarefree:
    print("ok1")
try:
    crt_terms(F, [(q, R, R.one), (h2, None, 1), (q, R, R.one)])
except NotSquarefree:
    print("ok2" if is_irreducible(q) else "reducible")
try:
    DivisorClass(OddModel.from_curve(HCurve.from_coeffs(F, [1, 0, 0, 0, 0, 0, 0, 1, 0])), h1, Poly.const(F, 5))
except ModelMismatch:
    print("ok3")
"""
    out = run_under(["-O"], code)
    assert out.stdout.split() == ["ok1", "ok2", "ok3"], out.stderr


@pytest.mark.parametrize("bits, k", [(None, 1), (None, 2), (30, 1)])
def test_glued_square_roots_match_etale_square_roots(ex37_fibration, bits, k):
    # phi's gluing of the three known roots of a lift's fiber, as linear CRT
    # parts, gives the xgcd reference's four b, in the same order
    fib = ex37_fibration if bits is None else _roundtrip_construction(bits)[1].fib
    K = make_extension(fib.field.p, k)
    K2 = make_extension(fib.field.p, 2 * k)
    F2 = embed_poly(fib.curve.F, fib.field, K2)
    glued = 0
    for x1, y1, t0 in _good_points(fib, K, random.Random(60 + k), 10):
        t2, x2, y2 = (embed(v, K, K2) for v in (t0, x1, y1))
        Gt = Poly(K2, [embed_poly(c, fib.field, K2).eval(t2) for c in fib.G.cx])
        others = [(x, K2.sqrt(F2.eval(x))) for x in roots(Gt) if x != x2]
        if any(r is None for _, r in others):
            continue
        parts = [(Poly(K2, [K2.neg(x), K2.one]), None, r) for x, r in [(x2, y2)] + others]
        ref = [(h, Poly.const(K2, r)) for h, _, r in parts]
        assert _glued_square_roots(K2, parts) == etale_square_roots_xgcd(Gt, ref, K2)
        glued += 1
    assert glued >= 3, glued


@pytest.mark.parametrize("k", [1, 2])
def test_fiber_gluing_matches_the_xgcd_reference(ex37_fibration, k):
    # fiber_points' CRT terms, one inverse in each factor ring, against the
    # xgcd idempotents, on cubics that are irreducible, a linear times an
    # irreducible quadratic, or split.  Over F_37 the worked example roots F
    # and a construction with lc(s) a non-square roots F/nu.  Over F_37^2
    # every element of F_37 is a square, so no F_37 construction roots F/nu
    # there: that branch glues the residues of F/nu themselves.
    F37 = prime_field(37)
    fibs = [ex37_fibration]
    if k == 1:
        fibs.append(next(fib for *_, fib in constructions(37, 6, random.Random(2026)) if not F37.is_square(fib.alpha)))
    K = make_extension(37, k)
    seen = set()
    for fib in fibs:
        over = fib.over(K)
        for i in range(min(K.order, 200)):
            t0 = K.decode(i)
            if fib.ramified_at(t0, K):
                continue
            Gt = evaluation._fiber_cubic(fib, t0, K)
            factors, Q = _split_squarefree(Gt, _poly_rng(Gt))
            xq = _unpacked(Q, Q.xq())
            rings = [(h, ExtField(K, h.c, (xq % h).c) if h.degree > 1 else None) for h in factors]
            for branch, FF in (("F", over.F), ("F/nu", over.F_nu)):
                parts = evaluation._square_root_parts(FF, rings, K)
                if parts is None and k == 2 and branch == "F/nu":
                    parts = [(h, R, FF.eval(K.neg(h[0])) if R is None else R.from_coeffs((FF % h).c)) for h, R in rings]
                if parts is None:
                    continue
                ref = [(h, Poly.const(K, r) if R is None else Poly(K, R.coeffs(r))) for h, R, r in parts]
                assert _glued_square_roots(K, parts) == etale_square_roots_xgcd(Gt, ref, K)
                seen.add((branch, tuple(sorted(h.degree for h in factors))))
    assert seen == {(b, pattern) for b in ("F", "F/nu") for pattern in ((3,), (1, 2), (1, 1, 1))}, seen


@pytest.mark.parametrize("k", [1, 2])
def test_fiber_points_seeds_an_rng_only_to_draw_and_builds_one_ring_per_factor(ex37_R, k, monkeypatch):
    # a fiber cubic with at most one root splits with no draw, so its rng is
    # never seeded; one with three roots seeds it once, and its split runs in
    # the distinct-degree ring, the only ring it builds.  An irreducible
    # cubic's factor ring is that ring too; a quadratic factor gets its own.
    from trigonal import fields, polyring

    K = make_extension(37, k)
    seeded, built = [], []
    real_rng, real_init = polyring._poly_rng, fields.ExtField.__init__

    def rng_spy(poly):
        seeded.append(poly)
        return real_rng(poly)

    def init_spy(self, base, modulus, *args):
        built.append(modulus)
        real_init(self, base, modulus, *args)

    seen = {}
    for i in range(min(K.order, 300)):
        t0 = K.decode(i)
        if ex37_R.fib.ramified_at(t0, K):
            continue
        Gt = evaluation._fiber_cubic(ex37_R.fib, t0, K)
        pattern = tuple(sorted(h.degree for h, _ in factorize(Gt)[1]))
        want = fiber_points(ex37_R.X, t0, K)
        monkeypatch.setattr(polyring, "_poly_rng", rng_spy)
        monkeypatch.setattr(fields.ExtField, "__init__", init_spy)
        seeded.clear()
        built.clear()
        assert fiber_points(ex37_R.X, t0, K) == want
        monkeypatch.undo()
        seen[pattern] = (len(seeded), len(built))
        assert (len(seeded), len(built)) == {(3,): (0, 1), (1, 2): (0, 2), (1, 1, 1): (1, 1)}[pattern]
    assert set(seen) == {(3,), (1, 2), (1, 1, 1)}


def test_reverse_builds_each_orbit_over_its_own_field(phi_classes, monkeypatch):
    # an orbit of e points over F_q gets its triple class over F_{q^e}, so a
    # rational orbit's runs over F_q itself
    built = []

    def spy(R, q, odd_big):
        built.append((q.field.k, odd_big.field.k))
        return _triple_class(R, q, odd_big)

    monkeypatch.setattr(evaluation, "_triple_class", spy)
    sizes = set()
    for D, R, DX in phi_classes:
        s = D.model.field.k
        orbits = {}
        for q, _ in DX.entries:
            conj, e = q.frobenius_power(s), 1
            while conj != q:
                conj, e = conj.frobenius_power(s), e + 1
            orbits[min(q.frobenius_power(s * i).key() for i in range(e))] = e
        built.clear()
        reverse_on_xdivisor(DX, R, D.model)
        assert sorted(built) == sorted((s * e, s * e) for e in orbits.values())
        sizes |= set(orbits.values())
    assert {1, 2, 3} <= sizes, sizes


def test_phi_draws_as_before_and_never_splits_the_drawn_class(ex37_curve, ex37_R, monkeypatch):
    # phi still draws its auxiliary class E with random_class_on, as many
    # times per class as when it split E's support (recorded then), and now
    # reads E's support from the drawn points
    drawn, split = [], []

    def draw(model, rng):
        E = random_class_on(model, rng)
        drawn.append(E.a)
        return E

    def split_spy(poly, rng):
        split.append(poly)
        return _split_squarefree(poly, rng)

    monkeypatch.setattr(evaluation, "random_class_on", draw)
    monkeypatch.setattr(evaluation, "_split_squarefree", split_spy)
    rng = random.Random(81)
    counts = []
    for _ in range(12):
        D = random_class(ex37_curve, 1, rng)
        drawn.clear()
        phi_on_class(D, ex37_R)
        counts.append(len(drawn))
        assert split and not any(a == s for a in drawn for s in split)
    assert counts == [1, 5, 5, 4, 2, 1, 4, 2, 3, 5, 2, 1]


def test_roundtrip_at_160_bits_against_the_lcm_field_oracle():
    # a 160-bit class whose phi reaches F_{p^4}: +/-2 and the lcm-field oracle
    g, R = _roundtrip_construction(160)
    D = random_class(g.source_curve, 1, random.Random(70))
    DX = phi_on_class(D, R)
    assert {q.field.k for q, _ in DX.entries} == {2, 4}
    E = reverse_on_xdivisor(DX, R, D.model)
    assert E == reverse_on_xdivisor_lcm(DX, R, D.model)
    assert E in (cantor_mul(D, 2), cantor_mul(D, -2))


@pytest.mark.parametrize("where", ["37", "37^2", "160"])
def test_per_t0_model_check_and_sheet_values_match_contains_and_rho(where, ex37_R):
    # X.at and R.rho_at evaluate each t-polynomial once per t0; holds and rho_of agree with
    # contains and rho at every fiber point, reject a perturbed b_ij, and R' still gives -rho
    if where == "160":
        R = _roundtrip_construction(160)[1]
        K = R.fib.field
    else:
        R, K = ex37_R, make_extension(37, 2) if where == "37^2" else ex37_R.fib.field
    Rm = build_correspondence(R.fib, -R.sign)
    rng = random.Random(f"per-t0 {where}")
    seen = 0
    while seen < 8:
        t0 = K.random(rng)
        if R.fib.ramified_at(t0, K):
            continue
        eqs, at, at_m = R.X.at(K, t0), R.rho_at(K, t0), Rm.rho_at(K, t0)
        for q in fiber_points(R.X, t0, K):
            assert R.X.holds(K, eqs, q.b) and R.X.contains(K, t0, q.bmap())
            for i in range(6):
                bad = q.b[:i] + (K.add(q.b[i], K.one),) + q.b[i + 1 :]
                assert not R.X.holds(K, eqs, bad)
                assert not R.X.contains(K, t0, dict(zip(B_VARS, bad)))
            rho = R.rho_of(K, at, q.b[5])
            assert rho == R.rho(K, t0, q.b[5]) and K.sqr(rho) == q.b[5]
            assert Rm.rho_of(K, at_m, q.b[5]) == K.neg(rho) == Rm.rho(K, t0, q.b[5])
            seen += 1


def test_reverse_rejects_an_orbit_outside_the_point_field(ex37_curve, ex37_R):
    # an F_37^3 point is an orbit of 3 over F_37^2, whose field F_37^6 the
    # point's field does not contain: a typed error, not a wrong projection
    K3 = make_extension(37, 3)
    model = OddModel.from_curve(ex37_curve, make_extension(37, 2))
    for t0 in K3.elements():
        if K3.frobenius_power(t0, 1) != t0 and not ex37_R.fib.ramified_at(t0, K3):
            pts = fiber_points(ex37_R.X, t0, K3)
            if pts:
                break
    DX = XDivisor(tuple((pts[0].frobenius_power(2 * i), 1) for i in range(3)))
    with pytest.raises(ContextMismatch):
        reverse_on_xdivisor(DX, ex37_R, model)
