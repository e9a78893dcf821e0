"""The four benchmark workloads: inputs, ops, warm-up and correctness gates.

Each workload is a fixed list of ops, one *pass*.  An op is one closed-loop
call into the library; ops always go through module attributes
(``survey.survey_trial``, not a name bound at import) so that the traced run
sees them.  ``--seed`` fixes the order of the ops within a pass.

The content of a pass is fixed, not drawn from the seed.  Op costs are
heavy-tailed (a survey trial takes 3 ms to 0.5 s, a 160-bit construction
0.1 to 5 s, a phi evaluation 1 to 18 s), so the few dozen to one thousand
ops that fit a run cannot average out which inputs a seed draws: runs on
different seeds would differ by more than any useful regression bound.  A
pass of fixed content makes run-to-run differences timing differences.

Each check takes the outputs of one complete pass.  ``size="tiny"`` shrinks
every pass for the smoke test; the digests in ``expected.json`` were
recorded from full-size passes and are compared only at full size.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from trigonal import construction, curves, evaluation, fields, subgroups, survey, trigmaps
from trigonal.errors import DegenerateConfiguration, NotRational

HERE = os.path.dirname(os.path.abspath(__file__))

SURVEY_SEED = 20080514  # criterion 8's master seed
CONSTRUCT_SEED = 101  # criterion 10's rng seed; op j uses random.Random(101 + j)

# the F_37 worked example (frozen in tests/ex37.py)
EX37_F = [2, 29, 12, 33, 20, 15, 28, 1, 0]
EX37_L = [1, 4, -6, -240, -6 * 37, 4 * 37 * 37, 37**3]
EX37_OPEN_POINTS_F37 = 33

SIZES = {
    "full": {"survey30": 1000, "construct160": 16, "roundtrip": ((30, 64, 160), 2), "verify37": (1, 2)},
    "tiny": {"survey30": 20, "construct160": 1, "roundtrip": ((30,), 2), "verify37": (1,)},
}


@dataclass
class Plan:
    """One workload's prepared inputs."""

    ops: list  # [(label, thunk)], the pass in canonical order
    warmup: int  # index of the op run once, untimed, during set-up
    deadline_s: float  # per-op deadline
    context: dict = field(default_factory=dict)


def _compare(key, value, size, bad, found):
    """Record a digest and, at full size, compare it with expected.json."""
    found[key] = value
    if size != "full":
        return
    with open(os.path.join(HERE, "expected.json")) as fh:
        want = json.load(fh).get(key)
    if value != want:
        bad.append(f"{key}: got {value}, recorded {want}")


def digest(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()


# --- survey30 ---------------------------------------------------------------


def setup_survey30(size):
    p = survey.deterministic_prime(30, 0)
    n = SIZES[size]["survey30"]

    def trial(i):
        return lambda: survey.survey_trial(p, SURVEY_SEED, i, "full")

    return Plan([(i, trial(i)) for i in range(n)], warmup=0, deadline_s=5.0)


def check_survey30(plan, outputs, size, found):
    bad = []
    rows = []
    for i, (pattern, num, trig, isog, degenerate) in outputs:
        if num != subgroups.count_for_pattern(pattern):
            bad.append(f"trial {i}: {num} subgroups for pattern {pattern}")
        if len(trig) != num or len(isog) != num or any(b and not a for a, b in zip(trig, isog)):
            bad.append(f"trial {i}: isogeny flag without trigonal flag")
        rows.append((i, pattern, num, trig, isog, degenerate))
    _compare("survey30", digest(rows), size, bad, found)
    return bad


# --- construct160 -----------------------------------------------------------


def _construct(p, seed):
    """Criterion 10's loop: curves until a rational map, fibration and isogeny."""
    rng = random.Random(seed)
    while True:
        H = survey.random_curve(p, rng)
        for S in subgroups.enumerate_tractable(H, fast=True):
            try:
                g = trigmaps.trigonal_map_for(S, H)
            except (NotRational, DegenerateConfiguration):
                continue
            fib = construction.build_fibration(g, g.curve)
            if not construction.isogeny_is_rational(fib):
                continue
            return H, g, fib, construction.build_correspondence(fib)


def setup_construct160(size):
    p = survey.deterministic_prime(160, 0)
    n = SIZES[size]["construct160"]

    def op(j):
        return lambda: _construct(p, CONSTRUCT_SEED + j)

    return Plan([(j, op(j)) for j in range(n)], warmup=0, deadline_s=30.0)


def encode_construction(H, g, fib):
    return (H.form.encode(), g.subgroup.key(), tuple(map(int, g.coeffs())), fib.s.encode())


def check_construct160(plan, outputs, size, found):
    bad = []
    encodings = []
    for j, (H, g, fib, R) in outputs:
        if not trigmaps.verify_trigonal(g, g.subgroup):
            bad.append(f"construction {j}: map fails verify_trigonal")
        if not R.plane.rational or not construction.isogeny_is_rational(fib):
            bad.append(f"construction {j}: not isogeny-rational")
        encodings.append((j, encode_construction(H, g, fib)))
    _compare("construct160", digest(encodings), size, bad, found)
    return bad


# --- roundtrip --------------------------------------------------------------


def build_roundtrip_construction(bits):
    """An isogeny-rational construction whose source curve has an odd model."""
    from trigonal.errors import NoRationalWeierstrassPoint

    p = survey.deterministic_prime(bits, 0)
    rng = random.Random(bits)
    while True:
        H = survey.random_curve(p, rng)
        try:
            curves.OddModel.from_curve(H)
        except NoRationalWeierstrassPoint:
            continue
        for S in subgroups.enumerate_tractable(H, fast=True):
            try:
                g = trigmaps.trigonal_map_for(S, H)
            except (NotRational, DegenerateConfiguration):
                continue
            fib = construction.build_fibration(g, g.curve)
            if construction.isogeny_is_rational(fib):
                return g, construction.build_correspondence(fib)


def setup_roundtrip(size):
    ops = []
    sizes, per_construction = SIZES[size]["roundtrip"]
    for bits in sizes:
        g, R = build_roundtrip_construction(bits)
        rng = random.Random(1000 + bits)
        for _ in range(per_construction):
            D = curves.random_class(g.source_curve, 1, rng)
            twice = curves.cantor_mul(D, 2)

            def op(D=D, R=R, twice=twice):
                E = evaluation.reverse_on_xdivisor(evaluation.phi_on_class(D, R), R, D.model)
                if E == twice:
                    return "+2"
                return "-2" if E == -twice else "mismatch"

            ops.append((bits, op))
    # warm up on the second 30-bit class, the cheapest op
    return Plan(ops, warmup=1, deadline_s=45.0)


def check_roundtrip(plan, outputs, size, found):
    bad = []
    signs = {}
    for bits, sign in outputs:
        if sign == "mismatch":
            bad.append(f"{bits}-bit class: reverse(phi(D)) is not +/-2D")
        signs.setdefault(bits, set()).add(sign)
    for bits, seen in sorted(signs.items()):
        if len(seen) > 1:
            bad.append(f"{bits}-bit construction: mixed signs {sorted(seen)}")
    _compare("roundtrip_signs", ",".join(f"{b}:{'/'.join(sorted(s))}" for b, s in sorted(signs.items())), size, bad, found)
    return bad


# --- verify37 ---------------------------------------------------------------


def setup_verify37(size):
    F = fields.prime_field(37)
    H = curves.HCurve.from_coeffs(F, EX37_F)
    subs = subgroups.enumerate_tractable(H)
    if len(subs) != 1:
        raise RuntimeError(f"the worked example has {len(subs)} tractable subgroups, expected 1")
    g = trigmaps.trigonal_map_for(subs[0], H)
    fib = construction.build_fibration(g, H)
    R = construction.build_correspondence(fib, +1)
    ops = []
    for k in SIZES[size]["verify37"]:
        K = fields.make_extension(37, k)
        for t0 in K.elements():
            if not fib.ramified_at(t0, K):
                ops.append(((k, K.encode(t0)), lambda t0=t0, K=K: len(evaluation.fiber_points(R.X, t0, K))))
    ops.append((("zeta", 0), lambda: curves.l_polynomial(H)))
    # warm up on an F_{37^k} fiber of the largest k, the costliest field
    warm = max(range(len(ops) - 1), key=lambda i: ops[i][0][0])
    return Plan(ops, warmup=warm, deadline_s=30.0, context={"fib": fib, "field": F})


def check_verify37(plan, outputs, size, found):
    bad = []
    zeta = [out for (k, _), out in outputs if k == "zeta"]
    if zeta != [EX37_L]:
        bad.append(f"L = {zeta}, expected [{EX37_L}]")
    totals = {}
    for (k, enc), out in outputs:
        if k == "zeta":
            continue
        totals[k] = totals.get(k, 0) + out
        if k == 1:
            F = plan.context["field"]
            oracle = evaluation.fiber_partition_oracle(plan.context["fib"], F.decode(enc), F)
            if oracle != out:
                bad.append(f"t0={enc}: fiber_points gives {out} points, the oracle {oracle}")
    if totals.get(1) != EX37_OPEN_POINTS_F37:
        bad.append(f"{totals.get(1)} open points over F_37, expected {EX37_OPEN_POINTS_F37}")
    if 2 in SIZES[size]["verify37"]:
        _compare("verify37_open_points_f37_2", totals.get(2), size, bad, found)
    return bad


WORKLOADS = {
    "survey30": (setup_survey30, check_survey30),
    "construct160": (setup_construct160, check_construct160),
    "roundtrip": (setup_roundtrip, check_roundtrip),
    "verify37": (setup_verify37, check_verify37),
}
