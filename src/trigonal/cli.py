"""Command-line interface.

Subcommands: analyze | isogeny | map | verify | survey | expectation.
Reports go to stdout as JSON (expectation prints a plain line); structured
error objects go to stderr.  Exit codes: 0 success, 1 mathematical failure
(no rational map, degenerate configuration, ...), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import serialize
from .construction import assess, build_correspondence
from .curves import OddModel, class_from_points, l_polynomial, random_class
from .errors import NotRational, TooLarge, TrigonalError
from .evaluation import consensus_sign, fiber_partition_oracle, fiber_points, phi_on_class
from .fields import make_extension
from .subgroups import OrbitSplit, enumerate_tractable, expectation
from .survey import SurveyConfig, deterministic_prime, pattern_str, run_survey

# the isogeny report counts points for zeta_h only up to p^3 = 2^21
_REPORT_ZETA_ORDER = 1 << 21


def cmd_analyze(args):
    H = serialize.load_curve(args.curve)
    split = OrbitSplit(H)
    subs = enumerate_tractable(H, split=split)
    verdicts = [assess(S, H) for S in subs]
    doc = {
        "curve": serialize.curve_to_json(H),
        "pattern": pattern_str(split.pattern),
        "num_tractable": len(subs),
        "subgroups": [
            {
                "index": i,
                "quadratics": serialize.subgroup_to_json(S),
                "trigonal_rational": v.trig,
                "isogeny_rational": v.isog,
            }
            for i, (S, v) in enumerate(zip(subs, verdicts))
        ],
    }
    print(json.dumps(doc, indent=2))
    return 0


def _pick_subgroup(H, subs, index):
    """(index, verdict) of the first subgroup whose verdict has a map, or of subgroup index.

    A given index whose verdict has no map raises the verdict's failure, or
    NotRational.
    """
    if not subs:
        raise NotRational("curve has no rational tractable subgroup")
    if index is not None and not 0 <= index < len(subs):
        raise NotRational(f"subgroup index {index} out of range 0..{len(subs) - 1}")
    for i in range(len(subs)) if index is None else (index,):
        v = assess(subs[i], H)
        if v.map is not None:
            return i, v
        if index is not None:
            raise v.failure or NotRational(f"subgroup {index} admits no rational trigonal map")
    raise NotRational("no subgroup admits a rational trigonal map")


def _build(H, index=None, sign=+1):
    subs = enumerate_tractable(H)
    i, v = _pick_subgroup(H, subs, index)
    R = build_correspondence(v.fibration, sign)
    return subs, i, subs[i], v.map, v.fibration, R


def _zeta_if_cheap(H):
    if H.field.p ** 3 > _REPORT_ZETA_ORDER:
        return None
    return [str(c) for c in l_polynomial(H)]


def cmd_isogeny(args):
    H = serialize.load_curve(args.curve)
    sign = +1 if args.sign != "-" else -1
    subs, i, S, g, fib, R = _build(H, args.subgroup, sign)
    verification = {"zeta_h": _zeta_if_cheap(H), "roundtrip_sign": None}
    doc = serialize.isogeny_report(H, S, i, g, fib, R.plane, R.X, sign, verification)
    print(json.dumps(doc, indent=2))
    return 0


def cmd_map(args):
    H = serialize.load_curve(args.curve)
    spec = args.divisor
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            obj = json.load(fh)
    else:
        obj = json.loads(spec)
    plus, minus = serialize.parse_divisor_points(obj)
    sign = +1 if args.sign != "-" else -1
    _, _, S, g, fib, R = _build(H, args.subgroup, sign)
    model = OddModel.from_curve(H)
    f = H.field

    def odd_point(x, y):
        pt = (f.from_int(x), f.one, f.from_int(y))
        if not H.on_curve(pt):
            raise ValueError(f"({x}, {y}) does not lie on the curve")
        return model.to_odd(pt)

    D = class_from_points(model, [odd_point(x, y) for x, y in plus], [odd_point(x, y) for x, y in minus])
    rng = random.Random(args.seed)
    DX = phi_on_class(D, R, rng)
    print(json.dumps(serialize.xdivisor_to_json(DX), indent=2))
    return 0


def cmd_verify(args):
    H = serialize.load_curve(args.curve)
    _, _, S, g, fib, R = _build(H, args.subgroup, +1)
    rng = random.Random(args.seed)
    doc = {"curve": serialize.curve_to_json(H)}
    try:
        doc["zeta_h"] = [str(c) for c in l_polynomial(H)]
    except TooLarge:
        doc["zeta_h"] = None
    classes = [random_class(H, 1, rng) for _ in range(args.trials)]
    doc["roundtrip"] = {"trials": args.trials, "consensus": consensus_sign(classes, R, rng)}
    field = make_extension(H.field.p, args.ext)
    tested = agreed = 0
    limit = 64
    while tested < args.trials and limit:
        limit -= 1
        t0 = field.random(rng)
        if fib.ramified_at(t0, field):
            continue
        n = len(fiber_points(R.X, t0, field))
        tested += 1
        agreed += int(n == fiber_partition_oracle(fib, t0, field))
    doc["fiber_checks"] = {"field_degree": args.ext, "tested": tested, "agreed": agreed}
    ok = doc["roundtrip"]["consensus"] in ("+2", "-2") and agreed == tested
    doc["ok"] = ok
    print(json.dumps(doc, indent=2))
    return 0 if ok else 1


def cmd_survey(args):
    if args.prime is not None:
        p = args.prime
    elif args.prime_bits is not None:
        p = deterministic_prime(args.prime_bits, args.seed)
    else:
        raise ValueError("survey needs --prime or --prime-bits")
    cfg = SurveyConfig(
        p=p,
        samples=args.samples,
        seed=args.seed,
        depth=args.depth,
        csv_path=args.csv,
    )
    stats, _ = run_survey(cfg)
    doc = {"prime": str(p), "seed": args.seed, "depth": args.depth}
    doc.update(stats.summary())
    print(json.dumps(doc, indent=2))
    return 0


def cmd_expectation(args):
    frac = Fraction(args.success_prob)
    res = expectation(frac)
    print(f"{res.value} ~ {res.decimal4}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="trigonal", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="factor pattern, tractable subgroups, rationality flags")
    a.add_argument("--curve", required=True)
    a.set_defaults(fn=cmd_analyze)

    i = sub.add_parser("isogeny", help="full construction report for one subgroup")
    i.add_argument("--curve", required=True)
    i.add_argument("--subgroup", type=int, default=None)
    i.add_argument("--sign", choices=["+", "-"], default="+")
    i.set_defaults(fn=cmd_isogeny)

    m = sub.add_parser("map", help="evaluate the isogeny on a divisor")
    m.add_argument("--curve", required=True)
    m.add_argument("--divisor", required=True, help="inline JSON or @file")
    m.add_argument("--subgroup", type=int, default=None)
    m.add_argument("--sign", choices=["+", "-"], default="+")
    m.add_argument("--seed", type=int, default=0)
    m.set_defaults(fn=cmd_map)

    v = sub.add_parser("verify", help="zeta, round-trip consensus, fiber oracle checks")
    v.add_argument("--curve", required=True)
    v.add_argument("--subgroup", type=int, default=None)
    v.add_argument("--trials", type=int, default=8)
    v.add_argument("--ext", type=int, default=1)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("survey", help="Monte Carlo rationality survey over random curves")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--prime", type=int)
    g.add_argument("--prime-bits", type=int)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--depth", choices=["subgroups", "trigonal", "full"], default="full")
    s.add_argument("--csv", default=None)
    s.set_defaults(fn=cmd_survey)

    e = sub.add_parser("expectation", help="exact expected success fraction over random curves")
    e.add_argument("--success-prob", default="1/4")
    e.set_defaults(fn=cmd_expectation)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except TrigonalError as exc:
        print(json.dumps(exc.payload()), file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "bad_input", "detail": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
