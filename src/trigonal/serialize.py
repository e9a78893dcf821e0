"""JSON wire formats: curve files, divisor inputs, and isogeny reports.

Field elements travel as decimal strings (no native JSON integers, so 60-bit
and larger primes survive every JSON parser); extension elements are
coefficient arrays tagged with (p, k), the modulus being recomputable from
the deterministic context construction and never transmitted.
"""

from __future__ import annotations

import json

from .curves import HCurve
from .errors import ContextMismatch
from .fields import make_extension, prime_field
from .polyring import BinaryForm, Poly
from .subgroups import TractableSubgroup


def elem_to_json(field, a):
    if field.k == 1:
        return str(a)
    return {"p": str(field.p), "k": field.k, "coeffs": [str(c) for c in field.coeffs(a)]}


def elem_from_json(obj, field=None):
    """Parse an element; field may be inferred from an extension tag."""
    if isinstance(obj, str):
        if field is None:
            raise ValueError("prime-field element needs an explicit context")
        return field.from_int(int(obj))
    p = int(obj["p"])
    k = int(obj["k"])
    f = make_extension(p, k)
    coeffs = [int(c) % p for c in obj["coeffs"]]
    if len(coeffs) != k:
        raise ValueError("extension element has wrong coefficient count")
    return f, f.from_coeffs(coeffs)


def poly_to_json(poly: Poly):
    """Ascending coefficient list of a polynomial over a prime field."""
    if poly.field.k != 1:
        raise ContextMismatch(f"a report polynomial lies over a prime field, not {poly.field!r}")
    return [str(c) for c in poly.c]


def poly_from_json(obj, field) -> Poly:
    return Poly(field, [field.from_int(int(c)) for c in obj])


def curve_to_json(H: HCurve) -> dict:
    return {"p": str(H.field.p), "f": [str(c) for c in H.form.c]}


def parse_curve(obj) -> HCurve:
    if not isinstance(obj, dict) or "p" not in obj or "f" not in obj:
        raise ValueError('curve file must be {"p": "<decimal>", "f": ["a0", ..., "a8"]}')
    p = int(obj["p"])
    coeffs = [int(c) for c in obj["f"]]
    if len(coeffs) == 8:
        coeffs.append(0)
    if len(coeffs) != 9:
        raise ValueError("f must list the 9 coefficients a0..a8 (a8 may be 0)")
    field = prime_field(p)
    return HCurve.from_coeffs(field, coeffs)


def load_curve(path: str) -> HCurve:
    with open(path) as fh:
        return parse_curve(json.load(fh))


def parse_divisor_points(obj):
    """[(x, y)] pluses and minuses as ints, from the divisor wire format."""
    if not isinstance(obj, dict) or "points_plus" not in obj or "points_minus" not in obj:
        raise ValueError('divisor must be {"points_plus": [["x","y"],...], "points_minus": [...]}')
    plus = [(int(x), int(y)) for x, y in obj["points_plus"]]
    minus = [(int(x), int(y)) for x, y in obj["points_minus"]]
    if len(plus) != len(minus):
        raise ValueError("divisor must have equally many plus and minus points")
    return plus, minus


def quad_to_json(q: BinaryForm) -> dict:
    f = q.field
    c0, c1, c2 = q.c
    return {
        "p": str(f.p),
        "k": f.k,
        "v2": elem_to_json(f, c0),
        "uv": elem_to_json(f, c1),
        "u2": elem_to_json(f, c2),
    }


def quad_from_json(obj) -> BinaryForm:
    p = int(obj["p"])
    k = int(obj["k"])
    f = make_extension(p, k)

    def elem(o):
        if isinstance(o, str):
            return f.from_int(int(o))
        ff, v = elem_from_json(o)
        if ff is not f:
            raise ContextMismatch(f"an element of {ff!r} in a quadratic over {f!r}")
        return v

    return BinaryForm(f, 2, (elem(obj["v2"]), elem(obj["uv"]), elem(obj["u2"])))


def subgroup_to_json(S: TractableSubgroup) -> list:
    return [quad_to_json(q) for q in S.quads]


def subgroup_from_json(obj) -> TractableSubgroup:
    return TractableSubgroup.from_quads([quad_from_json(q) for q in obj])


def xdivisor_to_json(DX) -> dict:
    pts = []
    for q, w in DX.entries:
        f = q.field
        pts.append(
            {
                "field": {"p": str(f.p), "k": f.k},
                "t": elem_to_json(f, q.t),
                "b": {name: elem_to_json(f, v) for name, v in q.bmap().items()},
                "weight": w,
            }
        )
    return {"degree": DX.degree, "points": pts}


def isogeny_report(H, S, index, g, fib, plane, X, sign, verification=None) -> dict:
    """Assemble the full construction report (JSON-ready dict)."""
    d1f = plane.delta1_field
    report = {
        "curve": curve_to_json(H),
        "subgroup_index": index,
        "subgroup": subgroup_to_json(S),
        "trigonal_map": {
            "n1": str(g.n1),
            "n0": str(g.n0),
            "d1": str(g.d1),
            "d0": str(g.d0),
        },
        "mobius_pretransform": None
        if g.pre_transform.is_identity
        else [str(c) for c in g.pre_transform.m],
        "G": {
            "g0": poly_to_json(fib.g0),
            "g1": poly_to_json(fib.g1),
            "g2": poly_to_json(fib.g2),
        },
        "f_polys": {
            "f0": poly_to_json(fib.f0),
            "f1": poly_to_json(fib.f1),
            "f2": poly_to_json(fib.f2),
        },
        "s": poly_to_json(fib.s),
        "deltas": {
            "delta0": poly_to_json(plane.delta0),
            "delta1": {
                "k": d1f.k,
                "coeffs": [elem_to_json(d1f, c) for c in plane.delta1.c],
            },
            "delta2": poly_to_json(plane.delta2),
            "delta4": poly_to_json(plane.delta4),
        },
        "x_model": [
            {
                "coeffs": {var: poly_to_json(pol) for var, pol in sorted(row[0].items())},
                "const": poly_to_json(row[1]),
            }
            for row in X.rows
        ],
        "flags": {
            "trigonal_rational": True,
            "isogeny_rational": plane.rational,
        },
        "sign": "+" if sign > 0 else "-",
        "verification": verification,
    }
    return report


def parse_isogeny_report(obj) -> dict:
    """Reconstruct the mathematical objects of a report (for round-trip checks)."""
    H = parse_curve(obj["curve"])
    f = H.field
    S = subgroup_from_json(obj["subgroup"])
    tm = obj["trigonal_map"]
    gmap = tuple(f.from_int(int(tm[k])) for k in ("n1", "n0", "d1", "d0"))
    mob = obj["mobius_pretransform"]
    if mob is not None:
        if not isinstance(mob, list) or len(mob) != 4:
            raise ValueError("mobius_pretransform must be null or four field elements")
        mob = tuple(f.from_int(int(c)) for c in mob)
    out = {
        "curve": H,
        "subgroup": S,
        "subgroup_index": obj["subgroup_index"],
        "trigonal_map": gmap,
        "mobius_pretransform": mob,
        "G": {k: poly_from_json(v, f) for k, v in obj["G"].items()},
        "f_polys": {k: poly_from_json(v, f) for k, v in obj["f_polys"].items()},
        "s": poly_from_json(obj["s"], f),
        "sign": +1 if obj["sign"] == "+" else -1,
        "flags": obj["flags"],
    }
    d1 = obj["deltas"]["delta1"]
    d1f = make_extension(f.p, int(d1["k"]))
    out["deltas"] = {
        "delta0": poly_from_json(obj["deltas"]["delta0"], f),
        "delta2": poly_from_json(obj["deltas"]["delta2"], f),
        "delta4": poly_from_json(obj["deltas"]["delta4"], f),
        "delta1": Poly(
            d1f,
            [
                d1f.from_int(int(c)) if isinstance(c, str) else elem_from_json(c)[1]
                for c in d1["coeffs"]
            ],
        ),
    }
    return out
