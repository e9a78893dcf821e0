"""Isogeny reports: the Mobius pre-transform survives a parse and re-serialization."""

import json
import random

import pytest

from trigonal import serialize
from trigonal.curves import HCurve, Mobius
from trigonal.errors import ContextMismatch
from trigonal.fields import ExtField, make_extension, prime_field
from trigonal.polyring import BinaryForm, Poly, is_irreducible
from trigonal.subgroups import enumerate_tractable
from trigonal.survey import random_curve
from trigonal.trigmaps import TrigonalMap


def _report(H, S, g, R, pre):
    g2 = TrigonalMap(g.field, g.n1, g.n0, g.d1, g.d0, g.curve, g.subgroup, pre, H)
    return serialize.isogeny_report(H, S, 0, g2, R.fib, R.plane, R.X, +1)


def test_mobius_pretransform_roundtrip(ex37_curve, ex37_subgroup, ex37_map, ex37_R, F37):
    pre = Mobius(F37, 3, 5, 7, 2)
    doc = _report(ex37_curve, ex37_subgroup, ex37_map, ex37_R, pre)
    assert doc["mobius_pretransform"] == ["3", "5", "7", "2"]
    parsed = serialize.parse_isogeny_report(doc)
    assert parsed["mobius_pretransform"] == pre.m
    rebuilt = Mobius(F37, *parsed["mobius_pretransform"])
    assert _report(ex37_curve, ex37_subgroup, ex37_map, ex37_R, rebuilt) == doc


def test_identity_pretransform_parses_as_none(ex37_curve, ex37_subgroup, ex37_map, ex37_R, F37):
    doc = _report(ex37_curve, ex37_subgroup, ex37_map, ex37_R, Mobius.identity(F37))
    assert doc["mobius_pretransform"] is None
    assert serialize.parse_isogeny_report(doc)["mobius_pretransform"] is None


def test_malformed_pretransform_rejected(ex37_curve, ex37_subgroup, ex37_map, ex37_R, F37):
    doc = _report(ex37_curve, ex37_subgroup, ex37_map, ex37_R, Mobius(F37, 3, 5, 7, 2))
    doc["mobius_pretransform"] = ["1", "2", "3"]
    with pytest.raises(ValueError):
        serialize.parse_isogeny_report(doc)


# typed errors for malformed inputs, also under python -O


def test_poly_to_json_rejects_an_extension_polynomial():
    K = make_extension(37, 2)
    with pytest.raises(ContextMismatch):
        serialize.poly_to_json(Poly(K, [K.one, K.from_coeffs((0, 1))]))


def test_quad_from_json_rejects_an_element_of_another_field():
    K = make_extension(37, 2)
    doc = serialize.quad_to_json(BinaryForm(K, 2, (K.from_coeffs((3, 1)), K.one, K.one)))
    doc["uv"] = serialize.elem_to_json(make_extension(37, 4), make_extension(37, 4).one)
    with pytest.raises(ContextMismatch):
        serialize.quad_from_json(doc)


def test_extension_elements_round_trip_through_json():
    K = make_extension(37, 3)
    a = K.from_coeffs((5, 0, 36))
    doc = serialize.elem_to_json(K, a)
    assert doc == {"p": "37", "k": 3, "coeffs": ["5", "0", "36"]}
    assert serialize.elem_from_json(doc) == (K, a)


def test_a_fast_subgroup_survives_serialization():
    # orbit-algebra quadratics are written over the deterministic contexts
    # that their (p, k) tags name, so parsing gives the canonical subgroup
    rng = random.Random(5)
    for _ in range(40):
        H = random_curve(101, rng)
        docs = [serialize.subgroup_to_json(S) for S in enumerate_tractable(H, fast=True)]
        parsed = sorted((serialize.subgroup_from_json(d) for d in docs), key=lambda s: s.key())
        assert parsed == enumerate_tractable(H)


def test_a_curve_over_an_extension_survives_its_file(ex37_curve):
    K = make_extension(37, 2)
    H = ex37_curve.base_change(K)
    twisted = H.twist(K.from_coeffs((3, 1)))  # coefficients off F_37
    for C in (H, twisted):
        doc = json.loads(json.dumps(serialize.curve_to_json(C)))
        assert doc["k"] == 2 and all(len(c) == 2 for c in doc["f"])
        assert serialize.parse_curve(doc) == C
    # a file over F_p has no "k", and reads as before
    doc = serialize.curve_to_json(ex37_curve)
    assert doc == {"p": "37", "f": [str(c) for c in ex37_curve.form.c]}
    assert serialize.parse_curve(doc) == ex37_curve


def test_a_curve_file_names_only_the_canonical_extension(ex37_curve):
    F = prime_field(37)
    modulus = next(m for m in ([c, 1, 1] for c in range(37)) if is_irreducible(Poly(F, m)))
    assert tuple(modulus) != make_extension(37, 2).modulus
    A = ExtField(F, modulus)
    with pytest.raises(ContextMismatch):
        serialize.curve_to_json(HCurve(A, BinaryForm(A, 8, ex37_curve.form.c)))
    with pytest.raises(ValueError):
        serialize.parse_curve({"p": "37", "k": 2, "f": ["1"] * 9})
