"""Isogeny reports: the Mobius pre-transform survives a parse and re-serialization."""

import random

import pytest

from trigonal import serialize
from trigonal.curves import Mobius
from trigonal.errors import ContextMismatch
from trigonal.fields import make_extension
from trigonal.polyring import BinaryForm, Poly
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
