"""Shared fixtures: the F_37 worked example and random-curve helpers."""

import os
import subprocess
import sys

import pytest

from trigonal import construction
from trigonal.construction import build_correspondence, build_fibration
from trigonal.curves import HCurve, OddModel
from trigonal.fields import prime_field
from trigonal.polyring import Poly, is_irreducible
from trigonal.subgroups import enumerate_tractable
from trigonal.trigmaps import trigonal_map_for

from ex37 import *  # noqa: F401,F403

@pytest.fixture(scope="session")
def F37():
    return prime_field(37)


@pytest.fixture(scope="session")
def ex37_curve(F37):
    return HCurve.from_coeffs(F37, EX37_F)


@pytest.fixture(scope="session")
def ex37_model(ex37_curve):
    return OddModel.from_curve(ex37_curve)


@pytest.fixture(scope="session")
def ex37_subgroup(ex37_curve):
    subs = enumerate_tractable(ex37_curve)
    assert len(subs) == 1
    return subs[0]


@pytest.fixture(scope="session")
def ex37_map(ex37_subgroup, ex37_curve):
    return trigonal_map_for(ex37_subgroup, ex37_curve)


@pytest.fixture(scope="session")
def ex37_fibration(ex37_map, ex37_curve):
    return build_fibration(ex37_map, ex37_curve)


@pytest.fixture(scope="session")
def ex37_R(ex37_fibration):
    return build_correspondence(ex37_fibration, +1)


def random_irreducible(field, degree, rng) -> Poly:
    """A random monic irreducible of the given degree."""
    if degree == 1:
        return Poly(field, [field.random(rng), field.one])
    while True:
        f = Poly(field, [field.random(rng) for _ in range(degree)] + [field.one])
        if is_irreducible(f):
            return f


def curve_with_pattern(field, pattern, rng) -> HCurve:
    """A curve whose hyperelliptic polynomial has the given factor degrees."""
    assert sum(pattern) == 8
    while True:
        parts = []
        seen = set()
        for d in pattern:
            while True:
                f = random_irreducible(field, d, rng)
                if f.encode() not in seen:
                    seen.add(f.encode())
                    parts.append(f)
                    break
        F = Poly.one(field)
        for f in parts:
            F = F * f
        try:
            return HCurve.from_coeffs(field, [F[i] for i in range(9)])
        except ValueError:
            continue


def random_hcurve(p, rng) -> HCurve:
    from trigonal.survey import random_curve

    return random_curve(p, rng)


def constructions(p, count, rng, need_isogeny=False, need_odd_model=False):
    """Yield (H, S, g, fib) for random curves with a rational trigonal map."""
    from trigonal.errors import DegenerateConfiguration, NoRationalWeierstrassPoint, NotRational

    out = 0
    field = prime_field(p)
    while out < count:
        H = random_hcurve(p, rng)
        if need_odd_model:
            try:
                OddModel.from_curve(H)
            except NoRationalWeierstrassPoint:
                continue
        for S in enumerate_tractable(H):
            try:
                g = trigonal_map_for(S, H)
            except (NotRational, DegenerateConfiguration):
                continue
            fib = build_fibration(g, g.curve)
            if need_isogeny and not field.is_square(fib.alpha):
                continue
            yield H, S, g, fib
            out += 1
            if out >= count:
                break


def run_under(flags, code, *args, timeout=60):
    """Run code in a child interpreter with the given flags (such as -O) and this sys.path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, *flags, "-c", code, *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=timeout)


def count_fibrations(monkeypatch):
    """The maps construction.build_fibration is called on from here on (assess and Verdict call it by name)."""
    calls = []
    real = construction.build_fibration
    monkeypatch.setattr(construction, "build_fibration", lambda g, H: calls.append(g) or real(g, H))
    return calls
