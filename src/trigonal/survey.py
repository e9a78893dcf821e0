"""Monte Carlo survey over random curves: subgroup counts and rationality rates.

Trials are independent: trial i draws its rng from SHA-256(master seed, i),
so any execution order (and any worker count) produces identical statistics,
which merge as plain sums.  Per trial: sample a squarefree octic form, read
off the factor pattern, enumerate the tractable subgroups, and read each
one's construction.assess verdict: a rational trigonal map (square pencil
discriminant) and then a rational isogeny (square leading coefficient of s,
read from one nonzero value s(t0); the fibration itself is not built).
Each piece of per-curve work runs once: the octic's orbit split feeds both
the pattern and the enumeration, and assess hands the pencil found for the
discriminant to the trigonal map.
"""

from __future__ import annotations

import csv
import hashlib
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .construction import assess
from .curves import HCurve
from .errors import PrimeTooSmall
from .fields import is_prime, prime_field
from .polyring import BinaryForm
from .subgroups import OrbitSplit, count_for_pattern, enumerate_tractable

CSV_HEADER = ("trial", "pattern", "num_tractable", "num_trig_rational", "num_isog_rational", "success")

DEPTHS = ("subgroups", "trigonal", "full")


def pattern_str(pattern) -> str:
    return "-".join(str(d) for d in pattern)


@dataclass
class SurveyConfig:
    p: int
    samples: int
    seed: int = 0
    depth: str = "full"
    csv_path: str | None = None
    threads: int | None = None

    def __post_init__(self):
        if self.depth not in DEPTHS:
            raise ValueError(f"depth must be one of {DEPTHS}")
        prime_field(self.p)  # validates p
        if self.samples < 1:
            raise ValueError("need at least one sample")


@dataclass
class SurveyStats:
    samples: int = 0
    curves_with_subgroup: int = 0
    total_subgroups: int = 0
    trig_rational_subgroups: int = 0
    isog_rational_subgroups: int = 0
    curves_with_success: int = 0
    degenerate_failures: int = 0
    pattern_hist: dict = field(default_factory=dict)
    contingency: dict = field(default_factory=dict)

    def merge(self, other: "SurveyStats"):
        self.samples += other.samples
        self.curves_with_subgroup += other.curves_with_subgroup
        self.total_subgroups += other.total_subgroups
        self.trig_rational_subgroups += other.trig_rational_subgroups
        self.isog_rational_subgroups += other.isog_rational_subgroups
        self.curves_with_success += other.curves_with_success
        self.degenerate_failures += other.degenerate_failures
        for k, v in other.pattern_hist.items():
            self.pattern_hist[k] = self.pattern_hist.get(k, 0) + v
        for size, hist in other.contingency.items():
            mine = self.contingency.setdefault(size, {})
            for k, v in hist.items():
                mine[k] = mine.get(k, 0) + v
        return self

    # exact fractions (None when the denominator is empty)
    def subgroup_fraction(self):
        return Fraction(self.curves_with_subgroup, self.samples) if self.samples else None

    def trig_fraction(self):
        return Fraction(self.trig_rational_subgroups, self.total_subgroups) if self.total_subgroups else None

    def isog_fraction(self):
        return Fraction(self.isog_rational_subgroups, self.trig_rational_subgroups) if self.trig_rational_subgroups else None

    def success_fraction(self):
        return Fraction(self.curves_with_success, self.samples) if self.samples else None

    def summary(self) -> dict:
        def render(fr):
            return None if fr is None else {"exact": f"{fr.numerator}/{fr.denominator}", "decimal": f"{float(fr):.4f}"}

        return {
            "samples": self.samples,
            "curves_with_subgroup": self.curves_with_subgroup,
            "total_subgroups": self.total_subgroups,
            "trig_rational_subgroups": self.trig_rational_subgroups,
            "isog_rational_subgroups": self.isog_rational_subgroups,
            "curves_with_success": self.curves_with_success,
            "degenerate_failures": self.degenerate_failures,
            "subgroup_fraction": render(self.subgroup_fraction()),
            "trig_fraction_of_subgroups": render(self.trig_fraction()),
            "isog_fraction_of_trig": render(self.isog_fraction()),
            "success_fraction": render(self.success_fraction()),
            "pattern_hist": dict(sorted(self.pattern_hist.items())),
            "contingency": {str(k): dict(sorted(v.items())) for k, v in sorted(self.contingency.items())},
        }


def trial_rng(master_seed: int, index: int) -> random.Random:
    h = hashlib.sha256(f"trigonal-survey:{master_seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(h, "big"))


def random_curve(p: int, rng) -> HCurve:
    """Uniformly random squarefree degree-8 binary form over F_p (rejection sampled)."""
    f = prime_field(p)
    while True:
        coeffs = [rng.randrange(p) for _ in range(9)]
        if not any(coeffs):
            continue
        try:
            return HCurve(f, BinaryForm(f, 8, coeffs))
        except ValueError:  # not squarefree
            continue


def survey_trial(p: int, master_seed: int, index: int, depth: str):
    """One trial: (pattern tuple, num_tractable, trig flags, isog flags, failure count)."""
    rng = trial_rng(master_seed, index)
    H = random_curve(p, rng)
    split = OrbitSplit(H)
    pattern = split.pattern
    if depth == "subgroups":
        return pattern, count_for_pattern(pattern), (), (), 0
    subs = enumerate_tractable(H, fast=True, split=split)
    verdicts = [assess(S, H, full=depth == "full") for S in subs]
    trig = tuple(bool(v.trig) for v in verdicts)
    isog = tuple(bool(v.isog) for v in verdicts)
    return pattern, len(subs), trig, isog, sum(v.failure is not None for v in verdicts)


def _run_range(args):
    p, master_seed, start, stop, depth = args
    stats = SurveyStats()
    rows = []
    for i in range(start, stop):
        pattern, num, trig, isog, degen = survey_trial(p, master_seed, i, depth)
        stats.samples += 1
        stats.degenerate_failures += degen
        key = pattern_str(pattern)
        stats.pattern_hist[key] = stats.pattern_hist.get(key, 0) + 1
        stats.total_subgroups += num
        if num:
            stats.curves_with_subgroup += 1
        nt = sum(trig)
        ni = sum(isog)
        stats.trig_rational_subgroups += nt
        stats.isog_rational_subgroups += ni
        success = ni > 0
        if success and depth == "full":
            stats.curves_with_success += 1
        if depth == "full" and num in (3, 5, 7):
            hist = stats.contingency.setdefault(num, {})
            hist[ni] = hist.get(ni, 0) + 1
        rows.append((i, key, num, nt, ni, int(success)))
    return stats, rows


def worker_count(requested: int | None = None) -> int:
    if requested is not None:
        return max(1, requested)
    env = os.environ.get("TRIGONAL_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def run_survey(cfg: SurveyConfig):
    """(SurveyStats, row list); rows follow the fixed CSV schema, in trial order."""
    n = cfg.samples
    workers = worker_count(cfg.threads)
    chunk = max(1, min(500, n // (4 * workers) or 1))
    ranges = [(cfg.p, cfg.seed, s, min(s + chunk, n), cfg.depth) for s in range(0, n, chunk)]
    stats = SurveyStats()
    rows = []
    if workers == 1 or len(ranges) == 1:
        results = map(_run_range, ranges)
        for st, rw in results:
            stats.merge(st)
            rows.extend(rw)
    else:
        # imported here: the process machinery costs every other caller of
        # this module about 2 MB of memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for st, rw in pool.map(_run_range, ranges):
                stats.merge(st)
                rows.extend(rw)
    if cfg.csv_path:
        with open(cfg.csv_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            w.writerows(rows)
    return stats, rows


def deterministic_prime(bits: int, seed: int) -> int:
    """A reproducible prime with the given bit length, derived from the seed."""
    if bits < 3:
        raise PrimeTooSmall(f"{bits}-bit primes are at most 3 (need at least 3 bits)")
    rng = random.Random(int.from_bytes(hashlib.sha256(f"trigonal-prime:{bits}:{seed}".encode()).digest(), "big"))
    while True:
        c = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if c > 3 and is_prime(c):
            return c
