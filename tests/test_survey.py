"""Survey machinery: curve sampling, determinism, parallel merge, statistics."""

import math
import random

import pytest

from conftest import count_fibrations
from trigonal.errors import PrimeTooSmall
from trigonal.subgroups import PATTERN_COUNTS, count_for_pattern, partition_weight
from trigonal.survey import (
    CSV_HEADER,
    SurveyConfig,
    deterministic_prime,
    pattern_str,
    random_curve,
    run_survey,
    survey_trial,
    trial_rng,
)

P30 = deterministic_prime(30, 0)


def test_deterministic_prime():
    assert deterministic_prime(30, 0) == deterministic_prime(30, 0)
    assert P30.bit_length() == 30
    assert deterministic_prime(3, 0) in (5, 7)
    for bits in (0, 1, 2):
        # a typed error, also under python -O
        with pytest.raises(PrimeTooSmall):
            deterministic_prime(bits, 0)


def test_random_curve_determinism_and_squarefreeness():
    H1 = random_curve(P30, trial_rng(1, 7))
    H2 = random_curve(P30, trial_rng(1, 7))
    assert H1 == H2
    for i in range(20):
        H = random_curve(1009, trial_rng(2, i))
        assert H.form.is_squarefree()
        assert H.F.degree in (7, 8)


def test_rejection_fraction_matches_squarefree_density():
    # non-squarefree forms have density ~ 1/p
    p = 1009
    rng = random.Random(77)
    from trigonal.fields import prime_field
    from trigonal.polyring import BinaryForm

    f = prime_field(p)
    draws = 100_000
    rejects = 0
    for _ in range(draws):
        coeffs = [rng.randrange(p) for _ in range(9)]
        if not any(coeffs):
            rejects += 1
            continue
        if not BinaryForm(f, 8, coeffs).is_squarefree():
            rejects += 1
    frac = rejects / draws
    assert 0.0002 < frac < 0.003  # ~1/1009 with generous slack


def test_survey_trial_counts_match_pattern():
    for i in range(30):
        pattern, num, trig, isog, _ = survey_trial(P30, 3, i, "full")
        assert num == count_for_pattern(pattern)
        assert len(trig) == num and len(isog) == num
        assert all(not (b and not a) for a, b in zip(trig, isog))


def test_depth_subgroups_equals_full_counts():
    for i in range(20):
        p1 = survey_trial(P30, 4, i, "subgroups")
        p2 = survey_trial(P30, 4, i, "full")
        assert p1[0] == p2[0] and p1[1] == p2[1]


def test_run_survey_deterministic_and_parallel_merge(tmp_path):
    csv_path = tmp_path / "rows.csv"
    cfg1 = SurveyConfig(p=P30, samples=80, seed=5, depth="full", threads=1, csv_path=str(csv_path))
    stats1, rows1 = run_survey(cfg1)
    cfg2 = SurveyConfig(p=P30, samples=80, seed=5, depth="full", threads=2)
    stats2, rows2 = run_survey(cfg2)
    assert rows1 == rows2
    assert stats1.summary() == stats2.summary()
    header = csv_path.read_text().splitlines()[0]
    assert header == ",".join(CSV_HEADER)
    line1 = csv_path.read_text().splitlines()[1].split(",")
    assert len(line1) == 6
    assert stats1.samples == 80
    assert stats1.total_subgroups == sum(r[2] for r in rows1)


def test_pattern_rendering():
    assert pattern_str((6, 1, 1)) == "6-1-1"
    assert pattern_str((8,)) == "8"


def test_pattern_histogram_matches_weights():
    # the factor-pattern distribution follows the partition weights
    cfg = SurveyConfig(p=P30, samples=3000, seed=9, depth="subgroups", threads=2)
    stats, _ = run_survey(cfg)
    n = stats.samples
    for t, w in ((t, partition_weight(t)) for t in list(PATTERN_COUNTS) + [(7, 1), (5, 3)]):
        obs = stats.pattern_hist.get(pattern_str(t), 0)
        mean = n * float(w)
        sigma = math.sqrt(n * float(w) * (1 - float(w)))
        assert abs(obs - mean) <= 4 * sigma + 1, (t, obs, mean)


def test_survey_fraction_sanity_small():
    cfg = SurveyConfig(p=P30, samples=400, seed=13, depth="full", threads=2)
    stats, rows = run_survey(cfg)
    assert abs(float(stats.subgroup_fraction()) - 0.5016) < 0.1
    assert stats.curves_with_success <= stats.curves_with_subgroup
    # per-curve: success iff some subgroup has both flags
    for _, _, num, nt, ni, success in rows:
        assert (ni > 0) == bool(success)
        assert ni <= nt <= num


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        SurveyConfig(p=P30, samples=0)
    with pytest.raises(ValueError):
        SurveyConfig(p=P30, samples=5, depth="everything")


def test_criterion_8_rows_frozen():
    # CSV rows of the first 300 trials of criterion 8's seed, recorded before
    # the survey's factorization and root finding were rewritten: any drift
    # in a trial's pattern, counts or flags changes the digest
    import hashlib

    cfg = SurveyConfig(p=P30, samples=300, seed=20080514, depth="full", threads=1)
    _, rows = run_survey(cfg)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "54485f61898c9b048ded6dc9a155ba51b0b71b996007fd5cc8e51cafc8fd6e36"


def test_survey_trial_builds_no_fibration(monkeypatch):
    calls = count_fibrations(monkeypatch)
    isog = [survey_trial(P30, 20080514, i, "full")[3] for i in range(50)]
    assert calls == []
    assert any(any(flags) for flags in isog)


def test_survey_trial_counts_a_fibration_failure(monkeypatch):
    from trigonal import construction
    from trigonal.errors import SquareRootObstruction

    i = next(i for i in range(50) if any(survey_trial(P30, 20080514, i, "full")[2]))
    before = survey_trial(P30, 20080514, i, "full")
    real = construction.build_fibration
    raised = []

    def obstruct_once(g, H):
        if raised:
            return real(g, H)
        raised.append(g)
        raise SquareRootObstruction("forced")

    # every value of s reads zero, so assess builds the fibration, which fails once
    monkeypatch.setattr(construction, "_isog_from_value", lambda g: None)
    monkeypatch.setattr(construction, "build_fibration", obstruct_once)
    after = survey_trial(P30, 20080514, i, "full")
    assert len(raised) == 1
    assert after[:3] == before[:3]
    assert after[4] == before[4] + 1
