import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from optomagnon.montecarlo import (
    CLICK_CATEGORIES,
    ClickRecord,
    EstimateWithError,
    EstimatorError,
    click_fractions,
    count_table,
    estimate_g2,
    estimate_witness,
    records_from_csv,
    records_to_csv,
    sample_chunks,
    sample_counts,
    sample_trials,
    write_records,
)
from optomagnon.protocol import ProtocolConfig, exact_joint_statistics, witness_ratio


def _boosted_config(**overrides):
    # larger probabilities and a full read swap so counting statistics are
    # meaningful at modest trial counts
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ProtocolConfig(pulse_mean_photons=0.1, stokes_probability=0.1,
                              read_swap_angle_rad=math.pi / 2, **overrides)


def test_sampling_is_deterministic():
    cfg = _boosted_config()
    first = sample_trials(cfg, 5000, seed=99)
    second = sample_trials(cfg, 5000, seed=99)
    assert first == second
    assert [r.trial_index for r in first] == list(range(5000))


def test_sampling_uses_config_seed_by_default():
    cfg = _boosted_config(rng_seed=1234)
    assert sample_trials(cfg, 100) == sample_trials(cfg, 100, seed=1234)


def test_zero_pulse_gives_no_stokes_clicks():
    cfg = ProtocolConfig(pulse_mean_photons=0.0)
    records = sample_trials(cfg, 500, seed=2)
    assert all(r.stokes_click == "none" for r in records)


def test_stokes_click_rate_matches_exact_herald():
    cfg = ProtocolConfig()  # reference defaults
    n = 100_000
    records = sample_trials(cfg, n, seed=5)
    table = exact_joint_statistics(cfg).click_pattern_probabilities()
    exact = table[1, :].sum()
    empirical = click_fractions(count_table(records))["stokes_detector1"]
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(empirical - exact) <= 4 * sigma


def test_g2_for_independent_streams_is_one():
    rng = np.random.default_rng(7)
    n = 40_000
    records = [
        ClickRecord(i,
                    "detector1" if rng.random() < 0.3 else "none",
                    "detector1" if rng.random() < 0.4 else "none")
        for i in range(n)
    ]
    est = estimate_g2(count_table(records), 1, 1)
    assert abs(est.value - 1.0) <= 4 * est.standard_error


def test_g2_estimate_matches_exact_click_correlation():
    cfg = _boosted_config()
    records = sample_trials(cfg, 60_000, seed=21)
    stats = exact_joint_statistics(cfg)
    for anti in (1, 2):
        est = estimate_g2(count_table(records), anti, 1)
        exact = stats.g2_click(anti, 1)
        assert abs(est.value - exact) <= 4 * max(est.standard_error, 1e-12)


def test_g2_zero_marginals_raise():
    records = [ClickRecord(0, "none", "detector1"), ClickRecord(1, "none", "none")]
    with pytest.raises(EstimatorError):
        estimate_g2(count_table(records), 1, 1)
    with pytest.raises(EstimatorError):
        estimate_g2(count_table([]), 1, 1)
    with pytest.raises(EstimatorError):
        estimate_g2(count_table(records), 3, 1)


def test_witness_estimate_brackets_exact_value():
    cfg = _boosted_config()
    n = 80_000
    counts_by_phase = {}
    for k, phi in enumerate((math.pi / 2, 2.3)):
        cfg_phi = replace(cfg, read_phase_rad=phi)
        counts_by_phase[phi] = count_table(sample_trials(cfg_phi, n, seed=31, stream_tags=(k,)))
    points = estimate_witness(counts_by_phase, stokes_detector=1)
    for point in points:
        assert not point.divergent
        stats = exact_joint_statistics(replace(cfg, read_phase_rad=point.delta_phi))
        exact, _ = witness_ratio(stats.g2_click(1, 1), stats.g2_click(2, 1), 1e-12)
        assert abs(point.r_m - exact) <= 4 * point.r_m_error
        assert point.r_m < 1.0  # entangled state detected from counts alone


def test_witness_estimate_flags_balanced_denominator():
    rng = np.random.default_rng(13)
    records = [
        ClickRecord(i,
                    "detector1" if rng.random() < 0.2 else "none",
                    ("detector1", "detector2")[rng.integers(2)] if rng.random() < 0.3 else "none")
        for i in range(20_000)
    ]
    point = estimate_witness({0.0: count_table(records)}, stokes_detector=1)[0]
    assert point.divergent
    assert math.isinf(point.r_m)


def test_sample_trials_validation():
    with pytest.raises(EstimatorError):
        sample_trials(ProtocolConfig(), 0)


def test_estimate_with_error_validation():
    with pytest.raises(ValueError):
        EstimateWithError(1.0, -0.1, 10)
    with pytest.raises(ValueError):
        EstimateWithError(1.0, 0.1, 0)


def test_record_csv_round_trip():
    records = [ClickRecord(0, "none", "detector2"), ClickRecord(1, "both", "none")]
    text = records_to_csv(records)
    assert text.splitlines()[0] == "trial_index,stokes_click,antistokes_click"
    assert records_from_csv(text) == records
    with pytest.raises(EstimatorError):
        records_from_csv("bogus\n0,none,none\n")
    with pytest.raises(ValueError):
        ClickRecord(0, "nope", "none")


def test_click_categories_exhaustive():
    cfg = _boosted_config()
    records = sample_trials(cfg, 2000, seed=17)
    for r in records:
        assert r.stokes_click in CLICK_CATEGORIES
        assert r.antistokes_click in CLICK_CATEGORIES


def test_no_nan_in_any_estimate():
    # impossible estimates must surface as errors or flags, never NaN
    cfg = _boosted_config()
    counts = count_table(sample_trials(cfg, 30_000, seed=41))
    for anti in (1, 2):
        est = estimate_g2(counts, anti, 1)
        assert math.isfinite(est.value) and math.isfinite(est.standard_error)
    point = estimate_witness({cfg.read_phase_rad: counts}, stokes_detector=1)[0]
    assert not math.isnan(point.r_m)
    assert not math.isnan(point.g2_a1) and not math.isnan(point.g2_a2)
    if point.r_m_error is not None:
        assert math.isfinite(point.r_m_error)


def test_sample_counts_is_the_count_table_of_the_records():
    cfg = _boosted_config()
    stats = exact_joint_statistics(cfg)
    for n in (1, 4096, 4097, 10_000):
        records = sample_trials(cfg, n, seed=8, stream_tags=(2,), statistics=stats)
        counts = sample_counts(cfg, n, seed=8, stream_tags=(2,), statistics=stats)
        assert counts.shape == (4, 4) and int(counts.sum()) == n
        assert np.array_equal(counts, count_table(records))


def test_estimators_read_count_tables_only():
    records = [ClickRecord(0, "detector1", "detector1"), ClickRecord(1, "none", "none")]
    with pytest.raises(EstimatorError):
        estimate_g2(records, 1, 1)
    with pytest.raises(EstimatorError):
        click_fractions(records)
    with pytest.raises(EstimatorError):
        click_fractions(count_table([]))


def test_g2_arithmetic_is_exact_in_integers():
    # n_s * n_a exceeds 2**53 here, where float division rounds differently
    n, n_s, n_a, n_c = 1521760889, 169502435, 237244262, 1000
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[1, 1] = n_c
    counts[1, 0] = n_s - n_c
    counts[0, 1] = n_a - n_c
    counts[0, 0] = n - n_s - n_a + n_c
    est = estimate_g2(counts, 1, 1)
    assert est.n_trials == n
    assert est.value == n_c * (n / (n_s * n_a))
    assert n / (n_s * n_a) != float(np.int64(n) / (np.int64(n_s) * np.int64(n_a)))


def test_streamed_records_match_record_serialization():
    import dataclasses
    import io
    import json

    cfg = _boosted_config()
    records = sample_trials(cfg, 5000, seed=4)
    csv_out, json_out = io.StringIO(), io.StringIO()
    write_records(sample_chunks(cfg, 5000, seed=4), csv_out, "csv")
    write_records(sample_chunks(cfg, 5000, seed=4), json_out, "json")
    assert csv_out.getvalue() == records_to_csv(records)
    assert json_out.getvalue() == json.dumps(
        [dataclasses.asdict(r) for r in records], indent=2) + "\n"
    with pytest.raises(EstimatorError):
        sample_chunks(cfg, 0)
