import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optomagnon.channels import DetectorSpec
from optomagnon.montecarlo import (
    _CSV_TAILS,
    _JSON_HEAD,
    _JSON_TAILS,
    CHUNK_TRIALS,
    CLICK_CATEGORIES,
    ClickRecord,
    EstimateWithError,
    EstimatorError,
    _byte_table,
    _draw_chunks,
    _format_chunk,
    _outcome_probabilities,
    click_fractions,
    count_table,
    estimate_g2,
    estimate_witness,
    records_to_csv,
    sample_chunks,
    sample_counts,
    sample_trials,
    write_records,
)
from optomagnon.protocol import ProtocolConfig, exact_joint_statistics, exact_witness_ratio


def _boosted_config(**overrides):
    # larger probabilities and a full read swap so counting statistics are
    # meaningful at modest trial counts
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ProtocolConfig(pulse_mean_photons=0.1, stokes_probability=0.1,
                              read_swap_angle_rad=math.pi / 2, **overrides)


def test_sampling_is_deterministic():
    cfg = _boosted_config(rng_seed=99)
    first = sample_trials(cfg, 5000)
    second = sample_trials(cfg, 5000)
    assert first == second
    assert [r.trial_index for r in first] == list(range(5000))


def test_zero_pulse_gives_no_stokes_clicks():
    cfg = ProtocolConfig(pulse_mean_photons=0.0, rng_seed=2)
    records = sample_trials(cfg, 500)
    assert all(r.stokes_click == "none" for r in records)


def test_stokes_click_rate_matches_exact_herald():
    cfg = ProtocolConfig(rng_seed=5)  # reference defaults
    n = 100_000
    records = sample_trials(cfg, n)
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
    cfg = _boosted_config(rng_seed=21)
    records = sample_trials(cfg, 60_000)
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
    for k, phi in enumerate((math.pi / 2, 2.3)):
        cfg_phi = replace(cfg, read_phase_rad=phi, rng_seed=31)
        point = estimate_witness(count_table(sample_trials(cfg_phi, n, stream_tags=(k,))), 1, phi)
        assert not point.divergent
        stats = exact_joint_statistics(replace(cfg, read_phase_rad=point.delta_phi))
        exact, _ = exact_witness_ratio(stats.g2_click(1, 1), stats.g2_click(2, 1))
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
    point = estimate_witness(count_table(records), 1, 0.0)
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


def test_records_to_csv_header_and_record_validation():
    records = [ClickRecord(0, "none", "detector2"), ClickRecord(1, "both", "none")]
    assert records_to_csv(records).splitlines() == [
        "trial_index,stokes_click,antistokes_click", "0,none,detector2", "1,both,none"]
    with pytest.raises(ValueError):
        ClickRecord(0, "nope", "none")


def test_click_categories_exhaustive():
    cfg = _boosted_config(rng_seed=17)
    records = sample_trials(cfg, 2000)
    for r in records:
        assert r.stokes_click in CLICK_CATEGORIES
        assert r.antistokes_click in CLICK_CATEGORIES


def test_no_nan_in_any_estimate():
    # impossible estimates must surface as errors or flags, never NaN
    cfg = _boosted_config(rng_seed=41)
    counts = count_table(sample_trials(cfg, 30_000))
    for anti in (1, 2):
        est = estimate_g2(counts, anti, 1)
        assert math.isfinite(est.value) and math.isfinite(est.standard_error)
    point = estimate_witness(counts, 1, cfg.read_phase_rad)
    assert not math.isnan(point.r_m)
    assert not math.isnan(point.g2_a1) and not math.isnan(point.g2_a2)
    if point.r_m_error is not None:
        assert math.isfinite(point.r_m_error)


def test_sample_counts_is_the_count_table_of_the_records():
    cfg = _boosted_config(rng_seed=8)
    stats = exact_joint_statistics(cfg)
    for n in (1, 4096, 4097, 10_000):
        records = sample_trials(cfg, n, stream_tags=(2,), statistics=stats)
        counts = sample_counts(cfg, n, stream_tags=(2,), statistics=stats)
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

    cfg = _boosted_config(rng_seed=4)
    # every power-of-ten edge of the index width and every chunk edge
    for n in (1, 9, 10, 11, 4095, 4096, 4097, 9999, 10000, 10001, 100001):
        records = sample_trials(cfg, n)
        csv_out, json_out = io.StringIO(), io.StringIO()
        write_records(sample_chunks(cfg, n), csv_out, "csv")
        write_records(sample_chunks(cfg, n), json_out, "json")
        assert csv_out.getvalue() == records_to_csv(records)
        assert json_out.getvalue() == json.dumps(
            [dataclasses.asdict(r) for r in records], indent=2) + "\n"
    with pytest.raises(EstimatorError):
        sample_chunks(cfg, 0)


@pytest.mark.parametrize("item, tails", [("", _CSV_TAILS), ("," + _JSON_HEAD, _JSON_TAILS)],
                         ids=["csv", "json"])
@given(codes=st.lists(st.integers(0, 15), max_size=40),
       k=st.integers(0, 12), below=st.integers(0, 30))
def test_chunk_formatter_matches_per_trial_strings(item, tails, codes, k, below):
    # index runs that cross a power of ten, up to 10**12
    start = max(10**k - below, 0)
    text = _format_chunk(np.array(codes, dtype=np.int64), start, item, _byte_table(tails))
    assert text == "".join(f"{item}{start + i}{tails[code]}" for i, code in enumerate(codes))


_LOSSY_C4 = dict(optical_cutoff=4, magnon_cutoff=4, propagation_transmissivity_a=0.8,
                 propagation_transmissivity_b=0.8,
                 detector=DetectorSpec(efficiency=0.6, dark_click_probability=1e-4),
                 magnon_decay_delay_ratio=0.1)


def _choice_chunks(p, n_trials, entropy):
    for k, start in enumerate(range(0, n_trials, CHUNK_TRIALS)):
        rng = np.random.default_rng(np.random.SeedSequence([*entropy, k]))
        yield rng.choice(len(p), size=min(CHUNK_TRIALS, n_trials - start), p=p)


def _assert_draws_match_choice(p, n_trials, entropy):
    ours = list(_draw_chunks(p, n_trials, entropy))
    theirs = list(_choice_chunks(p, n_trials, entropy))
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


@pytest.mark.parametrize("config", [ProtocolConfig(), _boosted_config(),
                                    ProtocolConfig(**_LOSSY_C4)],
                         ids=["reference", "counting", "lossy-c4"])
def test_chunk_draws_match_rng_choice_at_the_operating_points(config):
    # 200 full chunks and a short last one
    p = _outcome_probabilities(exact_joint_statistics(config))
    _assert_draws_match_choice(p, 200 * CHUNK_TRIALS + 123, [31, 2])


@pytest.mark.parametrize("p", [
    [0.5, 0.0, 0.25, 0.0] + [0.0] * 11 + [0.25],
    [0.0, 0.5, 0.5] + [0.0] * 13,
    [0.0] * 7 + [1.0] + [0.0] * 8,
    [1.0] + [0.0] * 15,
], ids=["zeros", "first-zero", "one-hot", "one-hot-first"])
def test_chunk_draws_match_rng_choice_on_hand_made_distributions(p):
    _assert_draws_match_choice(np.array(p), 5 * CHUNK_TRIALS + 7, [5])


@pytest.mark.parametrize("p", [
    [1.2, -0.2] + [0.0] * 14,
    [math.nan] + [0.0] * 15,
    [0.5] * 16,
    np.full((4, 4), 1 / 16),
], ids=["negative", "nan", "not-normalised", "two-dimensional"])
def test_bad_distributions_raise_before_any_draw(p):
    # the same checks rng.choice makes, once, on the call
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(16, size=1, p=p)
    with pytest.raises(ValueError):
        _draw_chunks(p, 10, [1])


def _stokes_only_counts():
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[1, 0] = 5  # Stokes detector 1 clicked, anti-Stokes never did
    return counts


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: ClickRecord(0, "none", "sideways"), ValueError, "bad anti-Stokes outcome 'sideways'",
                 id="record-outcome"),
    pytest.param(lambda: estimate_g2(_stokes_only_counts(), 1, 1), EstimatorError,
                 "zero anti-Stokes counts at detector 1", id="zero-anti-stokes"),
    pytest.param(lambda: write_records([], io.StringIO(), "xml"), EstimatorError,
                 "unknown record format 'xml'", id="record-format"),
])
def test_each_record_and_estimator_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
