"""Truncated speed model, seeded sampling, streaming moments, expected fields."""

import numpy as np
import pytest
from scipy.special import ndtr

from _references import translation_mc_moments, welford_moments
from stochfio import stochastic
from stochfio.applications import wave_solve
from stochfio.jets import builtin_map
from stochfio.oscillatory import QuadratureConfig
from stochfio.stochastic import (
    _BLOCK_ELEMENTS,
    MCStats,
    TruncatedSpeedModel,
    expected_wave_analytic,
    expected_wave_field,
    mc_estimate,
    mc_wave_estimate,
    sample_speeds,
)

GAUSS = builtin_map("gaussian_bump", block="y", center=0.0, width=1.0)
XS = np.linspace(-2.0, 2.0, 17)
MODEL = TruncatedSpeedModel(2.0, 0.2, alpha=0.25)


# ---------------------------------------------------------------------------
# the truncated speed model


def test_model_bound_and_truncation_mass():
    assert MODEL.bound == pytest.approx((2.0 - 0.25) / 0.2)
    assert MODEL.truncation_mass == pytest.approx(2.0 * ndtr(-8.75))
    assert MODEL.truncation_mass < 1e-17


def test_model_validation():
    with pytest.raises(ValueError):
        TruncatedSpeedModel(2.0, -0.1)
    with pytest.raises(ValueError):
        TruncatedSpeedModel(0.2, 0.1, alpha=0.25)


def test_sampled_speeds_respect_the_hyperbolicity_floor():
    rng = np.random.default_rng(5)
    wide = TruncatedSpeedModel(1.0, 0.5, alpha=0.25)
    draws = sample_speeds(wide, rng, 20000)
    assert draws.min() >= 0.25
    assert draws.max() <= 2.0 * 1.0 - 0.25
    assert abs(draws.mean() - 1.0) < 0.01  # symmetric truncation keeps the mean


def test_deterministic_limit_model():
    det = TruncatedSpeedModel(2.0, 0.0)
    assert det.bound == 0.0 and det.truncation_mass == 0.0
    draws = sample_speeds(det, np.random.default_rng(0), 8)
    assert np.all(draws == 2.0)


# ---------------------------------------------------------------------------
# streaming moments


def test_streaming_matches_two_pass_moments():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(40, 6)) + 1j * rng.normal(size=(40, 6))
    stats = MCStats.empty((6,))
    for row in data:
        stats.push(row)
    assert np.allclose(stats.mean, data.mean(axis=0), rtol=0, atol=1e-14)
    two_pass = np.sum(np.abs(data - data.mean(axis=0)) ** 2, axis=0) / (len(data) - 1)
    assert np.allclose(stats.variance, two_pass, rtol=1e-12, atol=1e-15)


def test_merge_agrees_with_single_stream():
    rng = np.random.default_rng(12)
    data = rng.normal(size=(30, 4)) + 1j * rng.normal(size=(30, 4))
    whole = MCStats.empty((4,))
    for row in data:
        whole.push(row)
    a, b = MCStats.empty((4,)), MCStats.empty((4,))
    for row in data[:13]:
        a.push(row)
    for row in data[13:]:
        b.push(row)
    merged = MCStats.merge(a, b)
    assert merged.n == whole.n
    assert np.allclose(merged.mean, whole.mean, rtol=1e-13, atol=1e-15)
    assert np.allclose(merged.m2, whole.m2, rtol=1e-12, atol=1e-14)


def test_merge_with_empty_side():
    a = MCStats.empty((3,))
    b = MCStats.empty((3,))
    b.push(np.array([1.0, 2.0, 3.0], dtype=complex))
    merged = MCStats.merge(a, b)
    assert merged.n == 1
    assert np.allclose(merged.mean, [1.0, 2.0, 3.0])


def test_autocovariance_matches_two_pass():
    rng = np.random.default_rng(11)
    draws = rng.normal(size=(60, 5)) + 1j * rng.normal(size=(60, 5))
    draws[:, 3] += 0.8 * draws[:, 0]  # give one tracked pair real correlation
    pairs = ((0, 0), (0, 3), (2, 1))
    stats = MCStats.empty((5,), pairs=pairs)
    for row in draws:
        stats.push(row)
    centered = draws - draws.mean(axis=0)
    expected = np.array([
        np.sum(np.conj(centered[:, p]) * centered[:, q]) / (60 - 1)
        for p, q in pairs
    ])
    assert np.allclose(stats.autocovariance, expected, atol=1e-12)
    # a diagonal pair reduces to the pointwise variance
    assert stats.autocovariance[0].real == pytest.approx(stats.variance[0])
    assert abs(stats.autocovariance[0].imag) < 1e-12


def test_autocovariance_merge_matches_single_stream():
    rng = np.random.default_rng(12)
    draws = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
    pairs = ((0, 2), (3, 3))
    whole = MCStats.empty((4,), pairs=pairs)
    left = MCStats.empty((4,), pairs=pairs)
    right = MCStats.empty((4,), pairs=pairs)
    for i, row in enumerate(draws):
        whole.push(row)
        (left if i < 13 else right).push(row)
    merged = MCStats.merge(left, right)
    assert np.allclose(merged.comoment, whole.comoment, atol=1e-12)
    via_empty = MCStats.merge(MCStats.empty((4,), pairs=pairs), whole)
    assert np.allclose(via_empty.comoment, whole.comoment)
    with pytest.raises(ValueError, match="pairs"):
        MCStats.merge(whole, MCStats.empty((4,), pairs=((0, 1),)))


def test_push_row_by_row_agrees_with_one_block_merge():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(37, 5)) + 1j * rng.normal(size=(37, 5))
    pairs = ((0, 0), (1, 3), (4, 2))
    by_row = MCStats.empty((5,), pairs=pairs)
    for row in rows:
        by_row.push(row)
    by_block = MCStats.empty((5,), pairs=pairs)
    by_block.push(rows[:20])
    by_block.push(rows[20:])
    assert by_block.n == by_row.n == 37
    for a, b in ((by_row.mean, by_block.mean), (by_row.m2, by_block.m2),
                 (by_row.comoment, by_block.comoment)):
        assert np.max(np.abs(a - b)) < 1e-12


def test_push_matches_per_row_welford():
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(25, 4)) + 1j * rng.normal(size=(25, 4))
    pairs = ((0, 3), (2, 2))
    stats = MCStats.empty((4,), pairs=pairs)
    for row in rows:
        stats.push(row)
    n, mean, m2, co = welford_moments(rows, pairs)
    assert stats.n == n
    assert np.max(np.abs(stats.mean - mean)) < 1e-14
    assert np.max(np.abs(stats.m2 - m2)) < 1e-12
    assert np.max(np.abs(stats.comoment - co)) < 1e-12


def test_autocovariance_needs_two_samples():
    stats = MCStats.empty((3,), pairs=((0, 1),))
    stats.push(np.array([1.0, 2.0, 3.0], dtype=complex))
    assert np.isnan(stats.autocovariance).all()


def test_mc_autocovariance_pairs_through_estimate():
    res = mc_wave_estimate(MODEL, GAUSS, 0.3, XS, 128, base_seed=5,
                           autocov_pairs=((8, 8), (4, 12)))
    stats = res.stats
    assert stats.pairs == ((8, 8), (4, 12))
    assert stats.autocovariance.shape == (2,)
    assert stats.autocovariance[0].real == pytest.approx(stats.variance[8])
    # even initial data makes the field even, so the mirror pair (x, -x)
    # carries full correlation: its autocovariance equals the variance there
    assert stats.autocovariance[1].real == pytest.approx(stats.variance[4])
    assert stats.variance[4] == pytest.approx(stats.variance[12])


def test_replicate_failures_are_recorded_and_skipped():
    def sampler(rng):
        v = rng.random()
        if v < 0.3:
            raise ValueError("unstable draw")
        return np.array([v], dtype=complex)

    stats = mc_estimate(sampler, 40, base_seed=3, shape=(1,))
    assert stats.n + len(stats.failures) == 40
    assert stats.n > 0 and len(stats.failures) > 0
    assert all(msg.startswith("ValueError") for _, msg in stats.failures)


def test_replicate_seeds_are_independent_of_population():
    # replicate i draws from spawn_key (i,), so prefix runs agree exactly
    def sampler(rng):
        return np.array([rng.normal()], dtype=complex)

    small = mc_estimate(sampler, 10, base_seed=77)
    large = mc_estimate(sampler, 20, base_seed=77)
    # the first ten replicates of the larger run are the same draws, so the
    # means relate by exact partial sums; check via merge of the second half
    again = mc_estimate(sampler, 10, base_seed=77)
    assert np.array_equal(small.mean, again.mean)
    assert large.n == 20


@pytest.mark.parametrize("seed", [-1, True, np.True_])
def test_negative_or_boolean_base_seed_is_rejected_before_any_draw(seed):
    calls = []

    def sampler(rng):
        calls.append(rng)
        return np.zeros(1, dtype=complex)

    with pytest.raises(ValueError, match="base_seed"):
        mc_estimate(sampler, 4, base_seed=seed, shape=(1,))
    assert calls == []


def test_failed_replicates_in_a_block_keep_their_index():
    def sampler(rngs):
        rows = []
        for rng in rngs:
            v = rng.random()
            if v < 0.3:
                raise ValueError(f"unstable draw {v:.3f}")
            rows.append([v])
        return np.asarray(rows, dtype=complex)

    def one(rng):
        return sampler(iter([rng]))[0]

    blocked = mc_estimate(sampler, 40, base_seed=3, shape=(1,), block=16)
    single = mc_estimate(one, 40, base_seed=3, shape=(1,))
    assert blocked.failures == single.failures
    assert len(blocked.failures) > 0 and blocked.n == single.n
    assert np.max(np.abs(blocked.mean - single.mean)) < 1e-15


# ---------------------------------------------------------------------------
# expected field against the closed form


def test_expected_field_matches_characteristic_function_form():
    field = expected_wave_field(MODEL, GAUSS, 0.3, XS,
                                config=QuadratureConfig(xi_radius=30.0))
    analytic = expected_wave_analytic(MODEL, 0.3, XS)
    assert np.max(np.abs(field.value - analytic)) < 1e-6
    assert field.meta["truncation_mass"] < 1e-17


def test_expected_field_deterministic_limit_is_dalembert():
    det = TruncatedSpeedModel(2.0, 0.0)
    field = expected_wave_field(det, GAUSS, 0.2, XS,
                                config=QuadratureConfig(xi_radius=30.0))
    exact = 0.5 * (np.exp(-(XS - 0.4) ** 2) + np.exp(-(XS + 0.4) ** 2))
    assert np.max(np.abs(field.value - exact)) < 1e-6


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_mean_within_three_standard_errors():
    result = mc_wave_estimate(MODEL, GAUSS, 0.3, XS, 1024, base_seed=1234)
    analytic = expected_wave_analytic(MODEL, 0.3, XS)
    dev = np.abs(result.mean - analytic)
    assert np.all(dev <= 3.0 * np.maximum(result.std_error, 1e-12))


def test_mc_reruns_are_identical():
    a = mc_wave_estimate(MODEL, GAUSS, 0.3, XS, 128, base_seed=9)
    b = mc_wave_estimate(MODEL, GAUSS, 0.3, XS, 128, base_seed=9)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stats.m2, b.stats.m2)


def test_mc_seed_changes_the_draws():
    a = mc_wave_estimate(MODEL, GAUSS, 0.3, XS, 64, base_seed=1)
    b = mc_wave_estimate(MODEL, GAUSS, 0.3, XS, 64, base_seed=2)
    assert not np.array_equal(a.mean, b.mean)


def test_mc_standard_error_halves_with_four_times_the_samples():
    small = mc_wave_estimate(MODEL, GAUSS, 0.3, XS, 512, base_seed=21)
    large = mc_wave_estimate(MODEL, GAUSS, 0.3, XS, 2048, base_seed=21)
    ratio = np.median(large.std_error / small.std_error)
    assert ratio == pytest.approx(0.5, rel=0.2)


def test_mc_deterministic_limit_variance_vanishes():
    det = TruncatedSpeedModel(2.0, 0.0)
    result = mc_wave_estimate(det, GAUSS, 0.3, XS, 16, base_seed=4)
    assert float(np.max(result.stats.variance)) < 1e-14


TRANSLATION_BLOCK = _BLOCK_ELEMENTS // XS.size


@pytest.mark.parametrize("n", [1, TRANSLATION_BLOCK - 1, TRANSLATION_BLOCK + 1, 2500])
def test_translation_blocks_match_per_replicate_welford(n):
    pairs = ((8, 8), (4, 12), (3, 6))
    got = mc_wave_estimate(MODEL, GAUSS, 0.3, XS, n, base_seed=31,
                           autocov_pairs=pairs).stats
    ref_n, mean, m2, co = translation_mc_moments(MODEL, GAUSS, 0.3, XS, n, 31, pairs)
    assert got.n == ref_n == n and not got.failures
    assert np.max(np.abs(got.mean - mean)) < 1e-13
    assert np.max(np.abs(got.m2 - m2)) < 1e-13
    if n == 1:
        # one draw: the same speed and the same field, bit for bit
        assert np.array_equal(got.mean, mean)
        assert np.isnan(got.autocovariance).all()
    else:
        assert np.max(np.abs(got.autocovariance - co / (n - 1))) < 1e-13


@pytest.mark.parametrize("n", [0, -5])
def test_mc_rejects_fewer_than_one_sample(n):
    with pytest.raises(ValueError, match="n_samples"):
        mc_wave_estimate(MODEL, GAUSS, 0.3, XS, n, base_seed=1)


def test_mc_fio_engine_agrees_with_translation_engine():
    xs = np.linspace(-1.0, 1.0, 5)
    a = mc_wave_estimate(MODEL, GAUSS, 0.25, xs, 4, base_seed=3,
                         engine="translation")
    b = mc_wave_estimate(MODEL, GAUSS, 0.25, xs, 4, base_seed=3,
                         engine="fio", config=QuadratureConfig(xi_radius=30.0))
    assert np.max(np.abs(a.mean - b.mean)) < 1e-6


FIO_XS = np.linspace(-1.0, 1.0, 5)
FIO_CONFIG = QuadratureConfig(xi_radius=24.0)


def test_mc_fio_meta_counts_u_hat_once():
    result = mc_wave_estimate(MODEL, GAUSS, 0.25, FIO_XS, 4, base_seed=3,
                              engine="fio", config=FIO_CONFIG)
    meta = result.meta
    # the shared plan is the wave plan of the top speed c0 + s bound
    top = wave_solve(MODEL.c0 + MODEL.s * MODEL.bound, GAUSS, 0.25, FIO_XS,
                     config=FIO_CONFIG)
    assert meta["evaluation_path"] == "y_first"
    assert meta["bands"] == top.meta["branch_+"]["bands"]
    n_xi = sum(n for _lo, _hi, n, _n_y in meta["bands"])
    n_xi_n_y = sum(n * n_y for _lo, _hi, n, n_y in meta["bands"])
    assert meta["evaluations"] == n_xi_n_y + 4 * 2 * FIO_XS.size * n_xi
    assert meta["wall_time"] > 0
    assert mc_wave_estimate(MODEL, GAUSS, 0.25, FIO_XS, 4, base_seed=3).meta == {}


def test_mc_fio_replicate_values_do_not_depend_on_their_block(monkeypatch):
    """A block that raises reruns one draw at a time on the same plan; the
    other draws keep their values bit for bit, and each matches wave_solve
    at its own speed."""
    plans, values, unstable = [], {}, []
    wave_plan, wave_branches = stochastic._wave_plan, stochastic._wave_branches

    def counting_plan(*args):
        plans.append(wave_plan(*args))
        return plans[-1]

    def recording_branches(speeds, *args):
        if any(c in unstable for c in speeds):
            raise RuntimeError("unstable draw")
        fields = wave_branches(speeds, *args)
        for c, f in zip(speeds, fields):
            values[c] = f.value
        return fields

    monkeypatch.setattr(stochastic, "_wave_plan", counting_plan)
    monkeypatch.setattr(stochastic, "_wave_branches", recording_branches)

    def run():
        return mc_wave_estimate(MODEL, GAUSS, 0.25, FIO_XS, 6, base_seed=3,
                                engine="fio", config=FIO_CONFIG)

    blocked = run()
    assert blocked.stats.n == 6 and len(plans) == 1
    speeds = list(values)  # replicate order: the one block of six
    blocked_values = dict(values)
    values.clear()
    unstable.append(speeds[2])
    failing = run()
    assert len(plans) == 2  # one plan per run, none per rerun draw
    assert failing.stats.failures == ((2, "RuntimeError: unstable draw"),)
    assert failing.stats.n == 5 and set(values) == set(speeds) - {speeds[2]}
    for c, v in values.items():
        assert np.array_equal(v, blocked_values[c])
        alone = wave_solve(c, GAUSS, 0.25, FIO_XS, config=FIO_CONFIG).value
        assert np.max(np.abs(v - alone)) <= 1e-12
