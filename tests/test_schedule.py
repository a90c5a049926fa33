"""Schedule construction, derived coefficients, and the text record format."""

import numpy as np
import pytest

from ficd.schedule import (
    NoiseSchedule,
    alpha_bar,
    cosine_schedule,
    linear_schedule,
    schedule_from_text,
    schedule_to_text,
)

# Running products of the default linear 1e-4..0.02 rule at T=1000,
# frozen from a 60-digit mpmath cumulative product.
ABAR_1000_T1000 = 4.0358297653756835e-05
ABAR_500_T1000 = 0.07858724288177824


def test_single_step_product():
    sched = linear_schedule(1, 0.02, 0.02)
    assert alpha_bar(sched, 1) == pytest.approx(0.98, abs=1e-15)


def test_two_step_product():
    sched = linear_schedule(2, 0.1, 0.3)
    assert alpha_bar(sched, 2) == pytest.approx(0.9 * 0.7, abs=1e-15)


def test_alpha_bar_zero_is_one():
    sched = linear_schedule(10, 1e-4, 0.02)
    assert alpha_bar(sched, 0) == 1.0


def test_long_schedule_matches_extended_precision_product():
    sched = linear_schedule(1000, 1e-4, 0.02)
    assert abs(alpha_bar(sched, 1000) - ABAR_1000_T1000) / ABAR_1000_T1000 < 1e-12
    assert abs(alpha_bar(sched, 500) - ABAR_500_T1000) / ABAR_500_T1000 < 1e-12


def test_alpha_bars_recomputable_from_betas():
    sched = linear_schedule(1000, 1e-4, 0.02)
    recomputed = np.cumprod(1.0 - sched.betas)
    rel = np.abs(sched.alpha_bars - recomputed) / recomputed
    assert np.max(rel) <= 1e-12


def test_alpha_bars_strictly_decreasing():
    for sched in (linear_schedule(200, 1e-4, 0.02), cosine_schedule(200)):
        assert np.all(np.diff(sched.alpha_bars) < 0)
        assert 0.0 < alpha_bar(sched, sched.T) < alpha_bar(sched, 1) < 1.0


def test_constructor_rejects_bad_arguments():
    with pytest.raises(ValueError):
        linear_schedule(0, 0.1, 0.2)
    with pytest.raises(ValueError):
        linear_schedule(10, 0.0, 0.2)
    with pytest.raises(ValueError):
        linear_schedule(10, 0.1, 1.0)
    with pytest.raises(ValueError):
        linear_schedule(10, 0.3, 0.1)


def test_alpha_bar_rejects_out_of_range_index():
    sched = linear_schedule(10, 1e-4, 0.02)
    with pytest.raises(IndexError):
        alpha_bar(sched, -1)
    with pytest.raises(IndexError):
        alpha_bar(sched, 11)


def test_type_validation_catches_inconsistent_arrays():
    betas = np.full(5, 0.1)
    alphas = 1.0 - betas
    with pytest.raises(ValueError):
        NoiseSchedule(
            betas=betas,
            alphas=alphas,
            alpha_bars=np.linspace(0.9, 0.5, 5),
            kind="custom",
            beta_min=0.1,
            beta_max=0.1,
        )


def test_schedule_arrays_are_read_only():
    sched = linear_schedule(10, 1e-4, 0.02)
    with pytest.raises(ValueError):
        sched.betas[0] = 0.5


def test_text_record_round_trip_is_bit_exact():
    sched = linear_schedule(1000, 1e-4, 0.02)
    rebuilt = schedule_from_text(schedule_to_text(sched))
    assert rebuilt.kind == "linear"
    assert np.array_equal(rebuilt.betas, sched.betas)
    assert np.array_equal(rebuilt.alpha_bars, sched.alpha_bars)

    cos = cosine_schedule(250)
    rebuilt_cos = schedule_from_text(schedule_to_text(cos))
    assert np.array_equal(rebuilt_cos.betas, cos.betas)


def test_text_record_rejects_malformed_input():
    with pytest.raises(ValueError):
        schedule_from_text("T = 10\nbeta_min = 0.1\n")
    with pytest.raises(ValueError, match="line 2"):
        schedule_from_text("T = 10\nbeta_min 0.1\n")
    with pytest.raises(ValueError):
        schedule_from_text("T = 10\nbeta_min = 0.1\nbeta_max = 0.2\nkind = mystery\n")
