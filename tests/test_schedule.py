"""Schedule construction and derived coefficients."""

import numpy as np
import pytest

from ficd.schedule import (
    NoiseSchedule,
    alpha_bar,
    linear_schedule,
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


def test_alpha_bars_are_the_running_product_of_betas():
    sched = linear_schedule(1000, 1e-4, 0.02)
    assert np.array_equal(sched.alpha_bars, np.cumprod(1.0 - sched.betas))


def test_alpha_bars_strictly_decreasing():
    for sched in (linear_schedule(200, 1e-4, 0.02), linear_schedule(20, 0.05, 0.9)):
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
    with pytest.raises(ValueError, match="1-d"):
        NoiseSchedule(np.full((2, 3), 0.1))
    with pytest.raises(ValueError, match="1-d"):
        NoiseSchedule([])
    with pytest.raises(ValueError, match="inside"):
        NoiseSchedule([0.1, 0.0])
    with pytest.raises(ValueError, match="inside"):
        NoiseSchedule([1.0, 0.1])
    with pytest.raises(ValueError, match="strictly decreasing"):
        NoiseSchedule(np.full(2000, 0.5))  # 0.5**2000 underflows to 0


def test_alpha_bar_rejects_out_of_range_index():
    sched = linear_schedule(10, 1e-4, 0.02)
    with pytest.raises(IndexError):
        alpha_bar(sched, -1)
    with pytest.raises(IndexError):
        alpha_bar(sched, 11)


def test_schedule_arrays_are_read_only():
    sched = linear_schedule(10, 1e-4, 0.02)
    with pytest.raises(ValueError):
        sched.betas[0] = 0.5
