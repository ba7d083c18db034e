"""Tests for the host-speed calibration that scales in-process times."""

from __future__ import annotations

import pytest

from perfbench.hostspeed import HALF_WINDOW, MIN_SAMPLES, REFERENCE_S, HostClock


def _clock(samples, pauses=()):
    clock = HostClock()
    for start, seconds in samples:
        clock.add(start, seconds)
    clock.pauses.extend(pauses)
    return clock


def test_factor_follows_the_kernel_time_around_each_moment():
    # The host runs at the reference speed for 5 s, then at half of it.
    samples = [(i / 10, REFERENCE_S if i < 50 else 2 * REFERENCE_S) for i in range(100)]
    clock = _clock(samples)
    assert clock.factor(2.0) == pytest.approx(1.0)
    assert clock.factor(8.0) == pytest.approx(0.5)
    # A 10 ms call measured in the slow spell took 5 ms at reference speed.
    assert clock.scale(8.0, 0.010) == pytest.approx(0.005)


def test_factor_over_an_interval_widens_it_by_the_half_window():
    samples = [(0.0, REFERENCE_S)] * MIN_SAMPLES + [(3.0, 4 * REFERENCE_S)] * MIN_SAMPLES
    clock = _clock(samples)
    assert clock.factor(0.0) == pytest.approx(1.0)
    # [1, 3 - HALF_WINDOW] widened reaches only the slow samples at 3 s.
    assert clock.factor(1.0 + HALF_WINDOW, 3.0 - HALF_WINDOW) == pytest.approx(0.25)


def test_a_sparse_window_falls_back_to_the_nearest_samples():
    far = [(100.0 + i / 10, 2 * REFERENCE_S) for i in range(MIN_SAMPLES)]
    clock = _clock(far + [(1000.0, REFERENCE_S)])
    assert clock.factor(0.0) == pytest.approx(0.5)


def test_paused_time_is_the_overlap_with_the_slices():
    clock = _clock([(0.0, REFERENCE_S)], pauses=[(1.0, 2.0), (3.0, 3.5)])
    assert clock.paused(0.0, 10.0) == pytest.approx(1.5)
    assert clock.paused(1.5, 3.25) == pytest.approx(0.75)
    assert clock.paused(4.0, 5.0) == 0.0


def test_scaled_span_leaves_out_the_slices_and_scales_the_rest():
    samples = [(i / 10, 2 * REFERENCE_S) for i in range(101)]
    clock = _clock(samples, pauses=[(1.0, 2.0), (3.0, 3.5)])
    assert clock.scaled_span(0.0, 10.0) == pytest.approx((10.0 - 1.5) * 0.5)


def test_slice_records_its_kernels_and_its_pause():
    clock = HostClock()
    clock.slice(3)
    assert len(clock.times) == 3
    assert len(clock.pauses) == 1
    began, end = clock.pauses[0]
    assert began <= clock.starts[0] and clock.starts[-1] + clock.times[-1] <= end
    assert clock.next_slice > end
    with pytest.raises(ValueError):
        HostClock().factor(0.0)
