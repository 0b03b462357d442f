"""Tests for the reference-speed scaling.  Run: python3 -m pytest bench"""

import pytest

from calibrate import NEIGHBOURS, REFERENCE_S, kernel, scaled


def test_kernel_is_fixed_work():
    assert kernel() == kernel()


def test_walls_at_reference_speed_are_unchanged():
    walls = [0.1, 0.2, 0.3]
    assert scaled(walls, [REFERENCE_S] * 4) == pytest.approx(walls)


def test_a_slow_neighbourhood_scales_down_only_its_own_requests():
    walls = [0.1] * 20
    kernels = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 11
    out = scaled(walls, kernels)
    assert out[: 10 - NEIGHBOURS] == pytest.approx([0.1] * (10 - NEIGHBOURS))
    assert out[10 + NEIGHBOURS :] == pytest.approx([0.05] * (10 - NEIGHBOURS))

