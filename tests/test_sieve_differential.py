"""Differential test: the parity sieve against direct x*x + y*y enumeration.

enumeration_sieve is test-only reference code.  It marks every
x*x + y*y (x <= y) in the window, one Python step per x <= sqrt(hi/2),
so it shares no logic with the Fermat-Euler criterion the library uses.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquare_gaps.oracle import membership_sieve


def enumeration_sieve(lo: int, hi: int) -> np.ndarray:
    out = np.zeros(hi - lo + 1, dtype=bool)
    x = 0
    while 2 * x * x <= hi:
        t = lo - x * x
        if t <= x * x:
            y_lo = x
        else:
            y_lo = math.isqrt(t - 1) + 1
        y_hi = math.isqrt(hi - x * x)
        if y_lo <= y_hi:
            ys = np.arange(y_lo, y_hi + 1, dtype=np.int64)
            out[x * x + ys * ys - lo] = True
        x += 1
    return out


def assert_same(lo: int, hi: int) -> None:
    got = membership_sieve(lo, hi)
    want = enumeration_sieve(lo, hi)
    diff = np.nonzero(got != want)[0]
    assert len(diff) == 0, f"sieves differ at {(diff[:5] + lo).tolist()}"


def test_prefix_to_2_20():
    assert_same(1, 1 << 20)


def test_top_segment_below_2_24():
    assert_same((1 << 24) - (1 << 20), (1 << 24) - 1)


def test_fixed_high_windows():
    for lo in (10**10, 10**11):
        assert_same(lo, lo + 999)


@settings(max_examples=40, deadline=None)
@given(
    lo=st.integers(min_value=1, max_value=10**12),
    width=st.integers(min_value=1, max_value=4096),
)
def test_random_windows(lo, width):
    assert_same(lo, lo + width - 1)
