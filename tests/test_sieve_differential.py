"""Differential tests for the parity sieve.

Two test-only references:

* enumeration_sieve marks every x*x + y*y (x <= y) in the window, one
  Python step per x <= sqrt(hi/2), so it shares no logic with the
  Fermat-Euler criterion the library uses.  It is the independent check,
  but it is too slow far from the origin.
* parity_sieve_reference is the parity sieve as it stood before the
  periodic tile: one stride per power of two up to hi, and one fresh
  parity mask for every prime p = 3 (mod 4) up to isqrt(hi) that hits
  the window.  It reaches the value cap, so the library must match it
  bit for bit (same shape, same dtype) up to 2**50.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquare_gaps.arith import CapacityError, is_prime
from twosquare_gaps.oracle import (
    _CHUNK_ENTRIES,
    _FEW_HITS,
    _SIEVE_PRIME_BOUND,
    _SIEVE_VALUE_CAP,
    _SIEVE_WIDTH_CAP,
    _primes_3_mod_4,
    membership_sieve,
)
from twosquare_gaps.scanner import DEFAULT_SEGMENT_SIZE


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


def parity_sieve_reference(lo: int, hi: int) -> np.ndarray:
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    width = hi - lo + 1
    if width > _SIEVE_WIDTH_CAP:
        raise CapacityError(f"window width {width} exceeds {_SIEVE_WIDTH_CAP}")
    if hi > _SIEVE_VALUE_CAP:
        raise CapacityError(f"upper end {hi} exceeds {_SIEVE_VALUE_CAP}")
    bad = np.zeros(width, dtype=bool)
    # odd part 3 mod 4: n = 3 * 2**k (mod 2**(k+2))
    k = 0
    while 3 << k <= hi:
        step = 4 << k
        bad[((3 << k) - lo) % step :: step] = True
        k += 1
    primes = _primes_3_mod_4(math.isqrt(hi))
    starts = (-lo) % primes
    hits = starts < width
    for p, s in zip(primes[hits].tolist(), starts[hits].tolist()):
        # view[i] is m = lo + s + i*p; parity[i] ends up as v_p(m) odd.
        # Parity stays per prime: a mask shared across primes would let
        # two odd valuations cancel (21 = 3 * 7).
        view = bad[s::p]
        parity = np.ones(len(view), dtype=bool)
        base = (lo + s) // p
        stride = p
        while stride * p <= hi:
            first = -base % stride
            if first < len(parity):
                flip = parity[first::stride]
                np.logical_not(flip, out=flip)
            stride *= p
        view |= parity
    return ~bad


def assert_as_reference(lo: int, hi: int) -> None:
    got = membership_sieve(lo, hi)
    want = parity_sieve_reference(lo, hi)
    assert got.shape == want.shape and got.dtype == want.dtype
    diff = np.nonzero(got != want)[0]
    assert len(diff) == 0, f"sieves differ at {(diff[:5] + lo).tolist()}"


def test_reference_against_enumeration():
    for lo, hi in ((1, 1 << 16), (10**9, 10**9 + 999), (3 << 20, (3 << 20) + 4095)):
        want = enumeration_sieve(lo, hi)
        assert np.array_equal(parity_sieve_reference(lo, hi), want)


@st.composite
def windows(draw):
    width = draw(st.integers(min_value=1, max_value=1 << draw(st.integers(0, 16))))
    lo = draw(st.integers(min_value=1, max_value=_SIEVE_VALUE_CAP - width + 1))
    return lo, lo + width - 1


@settings(max_examples=150, deadline=None)
@given(window=windows())
def test_random_windows_to_value_cap(window):
    assert_as_reference(*window)


def _around(n: int, width: int) -> list[tuple[int, int]]:
    # windows of the given width that start before, at and just after n,
    # and end at n
    out = []
    for lo in (n - width // 2, n, n + 1, n - width + 1):
        hi = lo + width - 1
        if lo >= 1 and hi <= _SIEVE_VALUE_CAP:
            out.append((lo, hi))
    return out


@pytest.mark.parametrize("p", [3, 7, 11, 19])
def test_windows_around_prime_powers(p):
    q = p
    while q <= _SIEVE_VALUE_CAP:
        for width in (1, 2, p - 1, p, p + 1, 1000):
            for lo, hi in _around(q, width):
                assert_as_reference(lo, hi)
        for width in (1, 50):
            for lo, hi in _around(q * (q - 1), width):
                assert_as_reference(lo, hi)
        q *= p


def test_windows_around_three_times_powers_of_two():
    for k in range(49):
        n = 3 << k
        for width in (1, 2, 7, 8, 64, 1000, 4097):
            for lo, hi in _around(n, width):
                assert_as_reference(lo, hi)


@pytest.mark.parametrize("p", [11, 19, 43, 499, 1999, 8191])
def test_widths_at_the_single_hit_boundary(p):
    # p <= isqrt(hi) keeps p in the prime table; a window of width p - 1
    # may miss p's multiples, p and p + 1 never do
    for n in (p * p, 3 * p * p, p**3, 7 * p**3, p * (2**40 // p), p * p * (2**42 // (p * p))):
        if n > _SIEVE_VALUE_CAP // 2:
            continue
        for width in (p - 1, p, p + 1):
            for lo, hi in _around(n, width):
                assert_as_reference(lo, hi)


@pytest.mark.parametrize("q", [27, 81, 243, 729, 343, 2401])
def test_windows_ending_on_multiples_of_cubes(q):
    # the tile holds v_3 = 1, 3 and v_7 = 1, and 3 and 7 keep masks over
    # the multiples of 243 and 343 only; these windows start at, end at
    # and straddle multiples of 3**3 to 3**6, 7**3 and 7**4
    for n in (q, 2 * q, q * q, q * (10**6 + 1), q * (2**30 + 1), q * (2**44 // q)):
        for width in (1, 2, q - 1, q, q + 1, 2 * q + 1, 1000, 4097):
            for lo, hi in _around(n, width):
                assert_as_reference(lo, hi)


@pytest.mark.parametrize("p", [11, 19, 1019, 1031])
def test_windows_around_multiples_of_p_squared(p):
    # A loop prime p > 7 marks all its multiples, then rewrites those of
    # p**2.  A window of width p**2 - 1 holds at most one of them, which
    # is decided alone; p**2 + 1 may hold two.  1019**2 < 2**20 < 1031**2,
    # so in a default segment 1019 takes the mask and 1031 the lone entry.
    assert p < DEFAULT_SEGMENT_SIZE // _FEW_HITS
    for n in (p * p, p**3, p * p * (2**32 // (p * p)), p**3 * (2**34 // p**3)):
        for width in (p * p - 1, p * p, p * p + 1, DEFAULT_SEGMENT_SIZE):
            for lo, hi in _around(n, width):
                assert_as_reference(lo, hi)


def test_windows_straddling_tile_periods():
    # multiples of 16 * 9 * 49, a divisor of the tile's period
    period = 16 * 9 * 49
    for c in (1, 2, 3, 1000, 10**9, 2**30 + 1):
        n = c * period
        for width in (1, 2, period - 1, period, period + 1, 2 * period + 3, 5 * period):
            for lo, hi in _around(n, width):
                assert_as_reference(lo, hi)


def test_windows_straddling_wheel_periods():
    # the tile's period since it holds v_2 <= 4 and v_3 = 3 too
    period = 64 * 81 * 49
    for c in (1, 2, 3, 1000, 10**6 + 1, 2**30 + 1):
        n = c * period
        for width in (1, 2, 1000, period - 1, period, period + 1):
            for lo, hi in _around(n, width):
                assert_as_reference(lo, hi)
    for lo in (1, period - 5, 3 * period + 1):
        assert_as_reference(lo, lo + 2 * period + 3)


@pytest.mark.parametrize("p", [103, 131, 251, 1019])
@pytest.mark.parametrize("width", [1 << 16, 1 << 20])
def test_windows_ending_around_loop_prime_cubes(p, width):
    # p is a loop prime at both widths (p < width / _FEW_HITS).  At
    # hi = p**3 - 1 it joins the loop primes above the cube root of hi,
    # which share one restore of their p**2-multiples; at p**3 and
    # p**3 + 1 it keeps its own parity mask
    assert p % 4 == 3 and is_prime(p) and p < width // _FEW_HITS
    for hi in (p**3 - 1, p**3, p**3 + 1):
        assert_as_reference(max(1, hi - width + 1), hi)


def test_default_segments_below_2_24():
    for lo in range(1, 1 << 24, DEFAULT_SEGMENT_SIZE):
        assert_as_reference(lo, min(lo + DEFAULT_SEGMENT_SIZE - 1, (1 << 24) - 1))


# The vector pass takes the primes p >= max(8, ceil(width / _FEW_HITS)),
# each at most _FEW_HITS times, in chunks of about _CHUNK_ENTRIES
# (prime, hit) entries; the primes below stay in the per-prime loop.


@pytest.mark.parametrize("p", [11, 19, 43, 131, 499, 1999])
def test_widths_at_the_few_hit_boundary(p):
    # width H*p moves the split to p, so p takes the vector pass with H
    # hits where the window starts at a multiple of p; width H*p + 1
    # moves it to p + 1, and p takes the loop with up to H + 1 hits.
    # The windows start at, end at and straddle multiples of p and p**2,
    # so some entry past a prime's first has v_p >= 2.  At p**3 * q, with
    # q = 3 (mod 4) a prime above isqrt(hi), the odd part is 1 mod 4, so
    # only p's entry, at v_p = 3, marks the non-member.
    h = _FEW_HITS
    q = p**3 + 2
    while q % 4 != 3 or not is_prime(q):
        q += 2
    for n in (p * p, p * (2**36 // p), p * p * (2**40 // (p * p)), p**3 * q):
        if n > _SIEVE_VALUE_CAP // 2:
            continue
        for width in (h * p - 1, h * p, h * p + 1):
            for lo, hi in _around(n, width):
                assert_as_reference(lo, hi)


def test_width_1_windows():
    top = int(_primes_3_mod_4(_SIEVE_PRIME_BOUND)[-1])
    for n in (1, 2, 3, 4, 9, 21, 27, 63, 147, 3**31, 7**17, 3 * 7**17, 11**14,
              top, top * top, top * top - 1, 3 * top, 2**49 + 1,
              _SIEVE_VALUE_CAP - 1, _SIEVE_VALUE_CAP):
        assert_as_reference(n, n)


@pytest.mark.parametrize("width", [1, 1000, 1 << 16, 1 << 20])
def test_windows_ending_at_value_cap(width):
    assert_as_reference(_SIEVE_VALUE_CAP - width + 1, _SIEVE_VALUE_CAP)


def test_window_spanning_several_chunks():
    lo, width = 2**40, 1 << 20
    primes = _primes_3_mod_4(math.isqrt(lo + width - 1))
    primes = primes[primes.searchsorted(max(8, -(-width // _FEW_HITS))) :]
    starts = -lo % primes
    entries = int(np.maximum(0, (width - 1 - starts) // primes + 1).sum())
    assert entries > 2 * _CHUNK_ENTRIES
    assert_as_reference(lo, lo + width - 1)


@pytest.mark.parametrize("k", [36, 38, 40, 42, 44])
def test_wide_windows_high_up(k):
    lo = 2**k - (1 << 19) + 1
    assert_as_reference(lo, lo + (1 << 20) - 1)


@pytest.mark.parametrize("k", [36, 38, 40, 41])
def test_wide_windows_with_restored_primes(k):
    # In a default segment at 2**36 to 2**41 the loop primes reach
    # 2**20 / _FEW_HITS = 2**14, above the cube root of hi, and those
    # above it share one restore.  Each of the three windows holds n, a
    # multiple of p**2 for the largest loop prime p, and most hold other
    # restored primes' p**2-multiples too.
    width = DEFAULT_SEGMENT_SIZE
    loop = _primes_3_mod_4(width // _FEW_HITS - 1)
    p = int(loop[-1])
    n = p * p * (2**k // (p * p))
    for lo in (n - width // 2, n - width + 1, n):
        hi = lo + width - 1
        restored = loop[loop**3 > hi]
        assert p in restored
        assert_as_reference(lo, hi)


def test_traced_peak_per_window_entry():
    # a pass over every (prime, hit) entry at once holds several int64
    # arrays per entry: ~14 bytes per window entry here, against ~5 for
    # the chunked pass
    _primes_3_mod_4(_SIEVE_PRIME_BOUND)
    width = 1 << 22
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        membership_sieve(_SIEVE_VALUE_CAP - width + 1, _SIEVE_VALUE_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * width


def sieve_line_events(lo: int, hi: int) -> int:
    # line events in membership_sieve's own frame: its Python steps
    code = membership_sieve.__code__
    events = 0

    def tracer(frame, event, arg):
        nonlocal events
        if frame.f_code is not code:
            return None
        events += event == "line"
        return tracer

    sys.settrace(tracer)
    try:
        membership_sieve(lo, hi)
    finally:
        sys.settrace(None)
    return events


def test_python_steps_in_the_top_segment_below_2_24():
    # Every loop prime up to isqrt(hi) = 4096 used to take its own parity
    # mask or lone valuation: 3,487 line events here on Python 3.11.
    # Those above the cube root of hi (256) share one restore and take
    # two line events each: 1,172.
    lo, hi = (1 << 24) - (1 << 20), (1 << 24) - 1
    membership_sieve(lo, hi)
    assert sieve_line_events(lo, hi) < 1600
