import json
import math
from fractions import Fraction

import pytest

from twosquare_gaps.arith import FactoredInteger, valuation
from twosquare_gaps.construction import Construction, richards_construction
from twosquare_gaps.halving import (
    NoGoodIntervalError,
    efficiency_report,
    enumerate_bad_n,
    exceptional_pairs,
    find_gap_interval,
    halved_modulus,
    halving_result_to_json,
    has_odd_cover,
    reduced_shift,
    small_part,
    small_prime_contribution,
)
from twosquare_gaps.oracle import OddValuation, membership_sieve

HALF = Fraction(1, 2)


def synthetic_degenerate():
    # fully covered at y=5 with both primes at or below 0.7 * 5
    return Construction(y=5, modulus=FactoredInteger(((2, 4), (3, 2))), shift=90)


class TestSmallPart:
    def test_examples(self, richards10, richards20):
        assert small_part(richards10, 5).factors == ((3, 4),)
        assert small_part(richards10, 1).factors == ()
        assert small_part(richards20, 10).factors == ((3, 4), (7, 3))

    def test_negative_threshold(self, richards10):
        with pytest.raises(ValueError):
            small_part(richards10, -1)


class TestHasOddCover:
    def test_richards10_large_primes(self, richards10):
        # offset 2 exposes 7 (4*2-1), offset 8 exposes 31 (4*8-1)
        assert has_odd_cover(richards10, 7)
        assert has_odd_cover(richards10, 31)
        for p in (11, 19, 23):
            assert has_odd_cover(richards10, p)

    def test_no_offset_qualifies(self):
        # shift + 1 = 4 has even (zero) valuation of 3, and y = 1 ends the scan
        c = Construction(y=1, modulus=FactoredInteger(((3, 2),)), shift=3)
        assert not has_odd_cover(c, 3)

    def test_input_validation(self, richards10):
        with pytest.raises(ValueError):
            has_odd_cover(richards10, 2)
        with pytest.raises(ValueError):
            has_odd_cover(richards10, 13)


class TestHalvedModulus:
    def test_frozen_y10(self, richards10):
        h = halved_modulus(richards10, HALF)
        assert h.factors == ((3, 4), (7, 1), (11, 1), (19, 1), (23, 1), (31, 1))
        assert h.value() == 84492639

    def test_delta_validation(self, richards10):
        for bad in (0, 1, Fraction(3, 2), -1):
            with pytest.raises(ValueError):
                halved_modulus(richards10, bad)
        with pytest.raises(ValueError):
            halved_modulus(richards10, Fraction(1, 5))  # delta * y = 2

    def test_large_exponents_are_one(self, richards20):
        # 4 * (shift + j) = 4j - 1 (mod P), and every 4j - 1 <= 79 is below
        # p^e, so the pinned valuations of p are those of 4j - 1.  Small
        # primes keep 1 + their largest odd one: 3^4 for 27 = 4*7 - 1
        # (81 > 79), 7^2 since no 4j - 1 <= 79 has odd 7-valuation above 1.
        h = halved_modulus(richards20, HALF)
        threshold = 10
        assert tuple(f for f in h.factors if f[0] <= threshold) == ((3, 4), (7, 2))
        for p, e in h.factors:
            assert e <= richards20.modulus.exponent(p)
            if p > threshold:
                assert e == 1
            else:
                odd = [valuation(4 * j - 1, p) for j in range(1, 21)]
                assert e == 1 + max(k for k in odd if k % 2 == 1)

    def test_bound_with_equality_case(self, richards10):
        P = richards10.modulus.value()
        h = halved_modulus(richards10, HALF).value()
        s = small_part(richards10, 5).value()
        assert h * h == s * P  # every large prime has exponent 2 and survives
        # at delta = 1/4 the prime 3 is large with exponent 4, so strictly below
        h4 = halved_modulus(richards10, Fraction(1, 4)).value()
        s4 = small_part(richards10, 2).value()
        assert h4 * h4 < s4 * P


class TestSmallExponentRule:
    @pytest.mark.parametrize("y", [20, 50, 100, 200, 500])
    @pytest.mark.parametrize("delta", [Fraction(1, 4), HALF, Fraction(3, 4)])
    def test_small_certificates_keep_exact_valuation(self, y, delta):
        c = richards_construction(y)
        threshold = math.floor(delta * y)
        res = find_gap_interval(c, delta)
        for p, e in res.halved_modulus.factors:
            assert e <= c.modulus.exponent(p)
        for chk in res.certificates:
            nm = chk.certificate
            if isinstance(nm, OddValuation) and nm.p <= threshold:
                assert valuation(chk.element, nm.p) == nm.k


class TestReducedShift:
    def test_in_range_already(self):
        c = Construction(y=4, modulus=FactoredInteger(((3, 4),)), shift=20)
        assert reduced_shift(c, FactoredInteger(((3, 4),))) == 20

    def test_multiple_maps_to_top(self):
        c = Construction(y=4, modulus=FactoredInteger(((3, 4),)), shift=81)
        assert reduced_shift(c, FactoredInteger(((3, 4),))) == 81  # not 0

    def test_congruence_inheritance(self, richards10):
        h = halved_modulus(richards10, HALF)
        a0 = reduced_shift(richards10, h)
        assert a0 == 63369479
        assert (4 * a0 + 1) % h.value() == 0
        assert (richards10.shift - a0) % h.value() == 0
        assert 0 < a0 <= h.value()

    def test_divisibility_required(self, richards10):
        with pytest.raises(ValueError):
            reduced_shift(richards10, FactoredInteger(((3, 5),)))
        with pytest.raises(ValueError):
            reduced_shift(richards10, FactoredInteger(((13, 1),)))


class TestBadSet:
    def test_frozen_values(self, richards10, richards20):
        assert enumerate_bad_n(richards10, HALF) == {1, 2, 4}
        assert enumerate_bad_n(richards20, HALF) == {0, 1, 3, 7}

    def test_pairs_mark_at_most_one_n(self, richards10):
        pairs = exceptional_pairs(richards10, HALF)
        assert len({(j, p) for j, p, _ in pairs}) == len(pairs)
        for j, p, marked in pairs:
            assert (63369479 + j) % p == 0
            assert marked is None or 0 <= marked <= 5

    def test_bad_set_is_exactly_the_square_hits(self, richards10, richards20):
        # n is bad iff some interval element is divisible by p*p, checked
        # directly on all y elements for every candidate n
        for c in (richards10, richards20):
            threshold = c.y // 2
            h = halved_modulus(c, HALF)
            a0 = reduced_shift(c, h)
            v = h.value()
            large = [p for p, _ in h.factors if p > threshold]
            bad = enumerate_bad_n(c, HALF)
            for n in range(threshold + 1):
                hit = any(
                    (a0 + j + n * v) % (p * p) == 0
                    for j in range(1, c.y + 1)
                    for p in large
                )
                assert hit == (n in bad)


class TestFindGapInterval:
    def test_frozen_y10(self, richards10):
        res = find_gap_interval(richards10, HALF)
        assert res.delta == HALF
        assert res.small_part.factors == ((3, 4),)
        assert res.halved_modulus.value() == 84492639
        assert res.a0 == 63369479
        assert res.bad_n == {1, 2, 4}
        assert res.chosen_n == 0
        assert res.interval == (63369480, 63369489)
        assert not res.degenerate
        assert res.chosen_n not in res.bad_n

    def test_small_part_is_trimmed(self, richards20):
        # the field follows halved_modulus (7^2), not the Richards modulus (7^3)
        res = find_gap_interval(richards20, HALF)
        assert res.small_part.factors == ((3, 4), (7, 2))

    def test_y10_interval_is_member_free(self, richards10):
        lo, hi = find_gap_interval(richards10, HALF).interval
        assert hi < 10**9
        assert not membership_sieve(lo, hi).any()

    def test_certificates_hold(self, richards10):
        res = find_gap_interval(richards10, HALF)
        assert len(res.certificates) == 10
        for chk in res.certificates:
            assert chk.certificate.holds_for(chk.element)
            assert chk.oracle == "confirmed"
            nm = chk.certificate
            if isinstance(nm, OddValuation) and nm.p > 5:
                assert nm.k == 1
                assert chk.element % (nm.p * nm.p) != 0
            if isinstance(nm, OddValuation) and nm.p <= 5:
                assert valuation(chk.element, nm.p) == nm.k

    def test_y20_oracle_gating(self, richards20):
        # a0 + 2v + 1 with v = 3^4 7^2 11 19 23 31 43 47 59 67 71 79,
        # 4 a0 = -1 (mod v), and n = 2 the least index outside {0, 1, 3, 7}
        res = find_gap_interval(richards20, HALF)
        assert res.interval[0] == 59631811262479527168
        assert {chk.oracle for chk in res.certificates} == {"skipped"}
        deep = find_gap_interval(richards20, HALF, deep_verify=True)
        assert {chk.oracle for chk in deep.certificates} == {"confirmed"}

    def test_interval_placement_bound(self):
        for y in (10, 20, 50):
            c = richards_construction(y)
            res = find_gap_interval(c, HALF)
            v = res.halved_modulus.value()
            assert res.interval[1] <= y + (1 + Fraction(1, 2) * y) * v

    def test_uncovered_input_rejected(self):
        c = Construction(y=1, modulus=FactoredInteger(((3, 1),)), shift=2)
        with pytest.raises(ValueError):
            find_gap_interval(c, HALF)

    def test_no_good_n(self, richards10, monkeypatch):
        import twosquare_gaps.halving as halving_mod

        monkeypatch.setattr(
            halving_mod, "enumerate_bad_n", lambda c, d: frozenset(range(6))
        )
        with pytest.raises(NoGoodIntervalError) as exc:
            find_gap_interval(richards10, HALF)
        assert exc.value.bad_n == frozenset(range(6))

    def test_degenerate_mode(self):
        c = synthetic_degenerate()
        res = find_gap_interval(c, Fraction(7, 10))
        assert res.degenerate
        assert res.halved_modulus == c.modulus
        assert res.bad_n == frozenset()
        assert res.chosen_n == 0
        assert res.a0 == 90
        assert res.interval == (91, 95)
        assert not membership_sieve(91, 95).any()
        for chk in res.certificates:
            assert chk.certificate.holds_for(chk.element)
            assert chk.oracle == "confirmed"


class TestEfficiencyReport:
    def test_empty(self):
        assert efficiency_report([]) == []

    def test_frozen_y10(self):
        (y, ln_plain, ln_halved, e_plain, e_halved, ratio) = efficiency_report([10])[0]
        assert y == 10
        assert e_plain == pytest.approx(0.32548, abs=1e-4)
        assert e_halved == pytest.approx(0.55665, abs=1e-4)
        assert ratio == pytest.approx(1.71024, abs=1e-4)

    def test_formula_consistency(self, richards10):
        row = efficiency_report([10])[0]
        res = find_gap_interval(richards10, HALF)
        assert row[1] == pytest.approx(math.log(richards10.shift + 10))
        assert row[2] == pytest.approx(math.log(res.interval[1]))
        assert row[5] == pytest.approx(row[4] / row[3])


class TestSmallPrimeContribution:
    def test_frozen_y10(self, richards10):
        assert small_prime_contribution(richards10, HALF) == pytest.approx(
            0.1368, abs=5e-4
        )

    def test_empty_small_part(self, richards10):
        assert small_prime_contribution(richards10, Fraction(1, 5)) == 0.0

    def test_decreases_with_eps(self):
        c = richards_construction(200)
        hi = small_prime_contribution(c, Fraction(1, 10))
        lo = small_prime_contribution(c, Fraction(1, 20))
        assert lo < hi

    def test_eps_validation(self, richards10):
        with pytest.raises(ValueError):
            small_prime_contribution(richards10, 0)
        with pytest.raises(ValueError):
            small_prime_contribution(richards10, 1)


class TestHalvingJson:
    def test_document_shape(self, richards10):
        res = find_gap_interval(richards10, HALF)
        obj = json.loads(halving_result_to_json(res))
        assert set(obj) == {
            "delta",
            "halved_modulus",
            "a0",
            "bad_n",
            "chosen_n",
            "interval",
            "certificates",
        }
        assert obj["delta"] == "1/2"
        assert obj["a0"] == "63369479"
        assert obj["bad_n"] == [1, 2, 4]
        assert obj["chosen_n"] == 0
        assert obj["interval"] == ["63369480", "63369489"]
        assert obj["halved_modulus"][0] == [3, 4]
        assert len(obj["certificates"]) == 10

    def test_certificate_rows_recheck(self, richards10):
        res = find_gap_interval(richards10, HALF)
        obj = json.loads(halving_result_to_json(res))
        lo = int(obj["interval"][0])
        for offset, kind, p, k in obj["certificates"]:
            element = lo - 1 + offset
            if kind == "odd":
                assert valuation(element, p) == k and k % 2 == 1
            else:
                assert kind == "two_power" and p == 2
                assert (element >> k) % 4 == 3
