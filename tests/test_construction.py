import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twosquare_gaps.arith import FactoredInteger, factorize, integer_log, valuation
from twosquare_gaps.construction import (
    Construction,
    InadmissibleModulusError,
    ShiftRangeError,
    construction_from_json,
    construction_to_json,
    covering_certificate,
    interval_check,
    modulus_growth,
    richards_construction,
    richards_modulus,
    richards_shift,
    verify_covering,
)
from twosquare_gaps.halving import find_gap_interval
from twosquare_gaps.oracle import NonMember, OddValuation, TwoPowerForm, classify

from element_failures import FAILURES, MESSAGES, run_optimized


class TestRichardsModulus:
    def test_frozen_examples(self):
        assert richards_modulus(10).factors == (
            (3, 4), (7, 2), (11, 2), (19, 2), (23, 2), (31, 2),
        )
        assert richards_modulus(1).factors == ((3, 2),)
        m20 = dict(richards_modulus(20).factors)
        assert m20[3] == 4 and m20[7] == 3
        assert all(m20[p] == 2 for p in (11, 19, 23, 31, 43, 47, 59, 67, 71, 79))

    def test_value(self):
        assert richards_modulus(10).value() == 88135877101041

    @given(st.integers(min_value=1, max_value=200))
    def test_exponent_rule(self, y):
        for p, e in richards_modulus(y).factors:
            assert p % 4 == 3 and p <= 4 * y
            assert e == integer_log(p, 4 * y) + 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            richards_modulus(0)


class TestRichardsShift:
    def test_frozen_examples(self):
        assert richards_shift(FactoredInteger(((3, 4),))) == 20
        assert richards_shift(FactoredInteger(((3, 1),))) == 2
        assert richards_shift(richards_modulus(10)) == 22033969275260

    def test_congruence_and_range(self):
        for y in (1, 2, 10, 37, 100):
            m = richards_modulus(y)
            a = richards_shift(m)
            assert (4 * a + 1) % m.value() == 0
            assert 1 <= a <= m.value()

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            richards_shift(FactoredInteger(((2, 4), (3, 2))))


class TestConstructionType:
    def test_admissibility(self):
        with pytest.raises(InadmissibleModulusError) as exc:
            Construction(y=1, modulus=FactoredInteger(((5, 1),)), shift=1)
        assert exc.value.p == 5

    def test_two_power_factor_allowed(self):
        c = Construction(y=2, modulus=FactoredInteger(((2, 4), (3, 2))), shift=37)
        assert c.modulus.value() == 144

    def test_shift_range(self):
        m = FactoredInteger(((3, 2),))
        with pytest.raises(ShiftRangeError):
            Construction(y=1, modulus=m, shift=0)
        with pytest.raises(ShiftRangeError):
            Construction(y=1, modulus=m, shift=10)
        Construction(y=1, modulus=m, shift=9)  # boundary a = P is fine


class TestCoveringCertificate:
    def test_richards10_offsets(self, richards10):
        c1 = covering_certificate(richards10, 1)
        assert c1.certificate == OddValuation(3, 1)
        c7 = covering_certificate(richards10, 7)
        assert c7.certificate == OddValuation(3, 3)
        c5 = covering_certificate(richards10, 5)
        assert c5.certificate == OddValuation(19, 1)

    def test_offset_bounds(self, richards10):
        with pytest.raises(ValueError):
            covering_certificate(richards10, 0)
        with pytest.raises(ValueError):
            covering_certificate(richards10, 11)

    def test_two_power_condition(self):
        c = Construction(y=2, modulus=FactoredInteger(((2, 4), (3, 2))), shift=37)
        assert covering_certificate(c, 1).certificate == TwoPowerForm(1)
        assert covering_certificate(c, 2).certificate == OddValuation(3, 1)

    def test_exact_valuation_of_elements(self):
        # Odd(p, k) must pin the p-adic valuation of shift + offset exactly
        for y in (1, 5, 17, 50):
            c = richards_construction(y)
            for cert in verify_covering(c).certificates:
                nm = cert.certificate
                if isinstance(nm, OddValuation):
                    assert valuation(c.shift + cert.offset, nm.p) == nm.k


class TestVerifyCovering:
    def test_richards_small_sweep(self):
        for y in range(1, 51):
            report = verify_covering(richards_construction(y))
            assert report.ok and len(report.certificates) == y

    def test_exponent_too_small_fails(self):
        c = Construction(y=1, modulus=FactoredInteger(((3, 1),)), shift=2)
        report = verify_covering(c)
        assert not report.ok
        assert report.first_uncovered == 1
        assert report.certificates == ()

    def test_synthetic_two_power_covering(self):
        c = Construction(y=5, modulus=FactoredInteger(((2, 4), (3, 2))), shift=90)
        report = verify_covering(c)
        assert report.ok
        kinds = [type(cert.certificate).__name__ for cert in report.certificates]
        assert "TwoPowerForm" in kinds


class TestNoCertificateEquality:
    """The construct path decides by identity and integers: it never
    compares two certificates."""

    @pytest.fixture
    def no_eq(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError(f"compared {self!r} with {other!r}")

        for cls in (OddValuation, TwoPowerForm):
            monkeypatch.setattr(cls, "__eq__", refuse)

    def test_richards_300(self, no_eq):
        c = richards_construction(300)
        assert verify_covering(c).ok
        assert len(interval_check(c)) == 300
        assert len(find_gap_interval(c).certificates) == 300

    def test_two_power_and_holes(self, no_eq):
        c = Construction(y=5, modulus=FactoredInteger(((2, 4), (3, 2))), shift=90)
        certs = [chk.certificate for chk in interval_check(c)]
        two, odd = TwoPowerForm, OddValuation
        assert [(type(cert), cert.k) for cert in certs] == [
            (two, 0), (two, 2), (odd, 1), (two, 1), (two, 0)
        ]
        holes = Construction(y=3, modulus=FactoredInteger(((3, 1),)), shift=1)
        assert verify_covering(holes).first_uncovered == 1
        with pytest.raises(ValueError, match="not covered: offset 1"):
            interval_check(holes)


class TestIntervalCheck:
    def test_richards10_all_confirmed(self, richards10):
        checks = interval_check(richards10)
        assert len(checks) == 10
        for chk in checks:
            assert chk.element == richards10.shift + chk.offset
            assert chk.certificate.holds_for(chk.element)
            assert chk.oracle == "confirmed"

    def test_single_element(self):
        checks = interval_check(richards_construction(1))
        assert len(checks) == 1
        assert checks[0].oracle == "confirmed"

    def test_oracle_skipped_above_budget(self, richards20):
        # value(P) for y=20 is near 1.2e36, far past the cross-check budget
        checks = interval_check(richards20)
        assert {chk.oracle for chk in checks} == {"skipped"}

    def test_uncovered_raises(self):
        c = Construction(y=1, modulus=FactoredInteger(((3, 1),)), shift=2)
        with pytest.raises(ValueError):
            interval_check(c)

    @pytest.mark.parametrize("failure", FAILURES)
    def test_failed_check_raises(self, richards10, monkeypatch, failure):
        FAILURES[failure](monkeypatch)
        with pytest.raises(AssertionError, match=MESSAGES[failure]):
            interval_check(richards10)

    def test_failed_check_raises_under_optimize(self):
        assert run_optimized("interval_check") == [
            "optimize 1",
            "interval_check certificate raised",
            "interval_check witness raised",
        ]


class TestConstructionJson:
    def test_round_trip(self, richards10):
        text = construction_to_json(richards10)
        assert construction_from_json(text) == richards10

    def test_document_shape(self, richards10):
        obj = json.loads(construction_to_json(richards10))
        assert set(obj) == {"y", "factors", "a"}
        assert obj["a"] == "22033969275260"
        assert obj["factors"][0] == [3, 4]

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            construction_from_json("{not json")
        with pytest.raises(ValueError):
            construction_from_json('{"y": 1, "factors": []}')  # missing a
        with pytest.raises(ValueError):
            construction_from_json('{"y": 0, "factors": [[3, 2]], "a": "1"}')
        with pytest.raises(ValueError):
            construction_from_json('{"y": 1, "factors": [[3, 2]], "a": "2.5"}')
        with pytest.raises(ValueError):
            construction_from_json('{"y": 1, "factors": [[4, 1]], "a": "1"}')
        # JSON booleans are not integers, and a is ASCII digits only
        for text in (
            '{"y": true, "factors": [[3, 2]], "a": "2"}',
            '{"y": 1, "factors": [[3, true]], "a": "2"}',
            '{"y": 1, "factors": [[true, 1]], "a": "1"}',
            '{"y": 1, "factors": [[3, 2]], "a": "\u0662"}',
            '{"y": 1, "factors": [[3, 2]], "a": "\u00b2"}',
        ):
            with pytest.raises(ValueError, match="must be"):
                construction_from_json(text)

    def test_semantic_errors_are_distinct(self):
        with pytest.raises(InadmissibleModulusError):
            construction_from_json('{"y": 1, "factors": [[5, 1]], "a": "1"}')
        with pytest.raises(ShiftRangeError):
            construction_from_json('{"y": 1, "factors": [[3, 2]], "a": "10"}')

    def test_round_trip_above_str_digit_limit(self):
        # the shift at Y = 2600 has more than CPython's default 4300 digits
        c = richards_construction(2600)
        text = construction_to_json(c)
        assert len(json.loads(text)["a"]) > 4300
        assert construction_from_json(text) == c

    def test_long_shift_rejected_before_conversion(self, monkeypatch):
        import twosquare_gaps.construction as construction_mod

        def no_conversion(text):
            raise AssertionError("converted an out-of-range shift")

        monkeypatch.setattr(construction_mod, "_decimal_to_int", no_conversion)
        doc = '{"y": 1, "factors": [[3, 2]], "a": "%s"}'
        with pytest.raises(ShiftRangeError) as exc:
            construction_from_json(doc % ("7" * 100_000))
        assert str(exc.value) == f"shift {'7' * 100_000} not in [1, value(P)]"
        # admissibility is still checked first, as in Construction
        with pytest.raises(InadmissibleModulusError):
            construction_from_json(doc.replace("3, 2", "5, 1") % ("7" * 100_000))
        monkeypatch.undo()
        with pytest.raises(ShiftRangeError) as exc:
            construction_from_json(doc % "10")  # converted, then out of range
        assert str(exc.value) == "shift 10 not in [1, value(P)]"

    def test_leading_zeros_do_not_count(self):
        text = '{"y": 1, "factors": [[3, 2]], "a": "%s9"}' % ("0" * 10_000)
        assert construction_from_json(text).shift == 9

    def test_leading_zeros_are_not_converted(self, monkeypatch):
        import twosquare_gaps.construction as construction_mod

        lengths = []
        real = construction_mod._decimal_to_int

        def recording(text):
            lengths.append(len(text))
            return real(text)

        monkeypatch.setattr(construction_mod, "_decimal_to_int", recording)
        doc = '{"y": 1, "factors": [[3, 2]], "a": "%s"}'
        # a 4 MB document whose shift has one significant digit
        assert construction_from_json(doc % ("0" * (1 << 22) + "2")).shift == 2
        assert lengths and max(lengths) <= 1
        # an all-zero shift still reads 0, out of range
        with pytest.raises(ShiftRangeError) as exc:
            construction_from_json(doc % "000")
        assert str(exc.value) == "shift 0 not in [1, value(P)]"


def test_modulus_growth_window():
    for y in range(50, 501, 50):
        assert 3.0 <= modulus_growth(y) <= 4.5


def test_plain_interval_elements_are_nonmembers(richards10):
    # the full-factorization route, independent of the covering argument
    for j in range(1, 11):
        n = richards10.shift + j
        fac = factorize(n)
        assert fac.complete
        assert isinstance(classify(n), NonMember)
