"""Construction documents where they enter: every factor a document
carries is proven prime, nesting too deep for the JSON parser is a
malformed document, and one module writes both document kinds."""

import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import twosquare_gaps.arith as arith
import twosquare_gaps.cli as cli
import twosquare_gaps.construction as construction
import twosquare_gaps.halving as halving
from twosquare_gaps.arith import CapacityError, is_prime
from twosquare_gaps.construction import (
    Construction,
    construction_from_json,
    construction_to_json,
    richards_construction,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# is_prime decides by fixed witness sets below the last rung of its ladder
BOUND = 3317044064679887385961981
# the largest prime = 3 (mod 4) below BOUND; the least primes above it
# that are = 1 and = 3 (mod 4)
BELOW_3 = 3317044064679887385961783
ABOVE_1 = 3317044064679887385962177
ABOVE_3 = 3317044064679887385962123
MERSENNE_2203 = 2**2203 - 1


def document(p: int, e: int, a: int, y: int) -> str:
    return f'{{"y": {y}, "factors": [[{p}, {e}]], "a": "{a}"}}\n'


def covering(p: int) -> str:
    # y = 1 covered by v_p(a + 1) = 1, which p^2 pins
    return document(p, 2, p - 1, 1)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def verify_file(capsys, tmp_path, text: str):
    path = tmp_path / "doc.json"
    path.write_text(text)
    return run(capsys, "verify", str(path))


def no_random_rounds(monkeypatch) -> None:
    def refuse(seed):
        raise AssertionError("is_prime reached its random rounds")

    monkeypatch.setattr(arith, "random", types.SimpleNamespace(Random=refuse))


def test_bound_is_the_last_ladder_rung():
    assert arith._MR_LADDER[-1][0] == BOUND
    assert BELOW_3 < BOUND < ABOVE_3 < ABOVE_1
    assert BELOW_3 % 4 == 3 and ABOVE_3 % 4 == 3 and ABOVE_1 % 4 == 1
    assert is_prime(BELOW_3)
    assert not any(is_prime(n) for n in range(BELOW_3 + 4, BOUND, 4))


class TestProvenPrimes:
    def test_mersenne_2203_document_exits_3_at_once(self, capsys, tmp_path):
        text = document(MERSENNE_2203, 1, 1, 5)
        assert len(text) == 703
        start = time.perf_counter()
        code, out, err = verify_file(capsys, tmp_path, text)
        elapsed = time.perf_counter() - start
        assert (code, out) == (3, "")
        assert err.startswith("malformed construction:") and str(BOUND) in err
        assert elapsed < 1.0

    def test_largest_prime_3_mod_4_below_bound_is_accepted(self, capsys, tmp_path):
        c = construction_from_json(covering(BELOW_3))
        assert c == Construction(1, c.modulus, BELOW_3 - 1)
        assert c.modulus.factors == ((BELOW_3, 2),)
        code, out, _ = verify_file(capsys, tmp_path, covering(BELOW_3))
        assert code == 0
        assert out == f"offset 1: odd p={BELOW_3} k=1\ncovered: 1/1\n"

    @pytest.mark.parametrize(
        "text",
        [
            # exited 2 (inadmissible): the bound now comes first
            document(ABOVE_1, 1, 1, 1),
            # exited 0 after the random rounds
            covering(ABOVE_3),
            # at the bound itself, and a list whose second factor is past it
            document(BOUND, 1, 1, 1),
            '{"y": 1, "factors": [[3, 2], [%d, 1]], "a": "2"}' % ABOVE_3,
        ],
        ids=["above_1_mod_4", "above_3_mod_4", "at_bound", "second_factor"],
    )
    def test_factor_past_bound_exits_3(self, capsys, tmp_path, monkeypatch, text):
        no_random_rounds(monkeypatch)
        with pytest.raises(CapacityError):
            construction_from_json(text)
        code, out, err = verify_file(capsys, tmp_path, text)
        assert (code, out) == (3, "")
        assert err.startswith("malformed construction:")

    def test_parsing_never_reaches_random_rounds(self, monkeypatch):
        no_random_rounds(monkeypatch)
        # the patch is live: a prime past the ladder reaches the rounds
        with pytest.raises(AssertionError, match="random rounds"):
            is_prime(2**89 - 1)
        for y in range(1, 301):
            c = richards_construction(y)
            assert construction_from_json(construction_to_json(c)) == c
        assert construction_from_json(covering(BELOW_3)).shift == BELOW_3 - 1
        with pytest.raises(CapacityError):
            construction_from_json(document(MERSENNE_2203, 1, 1, 5))


NESTED = [
    "[" * 1000,
    '{"y": 1, "factors": [[3, 2]], "a": "2", "x": %s}' % ("[" * 1000 + "]" * 1000),
]


@pytest.mark.parametrize("text", NESTED, ids=["open", "extra_key"])
class TestDeepNesting:
    def test_reader_raises_value_error(self, text):
        with pytest.raises(ValueError):
            construction_from_json(text)

    def test_verify_exits_3_without_traceback(self, tmp_path, text):
        # a fresh process, so the parser meets the depth a user's run has
        path = tmp_path / "nested.json"
        path.write_text(text)
        inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
        proc = subprocess.run(
            [sys.executable, "-m", "twosquare_gaps.cli", "verify", str(path)],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join([str(SRC)] + [p for p in inherited if p]),
            },
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("malformed construction:")
        assert "Traceback" not in proc.stderr


class TestRepeatedKeys:
    # the JSON parser alone keeps the last value: this read as a = 2, which
    # leaves offset 1 uncovered
    TEXT = '{"y": 3, "factors": [[3, 1]], "a": "1", "a": "2"}\n'

    def test_reader_raises_value_error(self):
        with pytest.raises(ValueError, match="repeats a key"):
            construction_from_json(self.TEXT)
        with pytest.raises(ValueError, match="repeats a key"):
            construction_from_json('{"y": 1, "y": 1, "factors": [[3, 2]], "a": "2"}')

    def test_verify_exits_3(self, capsys, tmp_path):
        code, out, err = verify_file(capsys, tmp_path, self.TEXT)
        assert (code, out) == (3, "")
        assert err == "malformed construction: document repeats a key\n"
        # each value alone is a well-formed document
        for a in ("1", "2"):
            text = f'{{"y": 3, "factors": [[3, 1]], "a": "{a}"}}'
            assert verify_file(capsys, tmp_path, text)[0] == 1


def test_one_module_writes_both_documents():
    assert halving.halving_result_to_json is construction.halving_result_to_json
    for name in ("_ODD_ROW", "_TWO_POWER_ROW", "_certificate_row", "_json_list"):
        assert hasattr(construction, name) and not hasattr(halving, name)
