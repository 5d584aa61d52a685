import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import twosquare_gaps.arith as arith
import twosquare_gaps.cli as cli
import twosquare_gaps.construction as construction
import twosquare_gaps.halving as halving
import twosquare_gaps.oracle as oracle
import twosquare_gaps.scanner as scanner
from twosquare_gaps.construction import (
    construction_to_json,
    richards_construction,
    richards_modulus,
    verify_covering,
)
from twosquare_gaps.halving import NoGoodIntervalError, find_gap_interval
from twosquare_gaps.oracle import OddValuation


SRC = str(Path(__file__).parents[1] / "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdin_of(data: bytes) -> io.TextIOWrapper:
    # a text stream over raw bytes, as sys.stdin is; verify reads its buffer
    return io.TextIOWrapper(io.BytesIO(data))


class TestScan:
    def test_limit_30(self, capsys):
        code, out, _ = run(capsys, "scan", "--limit", "30")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s_prev,s_next,gap,ratio"
        assert lines[-1].startswith("20,25,5,1.55")

    def test_limit_2(self, capsys):
        code, out, _ = run(capsys, "scan", "--limit", "2")
        assert code == 0
        assert out.strip().split("\n")[1].startswith("1,2,1,")

    def test_segment_and_thread_independence(self, capsys):
        _, base, _ = run(capsys, "scan", "--limit", "100000")
        _, small_seg, _ = run(
            capsys, "scan", "--limit", "100000", "--segment-size", "4096"
        )
        _, threaded, _ = run(
            capsys, "scan", "--limit", "100000", "--segment-size", "4096",
            "--threads", "3",
        )
        assert base == small_seg == threaded

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "records.csv"
        code, out, _ = run(capsys, "scan", "--limit", "30", "--out", str(target))
        assert code == 0 and out == ""
        _, direct, _ = run(capsys, "scan", "--limit", "30")
        assert target.read_text() == direct

    def test_bad_limit(self, capsys):
        # below 2, and above the sieve's value cap 2**50
        for limit in (1, 2**50 + 1):
            code, _, err = run(capsys, "scan", "--limit", str(limit))
            assert code == 1 and "error" in err


class TestRichards:
    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "richards", "--y", "10")
        assert code == 0
        obj = json.loads(out)
        assert obj["y"] == 10
        assert obj["factors"] == [[3, 4], [7, 2], [11, 2], [19, 2], [23, 2], [31, 2]]
        assert obj["a"] == "22033969275260"

    def test_y1(self, capsys):
        _, out, _ = run(capsys, "richards", "--y", "1")
        assert json.loads(out)["factors"] == [[3, 2]]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "richards", "--y", "10", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,e" and lines[1] == "3,4"


class TestVerify:
    def test_round_trip_via_file(self, capsys, tmp_path):
        doc = tmp_path / "c.json"
        doc.write_text(construction_to_json(richards_construction(10)))
        code, out, _ = run(capsys, "verify", str(doc))
        assert code == 0
        assert "covered: 10/10" in out
        assert "offset 1: odd p=3 k=1" in out

    def test_round_trip_via_stdin(self, capsys, monkeypatch):
        text = construction_to_json(richards_construction(3))
        monkeypatch.setattr("sys.stdin", stdin_of(text.encode()))
        code, out, _ = run(capsys, "verify")
        assert code == 0 and "covered: 3/3" in out

    def test_inadmissible_prime_exit_2(self, capsys, tmp_path):
        doc = tmp_path / "bad.json"
        doc.write_text('{"y": 1, "factors": [[5, 1]], "a": "1"}')
        code, _, err = run(capsys, "verify", str(doc))
        assert code == 2
        assert "inadmissible prime 5" in err

    def test_parse_error_exit_3(self, capsys, tmp_path):
        doc = tmp_path / "bad.json"
        for text in (
            '{"y": 10, "factors": [[3, 4',
            # JSON booleans are not integers, and a is ASCII digits only
            '{"y": true, "factors": [[3, 2]], "a": "2"}',
            '{"y": 1, "factors": [[3, true]], "a": "2"}',
            '{"y": 1, "factors": [[3, 2]], "a": "\u0662"}',
            '{"y": 1, "factors": [[3, 2]], "a": "\u00b2"}',
            # a factor below 2 is no prime, wherever it sorts
            '{"y": 3, "factors": [[0, 5]], "a": "3"}',
            '{"y": 3, "factors": [[-3, 2]], "a": "3"}',
        ):
            doc.write_text(text)
            code, _, err = run(capsys, "verify", str(doc))
            assert code == 3 and "malformed" in err, text
        assert err == "malformed construction: -3 is not prime\n"

    def test_not_utf8_exit_3(self, capsys, tmp_path, monkeypatch):
        # a byte 0xff is malformed from a file and from stdin alike
        data = b"\xff" + construction_to_json(richards_construction(3)).encode()
        doc = tmp_path / "bad.json"
        doc.write_bytes(data)
        code, out, err = run(capsys, "verify", str(doc))
        assert (code, out) == (3, "") and err.startswith("malformed construction")
        monkeypatch.setattr("sys.stdin", stdin_of(data))
        code, out, err = run(capsys, "verify")
        assert (code, out) == (3, "") and err.startswith("malformed construction")

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 3

    def test_shift_out_of_range_exit_5(self, capsys, tmp_path):
        doc = tmp_path / "shift.json"
        doc.write_text('{"y": 1, "factors": [[3, 2]], "a": "10"}')
        code, _, err = run(capsys, "verify", str(doc))
        assert code == 5

    def test_long_shift_exits_5_as_before(self, capsys, tmp_path):
        # shifts one digit longer than value(P): the integer digit guard lets
        # them through to Construction's range check, which exits 5 with the
        # message the guard gave when it bounded the digits by log10(2) * bits
        doc = tmp_path / "long.json"
        big = richards_modulus(2320)
        assert big.value().bit_length() == 13310
        for factors, digits in (([(3, 100)], 48), (big.factors, len(str(big.value())))):
            a = "1" + "0" * digits
            doc.write_text(json.dumps({"y": 5, "factors": factors, "a": a}))
            code, out, err = run(capsys, "verify", str(doc))
            assert (code, out, err) == (5, "", f"shift {a} not in [1, value(P)]\n")
            # admissibility is checked first, whatever the shift's length
            doc.write_text(json.dumps({"y": 5, "factors": [*factors, (5, 1)], "a": a}))
            code, out, err = run(capsys, "verify", str(doc))
            assert (code, out, err) == (2, "", "inadmissible prime 5: is 1 mod 4\n")

    def test_uncovered_exit_1(self, capsys, tmp_path):
        doc = tmp_path / "uncov.json"
        doc.write_text('{"y": 1, "factors": [[3, 1]], "a": "2"}')
        code, out, _ = run(capsys, "verify", str(doc))
        assert code == 1
        assert "uncovered at offset 1" in out


class TestHalve:
    def test_y10_document(self, capsys):
        code, out, err = run(capsys, "halve", "--y", "10")
        assert code == 0
        obj = json.loads(out)
        assert obj["chosen_n"] == 0
        assert obj["a0"] == "63369479"
        assert obj["interval"] == ["63369480", "63369489"]
        assert "ratio=1.7102" in err

    def test_delta_flag(self, capsys):
        code, out, _ = run(capsys, "halve", "--y", "10", "--delta", "0.5")
        assert code == 0
        assert json.loads(out)["delta"] == "1/2"

    def test_deep_verify_y20(self, capsys):
        code, out, _ = run(capsys, "halve", "--y", "20", "--deep-verify")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["certificates"]) == 20

    def test_out_of_range_delta(self, capsys):
        code, _, err = run(capsys, "halve", "--y", "10", "--delta", "3/2")
        assert code == 1 and "delta" in err

    def test_no_good_interval_exit_4(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NoGoodIntervalError(frozenset({0, 1}))

        monkeypatch.setattr(cli, "_gap_interval", boom)
        code, _, err = run(capsys, "halve", "--y", "10")
        assert code == 4
        assert "bad set" in err

    def test_degenerate_warning(self, capsys, monkeypatch):
        from twosquare_gaps.arith import FactoredInteger
        from twosquare_gaps.construction import Construction

        # halve runs the halving of whatever richards_construction returns
        synth = Construction(
            y=5, modulus=FactoredInteger(((2, 4), (3, 2))), shift=90
        )
        assert find_gap_interval(synth, Fraction(7, 10)).degenerate
        monkeypatch.setattr(cli, "richards_construction", lambda y: synth)
        code, _, err = run(capsys, "halve", "--y", "5", "--delta", "7/10")
        assert code == 0
        assert "halving disabled" in err


class TestBounds:
    def test_single_row(self, capsys):
        code, out, err = run(capsys, "bounds", "--y-list", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "Y,ln_plain,ln_halved,e_plain,e_halved,ratio"
        fields = lines[1].split(",")
        assert fields[0] == "10"
        assert float(fields[5]) == pytest.approx(1.71024, abs=1e-4)
        assert "195/449" in err and "390/449" in err

    def test_empty_list(self, capsys):
        code, out, _ = run(capsys, "bounds", "--y-list", "")
        assert code == 0
        assert out.strip() == "Y,ln_plain,ln_halved,e_plain,e_halved,ratio"

    def test_multi_row(self, capsys):
        code, out, _ = run(capsys, "bounds", "--y-list", "10,20")
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_no_good_interval_exit_4(self, capsys, tmp_path):
        # Y = 100 at delta 1/16 leaves no good index; halve and bounds both
        # exit 4 with one line, and bounds names the Y and writes nothing
        target = tmp_path / "bounds.csv"
        code, out, _ = run(
            capsys, "bounds", "--y-list", "176,200", "--delta", "1/16", "--out", str(target)
        )
        assert (code, out) == (0, "")
        table = target.read_text()
        code, out, err = run(
            capsys, "bounds", "--y-list", "176,100", "--delta", "1/16", "--out", str(target)
        )
        bad = "[0, 1, 2, 3, 4, 5, 6]"
        assert (code, out, err) == (4, "", f"no good interval index at Y=100; bad set: {bad}\n")
        assert target.read_text() == table
        code, out, err = run(capsys, "halve", "--y", "100", "--delta", "1/16")
        assert (code, out, err) == (4, "", f"no good interval index; bad set: {bad}\n")


@pytest.mark.parametrize(
    "argv, target",
    [
        (["scan", "--limit", "100"], "missing/x"),
        (["scan", "--limit", "100"], "."),
        (["richards", "--y", "5"], "missing/x"),
        (["verify", "DOC"], "missing/x"),
        (["halve", "--y", "10"], "missing/x"),
        (["bounds", "--y-list", "10"], "missing/x"),
    ],
    ids=["scan", "scan-directory", "richards", "verify", "halve", "bounds"],
)
def test_unwritable_out_exit_1(tmp_path, argv, target):
    # a missing directory or a directory: one line on stderr, no traceback
    doc = tmp_path / "c.json"
    doc.write_text(construction_to_json(richards_construction(5)))
    argv = [str(doc) if a == "DOC" else a for a in argv]
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-m", "twosquare_gaps.cli", *argv, "--out", str(tmp_path / target)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC] + [p for p in inherited if p])},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines()[-1].startswith("cannot write output: [Errno")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--limit", "100"],
        ["richards", "--y", "5"],
        ["verify", "DOC"],
        ["halve", "--y", "10"],
        ["bounds", "--y-list", "10"],
    ],
    ids=["scan", "richards", "verify", "halve", "bounds"],
)
def test_out_directory_exit_1_in_process(capsys, tmp_path, argv):
    # main itself reports the OSError of writing to a directory: stderr
    # as without --out, then one line
    doc = tmp_path / "c.json"
    doc.write_text(construction_to_json(richards_construction(5)))
    argv = [str(doc) if a == "DOC" else a for a in argv]
    _, _, err_without = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(err_without)
    line = err[len(err_without) :]
    assert line.startswith("cannot write output: [Errno") and line.count("\n") == 1
    assert line.endswith(f"{str(tmp_path)!r}\n")


@pytest.mark.parametrize("value", ["1/0", "abc", "1e-10000000", "5E+10001", " 1_0e-1_0000_0 "])
@pytest.mark.parametrize(
    "argv", [["halve", "--y", "10"], ["bounds", "--y-list", "10"]], ids=["halve", "bounds"]
)
def test_bad_delta_exit_2(capsys, argv, value):
    # argparse's own error for a value Fraction cannot parse, also for "1/0",
    # whose ZeroDivisionError argparse would not catch, and at once for an
    # exponent beyond +-10^4, on which Fraction would spend seconds to hours
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--delta", value])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --delta: invalid Fraction value: '{value}'\n")


@pytest.mark.parametrize("argv", [["halve", "--y", "10"], ["bounds", "--y-list", "10"]])
def test_delta_exponent_at_the_guard_is_parsed(capsys, argv):
    # exponents up to 10^4 in magnitude still reach the library's range checks
    code, out, err = run(capsys, *argv, "--delta", "1e-10000")
    assert (code, out) == (1, "")
    assert err == "error: delta * y must exceed 2 so the 2-power part stays small\n"
    code, out, err = run(capsys, *argv, "--delta", "1e10000")
    assert (code, out, err) == (1, "", "error: delta must be in (0, 1)\n")


@pytest.mark.parametrize("argv", [["halve", "--y", "20"], ["bounds", "--y-list", "10,20"]])
def test_delta_spellings_give_one_document(capsys, argv):
    outputs = {run(capsys, *argv, "--delta", value) for value in ("1/2", "0.5", "5e-1", "50E-2")}
    assert len(outputs) == 1
    assert next(iter(outputs))[0] == 0


def test_pipe_round_trip(capsys, monkeypatch):
    # richards | verify, exactly as the two commands compose in a shell
    code, out, _ = run(capsys, "richards", "--y", "10")
    assert code == 0
    monkeypatch.setattr("sys.stdin", stdin_of(out.encode()))
    code, out, _ = run(capsys, "verify")
    assert code == 0 and "covered: 10/10" in out


def md5_of(path) -> str:
    return hashlib.md5(path.read_bytes()).hexdigest()


class TestGoldenOutput:
    """Output files pinned byte for byte; the digests were taken before the
    covering and halving moved onto the per-prime residue walk."""

    @pytest.mark.parametrize(
        "y, digest, ratio_line",
        [
            (10, "821dc2681be52b005f3ee25a490cca44",
             "e_plain=0.3255 e_halved=0.5567 ratio=1.7102"),
            (96, "2534ba1f1043e900a405c84cbf0e0422",
             "e_plain=0.2452 e_halved=0.4382 ratio=1.7869"),
            (591, "b11e3f55cb27c7bbb91d682c7b616164",
             "e_plain=0.2495 e_halved=0.4461 ratio=1.7876"),
            (2300, "3f483bbe6f8ea1103241bdbf9c2a0c74",
             "e_plain=0.2508 e_halved=0.4479 ratio=1.7860"),
        ],
    )
    def test_halve(self, capsys, tmp_path, y, digest, ratio_line):
        target = tmp_path / "halve.json"
        code, out, err = run(capsys, "halve", "--y", str(y), "--out", str(target))
        assert (code, out, err) == (0, "", ratio_line + "\n")
        assert md5_of(target) == digest

    def test_richards_and_verify_591(self, capsys, tmp_path):
        doc, report = tmp_path / "c.json", tmp_path / "v.txt"
        assert run(capsys, "richards", "--y", "591", "--out", str(doc)) == (0, "", "")
        assert md5_of(doc) == "785c52d92dddceb1500dd4800be008f3"
        assert run(capsys, "verify", str(doc), "--out", str(report)) == (0, "", "")
        assert md5_of(report) == "1d244c4233be000ccd7a98b0bf447b66"

    def test_bounds(self, capsys, tmp_path):
        target = tmp_path / "bounds.csv"
        code, _, err = run(
            capsys, "bounds", "--y-list", "10,20,50,100,200,500", "--out", str(target)
        )
        assert code == 0
        assert err == "reference rates: 195/449 = 0.434298, 390/449 = 0.868597\n"
        assert md5_of(target) == "c5d5124e8e065fae6463a15a9184f820"


def test_richards_above_str_digit_limit(capsys, tmp_path):
    # the shift at Y = 2600 has more than 4300 decimal digits, CPython's
    # default int<->str limit
    doc, report = tmp_path / "c.json", tmp_path / "v.txt"
    assert run(capsys, "richards", "--y", "2600", "--out", str(doc)) == (0, "", "")
    assert len(json.loads(doc.read_text())["a"]) > 4300
    assert run(capsys, "verify", str(doc), "--out", str(report)) == (0, "", "")
    assert report.read_text().splitlines()[-1] == "covered: 2600/2600"


def test_halve_computes_each_step_once(capsys, tmp_path, monkeypatch):
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # the same names in both modules count together
    for module in (construction, halving):
        counted(module, "_covering_walk")
        counted(module, "_remainders")
        counted(module, "_element_checks")
    counted(halving, "mod_inverse")
    counted(halving, "_exceptional_pairs")
    counted(cli, "_gap_interval")
    counted(construction, "classify")
    target = tmp_path / "halve.json"
    code, _, _ = run(capsys, "halve", "--y", "50", "--out", str(target))
    assert code == 0
    # one covering walk, which writes its table by slices, then one inverse
    # and one residue pass per large prime of the halved modulus (above
    # delta * y = 25) in the bad-set screen.  Residues come from four
    # remainder tree descents: the shift for the walk, then a0 and
    # value(halved) for the screen, then the interval's base for the
    # element stream, over the listed certificates' own moduli.  One
    # element stream checks every element, and none is small enough for
    # the oracle: the interval starts above 10^18
    doc = json.loads(target.read_text())
    large = sum(p > 25 for p, _ in doc["halved_modulus"])
    assert 0 < large < len(richards_modulus(50).factors)
    assert int(doc["interval"][0]) > 10**18
    assert calls == {
        "_covering_walk": 1,
        "mod_inverse": large,
        "_remainders": 4,
        "_element_checks": 1,
        "_exceptional_pairs": 1,
        "_gap_interval": 1,
    }
    # bounds runs one halving and one element stream per Y
    calls.clear()
    code, _, _ = run(capsys, "bounds", "--y-list", "10,37,200")
    assert code == 0
    assert calls["_covering_walk"] == calls["_exceptional_pairs"] == 3
    assert calls["_element_checks"] == 3


def test_rows_render_each_listed_certificate_once(capsys, tmp_path, monkeypatch):
    # the walk lists 579 certificates at Y = 2300 for its 2300 offsets; the
    # halve document and the verify report render each entry once
    calls = Counter()
    for name in ("_certificate_row", "_verify_text"):
        render = getattr(construction, name)

        def counted(nm, name=name, render=render):
            calls[name] += 1
            return render(nm)

        monkeypatch.setattr(construction, name, counted)
    doc, halved = tmp_path / "c.json", tmp_path / "h.json"
    assert run(capsys, "richards", "--y", "2300", "--out", str(doc))[0] == 0
    assert run(capsys, "halve", "--y", "2300", "--out", str(halved))[0] == 0
    assert len(json.loads(halved.read_text())["certificates"]) == 2300
    assert calls == {"_certificate_row": 579}
    code, out, _ = run(capsys, "verify", str(doc))
    assert code == 0 and out.endswith("covered: 2300/2300\n")
    assert calls == {"_certificate_row": 579, "_verify_text": 579}


def ladder_pass(capsys, tmp_path, monkeypatch) -> None:
    """One ladder pass of the benchmark's construct workload (seed 0)
    through cli.main, each command exiting 0."""
    path = Path(__file__).parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    rungs, bounds_ys = next(inputs.ladder_passes(0, False))
    doc, report, halved = tmp_path / "c.json", tmp_path / "v.txt", tmp_path / "h.json"
    for y in rungs:
        if y < inputs.RICHARDS_BELOW_Y:
            assert run(capsys, "richards", "--y", str(y), "--out", str(doc))[0] == 0
            assert run(capsys, "verify", str(doc), "--out", str(report))[0] == 0
        assert run(capsys, "halve", "--y", str(y), "--out", str(halved))[0] == 0
    ylist = ",".join(map(str, bounds_ys))
    assert run(capsys, "bounds", "--y-list", ylist, "--out", str(tmp_path / "b.csv"))[0] == 0


def test_ladder_pass_compares_no_dataclasses(capsys, tmp_path, monkeypatch):
    # one ladder pass of the benchmark's construct workload (seed 0) through
    # cli.main decides by integers and identity: no dataclass's __eq__ runs.
    # The covering walk builds one OddValuation per (p, k) it pins, not one
    # per covered offset (21452 in this pass), and tests no prime again
    classes = {
        cls
        for module in (arith, oracle, construction, halving, scanner, cli)
        for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and "__eq__" in vars(cls)
    }
    assert {"OddValuation", "TwoPowerForm", "CoveringReport"} <= {c.__name__ for c in classes}
    compared = []

    def counted(self, other):
        compared.append(type(self).__name__)
        return NotImplemented

    for cls in classes:
        monkeypatch.setattr(cls, "__eq__", counted)
    built, primes = [], []
    trusted, init, is_prime = OddValuation._trusted, OddValuation.__init__, arith.is_prime

    def counted_trusted(cls, p, k):
        built.append(p)
        return trusted(p, k)

    def counted_init(self, p, k):
        built.append(p)
        init(self, p, k)

    def counted_is_prime(n, seed=0):
        primes.append(n)
        return is_prime(n, seed=seed)

    monkeypatch.setattr(OddValuation, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(OddValuation, "__init__", counted_init)
    monkeypatch.setattr(arith, "is_prime", counted_is_prime)
    monkeypatch.setattr(oracle, "is_prime", counted_is_prime)
    # a certificate prime tested by an earlier test would not be tested here
    oracle._checked_cert_prime.cache_clear()
    ladder_pass(capsys, tmp_path, monkeypatch)
    assert Counter(compared) == {}
    assert len(built) <= 6000
    assert len(primes) == 1780
    # equal certificates of one covering are one object
    shared = {}
    for cert in verify_covering(richards_construction(300)).certificates:
        nm = cert.certificate
        assert shared.setdefault((type(nm), *dataclasses.astuple(nm)), nm) is nm
    assert len(shared) < 300


def test_ladder_pass_builds_no_per_element_objects(capsys, tmp_path, monkeypatch):
    # richards, verify, halve and bounds go from the walk to their output
    # rows without an ElementCheck or a CoveringCertificate per element
    built = Counter()
    for cls in (construction.ElementCheck, construction.CoveringCertificate):
        init = cls.__init__

        def counted(self, *args, init=init, **kwargs):
            built[type(self).__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    ladder_pass(capsys, tmp_path, monkeypatch)
    assert built == {}
    # the counters count: the public API still builds them
    verify_covering(richards_construction(10))
    find_gap_interval(richards_construction(10))
    assert built == {"CoveringCertificate": 10, "ElementCheck": 10}
