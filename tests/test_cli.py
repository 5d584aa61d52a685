import hashlib
import io
import json
from fractions import Fraction

import pytest

import twosquare_gaps.cli as cli
import twosquare_gaps.construction as construction
import twosquare_gaps.halving as halving
from twosquare_gaps.construction import (
    construction_to_json,
    richards_construction,
    richards_modulus,
)
from twosquare_gaps.halving import NoGoodIntervalError, find_gap_interval


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
        ):
            doc.write_text(text)
            code, _, err = run(capsys, "verify", str(doc))
            assert code == 3 and "malformed" in err, text

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

        monkeypatch.setattr(cli, "find_gap_interval", boom)
        code, _, err = run(capsys, "halve", "--y", "10")
        assert code == 4
        assert "bad set" in err

    def test_degenerate_warning(self, capsys, monkeypatch):
        from twosquare_gaps.arith import FactoredInteger
        from twosquare_gaps.construction import Construction

        synth = Construction(
            y=5, modulus=FactoredInteger(((2, 4), (3, 2))), shift=90
        )
        res = find_gap_interval(synth, Fraction(7, 10))
        monkeypatch.setattr(cli, "richards_construction", lambda y: synth)
        monkeypatch.setattr(cli, "find_gap_interval", lambda *a, **k: res)
        monkeypatch.setattr(
            cli, "efficiency_report", lambda ys, delta: [(5, 1.0, 1.0, 1.0, 1.0, 1.0)]
        )
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
        counted(module, "_offset_residues")
    counted(halving, "_exceptional_pairs")
    counted(cli, "find_gap_interval")
    target = tmp_path / "halve.json"
    code, _, _ = run(capsys, "halve", "--y", "50", "--out", str(target))
    assert code == 0
    # one residue pass per odd modulus prime in the covering walk, then one
    # per large prime of the halved modulus (above delta * y = 25) in the
    # bad-set screen
    halved = json.loads(target.read_text())["halved_modulus"]
    passes = len(richards_modulus(50).factors) + sum(p > 25 for p, _ in halved)
    assert calls == {
        "_covering_walk": 1,
        "_offset_residues": passes,
        "_exceptional_pairs": 1,
        "find_gap_interval": 1,
    }
