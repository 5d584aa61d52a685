"""Covering constructions: an admissible modulus P and shift a such that
every element of [a+1, a+Y] is forced out of the sums of two squares by a
congruence certificate.

The verifier never factors a + j.  All valuations are computed modulo the
prime powers of P, so verification cost scales with the modulus
description, not with the size of a.  The residue walk visits only the
offsets j = -a (mod p) of each odd prime p, sum y/p steps over all
primes, and those with a + j = 3 * 2^k (mod 2^(k+2)) for the prime 2,
found by the two-power pass the membership sieve also uses.
The walk also yields each odd prime's largest pinned odd valuation for
the halving module.  Its certificates are bare, one per (p, k); the
public functions pair them with offsets.  Its document section writes
the construction and halving documents from one set of row templates
and reads the first, shifts in decimal past CPython's int<->str limit.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .arith import (
    DEFAULT_EFFORT,
    CapacityError,
    FactoredInteger,
    _MR_LADDER,
    _decimal_to_int,
    _int_to_decimal,
    integer_log,
    mod_inverse,
    sieve_primes,
    valuation,
)
from .oracle import (
    Member, NonMember, OddValuation, TwoPowerForm, _two_power_hits, classify
)

ORACLE_VALUE_LIMIT = 10**18


class InadmissibleModulusError(ValueError):
    """The modulus contains a prime the covering argument cannot use."""

    def __init__(self, p: int, reason: str = "is 1 mod 4"):
        self.p = p
        super().__init__(f"inadmissible prime {p}: {reason}")


class ShiftRangeError(ValueError):
    """Shift outside [1, value(P)]."""


def _check_admissible(modulus: FactoredInteger) -> None:
    for p, _ in modulus.factors:
        if p != 2 and p % 4 != 3:
            raise InadmissibleModulusError(p)


@dataclass(frozen=True)
class Construction:
    """A candidate (Y, P, a).  Validated on creation:

    * every odd modulus prime is 3 mod 4 (2 itself is allowed, it feeds
      the two-power condition),
    * 1 <= shift <= value(P).
    """

    y: int
    modulus: FactoredInteger
    shift: int

    def __post_init__(self) -> None:
        if self.y < 1:
            raise ValueError("y must be >= 1")
        _check_admissible(self.modulus)
        if not 1 <= self.shift <= self.modulus.value():
            raise ShiftRangeError(
                f"shift {_int_to_decimal(self.shift)} not in [1, value(P)]"
            )


@dataclass(frozen=True)
class CoveringCertificate:
    """Covering evidence for one offset: element shift + offset is a
    non-member, by odd prime-power valuation or by two-power form."""

    offset: int
    certificate: OddValuation | TwoPowerForm


@dataclass(frozen=True)
class CoveringReport:
    y: int
    certificates: tuple[CoveringCertificate, ...]
    first_uncovered: int | None

    @property
    def ok(self) -> bool:
        return self.first_uncovered is None and len(self.certificates) == self.y


def richards_modulus(y: int) -> FactoredInteger:
    """Product of p^(integer_log(p, 4y) + 1) over primes p <= 4y, p = 3 mod 4.

    The exponent choice makes every odd prime power k <= integer_log(p, 4y)
    available as a covering valuation.
    """
    if y < 1:
        raise ValueError("y must be >= 1")
    bound = 4 * y
    factors = [
        (p, integer_log(p, bound) + 1)
        for p in sieve_primes(bound)
        if p % 4 == 3
    ]
    return FactoredInteger._trusted(tuple(factors))


def richards_shift(modulus: FactoredInteger) -> int:
    """Least positive a with 4a = -1 (mod value(modulus)).  Modulus must be odd."""
    if modulus.exponent(2) != 0:
        raise ValueError("shift congruence needs an odd modulus")
    value = modulus.value()
    return (-mod_inverse(4, value)) % value


def richards_construction(y: int) -> Construction:
    modulus = richards_modulus(y)
    return Construction(y=y, modulus=modulus, shift=richards_shift(modulus))


def _offset_residues(
    shift: int, lo: int, hi: int, p: int, pe: int
) -> Iterator[tuple[int, int]]:
    """(j, (shift + j) mod pe) for each offset lo <= j <= hi with
    p | shift + j, ascending; pe is a power of the prime p.

    Those offsets are the progression j = -shift (mod p), so the walk
    takes (hi - lo)/p steps and reduces the shift modulo pe once.
    """
    r = shift % pe
    return ((j, (r + j) % pe) for j in range(lo + (-(r + lo)) % p, hi + 1, p))


def _covering_walk(
    modulus: FactoredInteger, shift: int, lo: int, hi: int
) -> tuple[list[OddValuation | TwoPowerForm | None], dict[int, int], int | None]:
    """Certificate of each offset lo..hi (at index j - lo), None where no
    condition matches, each odd prime's largest pinned odd valuation on
    lo..hi (0 if none), from one residue walk per modulus prime, and the
    least offset left uncovered (None if there is none).

    Odd primes are walked in ascending order and an offset keeps the first
    odd valuation the modulus pins (shift + j not 0 mod p^e).  Then 2^e
    gives the offsets still open with shift + j = 3 * 2^k (mod 2^(k+2))
    the two-power form k, k + 2 <= e, through the sieve's two-power pass:
    one progression per k while its stride is shorter than the window,
    then each multiple of 2^k left decided alone by its residue mod 2^e,
    so 2^e takes about log2 of the window's width in steps, whatever e.
    Each prime builds one certificate per k it pins and shares it between
    offsets.  Callers pass a validated modulus or one prime power of one,
    so no prime is re-checked.
    """
    table: list[OddValuation | TwoPowerForm | None] = [None] * (hi - lo + 1)
    pinned: dict[int, int] = {}
    for p, e in modulus.factors:
        if p == 2:
            continue
        certs, pp = {}, p * p
        for j, r in _offset_residues(shift, lo, hi, p, p**e):
            if r:
                k = valuation(r, p) if r % pp == 0 else 1
                if k % 2 == 1:
                    if k not in certs:
                        certs[k] = OddValuation._trusted(p, k)
                    if table[j - lo] is None:
                        table[j - lo] = certs[k]
        pinned[p] = max(certs, default=0)
    e2 = modulus.exponent(2)
    for first, step, k in _two_power_hits(shift + lo, len(table), 0, e2):
        cert = TwoPowerForm(k)
        for i in range(first, len(table), step):
            if table[i] is None:
                table[i] = cert
    # by identity: None in table would call each certificate's __eq__
    hole = next((lo + i for i, cert in enumerate(table) if cert is None), None)
    return table, pinned, hole


def covering_certificate(c: Construction, offset: int) -> CoveringCertificate | None:
    """Certificate for a single offset, or None if no condition matches.

    Odd primes are tried in ascending order, then the two-power condition;
    the first hit wins, which keeps output deterministic.
    """
    if not 1 <= offset <= c.y:
        raise ValueError("offset must be in [1, y]")
    cert = _covering_walk(c.modulus, c.shift, offset, offset)[0][0]
    return None if cert is None else CoveringCertificate(offset, cert)


def verify_covering(c: Construction) -> CoveringReport:
    """Check all offsets 1..y; the report ends at the least uncovered one."""
    table, _, hole = _covering_walk(c.modulus, c.shift, 1, c.y)
    n = c.y if hole is None else hole - 1
    certs = tuple(CoveringCertificate(j, table[j - 1]) for j in range(1, n + 1))
    return CoveringReport(c.y, certs, hole)


def _covered_walk(
    c: Construction,
) -> tuple[list[OddValuation | TwoPowerForm], dict[int, int]]:
    # the covering walk over 1..y, which must certify every offset
    table, pinned, hole = _covering_walk(c.modulus, c.shift, 1, c.y)
    if hole is not None:
        raise ValueError(f"construction is not covered: offset {hole}")
    return table, pinned


@dataclass(frozen=True)
class ElementCheck:
    """One interval element with its certificate and the oracle's verdict:
    'confirmed', 'unknown' (factorization budget ran out) or 'skipped'
    (element too large for the cross-check budget)."""

    offset: int
    element: int
    certificate: OddValuation | TwoPowerForm
    oracle: str


def _check_element(
    offset: int,
    element: int,
    certificate: OddValuation | TwoPowerForm,
    run_oracle: bool,
    effort: int,
    seed: int,
) -> ElementCheck:
    """Check one certified element twice: re-check its certificate on the
    integer itself, then, when run_oracle is set, cross-check it with the
    factorization oracle (classify).

    Each caller sets its own oracle budget: interval_check once per
    construction (value(P) <= ORACLE_VALUE_LIMIT), find_gap_interval per
    element (element <= ORACLE_VALUE_LIMIT); deep_verify lifts both.
    Raises AssertionError, explicitly so that python -O keeps it, when the
    certificate fails or the oracle finds a two-squares witness.
    """
    if not certificate.holds_for(element):
        raise AssertionError(f"certificate does not hold at offset {offset}")
    status = "skipped"
    if run_oracle:
        verdict = classify(element, effort=effort, seed=seed)
        if isinstance(verdict, Member):
            raise AssertionError(
                f"oracle found witness for certified element {element}"
            )
        status = "confirmed" if isinstance(verdict, NonMember) else "unknown"
    return ElementCheck(
        offset=offset, element=element, certificate=certificate, oracle=status
    )


def interval_check(
    c: Construction,
    effort: int = DEFAULT_EFFORT,
    deep_verify: bool = False,
    seed: int = 0,
) -> list[ElementCheck]:
    """Certify every element of [shift+1, shift+y] as a non-member.

    Certificates come from the covering; independently, each element is
    cross-checked with the factorization oracle when value(P) is within
    the oracle budget (10^18, lifted by deep_verify).  The two routes are
    never collapsed: a certificate is derived from congruences only.
    """
    table, _ = _covered_walk(c)
    run_oracle = deep_verify or c.modulus.value() <= ORACLE_VALUE_LIMIT
    return [
        _check_element(j, c.shift + j, cert, run_oracle, effort, seed)
        for j, cert in enumerate(table, 1)
    ]


def modulus_growth(y: int) -> float:
    """ln value(richards_modulus(y)) / y, the empirical growth rate."""
    return richards_modulus(y).log() / y


# The construction and halving documents are written row by row from
# templates, in the exact layout of json.dumps(obj, indent=2) + "\n"; with
# indent set, CPython serves json.dumps by its pure-Python encoder.  Both
# documents hold ints and strings that need no escaping: decimal digits
# from _int_to_decimal and str(Fraction).  Every list is the value of a
# top-level key.
_PAIR_ROW = "[\n      {},\n      {}\n    ]"


def _json_list(rows: Iterable[str]) -> str:
    """A top-level key's list of rendered rows, [] when there are none."""
    body = ",\n    ".join(rows)
    return f"[\n    {body}\n  ]" if body else "[]"


def _json_pairs(pairs: Iterable[tuple[int, int]]) -> str:
    return _json_list(_PAIR_ROW.format(p, e) for p, e in pairs)


_ODD_ROW = '[\n      {},\n      "odd",\n      {},\n      {}\n    ]'
_TWO_POWER_ROW = '[\n      {},\n      "two_power",\n      2,\n      {}\n    ]'


def _certificate_row(chk: ElementCheck) -> str:
    nm = chk.certificate
    if isinstance(nm, OddValuation):
        return _ODD_ROW.format(chk.offset, nm.p, nm.k)
    return _TWO_POWER_ROW.format(chk.offset, nm.k)


def construction_to_json(c: Construction) -> str:
    return (
        f'{{\n  "y": {c.y},\n'
        f'  "factors": {_json_pairs(c.modulus.factors)},\n'
        f'  "a": "{_int_to_decimal(c.shift)}"\n}}\n'
    )


def halving_result_to_json(res) -> str:
    bad_n = _json_list(map(str, sorted(res.bad_n)))
    interval = _json_list(f'"{_int_to_decimal(v)}"' for v in res.interval)
    certificates = _json_list(map(_certificate_row, res.certificates))
    return (
        f'{{\n  "delta": "{res.delta!s}",\n'
        f'  "halved_modulus": {_json_pairs(res.halved_modulus.factors)},\n'
        f'  "a0": "{_int_to_decimal(res.a0)}",\n'
        f'  "bad_n": {bad_n},\n'
        f'  "chosen_n": {res.chosen_n},\n'
        f'  "interval": {interval},\n'
        f'  "certificates": {certificates}\n}}\n'
    )


def construction_from_json(text: str) -> Construction:
    """Parse and fully validate a construction document.

    Raises ValueError (malformed, or CapacityError for a factor too large
    to prove prime), InadmissibleModulusError, or ShiftRangeError; these
    map to distinct CLI exit codes.
    """
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("document nested too deeply") from None
    if not isinstance(obj, dict) or set(obj) != {"y", "factors", "a"}:
        raise ValueError("construction document needs exactly y, factors, a")
    # type() is int, not isinstance: json.loads reads true and false as
    # bool, a subclass of int
    y = obj["y"]
    if type(y) is not int or y < 1:
        raise ValueError("y must be a positive integer")
    raw = obj["factors"]
    if not isinstance(raw, list) or not all(
        isinstance(f, list) and len(f) == 2 and all(type(v) is int for v in f)
        for f in raw
    ):
        raise ValueError("factors must be a list of [prime, exponent] pairs")
    a_text = obj["a"]
    # str.isdigit alone accepts other scripts' digits and superscripts
    if not isinstance(a_text, str) or not (a_text.isascii() and a_text.isdigit()):
        raise ValueError("a must be a decimal string")
    # is_prime proves primes below its witness ladder's last rung; above
    # it, seeded rounds would decide, a fixed function of the document
    if any(p >= _MR_LADDER[-1][0] for p, _ in raw):
        raise CapacityError(f"a factor is not below {_MR_LADDER[-1][0]}")
    modulus = FactoredInteger.from_pairs(raw)
    # a in range has no more digits than value(P) < 2**bits, so at most
    # bits // 3 + 1 as log10(2) < 1/3; a longer string is rejected, in
    # Construction's order, before it is converted.  Only the significant
    # digits are converted; an all-zero a reads 0, out of range
    digits = a_text.lstrip("0")
    if len(digits) > modulus.value().bit_length() // 3 + 1:
        _check_admissible(modulus)
        raise ShiftRangeError(f"shift {digits} not in [1, value(P)]")
    return Construction(y=y, modulus=modulus, shift=_decimal_to_int(digits or "0"))
