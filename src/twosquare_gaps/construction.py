"""Covering constructions: an admissible modulus P and shift a such that
every element of [a+1, a+Y] is forced out of the sums of two squares by a
congruence certificate.

The verifier never factors a + j.  All valuations are computed modulo the
prime powers of P, so verification cost scales with the modulus
description, not with the size of a.  The walk reduces a once, by
value(P), and takes a mod each p^e from the modulus's remainder tree.
The residue walk writes its table by list slices: for the prime 2 the
progressions a + j = 3 * 2^k (mod 2^(k+2)) of the two-power pass the
membership sieve also uses, and for each odd prime p one slice of
valuation 1 over the offsets j = -a (mod p), then one slice per
valuation level t over the multiples of p^t while p^t is shorter than
the window: about log_p y steps for each prime, and one for each prime
with at most one multiple in the window.  The walk also yields each odd
prime's largest pinned odd valuation for the halving module.  It lists
its bare certificates once each, and its table holds each offset's index
in that list; the public functions pair them with offsets.  One
generator checks the elements of every certified interval, the
covering's and the halving's, one at a time, so a caller streams them
and keeps none.  It runs each certificate's residue test on a remainder
of the interval's base, taken for every listed certificate by one
remainder tree over their own moduli, and builds an element integer
only for the oracle.  The document section writes the construction and
halving documents and the verify report from row templates straight
from the walk's table, each listed certificate's row text rendered
once, and reads the first, shifts in decimal past CPython's int<->str
limit.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from .arith import (
    DEFAULT_EFFORT,
    CapacityError,
    FactoredInteger,
    _MR_LADDER,
    _decimal_to_int,
    _int_to_decimal,
    _product_tree,
    _remainders,
    integer_log,
    mod_inverse,
    sieve_primes,
    valuation,
)
from .oracle import (
    Member, NonMember, OddValuation, TwoPowerForm, _two_power_hits, classify
)

ORACLE_VALUE_LIMIT = 10**18

_Certificate = OddValuation | TwoPowerForm


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


def _covering_walk(
    modulus: FactoredInteger, shift: int, lo: int, hi: int
) -> tuple[list[_Certificate], list[int | None], dict[int, int], int | None]:
    """Every certificate the walk pins on lo..hi, each listed once; at
    table index j - lo the index in that list of offset j's certificate,
    None where no condition matches; each odd prime's largest pinned odd valuation on
    lo..hi (0 if none); and the least offset left uncovered (None if none).

    An offset keeps the first odd valuation the modulus pins (shift + j
    not 0 mod p^e), odd primes in ascending order, and else the two-power
    form k, k + 2 <= e, of shift + j = 3 * 2^k (mod 2^(k+2)).  The table
    is written in the reverse order, each writer over the ones before it,
    by list slices.  First 2^e, one slice per progression of the sieve's
    two-power pass: one per k while its stride is shorter than the window,
    then each multiple of 2^k left decided alone by its residue mod 2^e,
    about log2 of the window's width in steps whatever e; the progressions
    are disjoint, as each offset has one 2-adic valuation.  Then the odd
    primes, largest first.  Of two consecutive multiples of p one has
    v_p = 1, so one slice writes (p, 1) over every multiple of p in the
    window, once the entries under the multiples of p^2 are kept.  Then
    one slice per level t = 2, 3, ... while p^t is shorter than the
    window writes over the multiples of p^t: (p, t) at odd t, listed only
    where some offset has v_p = t exactly, and the kept entries back at
    even t and at t = e.  The one multiple of p^t left once p^t reaches
    the width is decided alone by its residue mod p^e, as in the
    two-power pass, so a prime takes about log_p of the width in steps
    whatever e, and lists its certificates in ascending k.  A prime with
    at most one multiple in the window takes one step, and a prime at
    exponent 1 pins nothing.  Each progression and each (p, k) pinned is
    listed once and kept, also where later writers cover all its
    offsets: on a Richards window 1..Y none is, since (p, k) is the only
    certificate of offset (p^k + 1)/4.  The shift is reduced once, by
    value(P); the modulus's remainder tree gives its residue mod each
    p^e.  Callers pass a validated modulus or one prime power of one, so
    no prime is re-checked.
    """
    n = hi - lo + 1
    certs: list[_Certificate] = []
    table: list[int | None] = [None] * n
    tree = modulus._tree
    powers = list(zip(modulus.factors, tree[0], _remainders(shift, tree)))
    if powers and powers[0][0][0] == 2:
        (_, e2), _, r2 = powers.pop(0)
        # the two-power pass reads shift + lo only mod 2^e
        for first, step, k in _two_power_hits(r2 + lo, n, 0, e2):
            table[first::step] = [len(certs)] * len(range(first, n, step))
            certs.append(TwoPowerForm(k))
    # keys in factor order, values set largest prime first
    pinned = dict.fromkeys((p for (p, _), _, _ in powers), 0)
    for (p, e), pe, r0 in reversed(powers):
        # x + i = shift + lo + i (mod p^e); i is the index of the first
        # multiple of p, where at e = 1 the modulus pins nothing
        x = r0 + lo
        i = -x % p
        if e == 1 or i >= n:
            continue
        pp = p * p
        if i + p >= n:
            r = (x + i) % pe
            k = 1 if r % pp else valuation(r, p) if r else 0
            if k & 1:
                table[i] = len(certs)
                certs.append(OddValuation._trusted(p, k))
                pinned[p] = k
            continue
        # the entries under the multiples of p^2, which the slice of
        # valuation 1 covers
        s2 = -x % pp
        kept = table[s2::pp]
        table[i::p] = [len(certs)] * len(range(i, n, p))
        certs.append(OddValuation._trusted(p, 1))
        pinned[p] = 1
        # level t writes over the multiples of p^t: (p, t) at odd t < e,
        # the kept entries at even t and at t = e, where p^e pins nothing
        t, pt = 2, pp
        while t <= e and pt < n:
            st = -x % pt
            if t % 2 == 0 or t == e:
                table[st::pt] = kept[(st - s2) // pp :: pt // pp]
            elif len(range(st, n, pt)) > len(range(-x % (pt * p), n, pt * p)):
                # some offset has v_p = t exactly
                table[st::pt] = [len(certs)] * len(range(st, n, pt))
                certs.append(OddValuation._trusted(p, t))
                pinned[p] = t
            t, pt = t + 1, pt * p
        # once p^t reaches the width, its one multiple (if any) is decided
        # alone by its residue mod p^e, where v_p >= t
        st = -x % pt
        if t <= e and st < n:
            r = (x + st) % pe
            k = t if r % (pt * p) else valuation(r, p) if r else 0
            if k & 1:
                table[st] = len(certs)
                certs.append(OddValuation._trusted(p, k))
                pinned[p] = k
            else:
                table[st] = kept[(st - s2) // pp]
    hole = lo + table.index(None) if None in table else None
    return certs, table, pinned, hole


def covering_certificate(c: Construction, offset: int) -> CoveringCertificate | None:
    """Certificate for a single offset, or None if no condition matches.

    Odd primes are tried in ascending order, then the two-power condition;
    the first hit wins, which keeps output deterministic.
    """
    if not 1 <= offset <= c.y:
        raise ValueError("offset must be in [1, y]")
    certs, (i,), _, _ = _covering_walk(c.modulus, c.shift, offset, offset)
    return None if i is None else CoveringCertificate(offset, certs[i])


def verify_covering(c: Construction) -> CoveringReport:
    """Check all offsets 1..y; the report ends at the least uncovered one."""
    certs, table, _, hole = _covering_walk(c.modulus, c.shift, 1, c.y)
    covered = enumerate(table if hole is None else table[: hole - 1], 1)
    return CoveringReport(
        c.y, tuple(CoveringCertificate(j, certs[i]) for j, i in covered), hole
    )


def _covered_walk(
    c: Construction,
) -> tuple[list[_Certificate], list[int], dict[int, int]]:
    # the covering walk over 1..y, which must certify every offset
    certs, table, pinned, hole = _covering_walk(c.modulus, c.shift, 1, c.y)
    if hole is not None:
        raise ValueError(f"construction is not covered: offset {hole}")
    return certs, table, pinned


@dataclass(frozen=True)
class ElementCheck:
    """One interval element with its certificate and the oracle's verdict:
    'confirmed', 'unknown' (factorization budget ran out) or 'skipped'
    (element too large for the cross-check budget)."""

    offset: int
    element: int
    certificate: OddValuation | TwoPowerForm
    oracle: str


def _element_checks(
    certs: list[_Certificate],
    table: list[int],
    base: int,
    oracle_limit: int | None,
    effort: int,
    seed: int,
) -> Iterator[tuple[int, int, str]]:
    """(j, i, oracle status) for each element base + j in turn (base >= 0),
    once its certificate certs[i], i = table[j - 1], holds on it and the
    oracle (classify) has cross-checked it if it is at most oracle_limit
    (None: no limit).  interval_check's budget is every element or none,
    by value(P); the halving's is each element's size.  Raises
    AssertionError, explicitly so that python -O keeps it, when a
    certificate fails or the oracle finds a two-squares witness.

    Each certificate is the residue test holds_mod modulo its modulus()
    q, so element j passes iff (base mod q + j) mod q does: exact integer
    arithmetic, with base reduced mod every entry's q by one remainder
    tree over those q, not by the modulus's tree, which keeps the check
    independent of the walk.  No element integer is built except for the
    oracle; the elements ascend, so they cross oracle_limit at most once.
    """
    moduli = [cert.modulus() for cert in certs]
    # a product tree needs a leaf; zip drops the one an empty list adds
    reduced = list(zip(moduli, _remainders(base, _product_tree(moduli or [1]))))
    # the oracle checks the offsets j <= last, where base + j <= oracle_limit
    last = len(table) if oracle_limit is None else oracle_limit - base
    for j, i in enumerate(table, 1):
        q, r = reduced[i]
        if not certs[i].holds_mod((r + j) % q):
            raise AssertionError(f"certificate does not hold at offset {j}")
        if j > last:
            yield j, i, "skipped"
            continue
        n = base + j
        verdict = classify(n, effort=effort, seed=seed)
        if isinstance(verdict, Member):
            raise AssertionError(f"oracle found witness for certified element {n}")
        yield j, i, "confirmed" if isinstance(verdict, NonMember) else "unknown"


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
    certs, table, _ = _covered_walk(c)
    limit = None if deep_verify or c.modulus.value() <= ORACLE_VALUE_LIMIT else 0
    checks = _element_checks(certs, table, c.shift, limit, effort, seed)
    return [ElementCheck(j, c.shift + j, certs[i], st) for j, i, st in checks]


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


# a certificate row after its offset
_ODD_ROW = ',\n      "odd",\n      {},\n      {}\n    ]'
_TWO_POWER_ROW = ',\n      "two_power",\n      2,\n      {}\n    ]'


def _certificate_row(nm: OddValuation | TwoPowerForm) -> str:
    if isinstance(nm, OddValuation):
        return _ODD_ROW.format(nm.p, nm.k)
    return _TWO_POWER_ROW.format(nm.k)


def _verify_text(nm: OddValuation | TwoPowerForm) -> str:
    if isinstance(nm, OddValuation):
        return f": odd p={nm.p} k={nm.k}"
    return f": two_power k={nm.k}"


def _render_rows(
    certs: list[_Certificate],
    items: Iterable[tuple],
    prefix: str,
    render: Callable[[_Certificate], str],
) -> list[str]:
    """prefix + offset + render(certs[i]) for each item, an (offset, i,
    ...) tuple, taken as it comes; each entry of certs is rendered once."""
    texts = [render(nm) for nm in certs]
    return [f"{prefix}{item[0]}{texts[item[1]]}" for item in items]


def construction_to_json(c: Construction) -> str:
    return (
        f'{{\n  "y": {c.y},\n'
        f'  "factors": {_json_pairs(c.modulus.factors)},\n'
        f'  "a": "{_int_to_decimal(c.shift)}"\n}}\n'
    )


def halving_result_to_json(res) -> str:
    # the certificates listed by value, so each distinct one is rendered once
    index: dict[_Certificate, int] = {}
    items = [
        (chk.offset, index.setdefault(chk.certificate, len(index)))
        for chk in res.certificates
    ]
    return _halving_json(res, list(index), items)


def _halving_json(res, certs: list[_Certificate], items: Iterable[tuple]) -> str:
    """The halving document of res, a HalvingResult, with one certificate
    row per (offset, index into certs, ...) item, taken as it comes; an
    exception from items propagates before the document exists."""
    certificates = _json_list(_render_rows(certs, items, "[\n      ", _certificate_row))
    bad_n = _json_list(map(str, sorted(res.bad_n)))
    interval = _json_list(f'"{_int_to_decimal(v)}"' for v in res.interval)
    return (
        f'{{\n  "delta": "{res.delta!s}",\n'
        f'  "halved_modulus": {_json_pairs(res.halved_modulus.factors)},\n'
        f'  "a0": "{_int_to_decimal(res.a0)}",\n'
        f'  "bad_n": {bad_n},\n'
        f'  "chosen_n": {res.chosen_n},\n'
        f'  "interval": {interval},\n'
        f'  "certificates": {certificates}\n}}\n'
    )


def _verify_report(c: Construction) -> tuple[str, int | None]:
    """The verify command's report on c, a line per certificate of
    verify_covering's report and then its end, and the first hole."""
    certs, table, _, hole = _covering_walk(c.modulus, c.shift, 1, c.y)
    covered = enumerate(table if hole is None else table[: hole - 1], 1)
    lines = _render_rows(certs, covered, "offset ", _verify_text)
    end = f"covered: {c.y}/{c.y}" if hole is None else f"uncovered at offset {hole}"
    return "\n".join(lines + [end]) + "\n", hole


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads would keep the last of a repeated key; a document says one thing
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError("document repeats a key")
    return obj


def construction_from_json(text: str) -> Construction:
    """Parse and fully validate a construction document.

    Raises ValueError (malformed, or CapacityError for a factor too large
    to prove prime), InadmissibleModulusError, or ShiftRangeError; these
    map to distinct CLI exit codes.
    """
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
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
