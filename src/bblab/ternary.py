"""Base-3 digit vectors of natural numbers, and the scanner that looks
for powers of two with no ternary digit 2.

Digit vectors are least-significant first ("reverse-ternary").
TernaryNumber values are canonical (no most-significant zeros, except
the single 0 representing zero) and immutable.  Arithmetic on them,
doubling included, goes through Python integers and `from_int`.

The scanner never builds the digits of most powers.  The low k ternary
digits of 2^n are the digits of 2^n mod 3^k, so it keeps that residue
(k = FILTER_DIGITS) and reads its digits a chunk at a time from a lookup
table; nearly every exponent shows a 2 in the first chunk.  Only the rare
exponents whose low digits hold no 2 get the exact digits of 2^n, from a
Python integer.  Lagarias, "Ternary expansions of powers of 2" (2009),
studies these residues.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedTape


# 3^18 < 2^30, one digit of CPython's integer representation
_PEEL_DIGITS = 18
_PEEL_BASE = 3 ** _PEEL_DIGITS


class TernaryNumber:
    """Immutable natural number stored as a base-3 digit vector."""

    __slots__ = ("_digits",)

    def __init__(self, digits):
        arr = np.asarray(list(digits) if not isinstance(digits, np.ndarray)
                         else digits, dtype=np.int16)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("digits must be a non-empty 1-d sequence")
        if ((arr < 0) | (arr > 2)).any():
            raise ValueError("digits must lie in {0, 1, 2}")
        # canonical form: strip most-significant zeros
        n = len(arr)
        while n > 1 and arr[n - 1] == 0:
            n -= 1
        arr = arr[:n].copy()
        arr.setflags(write=False)
        self._digits = arr

    @classmethod
    def from_int(cls, value: int) -> "TernaryNumber":
        if value < 0:
            raise ValueError("only naturals are representable")
        # peel _PEEL_DIGITS digits per division by a one-limb divisor,
        # then split every peeled chunk into digits at once
        chunks = []
        while True:
            value, low = divmod(value, _PEEL_BASE)
            chunks.append(low)
            if value == 0:
                break
        rest = np.array(chunks, dtype=np.int64)
        digits = np.empty((len(chunks), _PEEL_DIGITS), dtype=np.int16)
        for i in range(_PEEL_DIGITS):
            digits[:, i] = rest % 3
            rest //= 3
        return cls(digits.ravel())

    @property
    def digits(self) -> np.ndarray:
        """Read-only digit vector, least-significant first."""
        return self._digits

    def __len__(self):
        return len(self._digits)

    def __iter__(self):
        return iter(int(d) for d in self._digits)

    def __int__(self):
        value = 0
        for d in self._digits[::-1]:
            value = value * 3 + int(d)
        return value

    def __eq__(self, other):
        if not isinstance(other, TernaryNumber):
            return NotImplemented
        return (len(self._digits) == len(other._digits)
                and bool((self._digits == other._digits).all()))

    def __hash__(self):
        return hash(self._digits.tobytes())

    def __repr__(self):
        return f"TernaryNumber({self.msf_str()!r} base 3)"

    def lsf_str(self) -> str:
        """Digits as a string, least-significant first (tape order)."""
        return "".join(str(int(d)) for d in self._digits)

    def msf_str(self) -> str:
        """Conventional most-significant-first rendering."""
        return self.lsf_str()[::-1]

    def doubled(self) -> "TernaryNumber":
        return TernaryNumber.from_int(2 * int(self))


def powers_of_two(n_max: int):
    """Yield (n, TernaryNumber of 2**n) for n = 0..n_max, converted from
    the Python integer."""
    for n in range(n_max + 1):
        yield n, TernaryNumber.from_int(1 << n)


def power_of_two_lengths():
    """Yield (2**n, number of ternary digits of 2**n) for n = 0, 1, 2, ...
    from integers alone: the count is the least L with 3**L > 2**n."""
    power, length, top = 1, 1, 3
    while True:
        yield power, length
        power <<= 1
        while top <= power:
            top *= 3
            length += 1


def power_of_two_ternary(n: int) -> TernaryNumber:
    """Canonical digits of 2**n, converted from the Python integer."""
    if n < 0:
        raise ValueError("exponent must be a natural number")
    return TernaryNumber.from_int(1 << n)


def has_digit_two(x: TernaryNumber) -> bool:
    return bool((x.digits == 2).any())


# The scan filter reads the low FILTER_DIGITS ternary digits of 2^n from
# 2^n mod 3^FILTER_DIGITS, _CHUNK digits per table lookup.
_CHUNK = 10
FILTER_DIGITS = 4 * _CHUNK
_CHUNK_BASE = 3 ** _CHUNK
FILTER_MODULUS = 3 ** FILTER_DIGITS


@functools.cache
def _chunk_has_two() -> bytes:
    """Byte v is 1 iff v, written with _CHUNK ternary digits, has a 2.
    Built on first use, so importing the module stays cheap."""
    v = np.arange(_CHUNK_BASE)
    hit = np.zeros(_CHUNK_BASE, dtype=bool)
    for _ in range(_CHUNK):
        hit |= v % 3 == 2
        v //= 3
    return hit.tobytes()


def low_digits_to_two(residue: int) -> int:
    """How many low ternary digits of `residue` the filter reads before a
    digit 2 shows, in whole chunks, or 0 if none of the low FILTER_DIGITS
    digits is 2.  With residue = 2^n mod 3^FILTER_DIGITS, a nonzero result
    proves that 2^n has a digit 2."""
    table = _chunk_has_two()
    read = 0
    while read < FILTER_DIGITS:
        residue, low = divmod(residue, _CHUNK_BASE)
        read += _CHUNK
        if table[low]:
            return read
    return 0


@dataclass
class ScanReport:
    """Outcome of scanning exponents 0..bound for digit-2-free powers.

    `digit_ops` counts the ternary digits examined: the low digits the
    filter reads for every exponent, plus the full digit length of 2^n
    for each exponent it passes on to the exact check.
    """

    bound: int
    free_exponents: list[int] = field(default_factory=list)
    digit_lengths: dict[int, int] = field(default_factory=dict)
    digit_ops: int = 0
    elapsed_seconds: float = 0.0

    @property
    def counterexample(self) -> int | None:
        """Smallest digit-2-free exponent above 8, if the scan found one."""
        for n in self.free_exponents:
            if n > 8:
                return n
        return None

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "free_exponents": self.free_exponents,
            "digit_lengths": {str(k): v for k, v in self.digit_lengths.items()},
            "digit_ops": self.digit_ops,
            "counterexample": self.counterexample,
        }


def scan_erdos(n_max: int) -> ScanReport:
    """Record every n <= n_max whose 2**n has no ternary digit 2.

    The residue r = 2^n mod 3^FILTER_DIGITS is kept by one doubling per
    exponent.  An exponent whose residue shows a digit 2 among its low
    digits is done; the others (n = 0, 2 and 8 below 10^4, where 2^n is
    below 3^FILTER_DIGITS and the residue is 2^n itself) get the exact
    digits of 2^n, which also give `digit_lengths`.
    """
    if n_max < 0:
        raise ValueError("n_max must be a natural number")
    start = time.perf_counter()
    report = ScanReport(bound=n_max)
    residue = 1
    for n in range(n_max + 1):
        read = low_digits_to_two(residue)
        if read:
            report.digit_ops += read
        else:
            exact = power_of_two_ternary(n)
            report.digit_ops += FILTER_DIGITS + len(exact)
            if not has_digit_two(exact):
                report.free_exponents.append(n)
                report.digit_lengths[n] = len(exact)
        residue <<= 1
        if residue >= FILTER_MODULUS:
            residue -= FILTER_MODULUS
    report.elapsed_seconds = time.perf_counter() - start
    return report


def decode_tape_number(labels: str, blank: str = "#") -> TernaryNumber:
    """Decode a tape window read from cell 1 upward into the number it
    holds: digits until the first blank, least-significant first.

    Raises MalformedTape if a non-blank symbol follows the first blank.
    An empty digit run decodes to zero.
    """
    digits = []
    seen_blank = False
    for ch in labels:
        if ch == blank:
            seen_blank = True
            continue
        if seen_blank:
            raise MalformedTape(
                f"digit {ch!r} found after the terminating blank")
        if ch not in "012":
            raise MalformedTape(f"unexpected tape symbol {ch!r}")
        digits.append(int(ch))
    if not digits:
        return TernaryNumber([0])
    return TernaryNumber(digits)
