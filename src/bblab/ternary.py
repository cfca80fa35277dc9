"""Base-3 digit vectors of natural numbers, and the scanner that looks
for powers of two with no ternary digit 2.

Digit vectors are least-significant first ("reverse-ternary").
TernaryNumber values are canonical (no most-significant zeros, except
the single 0 representing zero) and immutable.  Arithmetic on them,
doubling included, goes through Python integers and `from_int`.

The scanner never builds the digits of a power.  The low k ternary
digits of 2^n are those of 2^n mod 3^k, which has period P_k = 2 * 3^(k-1)
in n, so the scan walks a tree of residue classes of exponents: a class
mod P_k whose low k digits hold no 2 splits into three classes mod
P_(k+1), and only those whose digit k is not 2 go on.  About two of the
three do, so the tree grows as about n_max^0.63 (Lagarias, "Ternary
expansions of powers of 2", 2009; Dimitrov & Howe, 2021).
"""

from __future__ import annotations

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


@dataclass
class ScanReport:
    """Outcome of scanning exponents 0..bound for digit-2-free powers.

    `digit_ops` counts the ternary digits examined, one per residue class
    the scan tests.
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

    A depth-first walk over residue classes.  The low k ternary digits of
    2^n depend only on n mod P_k = 2 * 3^(k-1), so a class n = r (mod P_k)
    whose least member r has no 2 among them splits into the classes
    r + j * P_k (mod P_(k+1)), j = 0, 1, 2, and each of those that is at
    most n_max is kept if digit k of its least member is not 2.  The walk
    starts from the two classes mod 2.  Once 3^k > 2^r every digit of 2^r
    has been read: r is digit-2-free with k digits.  Its digits from k up
    are 0, so its own class splits without a test at every later level,
    and the walk goes on from the classes r + P_i and r + 2 * P_i,
    i >= k, that are at most n_max.
    """
    if n_max < 0:
        raise ValueError("n_max must be a natural number")
    start = time.perf_counter()
    report = ScanReport(bound=n_max)
    lengths = {}
    threes = [1, 3]          # threes[k] = 3^k
    # (k, n): test digit k of 2^n, whose k low digits hold no 2
    stack = [(0, n) for n in (0, 1) if n <= n_max]
    while stack:
        k, n = stack.pop()
        report.digit_ops += 1
        if pow(2, n, threes[k + 1]) // threes[k] == 2:
            continue
        k += 1
        if len(threes) == k + 1:
            threes.append(3 * threes[k])
        if threes[k].bit_length() <= n:
            period = 2 * threes[k - 1]
            stop = min(n + 3 * period, n_max + 1)
            stack.extend((k, m) for m in range(n, stop, period))
            continue
        # 2^n has exactly k digits, as 3^(k-1) <= 2^n.  Its digits k and up
        # are 0, so the class of n survives at every level; only the
        # classes n + P_i and n + 2 * P_i (mod P_(i+1)), i >= k, need tests.
        lengths[n] = k
        period = 2 * threes[k - 1]
        while n + period <= n_max:
            stack.extend((k, m) for m in (n + period, n + 2 * period)
                         if m <= n_max)
            k += 1
            if len(threes) == k + 1:
                threes.append(3 * threes[k])
            period *= 3
    report.digit_lengths = dict(sorted(lengths.items()))
    report.free_exponents = list(report.digit_lengths)
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
