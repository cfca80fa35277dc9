"""Base-3 digit strings of natural numbers, and the scanner that looks
for powers of two with no ternary digit 2.

Digit strings of '0'/'1'/'2' are least-significant first
("reverse-ternary"), as on the power-of-two machine's tape and in `fst`.
TernaryNumber values are canonical (no most-significant zeros, except
the single 0 representing zero) and immutable.  Arithmetic on them,
doubling included, goes through Python integers (`from_int`, `lsf_to_int`).

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

from .errors import MalformedTape


# 3^18 < 2^30, one digit of CPython's integer representation; from_int
# peels 18 digits per division and looks them up six at a time in _SIX
_PEEL_BASE = 3 ** 18
_THREE = [a + b + c for c in "012" for b in "012" for a in "012"]
_SIX = [low + high for high in _THREE for low in _THREE]  # _SIX[v]: v's digits
# digits per int(text, 3) call, the lowest limit set_int_max_str_digits takes
_PARSE_DIGITS = 640
_PARSE_BASE = 3 ** _PARSE_DIGITS
_DIGIT_CHARS = {0: "0", 1: "1", 2: "2"}
_NON_DIGITS = str.maketrans("", "", "012")  # text.translate keeps the rest


def lsf_to_int(text: str) -> int:
    """Value of a non-empty string of the digits '0', '1' and '2',
    least-significant first.  Raises ValueError on any other string."""
    if not text or text.translate(_NON_DIGITS):
        raise ValueError(f"not a base-3 digit string: {text[:20]!r}")
    value = 0
    for lo in reversed(range(0, len(text), _PARSE_DIGITS)):
        value = value * _PARSE_BASE + int(text[lo:lo + _PARSE_DIGITS][::-1], 3)
    return value


class TernaryNumber:
    """Immutable natural number stored as its canonical digit string.

    Built from a digit string such as an `fst` word, or from a sequence
    of the integers 0, 1 and 2, of any integer type.
    """

    __slots__ = ("_digits",)

    def __init__(self, digits):
        if not isinstance(digits, str):
            try:
                digits = "".join([_DIGIT_CHARS[d] for d in digits])
            except (KeyError, TypeError):
                raise ValueError("digits must lie in {0, 1, 2}") from None
        if not digits or digits.translate(_NON_DIGITS):
            raise ValueError("digits must be a non-empty run of 0, 1, 2")
        self._digits = digits.rstrip("0") or "0"  # no most-significant zeros

    @classmethod
    def from_int(cls, value: int) -> "TernaryNumber":
        if value < 0:
            raise ValueError("only naturals are representable")
        out = []
        while True:
            value, low = divmod(value, _PEEL_BASE)
            out += _SIX[low % 729], _SIX[low // 729 % 729], _SIX[low // 531441]
            if value == 0:
                return cls("".join(out))

    @property
    def digits(self) -> tuple[int, ...]:
        """Digits as ints, least-significant first."""
        return tuple(map(int, self._digits))

    def __len__(self):
        return len(self._digits)

    def __iter__(self):
        return map(int, self._digits)

    def __int__(self):
        return lsf_to_int(self._digits)

    def __eq__(self, other):
        if not isinstance(other, TernaryNumber):
            return NotImplemented
        return self._digits == other._digits

    def __hash__(self):
        return hash(self._digits)

    def __repr__(self):
        return f"TernaryNumber({self.msf_str()!r} base 3)"

    def lsf_str(self) -> str:
        """Digits as a string, least-significant first (tape order)."""
        return self._digits

    def msf_str(self) -> str:
        """Conventional most-significant-first rendering."""
        return self._digits[::-1]

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
    return "2" in x.lsf_str()


@dataclass
class ScanReport:
    """Outcome of scanning exponents 0..bound for digit-2-free powers.

    `digit_ops` counts the ternary digits examined, one per residue class
    the scan tests, and `deepest_digit` is the highest digit place tested
    (the least significant digit is place 0).
    """

    bound: int
    free_exponents: list[int] = field(default_factory=list)
    digit_lengths: dict[int, int] = field(default_factory=dict)
    digit_ops: int = 0
    deepest_digit: int = 0
    elapsed_seconds: float = 0.0

    @property
    def exponents_per_s(self) -> float:
        """Exponents 0..bound scanned per second; 0.0 if untimed."""
        if not self.elapsed_seconds:
            return 0.0
        return (self.bound + 1) / self.elapsed_seconds

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
    ops = deepest = 0
    while stack:
        k, n = stack.pop()
        ops += 1
        if k > deepest:
            deepest = k
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
    report.digit_ops, report.deepest_digit = ops, deepest
    report.digit_lengths = dict(sorted(lengths.items()))
    report.free_exponents = list(report.digit_lengths)
    report.elapsed_seconds = time.perf_counter() - start
    return report


def decode_tape_number(labels: str, blank: str = "#") -> TernaryNumber:
    """Decode a tape window read from cell 0 upward (the first digit right
    of the separator) into the number it holds: digits until the first
    blank, least-significant first.

    Raises MalformedTape if a non-blank symbol follows the first blank.
    An empty digit run decodes to zero.
    """
    digits, _, rest = labels.partition(blank)
    stray = digits.translate(_NON_DIGITS)
    if stray:
        raise MalformedTape(f"unexpected tape symbol {stray[0]!r}")
    stray = rest.lstrip(blank)
    if stray:
        raise MalformedTape(
            f"digit {stray[0]!r} found after the terminating blank")
    return TernaryNumber(digits or "0")
