"""Mechanical lockstep verifier for the 2-symbol machine's simulation of
the 4-symbol machine.

The verifier runs the 4-symbol machine (`small`) one step at a time and
advances the 2-symbol machine (`big`) by exactly the step cost assigned
to that (state, previous-direction, read-symbol) triple.  After each
simulated step it asserts the coupling: big's state matches the state
map, big's head sits at 2i plus the direction offset, every block of two
big cells the big head visited spells the encoding of the corresponding
small cell, and the machines halt in sync.  It executes big itself
rather than trusting the accumulated time-scale, so any off-by-one drift
is caught immediately with a precise location.

Both machines step on `tm.compile_cells` tables over plain lists, and
each small step is planned ahead by its key and read symbol (cost,
write, move, next key).  The transcript goes into preallocated
`array.array` buffers that become its numpy arrays without a copy.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, UndefinedCost, UnknownKey, ValidationError
from .tm import L, R, MachineTable, compile_cells

BLOCK = 2


@dataclass(frozen=True)
class Encoding:
    """Injective block encoding from 4-symbol labels to 2-symbol words."""

    words: dict  # symbol label -> word over big's symbol labels

    def __post_init__(self):
        if len(set(self.words.values())) != len(self.words):
            raise ValidationError("encoding must be injective")
        for word in self.words.values():
            if len(word) != BLOCK:
                raise ValidationError(f"code words must have length {BLOCK}")


DEFAULT_ENCODING = Encoding({"#": "bb", "0": "ba", "1": "ab", "2": "aa"})

_H = {
    ("mul2_F", R): "mul2_F_sim",
    ("mul2_G", R): "mul2_G_sim",
    ("find_2", L): "find_2_sim",
    ("check_halt", L): "check_halt_sim",
    ("rewind", L): "rewind_sim",
    ("rewind", R): "rewind_b",
}

# Reachable (small state, previous head direction) pairs.
K = tuple(_H)

# Micro-steps big needs per small step, by key and read symbol.  The
# (rewind, R) column is defined only for the blank: rewind can only be
# entered rightward at cell 0, which always holds a blank.
STEP_COSTS = {
    ("mul2_F", R): {"0": 2, "1": 2, "2": 2, "#": 3},
    ("mul2_G", R): {"0": 2, "1": 4, "2": 2, "#": 2},
    ("find_2", L): {"0": 2, "1": 2, "2": 2, "#": 2},
    ("check_halt", L): {"0": 3, "1": 1, "2": 2, "#": 1},
    ("rewind", L): {"0": 2, "1": 2, "2": 2, "#": 3},
    ("rewind", R): {"#": 2},
}


def state_map_h(key: tuple[str, str]) -> str:
    """Big-machine state simulating a (small state, previous direction)."""
    try:
        return _H[key]
    except KeyError:
        raise UnknownKey(f"{key} is outside the reachable key set") from None


def head_map(i: int, d: str) -> int:
    """Big-machine head cell for small head i entered moving d."""
    return 2 * i + (1 if d == L else 0)


def step_cost(key: tuple[str, str], symbol: str) -> int:
    """Figure-of-merit lookup; absent cells are verification failures."""
    costs = STEP_COSTS.get(key)
    if costs is None:
        raise UnknownKey(f"{key} is outside the reachable key set")
    try:
        return costs[symbol]
    except KeyError:
        raise UndefinedCost(
            f"no cost for key {key} reading {symbol!r}: the simulated "
            "machine entered a combination the proof excludes") from None


@dataclass
class SimulationTranscript:
    """Per-step record of a bounded lockstep verification.

    `f[n]` is the big-machine step paired with small step n; `keys`,
    `sigmas` and `heads` record k_n (as an index into K), the read symbol
    index and the small head position for each verified step.
    """

    status: str  # "verified" | "both-halted" | "mismatch"
    n_verified: int
    f: np.ndarray
    keys: np.ndarray
    sigmas: np.ndarray
    heads: np.ndarray
    mismatch: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("verified", "both-halted")

    def time_scale(self, n: int) -> int:
        if not 0 <= n < len(self.f):
            raise OutOfRange(f"step {n} beyond verified range "
                             f"0..{len(self.f) - 1}")
        return int(self.f[n])

    def summary(self) -> str:
        if self.ok:
            tail = f"f({self.n_verified}) = {self.time_scale(self.n_verified)}"
            return f"{self.status} to n = {self.n_verified}, {tail}"
        m = self.mismatch
        return (f"mismatch at n = {m['n']} (big step {m['f']}): {m['kind']}, "
                f"expected {m['expected']!r}, got {m['actual']!r}")


def time_scale(transcript: SimulationTranscript, n: int) -> int:
    return transcript.time_scale(n)


def verify_simulation(big: MachineTable, small: MachineTable,
                      enc: Encoding = DEFAULT_ENCODING,
                      n_max: int = 1000) -> SimulationTranscript:
    """Run `small` for up to n_max steps with `big` in lockstep and check
    the simulation relation at every step.

    Stops at the first mismatch with a diagnostic carrying the small step
    n, big step f(n), the failed check, and expected/actual values.
    """
    if n_max < 0:
        raise ValueError("n_max must be a natural number")
    if set(small.symbols) != enc.words.keys():
        raise ValidationError("encoding must be total on small's alphabet")
    if big.n_symbols != 2:
        raise ValidationError("big machine must have 2 symbols")
    for role, machine, names in (("small", small, [q for q, _ in K]),
                                 ("big", big, _H.values())):
        for name in names:
            if name not in machine.states:
                raise ValidationError(f"{role} machine has no state {name!r}")
    big_sym = {label: i for i, label in enumerate(big.symbols)}
    if not set("".join(enc.words.values())) <= big_sym.keys():
        raise ValidationError("code words must use big's symbol labels")

    # small symbol index -> pair of big symbol indices
    enc_pairs = []
    for label in small.symbols:
        word = enc.words[label]
        enc_pairs.append((big_sym[word[0]], big_sym[word[1]]))
    if enc_pairs[small.blank] != (big.blank, big.blank):
        raise ValidationError("small blank must encode to big blanks")
    # a block of big cells (a, b) as one number 2a + b
    enc_code = [2 * a + b for a, b in enc_pairs]

    key_code = {}
    h_state = []
    head_offset = []
    for code, (state_name, d) in enumerate(K):
        key_code[(small.state_index(state_name), d)] = code
        h_state.append(big.state_index(_H[(state_name, d)]))
        head_offset.append(1 if d == L else 0)
    # plans[key][sigma]: (cost, write, delta, next key, next state) of
    # small's step, write None when small halts; None without a cost
    s_cells = compile_cells(small)
    plans = []
    for code, (state_name, d) in enumerate(K):
        q = small.state_index(state_name)
        costs = {small.symbol_index(sym): c
                 for sym, c in STEP_COSTS[(state_name, d)].items()}
        row = []
        for sigma, cell in enumerate(s_cells[q]):
            if sigma not in costs:
                row.append(None)
            elif cell is None:
                row.append((costs[sigma], None, 0, code, q))
            else:
                w, delta, q2 = cell
                row.append((costs[sigma], w, delta,
                            key_code.get((q2, R if delta > 0 else L)), q2))
        plans.append(row)
    b_cells = compile_cells(big)

    # transcript buffers, shared with the returned arrays without a copy
    n_cap = n_max + 1
    f_buf = array("q", [0]) * n_cap
    keys_buf = array("b", [0]) * n_cap
    sig_buf = array("b", [0]) * n_cap
    head_buf = array("q", [0]) * n_cap

    # Plain tapes: small cell j is s[j + origin] and big cell c is
    # b[c + 2 * origin], so block j of big is b[2 * i], b[2 * i + 1] for
    # i = j + origin.  Every small step keeps `margin` cells on either
    # side of the small head, more than the blocks big reaches in a step.
    margin = 2 + max(c for costs in STEP_COSTS.values()
                     for c in costs.values())
    origin = 4 * margin
    s = [small.blank] * (2 * origin)
    b = [big.blank] * (4 * origin)
    sp, bp, bq = origin, 2 * origin, big.init
    s_end = len(s) - margin
    s_lo = s_hi = sp  # small's touched extent
    f = 0
    key = key_code.get((small.init, R))
    if key is None:
        raise UnknownKey(f"({small.states[small.init]}, {R}) at step 0")

    def fail(n, kind, expected, actual):
        return SimulationTranscript(
            status="mismatch", n_verified=max(n - 1, 0),
            f=_array(f_buf, n + 1), keys=_array(keys_buf, n + 1),
            sigmas=_array(sig_buf, n + 1), heads=_array(head_buf, n + 1),
            mismatch={"n": n, "f": f, "kind": kind,
                      "expected": expected, "actual": actual})

    def block_fail(n, i, kind):
        return fail(n, kind, enc.words[small.symbols[s[i]]],
                    big.symbols[b[2 * i]] + big.symbols[b[2 * i + 1]])

    for n in range(n_cap):
        sigma = s[sp]
        f_buf[n] = f
        keys_buf[n] = key
        sig_buf[n] = sigma
        head_buf[n] = sp - origin

        # coupling checks at (n, f(n))
        if bq != h_state[key]:
            return fail(n, "state", big.states[h_state[key]], big.states[bq])
        if bp != 2 * sp + head_offset[key]:
            return fail(n, "head", 2 * (sp - origin) + head_offset[key],
                        bp - 2 * origin)

        if n == n_max:
            break

        plan = plans[key][sigma]
        if plan is None:
            raise UndefinedCost(
                f"key ({K[key][0]}, {K[key][1]}) reading "
                f"{small.symbols[sigma]!r} at step {n}")
        cost, w, delta, key, q2 = plan

        # advance small one step
        if w is not None:
            s[sp] = w
            sp += delta
            if sp < s_lo:
                s_lo = sp
            elif sp > s_hi:
                s_hi = sp

        # advance big exactly `cost` micro-steps, tracking head excursion
        big_halted_at = None
        lo = hi = bp
        for micro in range(cost):
            cell = b_cells[bq][b[bp]]
            f += 1
            if cell is None:
                big_halted_at = micro + 1
                break
            b[bp], d, bq = cell
            bp += d
            if bp < lo:
                lo = bp
            elif bp > hi:
                hi = bp

        if w is None:
            if big_halted_at != cost:
                return fail(n + 1, "halting-synchrony",
                            f"big halts at micro-step {cost}",
                            "big still running" if big_halted_at is None
                            else f"big halted at micro-step {big_halted_at}")
            return SimulationTranscript(
                status="both-halted", n_verified=n,
                f=_array(f_buf, n + 1), keys=_array(keys_buf, n + 1),
                sigmas=_array(sig_buf, n + 1),
                heads=_array(head_buf, n + 1))
        if big_halted_at is not None:
            return fail(n + 1, "halting-synchrony", "big still running",
                        f"big halted at micro-step {big_halted_at}")

        # every small cell whose block the big head visited must still
        # encode correctly; unvisited blocks are unchanged, so this is a
        # complete per-step check of the tape law
        for i in range(lo >> 1, (hi >> 1) + 1):
            if 2 * b[2 * i] + b[2 * i + 1] != enc_code[s[i]]:
                return block_fail(n + 1, i, f"tape cell {i - origin}")

        if key is None:
            raise UnknownKey(f"({small.states[q2]}, {R if delta > 0 else L})"
                             f" at step {n + 1}")
        if not margin <= sp < s_end:
            grow = len(s)
            if sp < margin:
                s[:0] = [small.blank] * grow
                b[:0] = [big.blank] * (2 * grow)
                origin += grow
                sp += grow
                bp += 2 * grow
                s_lo += grow
                s_hi += grow
            else:
                s.extend([small.blank] * grow)
                b.extend([big.blank] * (2 * grow))
            s_end = len(s) - margin

    # closing sweep over the whole touched extent plus one blank cell
    for i in range(s_lo - 1, s_hi + 2):
        if 2 * b[2 * i] + b[2 * i + 1] != enc_code[s[i]]:
            return block_fail(n_max, i, f"tape cell {i - origin} (final sweep)")

    return SimulationTranscript(
        status="verified", n_verified=n_max, f=_array(f_buf),
        keys=_array(keys_buf), sigmas=_array(sig_buf),
        heads=_array(head_buf))


def _array(buf: array, n: int | None = None) -> np.ndarray:
    """`buf` as a numpy array without a copy, or a copy of its first n.
    numpy reads the array typecodes "q" and "b" as int64 and int8."""
    out = np.frombuffer(buf, dtype=buf.typecode)
    return out if n is None else out[:n].copy()
