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

Both machines step on `tm.compile_cells` tables over one shared tape:
cell i holds small's symbol; big's block is its encoding.  That holds
after every step that passes the checks, being the very law they
verify, so each step builds big's blocks from small's cells afresh.
While the maps hold, big's state and head follow from small's key and
head, so the steps both machines take on a few cells, with every check
they make, are a pure function of the key and those cells (the
macro-step idea of Marxen & Buntrock).  The verifier takes such a
window run once, from small's head over the next `W` cells in the
direction the key entered, and replays it from a cache whenever the key
meets the same cells again.  A step that would leave the window, fail a
check or halt goes alone through the same step function, on cells wide
enough for any step, which reports the mismatch.  The transcript goes
into preallocated `array.array` buffers, per-step costs and moves
summed in place at the end, that become its numpy arrays without a
copy.
"""

from __future__ import annotations

import time
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

# Cells in a window run.  To 10^6 steps of m54 (2-vCPU Xeon, Python
# 3.11) W = 5 took 1,141 window runs and 250,315 replays of 4.0 steps
# in 0.43-0.63 s.  W = 4 replays 3.0 steps at a time (0.71 s); W = 6
# was no faster (0.45-0.60 s) with 3,033 window runs, and W = 8 meets
# so many distinct windows (20,766 runs) that it took 1.1 s.
W = 5

# Cells a single step can use on either side of small's head: big starts
# at 2i or 2i + 1 and moves at most one cell per micro-step.
_REACH = (max(c for costs in STEP_COSTS.values()
              for c in costs.values()) + 1) // 2


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
    `window_runs` counts the window runs computed, one per distinct key
    and window met, and `replays` the runs applied to the tape, each of
    one or more steps.
    """

    status: str  # "verified" | "both-halted" | "mismatch"
    n_verified: int
    f: np.ndarray
    keys: np.ndarray
    sigmas: np.ndarray
    heads: np.ndarray
    mismatch: dict | None = None
    window_runs: int = 0
    replays: int = 0
    seconds: float = 0.0  # wall time of the verification

    @property
    def small_steps_per_s(self) -> float:
        return self.n_verified / self.seconds if self.seconds else 0.0

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
    started = time.perf_counter()
    if n_max < 0:
        raise ValueError("n_max must be a natural number")
    if set(small.symbols) != enc.words.keys():
        raise ValidationError("encoding must be total on small's alphabet")
    if big.n_symbols != 2:
        raise ValidationError("big machine must have 2 symbols")
    for role, what, labels, names in (
            ("small", "state", small.states, [q for q, _ in K]),
            ("big", "state", big.states, _H.values()),
            ("small", "symbol", small.symbols,
             {sym: 0 for costs in STEP_COSTS.values() for sym in costs})):
        for name in names:
            if name not in labels:
                raise ValidationError(f"{role} machine has no {what} {name!r}")
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

    key_code = {}
    h_state = []
    head_offset = []
    for code, (state_name, d) in enumerate(K):
        key_code[(small.state_index(state_name), d)] = code
        h_state.append(big.state_index(state_map_h((state_name, d))))
        head_offset.append(head_map(0, d))
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

    def step(key, cells, p, base=0):
        """Small's step from `key` with its head on cells[p], and the big
        micro-steps it costs from the state and cell the maps give, on the
        blocks that encode `cells`, whose first is tape cell `base`.  None
        if big would use a cell beyond those blocks; else (stop, cells,
        key, p, cost) after the step, where stop is None if the step
        passes every check, or else (kind, big steps taken, expected,
        actual)."""
        plan = plans[key][cells[p]]
        if plan is None:
            return ("undefined-cost", 0, None, None), cells, key, p, 0
        cost, w, delta, next_key, q2 = plan
        bits = [bit for sym in cells for bit in enc_pairs[sym]]
        bq = h_state[key]
        bp = lo = hi = 2 * p + head_offset[key]
        halted_at = None
        for micro in range(1, cost + 1):
            if not 0 <= bp < len(bits):
                return None
            cell = b_cells[bq][bits[bp]]
            if cell is None:
                halted_at = micro
                break
            bits[bp], d, bq = cell
            bp += d
            if bp < lo:
                lo = bp
            elif bp > hi:
                hi = bp

        if w is None and halted_at == cost:
            return ("both-halted", cost, None, None), cells, key, p, cost
        if w is None or halted_at is not None:
            return (("halting-synchrony", halted_at or cost,
                     "big still running" if w is not None
                     else f"big halts at micro-step {cost}",
                     "big still running" if halted_at is None
                     else f"big halted at micro-step {halted_at}"),
                    cells, key, p, cost)
        if not (0 <= bp < len(bits) and 0 <= p + delta < len(cells)):
            return None
        cells = cells[:]
        cells[p] = w
        p += delta
        stop = None
        # every small cell whose block the big head visited must still
        # encode correctly; unvisited blocks are unchanged, so this is a
        # complete per-step check of the tape law
        for i in range(lo >> 1, (hi >> 1) + 1):
            block = bits[2 * i], bits[2 * i + 1]
            if block != enc_pairs[cells[i]]:
                stop = (f"tape cell {base + i}", cost,
                        enc.words[small.symbols[cells[i]]],
                        "".join(big.symbols[bit] for bit in block))
                break
        else:
            # the next step's key, and the coupling there: big's state
            # and head
            if next_key is None:
                stop = ("unknown-key", cost, None,
                        f"({small.states[q2]}, {R if delta > 0 else L})")
            elif bq != h_state[next_key]:
                stop = ("state", cost, big.states[h_state[next_key]],
                        big.states[bq])
            elif bp != 2 * p + head_offset[next_key]:
                stop = ("head", cost, 2 * (base + p) + head_offset[next_key],
                        2 * base + bp)
        return stop, cells, next_key, p, cost

    def window_run(key, cells, p, limit):
        """The steps from `key` with small's head on cells[p] while each
        passes every check on `cells` alone, at most `limit` of them:
        (steps, cells, key and small's head movement after them, and each
        step's key, read symbol, cost and move)."""
        keys, sigmas = array("b"), array("b")
        costs, moves = array("q"), array("q")
        start = p
        while len(keys) < limit:
            out = step(key, cells, p)
            if out is None or out[0] is not None:
                break
            keys.append(key)
            sigmas.append(cells[p])
            _, cells, key, p_next, cost = out
            costs.append(cost)
            moves.append(p_next - p)
            p = p_next
        return len(keys), cells, key, p - start, keys, sigmas, costs, moves

    # Transcript buffers: step n's key and read symbol at index n, its
    # cost and small's move at index n + 1, summed into f and heads at
    # the end.
    n_cap = n_max + 1
    f_buf = array("q", [0]) * n_cap
    keys_buf = array("b", [0]) * n_cap
    sig_buf = array("b", [0]) * n_cap
    head_buf = array("q", [0]) * n_cap

    # One tape for both machines: t[i] is small's symbol at cell
    # i - origin, and big's block i is its encoding.  Between runs
    # `margin` cells stay on either side of small's head, room for any
    # window.
    margin = W + _REACH
    origin = 2 * margin
    t = [small.blank] * (2 * origin)
    sp = origin
    key = key_code.get((small.init, R))
    if key is None:
        raise UnknownKey(f"({small.states[small.init]}, {R}) at step 0")
    # A window starts at small's head and extends the way the key
    # entered; with the head at its centre a run replays 2.0 steps, not
    # 4.0, and 10^6 steps took 1.0 s.
    lead = [0 if d == R else W - 1 for _, d in K]
    runs = {}
    window_runs = replays = 0

    def transcript(status, n_verified, length, recorded, mismatch=None):
        """The first `length` records, whose first `recorded` are set."""
        f, keys, sigmas, heads = (_array(buf, length) for buf in
                                  (f_buf, keys_buf, sig_buf, head_buf))
        np.cumsum(f[:recorded], out=f[:recorded])
        np.cumsum(heads[:recorded], out=heads[:recorded])
        return SimulationTranscript(
            status=status, n_verified=n_verified, f=f, keys=keys,
            sigmas=sigmas, heads=heads, mismatch=mismatch,
            window_runs=window_runs, replays=replays,
            seconds=time.perf_counter() - started)

    def fail(n, kind, expected, actual, spent=None):
        """Mismatch at step n.  `spent` is the big steps that small's step
        n - 1 took before failing, None when step n was recorded."""
        out = transcript("mismatch", max(n - 1, 0), n + 1,
                         n + 1 if spent is None else n)
        f = out.f[n] if spent is None else out.f[n - 1] + spent
        out.mismatch = {"n": n, "f": int(f), "kind": kind,
                        "expected": expected, "actual": actual}
        return out

    keys_buf[0] = key
    sig_buf[0] = small.blank
    if big.init != h_state[key]:
        return fail(0, "state", big.states[h_state[key]],
                    big.states[big.init])

    n = 0
    while n < n_max:
        x = sp - lead[key]
        window = (key, *t[x:x + W])
        run = runs.get(window)
        if run is None:
            window_runs += 1
            run = runs[window] = window_run(key, t[x:x + W], lead[key],
                                            n_max - n)
        if not 0 < run[0] <= n_max - n:
            # a step that leaves the window, fails a check or halts, or
            # one a run would take past n_max: on its own, on cells wide
            # enough for any step
            x = sp - _REACH
            run = window_run(key, t[x:sp + _REACH + 1], _REACH, 1)
        k, cells, next_key, move, keys, sigmas, costs, moves = run
        if not k:
            keys_buf[n] = key
            sig_buf[n] = t[sp]
            stop, cells, next_key, p, cost = step(key, cells, _REACH,
                                                  x - origin)
            kind, spent, expected, actual = stop
            if kind == "undefined-cost":
                raise UndefinedCost(
                    f"key ({K[key][0]}, {K[key][1]}) reading "
                    f"{small.symbols[t[sp]]!r} at step {n}")
            if kind == "unknown-key":
                raise UnknownKey(f"{actual} at step {n + 1}")
            if kind == "both-halted":
                return transcript("both-halted", n, n + 1, n + 1)
            if kind in ("state", "head"):
                keys_buf[n + 1] = next_key
                sig_buf[n + 1] = cells[p]
                f_buf[n + 1] = cost
                head_buf[n + 1] = p - _REACH
                spent = None
            return fail(n + 1, kind, expected, actual, spent)
        replays += 1
        t[x:x + len(cells)] = cells
        keys_buf[n:n + k] = keys
        sig_buf[n:n + k] = sigmas
        f_buf[n + 1:n + k + 1] = costs
        head_buf[n + 1:n + k + 1] = moves
        n += k
        sp += move
        key = next_key
        if not margin <= sp < len(t) - margin:
            grow = len(t)
            if sp < margin:
                t[:0] = [small.blank] * grow
                origin += grow
                sp += grow
            else:
                t.extend([small.blank] * grow)
    keys_buf[n_max] = key
    sig_buf[n_max] = t[sp]
    return transcript("verified", n_max, n_cap, n_cap)


def _array(buf: array, n: int) -> np.ndarray:
    """The first n entries of `buf` as a numpy array, without a copy when
    that is all of it.  numpy reads the array typecodes "q" and "b" as
    int64 and int8."""
    out = np.frombuffer(buf, dtype=buf.typecode)
    return out if n == len(buf) else out[:n].copy()
