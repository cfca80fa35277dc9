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

Both machines step on their tables' (write, delta, next state) cells
over one shared tape: cell i holds small's symbol; big's block is its
encoding.  That holds after every step that passes the checks, being
the very law they verify, so each step builds big's blocks from small's
cells afresh.
While the maps hold, big's state and head follow from small's key and
head, so the steps both machines take on a few cells, with every check
they make, are a pure function of the key and those cells (the
macro-step idea of Marxen & Buntrock).  The verifier takes such a
window run once, from small's head over the next `W` cells in the
direction the key entered, and replays it from a cache whenever the key
meets the same cells again.  A step that would leave the window, fail a
check or halt goes alone through the same step function, on cells wide
enough for any step, which reports the mismatch.

Half of the 4-symbol machine's steps are passes over the digits that
rewrite each digit and keep the key, so the verifier also collapses
such a pass into one bulk step.  A key's sweep symbols are those whose
step writes the symbol back and keeps the key, and which the step
function, run once per call on the symbol beside each possible
neighbour ahead and with no cell behind, passes with every check: that
step depends on the symbol alone.  After replaying a window run made
only of sweep steps of one key, the verifier finds (`bytearray.find`)
where the cells ahead stop holding that key's sweep symbols, and
records the stretch between at once: the key throughout, and the cells
in the order visited as read symbols.  To 10^6 steps this takes 1,139 window runs, 128,401 replays
and 1,867 sweeps, against 1,141 window runs and 250,315 replays
without sweeps.

The transcript is one append-only bytearray log of (key, read symbol)
byte pairs, one per step: a replay appends its cached record, a sweep
its stretch interleaved with its key, and a step taken alone its two
bytes.  The int8 arrays `keys` and `sigmas` are views of the log's even
and odd bytes.  A step's cost follows from its key and read symbol, and
small's move from the next key, so the int64 arrays `f` and `heads` are
built from the log at the end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, UndefinedCost, UnknownKey, ValidationError
from .tm import L, R, MachineTable

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
# entered rightward at cell -1, the separator, which always holds a blank.
STEP_COSTS = {
    ("mul2_F", R): {"0": 2, "1": 2, "2": 2, "#": 3},
    ("mul2_G", R): {"0": 2, "1": 4, "2": 2, "#": 2},
    ("find_2", L): {"0": 2, "1": 2, "2": 2, "#": 2},
    ("check_halt", L): {"0": 3, "1": 1, "2": 2, "#": 1},
    ("rewind", L): {"0": 2, "1": 2, "2": 2, "#": 3},
    ("rewind", R): {"#": 2},
}

# Cells in a window run.  To 10^6 steps of m54 (2-vCPU Xeon, Python
# 3.11, CPU time, best of 3 in each of 5 processes) W = 5 took 1,139
# window runs, 128,401 replays and 1,867 sweeps in 0.10-0.11 s.  W = 4
# took 0.12-0.21 s (169,294 replays), W = 6 0.11-0.13 s with 2,882
# window runs, and W = 8 meets so many distinct windows (15,326 runs)
# that it took 0.37-0.44 s.
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
    and window met, `replays` the runs applied to the tape, each of one
    or more steps, and `sweeps` the stretches of sweep steps crossed in
    one bulk step each.
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
    sweeps: int = 0
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
    plans = []
    for code, (state_name, d) in enumerate(K):
        q = small.state_index(state_name)
        costs = {small.symbol_index(sym): c
                 for sym, c in STEP_COSTS[(state_name, d)].items()}
        row = []
        for sigma, cell in enumerate(small.table[q]):
            if sigma not in costs:
                row.append(None)
            elif cell is None:
                row.append((costs[sigma], None, 0, code, q))
            else:
                w, delta, q2 = cell
                row.append((costs[sigma], w, delta,
                            key_code.get((q2, R if delta > 0 else L)), q2))
        plans.append(row)
    b_cells = big.table

    def step(key, cells, p, base=0):
        """Small's step from `key` with its head on cells[p], and the big
        micro-steps it costs from the state and cell the maps give, on the
        blocks that encode `cells`, whose first is tape cell `base`.  None
        if big would use a cell beyond those blocks; else (stop, cells,
        key, p) after the step, where stop is None if the step passes
        every check, or else (kind, big steps taken, expected, actual)."""
        plan = plans[key][cells[p]]
        if plan is None:
            return ("undefined-cost", 0, None, None), cells, key, p
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
            return ("both-halted", cost, None, None), cells, key, p
        if w is None or halted_at is not None:
            return (("halting-synchrony", halted_at or cost,
                     "big still running" if w is not None
                     else f"big halts at micro-step {cost}",
                     "big still running" if halted_at is None
                     else f"big halted at micro-step {halted_at}"),
                    cells, key, p)
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
        return stop, cells, next_key, p

    # Per key: its sweep symbols (see the module docstring), and the
    # other symbols, which end a sweep.
    sweep, stops = [], []
    n_symbols = len(small.symbols)
    for code, row in enumerate(plans):
        ahead = 1 if K[code][1] == R else -1
        symbols = set()
        for sigma, plan in enumerate(row):
            if plan is None or plan[1] != sigma or plan[3] != code:
                continue
            for nu in range(n_symbols):
                cells = bytearray((sigma, nu)[::ahead])
                out = step(code, cells, 0 if ahead > 0 else 1)
                if out is None or out[0] is not None:
                    break
            else:
                symbols.add(sigma)
        sweep.append(symbols)
        stops.append([s for s in range(n_symbols) if s not in symbols])

    def window_run(key, cells, p, limit):
        """The steps from `key` with small's head on cells[p] while each
        passes every check on `cells` alone, at most `limit` of them:
        (steps, cells, key and small's head movement after them, each
        step's key and read symbol as two bytes, and whether every step
        is a sweep step of the first key)."""
        rec = bytearray()
        start, first, swept = p, key, True
        while len(rec) < 2 * limit:
            out = step(key, cells, p)
            if out is None or out[0] is not None:
                break
            sigma = cells[p]
            swept = swept and key == first and sigma in sweep[first]
            rec += bytes((key, sigma))
            _, cells, key, p = out
        return (len(rec) // 2, cells, key, p - start, bytes(rec),
                swept and bool(rec))

    # The transcript log: step n's key and read symbol at bytes 2n and
    # 2n + 1.  Its cost is cost_of[key * n_symbols + symbol], and small's
    # move is the direction of key n + 1, so f and heads are their sums,
    # taken at the end.
    log = bytearray()
    cost_of = np.array([0 if plan is None else plan[0]
                        for row in plans for plan in row], np.int64)
    move_of = np.array([1 if d == R else -1 for _, d in K], np.int64)

    # One tape for both machines: t[i] is small's symbol at cell
    # i - origin, and big's block i is its encoding.  Between runs
    # `margin` cells stay on either side of small's head, room for any
    # window.  At most four symbols have two-cell code words over two
    # symbols, so a cell fits a byte.
    margin = W + _REACH
    origin = 2 * margin
    t = bytearray([small.blank]) * (2 * origin)
    sp = origin
    key = key_code.get((small.init, R))
    if key is None:
        raise UnknownKey(f"({small.states[small.init]}, {R}) at step 0")
    # A window starts at small's head and extends the way the key
    # entered; with the head at its centre a run replays 2.0 steps, not
    # 4.0, and 10^6 steps took 1.0 s.
    lead = [0 if d == R else W - 1 for _, d in K]
    key_byte = [bytes((code,)) for code in range(len(K))]
    runs = {}
    window_runs = replays = sweeps = 0

    def transcript(status, n_verified):
        """The transcript of the records in the log."""
        records = np.frombuffer(log, np.int8)
        keys, sigmas = records[0::2], records[1::2]
        f, heads = (np.zeros(len(keys), np.int64) for _ in range(2))
        # each step's cost and move, looked up in place (mode "clip"
        # writes `out` unbuffered; every index is in range), then summed
        f[1:] = keys[:-1]
        f[1:] *= n_symbols
        f[1:] += sigmas[:-1]
        heads[1:] = keys[1:]
        for out, table in ((f, cost_of), (heads, move_of)):
            table.take(out[1:], mode="clip", out=out[1:])
            np.cumsum(out, out=out)
        return SimulationTranscript(
            status=status, n_verified=n_verified, f=f, keys=keys,
            sigmas=sigmas, heads=heads, window_runs=window_runs,
            replays=replays, sweeps=sweeps,
            seconds=time.perf_counter() - started)

    def fail(n, kind, expected, actual, spent=None):
        """Mismatch at step n, the last record in the log.  `spent` is the
        big steps that small's step n - 1 took before failing, None when
        step n was recorded; else step n is left at 0 in every array."""
        if spent is not None:
            log.extend(bytes(2))
        out = transcript("mismatch", max(n - 1, 0))
        if spent is None:
            f = out.f[n]
        else:
            f = out.f[n - 1] + spent
            out.f[n] = out.heads[n] = 0
        out.mismatch = {"n": n, "f": int(f), "kind": kind,
                        "expected": expected, "actual": actual}
        return out

    if big.init != h_state[key]:
        log += bytes((key, small.blank))
        return fail(0, "state", big.states[h_state[key]],
                    big.states[big.init])

    n = 0
    while n < n_max:
        x = sp - lead[key]
        run = runs.get(key_byte[key] + t[x:x + W])
        if run is None:
            window_runs += 1
            run = runs[key_byte[key] + t[x:x + W]] = window_run(
                key, t[x:x + W], lead[key], n_max - n)
        if not 0 < run[0] <= n_max - n:
            # a step that leaves the window, fails a check or halts, or
            # one a run would take past n_max: on its own, on cells wide
            # enough for any step
            x = sp - _REACH
            stop, cells, next_key, p = step(key, t[x:sp + _REACH + 1],
                                            _REACH, x - origin)
            rec = bytes((key, t[sp]))
            if stop is not None:
                kind, spent, expected, actual = stop
                if kind == "undefined-cost":
                    raise UndefinedCost(
                        f"key ({K[key][0]}, {K[key][1]}) reading "
                        f"{small.symbols[t[sp]]!r} at step {n}")
                if kind == "unknown-key":
                    raise UnknownKey(f"{actual} at step {n + 1}")
                log += rec
                if kind == "both-halted":
                    return transcript("both-halted", n)
                if kind in ("state", "head"):
                    log += bytes((next_key, cells[p]))
                    spent = None
                return fail(n + 1, kind, expected, actual, spent)
            run = 1, cells, next_key, p - _REACH, rec, t[sp] in sweep[key]
        k, cells, next_key, move, rec, swept = run
        replays += 1
        t[x:x + len(cells)] = cells
        log += rec
        n += k
        sp += move
        key = next_key
        if not margin <= sp < len(t) - margin:
            grow = len(t)
            if sp < margin:
                t[:0] = bytes([small.blank]) * grow
                origin += grow
                sp += grow
            else:
                t.extend(bytes([small.blank]) * grow)
        if swept:
            # the rest of the pass: the cells ahead that hold the key's
            # sweep symbols, within n_max steps and the margin; `end` is
            # small's head after them
            if move > 0:
                end = min(sp + n_max - n, len(t) - margin - 1)
                for s in stops[key]:
                    j = t.find(s, sp, end)
                    if j >= 0:
                        end = j
                stretch = t[sp:end]
            else:
                end = max(sp - n_max + n, margin)
                for s in stops[key]:
                    end = max(t.rfind(s, end, sp + 1), end)
                stretch = t[sp:end:-1]
            if stretch:
                sweeps += 1
                i = len(log)
                log += key_byte[key] * (2 * len(stretch))
                log[i + 1::2] = stretch
                n += len(stretch)
                sp = end
    log += bytes((key, t[sp]))
    return transcript("verified", n_max)
