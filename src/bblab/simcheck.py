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
head, so the step both machines take, with every check they make, is a
pure function of the key and the cells within reach of small's head
(the macro-step idea of Marxen & Buntrock).  The verifier computes each
such step once and replays it from a memo whenever the key meets the
same cells again.  A step that fails a check or halts is reported as
the step function finds it, and never memoised.

All but about 1% of the 4-symbol machine's steps are passes over the
digits, so the verifier also crosses such a pass in bulk.  A key's pass
steps are the (key, symbol) steps that move the way the key entered, to
a key entered the same way, and which the step function, run once per
call on the symbol beside each possible neighbour ahead and with no cell
behind, passes with every check: such a step depends on the symbol
alone.  A pass from a key runs over the symbols that are pass steps of
every key its pass steps reach, as `tm.pass_ends` derives for
`tm.PassRun` too, and `bytearray.find` locates the first other symbol,
where it ends.  For rewind, and for the doubling keys mul2_F and
mul2_G, that is the blank.  find_2's pass steps reach three keys,
rewind and check_halt too, so its pass runs over its own self-loop
symbols, 0 and 1, and ends on 2 or the blank.  Where a key writes each
of its pass symbols back and keeps itself, as rewind and find_2 do, the
stretch is a sweep, recorded at once: the key throughout, and the cells
in the order visited as read symbols.  The doubling passes rewrite
every digit and switch between mul2_F and mul2_G as a carry is pending
or not, so `tm.CarryPass` crosses each at once: one integer addition
gives the key at every cell, one `bytes.translate` of the (key, symbol)
bytes the cells written, another the log records' keys, and one
`bytes.count` the cost: 2 a cell, 4 for mul2_G on 1.  A key with
neither, such as (rewind, R), whose one pass step enters the doubling,
is replayed step by step.  After each replay the verifier takes the
pass from small's head if the symbol there continues one.  To 10^6
steps this takes 98 steps computed and 4,567 replayed, 2,045 sweeps and
1,257 passes.

The transcript is one append-only bytearray log of (key, read symbol)
byte pairs, 2 bytes a step: a replay appends its memoised record, and
a sweep or a pass its stretch interleaved with the key at each cell.
f(n) at the last verified step is a running total: each memoised step
carries its cost, and a sweep or a pass adds its length times its
commonest step cost plus, for each (key, symbol) byte that costs
otherwise, the difference times its count (`tm.cost_terms`).  A
rewind or find_2 sweep costs 2 a cell and needs no count, and a pass 2
a cell plus 2 for each mul2_G step reading 1.
Small's head there is its place on the shared tape.  The int8 arrays
`keys` and `sigmas` are views of the log's even and odd bytes.
A step's cost follows from its key and read symbol, and small's move
from the next key, so the int64 arrays `f` and `heads`, 8 bytes a step
each, are built from the log on first access.
numpy serves only these four arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import OutOfRange, UndefinedCost, UnknownKey, ValidationError
from .tm import L, R, MachineTable, cost_terms, pass_end, pass_ends

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


# Small's head move into each key.
_MOVES = np.array([1 if d == R else -1 for _, d in K], np.int64)


@dataclass
class SimulationTranscript:
    """Record of a bounded lockstep verification.

    `log` holds two bytes per small step n, k_n (as an index into K) and
    the read symbol index.  `big_steps` is f(n_verified), the big-machine
    step paired with small step n_verified, and `head` small's head
    there; the run keeps both as it goes.  `costs[k, sigma]` is the big
    steps a small step takes.  `keys` and `sigmas` are views of the log,
    and the per-step arrays `f` and `heads` are built from it on first
    access.  A mismatch step that was never recorded (`unrecorded`) is 0
    in every array and outside `time_scale`'s range.
    `window_runs` counts the steps computed, one per distinct key and
    cells within reach of small's head met, `replays` the single steps
    applied from the memo, `sweeps` the stretches of sweep steps crossed
    in one bulk step each, and `passes` the stretches of pass steps
    carry-crossed in one bulk step each.
    """

    status: str  # "verified" | "both-halted" | "mismatch"
    n_verified: int
    log: bytearray = field(repr=False)
    big_steps: int
    head: int
    costs: np.ndarray = field(repr=False)
    mismatch: dict | None = None
    unrecorded: bool = False
    window_runs: int = 0
    replays: int = 0
    sweeps: int = 0
    passes: int = 0
    seconds: float = 0.0  # wall time of the verification

    @property
    def small_steps_per_s(self) -> float:
        return self.n_verified / self.seconds if self.seconds else 0.0

    @property
    def compression(self) -> float:
        """Small steps per replay, sweep or pass; 0.0 for a run of none."""
        moves = self.replays + self.sweeps + self.passes
        return self.n_verified / moves if moves else 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("verified", "both-halted")

    @cached_property
    def keys(self) -> np.ndarray:
        return np.frombuffer(self.log, np.int8)[0::2]

    @cached_property
    def sigmas(self) -> np.ndarray:
        return np.frombuffer(self.log, np.int8)[1::2]

    @cached_property
    def f(self) -> np.ndarray:
        """f[n]: the big-machine step paired with small step n."""
        f = np.zeros(len(self.keys), np.int64)
        f[1:] = self.keys[:-1]
        f[1:] *= self.costs.shape[1]
        f[1:] += self.sigmas[:-1]
        return self._sum_steps(f, self.costs.ravel())

    @cached_property
    def heads(self) -> np.ndarray:
        """heads[n]: small's head at step n."""
        heads = np.zeros(len(self.keys), np.int64)
        heads[1:] = self.keys[1:]
        return self._sum_steps(heads, _MOVES)

    def _sum_steps(self, out, table):
        """Look each index in out[1:] up in `table` in place (mode "clip"
        writes `out` unbuffered; every index is in range), and sum."""
        table.take(out[1:], mode="clip", out=out[1:])
        np.cumsum(out, out=out)
        if self.unrecorded:
            out[-1] = 0
        return out

    def time_scale(self, n: int) -> int:
        records = len(self.log) // 2 - self.unrecorded
        if not 0 <= n < records:
            raise OutOfRange(f"step {n} beyond verified range "
                             f"0..{records - 1}")
        return self.big_steps if n == self.n_verified else int(self.f[n])

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
    costs = np.array([[0 if plan is None else plan[0] for plan in row]
                      for row in plans], np.int64)
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

    # Per key: its pass steps, sigma -> (write, next key, cost).  A pass
    # step moves the way the key entered, to a key entered the same way,
    # and the step function, run on the symbol beside each possible
    # neighbour ahead and with no cell behind, passes it with every check:
    # the step depends on the symbol alone.
    n_symbols = len(small.symbols)
    ahead = [1 if d == R else -1 for _, d in K]
    pass_steps = []
    for code, row in enumerate(plans):
        steps = {}
        for sigma, plan in enumerate(row):
            if plan is None or plan[2] != ahead[code]:
                continue
            for nu in range(n_symbols):
                cells = bytearray((sigma, nu)[::ahead[code]])
                out = step(code, cells, 0 if ahead[code] > 0 else 1)
                if out is None or out[0] is not None:
                    break
            else:
                steps[sigma] = plan[1], plan[3], plan[0]
        pass_steps.append(steps)
    ends, carries = pass_ends(pass_steps, n_symbols)
    # per key: the (base, extras) cost of a sweep over its pass symbols
    sweep_costs = [cost_terms({s: cost for s, (_, _, cost) in steps.items()
                               if s not in ends[code]})
                   for code, steps in enumerate(pass_steps)]
    # per CarryPass: a cell byte's key code, by its top bit
    key_of = {carry: bytes(carry.keys[v >> 7] for v in range(256))
              for carry in carries if carry}

    # The transcript log: step n's key and read symbol at bytes 2n and
    # 2n + 1.  `big_steps` sums the costs of the steps before the last
    # record.
    log = bytearray()
    big_steps = 0

    # One tape for both machines: t[i] is small's symbol at cell
    # i - origin, and big's block i is its encoding.  Between steps
    # `_REACH` cells stay on either side of small's head, room for any
    # step.  At most four symbols have two-cell code words over two
    # symbols, so a cell fits a byte.
    origin = 2 * _REACH
    t = bytearray([small.blank]) * (2 * origin)
    sp = origin
    key = key_code.get((small.init, R))
    if key is None:
        raise UnknownKey(f"({small.states[small.init]}, {R}) at step 0")
    key_byte = [bytes((code,)) for code in range(len(K))]
    # memo[key byte + the cells within _REACH of small's head]: (write,
    # next key, head move, log record, cost) of a step that passed
    memo = {}
    window_runs = replays = sweeps = passes = 0

    def transcript(status, n_verified, head, mismatch=None,
                   unrecorded=False):
        return SimulationTranscript(
            status=status, n_verified=n_verified, log=log,
            big_steps=big_steps, head=head, costs=costs, mismatch=mismatch,
            unrecorded=unrecorded, window_runs=window_runs,
            replays=replays, sweeps=sweeps, passes=passes,
            seconds=time.perf_counter() - started)

    if big.init != h_state[key]:
        log += bytes((key, small.blank))
        return transcript("mismatch", 0, 0, {
            "n": 0, "f": 0, "kind": "state",
            "expected": big.states[h_state[key]],
            "actual": big.states[big.init]})

    n = 0
    while n < n_max:
        x = sp - _REACH
        window = key_byte[key] + t[x:sp + _REACH + 1]
        entry = memo.get(window)
        if entry is None:
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
                    return transcript("both-halted", n, sp - origin)
                # a state or head mismatch is found at step n + 1 itself;
                # any other ends step n before there is a step n + 1
                recorded = kind in ("state", "head")
                log += bytes((next_key, cells[p])) if recorded else bytes(2)
                return transcript("mismatch", n, sp - origin, {
                    "n": n + 1, "f": big_steps + spent, "kind": kind,
                    "expected": expected, "actual": actual},
                    unrecorded=not recorded)
            window_runs += 1
            entry = memo[window] = (cells[_REACH], next_key, p - _REACH,
                                    rec, plans[key][t[sp]][0])
        w, key, move, rec, cost = entry
        replays += 1
        big_steps += cost
        t[sp] = w
        log += rec
        n += 1
        sp += move
        if not _REACH <= sp < len(t) - _REACH:
            grow = len(t)
            if sp < _REACH:
                t[:0] = bytes([small.blank]) * grow
                origin += grow
                sp += grow
            else:
                t.extend(bytes([small.blank]) * grow)
        if t[sp] in ends[key]:
            continue
        # a pass: the cells ahead up to the first of the key's `ends`,
        # within n_max steps and `_REACH` of the tape's ends
        d = ahead[key]
        end = pass_end(t, sp, d, n_max - n, _REACH, ends[key])
        stretch = bytes(t[sp:end:d])  # in the order visited
        if not stretch:
            continue
        i = len(log)
        log += key_byte[key] * (2 * len(stretch))
        log[i + 1::2] = stretch
        carry = carries[key]
        if carry is None:
            # a sweep: the key throughout, and the cells as read symbols
            sweeps += 1
            cells, (base, extras) = stretch, sweep_costs[key]
        else:
            passes += 1
            cells, key = carry.cross(stretch)
            t[sp:end:d] = cells.translate(carry.write)
            log[i::2] = cells.translate(key_of[carry])
            base, extras = carry.base, carry.extras
        big_steps += base * len(cells) + sum(
            extra * cells.count(v) for v, extra in extras)
        n += len(stretch)
        sp = end
    log += bytes((key, t[sp]))
    return transcript("verified", n_max, sp - origin)
