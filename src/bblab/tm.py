"""Exact execution engine for deterministic single-tape Turing machines.

Machines have a bi-infinite tape indexed by integers, a finite symbol
alphabet with one designated blank, and per-(state, symbol) transitions
that either halt or write a symbol, move the head one cell, and change
state.  The step count of a halting run includes the final Halt
instruction as one executed transition.

A table has one cell format, the one every stepping loop runs on: a
cell is `HALT` (None) or the plain tuple (write, delta, next state)
with delta -1 or +1.  `Transition` builds such a cell from an "L"/"R"
move label, and `replace_cell` copies a table with one cell replaced.

`step` executes one transition on a `Configuration`, whose `Tape` maps
written cells to symbols.  The loops that run many steps read the table
as it is and keep the tape in plain lists.
`FlatRun` steps one cell at a time on a single list from the blank tape
and can stop at any step count.  Its callers read its head and its
visited cells (`visited()`), and the list stays private to it.
`PassRun` has FlatRun's read interface but keeps the tape in a
bytearray, for tables of at most 256 symbols, and crosses each pass of
the head in one direction in bulk: a sweep, which leaves the tape as it
is, with one `bytearray.find`, and a pass between two keys by one
integer addition (`CarryPass`).  Where a whole pass cannot be crossed
so, the run of the key's own self-loop symbols still is, as a busy
beaver's long runs of equal symbols are.  `pass_ends` finds where the
passes end and how they are crossed, for it and for the lockstep check
in `simcheck`.
`run` and `run_trace` share one driver, which picks the stepper once,
from the last step count asked for.  A run starts on a PassRun, so the
bb5 champion halts and the power-of-two machine doubles its numbers in
a fraction of a second (on a FlatRun past 256 symbols).  Where passes
are short, a PassRun step costs more than a FlatRun step for no more
progress, so a run whose first few hundred steps take more than half as
many moves starts over in a FlatRun.  `run` returns the configuration at
its budget and `run_trace` one at each checkpoint; their `macro_steps`,
`compression` and `handoffs` say how the run went.
All of them give exactly the configurations `step` gives; `step` stays
the independent reference that certificate revalidation runs on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import StepAfterHalt, ValidationError

L = "L"
R = "R"

# the halting instruction
HALT = None


def Transition(write: int, move: str, next_state: int) -> tuple:
    """The cell that writes `write`, moves the head in direction `move`,
    'L' or 'R', and enters `next_state`: the plain tuple (write, delta,
    next_state) with delta -1 for L and +1 for R.  Raises ValidationError
    on any other move."""
    if move == R:
        return (write, 1, next_state)
    if move == L:
        return (write, -1, next_state)
    raise ValidationError(f"bad move {move!r}")


def replace_cell(table: tuple, state: int, symbol: int, tr) -> tuple:
    """`table`, a tuple of row tuples, with cell (state, symbol) replaced
    by `tr`."""
    row = table[state]
    return (table[:state] + (row[:symbol] + (tr,) + row[symbol + 1:],)
            + table[state + 1:])


@dataclass(frozen=True)
class MachineTable:
    """Immutable n-state, k-symbol transition table.

    `table[state][symbol]` is either HALT (None) or the tuple (write,
    delta, next state) of ints, with delta -1 or +1; the table and its
    rows are tuples too.  The stepping loops rely on this: an exact tuple
    unpacks on CPython's fast path, and with int fields only, the only
    TypeError a step can raise is the one unpacking None.
    `symbols` and `states` carry display labels in declaration order;
    `blank` and `init` are indices.
    """

    name: str
    symbols: tuple[str, ...]
    blank: int
    states: tuple[str, ...]
    init: int
    table: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        n, k = len(self.states), len(self.symbols)
        if len(set(self.symbols)) != k:
            raise ValidationError("duplicate symbol labels")
        if len(set(self.states)) != n:
            raise ValidationError("duplicate state names")
        if not 0 <= self.blank < k:
            raise ValidationError("blank symbol index out of range")
        if not 0 <= self.init < n:
            raise ValidationError("initial state index out of range")
        if type(self.table) is not tuple or len(self.table) != n:
            raise ValidationError("table must be a tuple of one row per state")
        for q, row in enumerate(self.table):
            if type(row) is not tuple or len(row) != k:
                raise ValidationError(
                    f"state {self.states[q]}: expected a tuple of {k} cells")
            for s, tr in enumerate(row):
                if tr is not HALT:
                    self._check_cell(q, s, tr)

    def _check_cell(self, q: int, s: int, tr: object) -> None:
        """Raise ValidationError unless `tr`, not HALT, fits cell (q, s)."""
        if not (type(tr) is tuple and len(tr) == 3
                and all(type(v) is int for v in tr)):
            problem = " is not a (write, delta, next state) tuple of ints"
        elif not 0 <= tr[0] < len(self.symbols):
            problem = ": write symbol out of range"
        elif tr[1] not in (-1, 1):
            problem = f": bad move {tr[1]!r}"
        elif not 0 <= tr[2] < len(self.states):
            problem = ": next state out of range"
        else:
            return
        raise ValidationError(
            f"cell ({self.states[q]}, {self.symbols[s]}){problem}")

    @property
    def n_states(self):
        return len(self.states)

    @property
    def n_symbols(self):
        return len(self.symbols)

    def state_index(self, name: str) -> int:
        return self.states.index(name)

    def symbol_index(self, label: str) -> int:
        return self.symbols.index(label)

    def transition(self, state: int, symbol: int):
        return self.table[state][symbol]

    def with_cell(self, state: int, symbol: int, tr) -> "MachineTable":
        """Copy of this table with cell (state, symbol) replaced by `tr`, a
        cell or HALT, under the same name and labels, checked as the
        constructor checks every table."""
        return replace(self, table=replace_cell(self.table, state, symbol,
                                                tr))


class Tape:
    """Sparse bi-infinite tape over symbol indices.

    One dict maps each written cell to its symbol; every other cell reads
    as blank.  The touched extent [lo, hi] covers every cell the head has
    visited; it never shrinks.
    """

    __slots__ = ("blank", "cells", "lo", "hi")

    def __init__(self, blank: int):
        self.blank = blank
        self.cells: dict[int, int] = {}
        self.lo = 0
        self.hi = 0

    def read(self, i: int) -> int:
        return self.cells.get(i, self.blank)

    def write(self, i: int, symbol: int) -> None:
        self.cells[i] = symbol

    def touch(self, i: int) -> None:
        if i < self.lo:
            self.lo = i
        elif i > self.hi:
            self.hi = i

    def window(self, lo: int, hi: int) -> tuple[int, ...]:
        return tuple(self.read(i) for i in range(lo, hi + 1))

    def clone(self) -> "Tape":
        t = Tape(self.blank)
        t.cells, t.lo, t.hi = self.cells.copy(), self.lo, self.hi
        return t


class Configuration:
    """Machine state + tape + head + step counter; single-owner mutable."""

    __slots__ = ("state", "head", "tape", "step_count", "halted")

    def __init__(self, state: int, head: int, tape: Tape, step_count: int = 0,
                 halted: bool = False):
        self.state = state
        self.head = head
        self.tape = tape
        self.step_count = step_count
        self.halted = halted

    def read(self) -> int:
        return self.tape.read(self.head)

    def clone(self) -> "Configuration":
        return Configuration(self.state, self.head, self.tape.clone(),
                             self.step_count, self.halted)


def initial_configuration(m: MachineTable) -> Configuration:
    """Initial state, head at cell 0, all-blank tape, zero steps."""
    return Configuration(m.init, 0, Tape(m.blank))


def step(m: MachineTable, c: Configuration) -> Configuration:
    """Execute one transition in place.

    Halt executes no write and no move but still counts as a step; the
    configuration is frozen afterwards.
    """
    if c.halted:
        raise StepAfterHalt("configuration is frozen")
    tr = m.table[c.state][c.tape.read(c.head)]
    c.step_count += 1
    if tr is HALT:
        c.halted = True
        return c
    w, d, c.state = tr
    c.tape.write(c.head, w)
    c.head += d
    c.tape.touch(c.head)
    return c


class RunConfiguration(Configuration):
    """A configuration that `run` or `run_trace` reached, with how the run
    went: `macro_steps` counts its `PassRun` moves, one per single step
    and one per bulk pass, and the `FlatRun` steps past them, one each,
    and `handoffs` is 1 if it had moved to `FlatRun`, else 0."""

    __slots__ = ("macro_steps", "handoffs")

    def __init__(self, state: int, head: int, tape: Tape, step_count: int,
                 halted: bool, macro_steps: int, handoffs: int):
        super().__init__(state, head, tape, step_count, halted)
        self.macro_steps = macro_steps
        self.handoffs = handoffs

    @property
    def compression(self) -> float:
        """Steps per macro step; 0.0 for a run of no steps."""
        return self.step_count / self.macro_steps if self.macro_steps else 0.0


# How `_snapshots` picks its stepper: once, from the moves the first
# _RATIO * _PROBE steps to its last step count take on a PassRun.
# Measured on a 2-vCPU Xeon, Python 3.11.7, a PassRun move that crosses
# no pass costs about three FlatRun steps (142-146 against 46-48 ns on
# m152, whose first probe takes 512 moves).  The bb5 champion's first
# probe takes 183 moves and m54's 162; both stay on the PassRun, which
# takes the champion to its halt in 0.016-0.017 s and m54 to s_700 in
# 0.005 s, against 0.012-0.014 s on FlatRun.
_PROBE = 256
_RATIO = 2


def _snapshots(m: MachineTable, targets: list[int]) -> list[RunConfiguration]:
    """The run of `m` from the blank tape at each of the sorted step
    counts `targets`, up to the first at which it has halted.

    The run starts on a PassRun, which crosses sweeps, carry passes and
    runs of self-loop symbols in one move each.  Its stepper is picked
    from the last step count alone: if the first _RATIO * _PROBE steps,
    run unbroken, take more than _PROBE moves and the machine has neither
    halted nor reached the last count by then, a FlatRun from the blank
    tape re-runs those few steps and takes the run on; otherwise it stays
    on the PassRun.  A table of more than 256 symbols, which PassRun
    cannot hold, runs on a FlatRun throughout.
    """
    budget = targets[-1] if targets else 0
    probe, handoff = min(budget, _RATIO * _PROBE), False
    if m.n_symbols > 256:
        r = FlatRun(m)
    else:
        r = PassRun(m)
        # a target inside the probe would cut a pass into more moves
        first = r if not targets or targets[0] >= probe else PassRun(m)
        first.advance(probe)
        handoff = first.moves > _PROBE and not first.halted and probe < budget
    offset = handoffs = 0  # moves less steps on the PassRun before a hand-off
    out = []
    for target in targets:
        r.advance(min(target, probe))  # stops where run's probe stops
        if handoff and target > probe:
            # FlatRun re-runs the probe's steps in well under a millisecond
            offset, handoffs, handoff = r.moves - r.steps, 1, False
            r = FlatRun(m)
        r.advance(target)
        lo, extent = r.visited()
        tape = Tape(m.blank)
        tape.cells, tape.lo = dict(enumerate(extent, lo)), lo
        tape.hi = lo + len(extent) - 1
        out.append(RunConfiguration(
            r.state, r.head, tape, r.steps, r.halted,
            r.moves if type(r) is PassRun else offset + r.steps, handoffs))
        if r.halted:
            break
    return out


def run(m: MachineTable, budget: int) -> RunConfiguration:
    """The configuration after up to `budget` executed transitions from
    the initial one, on the stepper `_snapshots` picks.  Deterministic:
    equal budgets give equal results."""
    if budget < 0:
        raise ValueError("budget must be a natural number")
    return _snapshots(m, [budget])[0]


class FlatRun:
    """A run on one flat list of cells, for callers that stop at many step
    counts and read the tape in between: `run` and `run_trace` after a
    poor probe on a PassRun, and in `search` the closure search's halting
    probe; and for `run`, `run_trace` and the checkpoint verifier on
    tables of more than 256 symbols, which `PassRun` cannot hold.  It
    starts from the blank tape.  Callers drive it with `advance()` and
    read it through `state`, `steps`, `halted`, `head` and `visited()`;
    the list layout is private to this class.

    `_tape[i]` holds cell i - `_origin`, and the head is at `_tape[_pos]`.
    Cells never visited hold `_sentinel`, one past the last symbol index,
    which steps like the blank.  Every visited cell but the head's has
    been written, so the visited cells are the head's and the
    sentinel-free span around it.  Between batches of steps the list
    keeps `_MARGIN` cells on either side of the head; the head reads an
    end cell only in the last step of a batch, after which the list
    grows on that side.
    """

    __slots__ = ("_cells", "_blank", "_sentinel", "_tape", "_origin", "_pos",
                 "state", "steps", "halted")

    # cells kept on either side of the head before a batch of steps
    _MARGIN = 16

    def __init__(self, m: MachineTable):
        """The run of `m` from the blank tape."""
        self._cells = tuple(row + (row[m.blank],) for row in m.table)
        self._blank, self._sentinel = m.blank, m.n_symbols
        self._tape = [self._sentinel] * (4 * self._MARGIN + 1)
        self._origin = self._pos = 2 * self._MARGIN
        self.state, self.steps, self.halted = m.init, 0, False

    @property
    def head(self) -> int:
        """The cell under the head."""
        return self._pos - self._origin

    def _fit(self, p: int) -> int:
        """Double the list on a side where index p is within the margin
        of its end; returns p's index afterwards."""
        tape = self._tape
        if p < self._MARGIN:
            grow = len(tape)
            tape[:0] = [self._sentinel] * grow
            self._origin += grow
            p += grow
        if len(tape) - p <= self._MARGIN:
            tape.extend([self._sentinel] * len(tape))
        return p

    def advance(self, target: int) -> None:
        """Step until `target` steps have run or the machine halts."""
        cells, tape = self._cells, self._tape
        q, p, done = self.state, self._pos, self.steps
        while done < target and not self.halted:
            p = self._fit(p)
            # a batch that cannot read past either end of the list
            n = min(target - done, p + 1, len(tape) - p)
            try:
                for i in range(n):
                    tape[p], d, q = cells[q][tape[p]]
                    p += d
            except TypeError:
                # unpacking None, the Halt cell, one step: a validated
                # table has int fields only, so nothing else raises it
                done += i + 1
                self.halted = True
            else:
                done += n
        self.state, self._pos, self.steps = q, self._fit(p), done

    def visited(self) -> tuple[int, list[int]]:
        """(first, symbols): the first visited cell, and a new list of the
        symbols of the visited cells from there on, with an unwritten
        head cell read as blank."""
        tape, p, sentinel = self._tape, self._pos, self._sentinel
        lo = p - tape[p - 1::-1].index(sentinel)
        symbols = tape[lo:tape.index(sentinel, p + 1)]
        if symbols[p - lo] == sentinel:
            symbols[p - lo] = self._blank
        return lo - self._origin, symbols


_TOP_BIT = bytes.maketrans(b"01", b"\x00\x80")  # a key bit to the top bit


def cost_terms(costs: dict[int, int]) -> tuple[int, list[tuple[int, int]]]:
    """(base, extras) for the bytes `costs` maps to step costs: the
    commonest cost, and each byte that costs otherwise with its extra.  A
    stretch of those bytes costs base times its length plus each extra
    times its byte's count, so a stretch whose bytes all cost alike
    needs no count."""
    values = list(costs.values())
    base = max(values, key=values.count, default=0)
    return base, [(v, c - base) for v, c in costs.items() if c != base]


class CarryPass:
    """The passes from a key a whose pass steps reach at most one other
    key b (else b is a), each pass symbol keeping the key (a to a, b to
    b) or resetting it (both to a, or both to b).  With G the bitmask of
    the cells crossed whose step from a goes to b, and GP of those whose
    step from b stays at b, the key leaves a cell as b if G, or if GP and
    it came in as b: an adder's carry, so bit i of (GP + G) ^ GP ^ G is 1
    where the key at cell i is b (bit-parallel, as Myers, J. ACM 1999).
    A cell's key and symbol are one byte, the symbol plus 128 for b;
    `write` maps it to the symbol written (a `bytes.translate` table); a
    step costs `base` plus the extra that `extras` pairs its byte with
    (`cost_terms`)."""

    __slots__ = ("keys", "write", "base", "extras", "_g", "_gp")

    def __init__(self, pass_steps: list[dict], a: int, b: int,
                 symbols: bytes):
        """Key a's passes over `symbols`, as `pass_ends` finds them."""
        self.keys = a, b
        cells = {s + 128 * bit: pass_steps[k][s]
                 for bit, k in enumerate(self.keys) for s in symbols}
        self.write = bytes.maketrans(bytes(cells),
                                     bytes(w for w, _, _ in cells.values()))
        self.base, self.extras = cost_terms(
            {v: cost for v, (_, _, cost) in cells.items()})
        self._g, self._gp = (bytes.maketrans(symbols, bytes(
            b"01"[pass_steps[k][s][1] == b] for s in symbols)) for k in (a, b))

    def cross(self, stretch: bytes) -> tuple[bytes, int]:
        """The (key, symbol) byte of each cell of `stretch`, crossed in the
        order given from key a, and the key after them."""
        back = stretch[::-1]  # to ASCII bits below, the last cell highest
        g = int(back.translate(self._g) or b"0", 2)
        gp = int(back.translate(self._gp) or b"0", 2)
        # the key after the pass, then each cell's, the last cell's first
        bits = f"{(gp + g) ^ gp ^ g:0{len(stretch) + 1}b}"
        cells = int.from_bytes(bits[1:].encode().translate(_TOP_BIT), "big")
        cells |= int.from_bytes(stretch, "little")
        return cells.to_bytes(len(stretch), "little"), self.keys[int(bits[0])]


def pass_ends(pass_steps: list[dict],
              n_symbols: int) -> tuple[list[bytes], list]:
    """Where the passes from each key end, and how they are crossed.

    `pass_steps[key]` maps each symbol on which a step from `key` goes on
    with the pass to (write, next key, cost).  A pass from a key crosses
    the symbols that are pass steps of every key its pass steps reach;
    `ends[key]` holds the other symbols, as bytes.  `carries[key]` is
    None for a sweep, whose pass steps write each symbol back and keep
    the key, and else the key's `CarryPass`.  Where the whole pass is
    neither (its pass steps reach three keys or swap two, or no symbol
    is a pass step of every key they reach), the key's pass runs over
    its own self-loop symbols only, a sweep if it writes each back and
    else a CarryPass with b = a.  A table of more than 128 symbols, too
    many for a (key, symbol) byte, gets sweeps only: a key that would
    need a CarryPass sweeps the self-loop symbols it writes back."""
    ends, carries = [], []
    for code, steps in enumerate(pass_steps):
        reach, todo = set(), [code]
        while todo:
            k = todo.pop()
            if k not in reach:
                reach.add(k)
                todo += [k2 for _, k2, _ in pass_steps[k].values()]
        symbols = bytes(s for s in range(n_symbols)
                        if all(s in pass_steps[k] for k in reach))
        b = max(reach - {code}, default=code)
        # three keys, no shared symbol, or a and b swapped
        if len(reach) > 2 or not symbols or any(
                pass_steps[code][s][1] != pass_steps[b][s][1] == code
                for s in symbols):
            b = code
            symbols = bytes(s for s, (_, k, _) in steps.items() if k == code)
        carry = None
        if b != code or any(steps[s][0] != s for s in symbols):
            if n_symbols > 128:
                symbols = bytes(s for s, (w, k, _) in steps.items()
                                if (w, k) == (s, code))
            else:
                carry = CarryPass(pass_steps, code, b, symbols)
        ends.append(bytes(range(n_symbols)).translate(None, symbols))
        carries.append(carry)
    return ends, carries


def pass_end(t: bytearray, p: int, d: int, steps: int, margin: int,
             ends: bytes) -> int:
    """Where a pass from t[p] in direction d stops: at the first of `ends`,
    within `steps` cells, and at least `margin` cells from t's ends."""
    if d > 0:
        end = min(p + steps, len(t) - margin - 1)
        for s in ends:
            j = t.find(s, p, end)
            if j >= 0:
                end = j
        return end
    end = max(p - steps, margin)
    for s in ends:
        end = max(t.rfind(s, end, p + 1), end)
    return end


class PassRun:
    """A run from the blank tape on a bytearray, for tables of at most 256
    symbols, that crosses the head's passes in bulk.  It has FlatRun's
    read interface: `state`, `steps`, `halted`, `head`, `advance()` and
    `visited()`, which gives the cells as a bytearray.

    A key is a state with the direction the head entered it, and its pass
    steps are the cells of that state that move the same way again.
    After each single step the run takes the pass from the head if the
    symbol there goes on with one (`pass_ends`): `bytearray.find`, or
    `rfind`, locates its end within the steps left and one cell of the
    tape's ends.  A sweep, such as the power-of-two machine's rewind or
    the bb5 champion's self-loops over its runs of 1s, leaves the tape as
    it is and is crossed at once, and a pass between two keys, such as
    the power-of-two machine's doubling pass, by the key's `CarryPass`.
    Every pass step is one step, so a run stops at exactly its target.
    `moves` counts one per single step and one per pass crossed.  Each
    single step pays for the test that starts a pass, so on a table whose
    passes are short this runs slower than FlatRun.

    `_tape[i]` holds cell i - `_origin`, blank where never written, the
    head is at `_tape[_pos]`, and it has visited `_tape[_lo:_hi + 1]`.
    Those indices stay at least one cell away from either end of the
    bytearray, which doubles when a single step reaches an end.
    """

    __slots__ = ("_cells", "_fill", "_tape", "_origin", "_pos", "_lo", "_hi",
                 "_ends", "_carries", "state", "steps", "halted", "moves")

    def __init__(self, m: MachineTable):
        """The run of `m` from the blank tape."""
        if m.n_symbols > 256:
            raise ValidationError(f"{m.name}: PassRun takes at most 256 "
                                  f"symbols, not {m.n_symbols}")
        # key 2q is state q entered moving left, 2q + 1 moving right; per
        # cell: (write, delta, next state, next key), None for Halt
        self._cells = tuple(
            tuple(None if c is None else (*c, 2 * c[2] + (c[1] > 0))
                  for c in row) for row in m.table)
        pass_steps = [{s: (c[0], 2 * c[2] + (d > 0), 1)
                       for s, c in enumerate(row)
                       if c is not None and c[1] == d}
                      for row in m.table for d in (-1, 1)]
        self._ends, self._carries = pass_ends(pass_steps, m.n_symbols)
        self._fill = bytes((m.blank,))
        self._tape = bytearray(self._fill * 64)
        self._origin = self._pos = self._lo = self._hi = 32
        self.state, self.steps, self.halted, self.moves = m.init, 0, False, 0

    @property
    def head(self) -> int:
        """The cell under the head."""
        return self._pos - self._origin

    def advance(self, target: int) -> None:
        """Step until `target` steps have run or the machine halts."""
        t, cells, ends, carries = (self._tape, self._cells, self._ends,
                                   self._carries)
        q, p, done, lo, hi = (self.state, self._pos, self.steps, self._lo,
                              self._hi)
        bulk = 0  # the steps of the passes crossed, less one move each
        while done < target and not self.halted:
            cell = cells[q][t[p]]
            if cell is None:
                done += 1
                self.halted = True
                break
            t[p], d, q, key = cell
            p += d
            done += 1
            if p < lo:
                lo = p
                if not p:
                    grow = len(t)
                    t[:0] = self._fill * grow
                    self._origin += grow
                    p, lo, hi = p + grow, lo + grow, hi + grow
            elif p > hi:
                hi = p
                if p == len(t) - 1:
                    t += self._fill * len(t)
            if t[p] in ends[key]:
                continue
            end = pass_end(t, p, d, target - done, 1, ends[key])
            if end == p:
                continue
            carry = carries[key]
            if carry is not None:
                crossed, key = carry.cross(t[p:end:d])  # as visited
                t[p:end:d] = crossed.translate(carry.write)
                q = key >> 1
            n = (end - p) * d
            done += n
            bulk += n - 1
            p = end
            if p < lo:
                lo = p
            elif p > hi:
                hi = p
        self.moves += done - self.steps - bulk
        self.state, self._pos, self.steps = q, p, done
        self._lo, self._hi = lo, hi

    def visited(self) -> tuple[int, bytearray]:
        """(first, symbols): the first visited cell, and a new bytearray of
        the symbols of the visited cells from there on."""
        return self._lo - self._origin, self._tape[self._lo:self._hi + 1]


def run_trace(m: MachineTable,
              checkpoints: list[int]) -> list[RunConfiguration]:
    """Snapshots of the configuration at each requested step count.

    `checkpoints` must be sorted ascending.  Execution stops early if the
    machine halts; the halting configuration is then the last snapshot.
    The run picks its stepper as `run` to the last checkpoint does, so
    the last snapshot is `run`'s configuration; its `macro_steps` counts
    up to two more moves wherever a checkpoint cuts a pass.
    """
    checkpoints = list(checkpoints)
    if checkpoints != sorted(checkpoints):
        raise ValueError("checkpoints must be sorted ascending")
    if min(checkpoints, default=0) < 0:
        raise ValueError("each checkpoint must be a natural number")
    return _snapshots(m, checkpoints)


def tape_window(c: Configuration, lo: int, hi: int) -> tuple[int, ...]:
    """Symbol indices at cells lo..hi inclusive (blank where untouched)."""
    if lo > hi:
        raise ValueError("lo must be <= hi")
    return c.tape.window(lo, hi)


def window_str(m: MachineTable, c: Configuration, lo: int, hi: int) -> str:
    """Display labels of cells lo..hi, concatenated."""
    return "".join(m.symbols[s] for s in tape_window(c, lo, hi))
