"""Exact execution engine for deterministic single-tape Turing machines.

Machines have a bi-infinite tape indexed by integers, a finite symbol
alphabet with one designated blank, and per-(state, symbol) transitions
that either halt or write a symbol, move the head one cell, and change
state.  The step count of a halting run includes the final Halt
instruction as one executed transition.  A table marks that instruction
with `HALT`, which is None, as the compiled tables do.

`step` executes one transition on a `Configuration`, whose `Tape` maps
written cells to symbols.  The loops that run many steps share one flat
compiled table (`compile_cells`) and keep the tape in plain lists.  `run`
is a run-length "chain" stepper: a self-loop over a run of equal symbols
is one macro step, so the bb5 champion halts in a fraction of a second.
It returns the final configuration, whose `halted` and `step_count` say
how the run ended.  `FlatRun` steps one cell at a time on a single list
and can stop at any step count, which `run_trace`, the checkpoint
verifier and the `search` deciders and enumerators use.  All of them
give exactly the configurations `step` gives; `step` stays the
independent reference that certificate revalidation runs on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StepAfterHalt, ValidationError

L = "L"
R = "R"

_MOVE_DELTA = {L: -1, R: 1}


# the halting instruction, in source tables and compiled ones alike
HALT = None


@dataclass(frozen=True)
class Transition:
    """Write `write`, move the head in direction `move`, enter `next_state`.

    All three fields use indices into the owning table, except `move`
    which is the character 'L' or 'R'.
    """

    write: int
    move: str
    next_state: int


@dataclass(frozen=True)
class MachineTable:
    """Immutable n-state, k-symbol transition table.

    `table[state][symbol]` is either a Transition or HALT (None).
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
        if len(self.table) != n:
            raise ValidationError("table must have one row per state")
        for q, row in enumerate(self.table):
            if len(row) != k:
                raise ValidationError(
                    f"state {self.states[q]}: expected {k} cells, got {len(row)}"
                )
            for s, tr in enumerate(row):
                if tr is HALT:
                    continue
                if not isinstance(tr, Transition):
                    raise ValidationError(
                        f"cell ({self.states[q]}, {self.symbols[s]}) is not "
                        "a Transition or Halt"
                    )
                if not 0 <= tr.write < k:
                    raise ValidationError(
                        f"cell ({self.states[q]}, {self.symbols[s]}): "
                        "write symbol out of range"
                    )
                if tr.move not in (L, R):
                    raise ValidationError(
                        f"cell ({self.states[q]}, {self.symbols[s]}): "
                        f"bad move {tr.move!r}"
                    )
                if not 0 <= tr.next_state < n:
                    raise ValidationError(
                        f"cell ({self.states[q]}, {self.symbols[s]}): "
                        "next state out of range"
                    )

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
        """Copy of this table with one cell replaced (used by fault-injection
        tests and enumeration)."""
        rows = [list(row) for row in self.table]
        rows[state][symbol] = tr
        return MachineTable(
            name=self.name,
            symbols=self.symbols,
            blank=self.blank,
            states=self.states,
            init=self.init,
            table=tuple(tuple(row) for row in rows),
        )


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
    c.tape.write(c.head, tr.write)
    c.head += _MOVE_DELTA[tr.move]
    c.tape.touch(c.head)
    c.state = tr.next_state
    return c


def compile_cells(m: MachineTable) -> tuple:
    """The flat compiled table every stepping loop runs on: per state, per
    symbol, (write, delta, next state) with delta -1 or +1, or None for
    Halt."""
    rows = []
    for row in m.table:
        cells = []
        for tr in row:
            cells.append(None if tr is HALT else
                         (tr.write, 1 if tr.move == R else -1,
                          tr.next_state))
        rows.append(tuple(cells))
    return tuple(rows)


def _materialize(state: int, head: int, blank: int, extent: list[int],
                 lo: int, steps: int, halted: bool) -> Configuration:
    """Configuration whose tape holds `extent` from cell `lo` on; the
    extent covers exactly the visited cells, cell 0 among them."""
    tape = Tape(blank)
    tape.cells = dict(enumerate(extent, lo))
    tape.lo, tape.hi = lo, lo + len(extent) - 1
    return Configuration(state, head, tape, steps, halted)


def run(m: MachineTable, budget: int) -> Configuration:
    """Run from the initial configuration for up to `budget` executed
    transitions and return the final configuration.  Deterministic: equal
    budgets give equal results.

    The cells left and right of the head are two stacks of [symbol, count]
    runs, nearest run last, with equal neighbours merged.  A self-loop
    (q, s) -> (w, d, q) reads s all the way along a run of s ahead of the
    head, so it executes as one macro step over the head cell and that
    whole run (Marxen & Buntrock, "Attacking the Busy Beaver 5", 1990).
    Every macro step is capped at the remaining budget, which covers the
    endless blank run beyond either end of the tape.  The stacks hold
    exactly the visited cells other than the head's, so they fix the
    touched extent.
    """
    blank = m.blank
    left: list[list[int]] = []
    right: list[list[int]] = []
    # per cell: (write, behind, ahead, delta, next state), None for Halt
    cells = [[None if c is None else
              (c[0], *((left, right) if c[1] > 0 else (right, left)), *c[1:])
              for c in row] for row in compile_cells(m)]
    state, sym, head, done, halted = m.init, blank, 0, 0, False
    while done < budget:
        cell = cells[state][sym]
        if cell is None:
            done += 1
            halted = True
            break
        w, behind, ahead, delta, state_next = cell
        # n: steps in this macro step; past an empty side lies endless blank
        if state_next != state:
            n = 1
        elif ahead:
            top = ahead[-1]
            n = top[1] + 1 if top[0] == sym else 1
            if n > budget - done:
                n = budget - done
        else:
            n = budget - done if sym == blank else 1
        if behind and behind[-1][0] == w:
            behind[-1][1] += n
        else:
            behind.append([w, n])
        if n > 1 and ahead:
            # the head passes over n - 1 cells of the run of `sym` ahead
            top = ahead[-1]
            if top[1] == n - 1:
                ahead.pop()
            else:
                top[1] -= n - 1
        if ahead:
            top = ahead[-1]
            sym = top[0]
            if top[1] == 1:
                ahead.pop()
            else:
                top[1] -= 1
        else:
            sym = blank
        head += delta * n
        done += n
        state = state_next

    extent = []
    for s, count in left:
        extent += [s] * count
    lo = head - len(extent)
    extent.append(sym)
    for s, count in reversed(right):
        extent += [s] * count
    return _materialize(state, head, blank, extent, lo, done, halted)


class FlatRun:
    """A run from the blank tape on one flat list of cells, for callers
    that stop at many step counts and read the tape in between.

    `tape[i]` holds cell i - `origin`, and the head is at `tape[pos]`.
    Cells never visited hold `sentinel`, one past the last symbol index,
    which steps like the blank.  Every visited cell but the head's has
    been written, so the visited cells are the head's and the
    sentinel-free span around it.  Between batches of steps the list
    keeps `_MARGIN` cells on either side of the head; the head reads an
    end cell only in the last step of a batch, after which the list
    grows on that side, so both ends always hold the sentinel.
    """

    __slots__ = ("cells", "blank", "sentinel", "tape", "origin", "pos",
                 "state", "steps", "halted")

    # cells kept on either side of the head before a batch of steps
    _MARGIN = 16

    def __init__(self, m: MachineTable):
        self.cells = tuple(row + (row[m.blank],) for row in compile_cells(m))
        self.blank = m.blank
        self.sentinel = m.n_symbols
        self.tape = [self.sentinel] * (4 * self._MARGIN)
        self.origin = self.pos = 2 * self._MARGIN
        self.state = m.init
        self.steps = 0
        self.halted = False

    def _fit(self, p: int) -> int:
        """Double the list on a side where index p is within the margin
        of its end; returns p's index afterwards."""
        tape = self.tape
        if p < self._MARGIN:
            grow = len(tape)
            tape[:0] = [self.sentinel] * grow
            self.origin += grow
            p += grow
        if len(tape) - p <= self._MARGIN:
            tape.extend([self.sentinel] * len(tape))
        return p

    def advance(self, target: int) -> None:
        """Step until `target` steps have run or the machine halts."""
        cells, tape = self.cells, self.tape
        q, p, done = self.state, self.pos, self.steps
        while done < target and not self.halted:
            p = self._fit(p)
            # a batch that cannot read past either end of the list
            n = min(target - done, p + 1, len(tape) - p)
            try:
                for i in range(n):
                    tape[p], d, q = cells[q][tape[p]]
                    p += d
            except TypeError:  # unpacking None: the Halt cell, one step
                done += i + 1
                self.halted = True
            else:
                done += n
        self.state, self.pos, self.steps = q, self._fit(p), done

    def configuration(self) -> Configuration:
        """A Configuration copy of the run as it stands."""
        tape, p, sentinel = self.tape, self.pos, self.sentinel
        lo = p - tape[p - 1::-1].index(sentinel)
        hi = tape.index(sentinel, p + 1) - 1
        extent = tape[lo:hi + 1]
        if extent[p - lo] == sentinel:
            extent[p - lo] = self.blank
        return _materialize(self.state, p - self.origin, self.blank, extent,
                            lo - self.origin, self.steps, self.halted)


def run_trace(m: MachineTable, checkpoints: list[int]) -> list[Configuration]:
    """Snapshots of the configuration at each requested step count.

    `checkpoints` must be sorted ascending.  Execution stops early if the
    machine halts; the halting configuration is then the last snapshot.
    """
    if list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be sorted ascending")
    r = FlatRun(m)
    out = []
    for target in checkpoints:
        r.advance(target)
        out.append(r.configuration())
        if r.halted:
            break
    return out


def tape_window(c: Configuration, lo: int, hi: int) -> tuple[int, ...]:
    """Symbol indices at cells lo..hi inclusive (blank where untouched)."""
    if lo > hi:
        raise ValueError("lo must be <= hi")
    return c.tape.window(lo, hi)


def window_str(m: MachineTable, c: Configuration, lo: int, hi: int) -> str:
    """Display labels of cells lo..hi, concatenated."""
    return "".join(m.symbols[s] for s in tape_window(c, lo, hi))
