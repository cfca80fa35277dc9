"""Built-in machine definitions, plus a text format with parser/serializer.

Canonical format, one transition cell per line::

    symbols: 0 1 2 #
    blank: #
    states: mul2_F mul2_G find_2 rewind check_halt
    init: mul2_G
    mul2_F 0 -> 0 R mul2_F
    ...
    check_halt 2 -> halt

Tokens are whitespace-separated; `;` starts a comment (never `#`, which
is a legal symbol label).  Serialization emits declarations first, then
cells in state-major, symbol order; parse(serialize(m)) == m.
"""

from __future__ import annotations

import functools
import importlib.resources

from .errors import ParseError, ValidationError
from .tm import HALT, L, R, MachineTable, Transition

BUILTIN_NAMES = ("m54", "m152", "bb5-champion")


def parse_machine(src: str, name: str = "machine") -> MachineTable:
    """Parse the canonical text format into a MachineTable."""
    symbols = None
    blank_label = None
    states = None
    init_label = None
    declared = set()
    cells: dict[tuple[str, str], object] = {}

    for line_no, raw in enumerate(src.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head in ("symbols:", "blank:", "states:", "init:"):
            if head in declared:
                raise ParseError(line_no, f"repeated {head} declaration")
            declared.add(head)
            value = tokens[1:]
            if head == "symbols:":
                symbols = value
            elif head == "blank:":
                if len(value) != 1:
                    raise ParseError(line_no, "blank: takes one symbol")
                blank_label = value[0]
            elif head == "states:":
                states = value
            else:
                if len(value) != 1:
                    raise ParseError(line_no, "init: takes one state")
                init_label = value[0]
            continue
        # transition cell: STATE SYMBOL -> (halt | WRITE DIR NEXT)
        if "->" not in tokens:
            raise ParseError(line_no, f"expected a transition cell, got {line!r}")
        arrow = tokens.index("->")
        if arrow != 2:
            raise ParseError(line_no, "cell must start with STATE SYMBOL ->")
        state_l, sym_l = tokens[0], tokens[1]
        rhs = tokens[3:]
        if rhs == ["halt"]:
            tr = HALT
        elif len(rhs) == 3:
            write_l, move_l, next_l = rhs
            if move_l not in (L, R):
                raise ParseError(line_no, f"move must be L or R, got {move_l!r}")
            tr = (write_l, move_l, next_l)
        else:
            raise ParseError(line_no, "cell right-hand side must be "
                                      "'halt' or 'WRITE DIR NEXT'")
        if (state_l, sym_l) in cells:
            raise ValidationError(f"duplicate cell ({state_l}, {sym_l})")
        cells[(state_l, sym_l)] = tr

    if symbols is None:
        raise ValidationError("missing symbols: declaration")
    if states is None:
        raise ValidationError("missing states: declaration")
    if blank_label is None:
        raise ValidationError("missing blank: declaration")
    if init_label is None:
        raise ValidationError("missing init: declaration")
    if blank_label not in symbols:
        raise ValidationError(f"blank symbol {blank_label!r} not declared")
    if init_label not in states:
        raise ValidationError(f"initial state {init_label!r} not declared")

    sym_index = {s: i for i, s in enumerate(symbols)}
    state_index = {s: i for i, s in enumerate(states)}

    rows = []
    for state_l in states:
        row = []
        for sym_l in symbols:
            key = (state_l, sym_l)
            if key not in cells:
                raise ValidationError(f"missing cell ({state_l}, {sym_l})")
            tr = cells.pop(key)
            if tr is HALT:
                row.append(HALT)
            else:
                write_l, move_l, next_l = tr
                if write_l not in sym_index:
                    raise ValidationError(
                        f"cell ({state_l}, {sym_l}): unknown symbol {write_l!r}")
                if next_l not in state_index:
                    raise ValidationError(
                        f"cell ({state_l}, {sym_l}): unknown state {next_l!r}")
                row.append(Transition(sym_index[write_l], move_l,
                                      state_index[next_l]))
        rows.append(tuple(row))
    if cells:
        (state_l, sym_l), _ = cells.popitem()
        raise ValidationError(f"cell ({state_l}, {sym_l}) references an "
                              "undeclared state or symbol")

    return MachineTable(
        name=name,
        symbols=tuple(symbols),
        blank=sym_index[blank_label],
        states=tuple(states),
        init=state_index[init_label],
        table=tuple(rows),
    )


def serialize_machine(m: MachineTable) -> str:
    """Canonical text form: declarations, then cells in state-major order."""
    lines = [
        "symbols: " + " ".join(m.symbols),
        "blank: " + m.symbols[m.blank],
        "states: " + " ".join(m.states),
        "init: " + m.states[m.init],
    ]
    for q, state_l in enumerate(m.states):
        for s, sym_l in enumerate(m.symbols):
            tr = m.table[q][s]
            if tr is HALT:
                lines.append(f"{state_l} {sym_l} -> halt")
            else:
                w, d, q2 = tr
                lines.append(f"{state_l} {sym_l} -> {m.symbols[w]} "
                             f"{L if d < 0 else R} {m.states[q2]}")
    return "\n".join(lines) + "\n"


def parse_compact(text: str, name: str = "machine") -> MachineTable:
    """Convenience reader for the underscore-separated row format used for
    2-symbol machines, e.g. ``1RB1LC_1RC1RB_1RD0LE_1LA1LD_---0LA``.

    Rows are states A, B, ...; each row holds one 3-character entry per
    symbol (write digit, L/R, next-state letter) with ``---`` as Halt.
    The canonical text format is authoritative; this is an import aid only.
    """
    rows = text.strip().split("_")
    n = len(rows)
    k = len(rows[0]) // 3
    states = tuple(chr(ord("A") + i) for i in range(n))
    symbols = tuple(str(i) for i in range(k))
    table = []
    for q, row in enumerate(rows):
        if len(row) != 3 * k:
            raise ValidationError(f"row {states[q]}: expected {3 * k} chars")
        cells = []
        for s in range(k):
            entry = row[3 * s:3 * s + 3]
            if entry == "---":
                cells.append(HALT)
                continue
            write_c, move_c, next_c = entry
            if write_c not in symbols:
                raise ValidationError(f"row {states[q]}: bad write {write_c!r}")
            if move_c not in (L, R):
                raise ValidationError(f"row {states[q]}: bad move {move_c!r}")
            next_i = ord(next_c) - ord("A")
            if not 0 <= next_i < n:
                raise ValidationError(f"row {states[q]}: bad state {next_c!r}")
            cells.append(Transition(int(write_c), move_c, next_i))
        table.append(tuple(cells))
    return MachineTable(name=name, symbols=symbols, blank=0, states=states,
                        init=0, table=tuple(table))


def _load_asset(filename: str, name: str) -> MachineTable:
    text = (importlib.resources.files("bblab.data") / filename).read_text()
    return parse_machine(text, name=name)


@functools.cache
def builtin_m54() -> MachineTable:
    """The 5-state 4-symbol power-of-two scanner (blank #, init mul2_G)."""
    return _load_asset("m54.tm", "m54")


@functools.cache
def builtin_m152() -> MachineTable:
    """The 15-state 2-symbol machine simulating m54 under the block encoding.

    The correctness oracle for this table is the lockstep verification in
    bblab.simcheck: any wrong cell is caught within a few hundred steps.
    """
    return _load_asset("m152.tm", "m152")


@functools.cache
def builtin_bb5_champion() -> MachineTable:
    """The 5-state 2-symbol champion halting after 47,176,870 steps."""
    return _load_asset("bb5_champion.tm", "bb5-champion")


def builtin(name: str) -> MachineTable:
    """Look up a builtin by its stable CLI handle."""
    try:
        return {
            "m54": builtin_m54,
            "m152": builtin_m152,
            "bb5-champion": builtin_bb5_champion,
        }[name]()
    except KeyError:
        raise ValidationError(f"unknown builtin {name!r}; expected one of "
                              f"{', '.join(BUILTIN_NAMES)}") from None
