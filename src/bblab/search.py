"""Brute-force enumeration of tiny machine spaces with non-halt deciders,
plus the checkpoint schedule of the power-of-two machine.

One decider pipeline serves `classify` and both enumerators, cheapest
first: the escape decider (no halting transition is reachable in the
state graph); then one bounded run, the decider pass, that checks the
cycler (exact configuration repeat, keyed by the state, the head and
the non-blank cells packed into two ints) and the translated cycler
(recurring record-breaking configuration shifted by a rigid offset,
which copies the tape only when the head breaks a record) after every
step; and, for machines that outlast the budget, the regular-closure
decider (a regular set of configurations that contains the initial
one, is closed under stepping and excludes every halting one; tagged
"escape" too, since both prove halting unreachable).  The closure
search enumerates only the DFA that reads the tape left of the head and
derives the right one as a least fixpoint, on the machine and on its
mirror image; its halting probe steps on a `tm.FlatRun`.  The pass steps
a table's (write, delta, next state) cells on a list of its own from a
saved run and returns plain values: a verdict tuple, which `_classified`
turns into a Classification and certificate for `classify` and the
cycler deciders, and for a halt the run saved before the halting step
(the fork).  `revalidate_certificate` re-checks every certificate
independently, on `tm.step` for the cyclers.  The checkpoint verifier
runs on a `tm.PassRun`, which crosses the power-of-two machine's sweeps
and doubling passes in bulk (on a FlatRun past 256 symbols), read only
through `state`, `steps`, `halted`, `head`, `advance()` and `visited()`.

Enumeration runs over the raw space of all (2nk+1)^(nk) tables or over
a canonical subset in tree normal form (Marxen and Buntrock, 1990):
cells are filled lazily in the order the blank-tape run first needs
them, new states/symbols come lowest-index-first, and the first
transition moves right.  Both step bare tuples of cells and count the
pass's plain verdicts, building no certificate; a `MachineTable` is
built only for the closure search and for a machine the summary keeps.
A node's cells not chosen yet are Halt, so every node is a complete
table; a run that halts on such a cell branches on it, and each branch
(its parent's table with that cell replaced) resumes from the parent's
fork, which it copies and never changes.  The state-graph escape check
runs once per target state of that cell, and the branches into an
escaping target are counted in one step, never built.  The raw
enumerator runs every table from the blank tape.  The reduction
preserves every halting step count, so maxima are exact; raw mode
remains available as ground truth.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import CheckpointMismatch, SpaceTooLarge, ValidationError
from .tm import (HALT, FlatRun, MachineTable, PassRun,
                 initial_configuration, replace_cell, step)
from . import ternary

_CANDIDATE_GUARD = 10 ** 9

# Where the power-of-two machine's separator blank settles when the run
# starts with the head at cell 0: the counter lives one cell further
# left, the reverse-ternary digits start one cell to the right.
REST_CELL = -1


# ---------------------------------------------------------------------------
# checkpoint schedule of the power-of-two machine


def counter_bumps(n: int) -> int:
    """Extra steps spent incrementing the special-case counter by
    exponent n: two per digit-2-free power seen so far (2^2 and 2^8)."""
    if n <= 1:
        return 0
    if n <= 7:
        return 2
    return 4


# prefix sums of 2*(digits(2^k) + 1) over k = 1..n, grown on demand
_checkpoint_sums = [0]
_lengths = itertools.islice(ternary.power_of_two_lengths(), 1, None)


def checkpoint_steps(n: int) -> int:
    """Step at which the power-of-two machine returns to `rewind` at
    REST_CELL (cell -1) holding 2^n: 5 + bumps + sum of 2*(digits(2^k)+1)
    for k = 1..n."""
    if n < 0:
        raise ValueError("n must be a natural number")
    while len(_checkpoint_sums) <= n:
        _, length = next(_lengths)
        _checkpoint_sums.append(_checkpoint_sums[-1] + 2 * (length + 1))
    return 5 + counter_bumps(n) + _checkpoint_sums[n]


@dataclass
class CheckpointReport:
    n_max: int
    final_step: int
    checked: int


def verify_checkpoints(m54: MachineTable, n_max: int) -> CheckpointReport:
    """Run the power-of-two machine and assert the predicted configuration
    at every checkpoint step s_n for n <= n_max.

    At s_n the machine must be in `rewind` resting on the separator cell,
    with the digit-2-free counter one cell to its left, the cells to its
    right decoding to exactly 2^n, and everything beyond blank.  With the
    head starting at cell 0, the separator settles at cell -1 (counter at
    -2, digits from 0).  Raises CheckpointMismatch otherwise, and
    ValidationError before running a machine that lacks the state
    `rewind` or one of the digit symbols 0, 1, 2.

    The checks read the visited cells of one run at each s_n (cells it
    never visited are blank): a tm.PassRun, which crosses the rewind
    sweeps and the doubling passes in bulk, or a tm.FlatRun for a table
    of more than 256 symbols.  The len(2^n) cells right of the separator,
    read by `ternary.lsf_to_int` as a least-significant-first digit
    string, must equal 2^n, which Python integers give exactly.  To
    n = 1000 (634,569 steps) this takes 0.016-0.025 s on a 2-vCPU Xeon
    with Python 3.11, against 0.05-0.08 s on FlatRun.
    """
    if n_max < 0:
        raise ValueError("n_max must be a natural number")
    if "rewind" not in m54.states:
        raise ValidationError(f"{m54.name} has no state 'rewind'")
    for digit in "012":
        if digit not in m54.symbols:
            raise ValidationError(f"{m54.name} has no symbol {digit!r}")
    rest = REST_CELL
    rewind = m54.state_index("rewind")
    blank = m54.blank
    # symbol index -> its digit character, "x" (no base-3 digit) otherwise,
    # also as a bytes.translate table when every index fits a byte
    numeral = [label if label in ("0", "1", "2") else "x"
               for label in m54.symbols]
    if len(numeral) > 256:
        table, run = None, FlatRun(m54)
    else:
        table = "".join(numeral).encode().ljust(256, b"x")
        run = PassRun(m54)
    powers = ternary.power_of_two_lengths()
    for n in range(n_max + 1):
        power, length = next(powers)
        target = checkpoint_steps(n)
        run.advance(target)
        if run.steps < target:
            raise CheckpointMismatch(n, "machine halted before s_n")
        if run.state != rewind:
            raise CheckpointMismatch(
                n, f"state {m54.states[run.state]}, expected rewind")
        if run.head != rest:
            raise CheckpointMismatch(
                n, f"head at {run.head}, expected {rest}")
        first, cells = run.visited()
        sep = rest - first  # the separator's index in `cells`
        if cells[sep] != blank:
            raise CheckpointMismatch(n, "separator cell is not blank")
        end = sep + 1 + length
        digits = cells[sep + 1:end]
        digits.extend([blank] * (length - len(digits)))
        if table is None:
            text = "".join([numeral[s] for s in digits])
        else:
            text = digits.translate(table).decode()
        if "x" in text or ternary.lsf_to_int(text) != power:
            expected = ternary.TernaryNumber.from_int(power).lsf_str()
            for i, (d, sym) in enumerate(zip(expected, digits),
                                         start=rest + 1):
                if sym != m54.symbol_index(d):
                    raise CheckpointMismatch(
                        n, f"cell {i} holds {m54.symbols[sym]}, expected "
                        f"digit {d} of 2^{n}")
        for i in range(end, len(cells)):
            if cells[i] != blank:
                raise CheckpointMismatch(
                    n, f"cell {i + first} not blank past 2^{n}")
        counter = counter_bumps(n) // 2
        sym = cells[sep - 1] if sep else blank
        if sym != m54.symbol_index(str(counter)):
            raise CheckpointMismatch(
                n, f"counter cell holds {m54.symbols[sym]}, "
                f"expected {counter}")
    return CheckpointReport(n_max=n_max, final_step=run.steps,
                            checked=n_max + 1)


# ---------------------------------------------------------------------------
# non-halt deciders


@dataclass(frozen=True)
class EscapeCertificate:
    """Closed set of states containing the initial one, none of which has
    a halting transition: the run can never escape it, so it never halts."""
    reachable: tuple


@dataclass(frozen=True)
class RegularClosureCertificate:
    """A regular set of configurations witnessing that halting is
    unreachable.

    A configuration is abstracted to a quadruple (l, q, s, r): l is the
    left DFA run over the tape from the left edge up to the cell before
    the head, q and s are the machine state and the symbol under the
    head, and r is the right DFA run over the tape from the right edge
    up to the cell after the head.  Both DFAs start in state 0 and fix
    blank to map 0 to 0, so the infinite blank fringes are absorbed.
    `accepted` contains the quadruple of the initial configuration, is
    closed under machine steps (checked by revalidate_certificate), and
    contains no quadruple whose (q, s) cell halts — so the machine never
    reaches a halting configuration.
    """
    left_dfa: tuple   # per DFA state: k-tuple of successor states
    right_dfa: tuple  # same shape, run from the right edge inward
    accepted: tuple   # sorted quadruples (l, q, s, r)


@dataclass(frozen=True)
class CyclerCertificate:
    """Exact configuration repeat: config at t2 equals config at t1."""
    t1: int
    t2: int


@dataclass(frozen=True)
class TranslatedCyclerCertificate:
    """Recurring record-breaking configuration, shifted by `offset`.

    A record-breaking step puts the head strictly beyond every previously
    visited cell; everything further out is still blank.  t1 < t2 are
    records in the same direction with equal state.  Let the reach be the
    farthest opposite excursion of steps t1+1..t2.  The tape between the
    reach and the head reads the same relative to both record heads, so
    the run from t2 replays the run from t1 shifted by
    `offset` = head(t2) - head(t1): it reads only checked-equal cells or
    blanks beyond the record, so it drifts forever and never halts.
    """
    t1: int
    t2: int
    offset: int


def _escape(cells, init: int):
    """The states reachable from state `init` in the state graph of a
    tuple of cells, as a list, or None if a Halt cell is reachable."""
    seen = [init]
    for q in seen:  # breadth first: the list grows while it is read
        for tr in cells[q]:
            if tr is None:
                return None
            if tr[2] not in seen:
                seen.append(tr[2])
    return seen


def decide_escape(m: MachineTable):
    """Certificate that no halting transition is reachable in the state
    graph from the initial state, or None.  Reachability ignores the tape
    (it over-approximates the states the run can enter), so a certificate
    soundly implies the machine never halts."""
    seen = _escape(m.table, m.init)
    return seen and EscapeCertificate(tuple(sorted(seen)))


@dataclass
class Classification:
    status: str  # "halts" | "nonhalt" | "undecided"
    steps: int | None = None
    decider: str | None = None
    certificate: object = None


def _classified(verdict) -> Classification | None:
    """The Classification, certificate included, of a decider pass's
    plain verdict (see _run_deciders), or None at the budget."""
    if verdict is None:
        return None
    if verdict[0] == "halts":
        return Classification("halts", steps=verdict[1])
    cert = (CyclerCertificate if verdict[0] == "cycler" else
            TranslatedCyclerCertificate)(*verdict[1:])
    return Classification("nonhalt", decider=verdict[0], certificate=cert)


class _SavedRun(NamedTuple):
    """The whole state of a decider pass before step `t`: the
    configuration (state, head and the tape list, cell i at
    tape[i + origin]), the cycler's packed cells and `seen` dict, the
    head extremes, the reach stacks and the record buckets.  The pass
    copies the mutable parts before it steps, so one saved run can start
    any number of passes, and a pass never changes it."""
    t: int
    state: int
    head: int
    blank: int
    tape: list
    origin: int
    left: int
    right: int
    low: int
    high: int
    bottom: int
    top: int
    seen: dict
    lows: list
    highs: list
    records: dict

    @classmethod
    @functools.cache
    def start(cls, init: int, blank: int) -> "_SavedRun":
        """Before step 1: state `init` on the blank tape, head at cell 0.
        Every pass copies what it changes, so one saved run per (init,
        blank) serves them all."""
        return cls(1, init, 0, blank, [blank] * 32, 16, 0, 0, 0, 0, 0, 0,
                   {(init, 0, 0, 0): 0}, [], [], {})

    @property
    def cell(self) -> tuple:
        """The (state, symbol) that step t runs."""
        return self.state, self.tape[self.head + self.origin]


def _run_deciders(cells, budget: int, saved: _SavedRun):
    """One bounded run of the table `cells` from `saved` up to step
    `budget`, with the cycler and the translated cycler checked after
    every step.  Returns (verdict, fork), with the verdict a plain tuple
    that `_classified` turns into a Classification: ("cycler", t1, t2) or
    ("translated-cycler", t1, t2, offset), the fields of their
    certificates, with None; a halt at step t as ("halts", t) with the
    run saved before step t, whose `cell` is the halting (state, symbol);
    or (None, None) at the budget.  A table that differs from `cells`
    only in that Halt cell runs the same steps up to t, so it can resume
    from the fork.

    The cycler keeps the tape as two ints, `right` for cells i >= 0 and
    `left` for cells i < 0, each cell holding symbol ^ blank in `bits`
    bits from bit bits * i of `right` (bits * (-1 - i) of `left`) on, so
    blank cells hold 0; a step that changes a cell XORs the change in.
    Its key (state, head, left, right) names the configuration exactly,
    so the first repeat is the first exact one.

    The translated cycler (matching rule at TranslatedCyclerCertificate)
    needs at each record the reach since every earlier record of its
    direction.  `low` is the lowest head since the last right record and
    `high` the highest since the last left one, so a step that breaks no
    record costs at most two comparisons.  A record pushes that value,
    times its direction, onto its stack after popping the entries it
    undercuts, so the first entry after step t1 holds the farthest
    excursion since t1.  The bucket of earlier records and the stack are
    both in step order, so one forward walk of the stack per record
    finds every earlier record's reach.  Only a record copies the visited
    cells, [bottom, top], turned so that its head comes last, and only a
    record can step off the list, which then triples.  A pair is
    rejected on its window's far-end cell before any slice is built, and
    blank padding is built only when the window reaches past the earlier
    snapshot.  An exact repeat keeps the head bounded while a translated
    repeat proves unbounded drift, so the two never both fire.

    A step reads its cell into `tr` before unpacking it, so a TypeError
    with `tr` None is the Halt cell that step t runs, and any other
    TypeError is raised."""
    (first, q, head, blank, tape, origin, left, right, low, high, bottom,
     top, seen, lows, highs, records) = saved
    tape, seen, lows, highs = tape[:], seen.copy(), lows[:], highs[:]
    # (direction, state) -> [(t, head, visited cells, the head's last)];
    # the snapshots are never changed, so the copies share them
    records = {key: bucket[:] for key, bucket in records.items()}
    bits = (len(cells[0]) - 1).bit_length()
    tr = ()
    try:
        for t in range(first, budget + 1):
            p = head + origin
            sym = tape[p]
            tr = cells[q][sym]
            w, d, q = tr
            if w != sym:
                tape[p] = w
                if head >= 0:
                    right ^= (sym ^ w) << bits * head
                else:
                    left ^= (sym ^ w) << bits * ~head
            head += d
            t1 = seen.setdefault((q, head, left, right), t)
            if t1 != t:
                return ("cycler", t1, t), None
            if d > 0:
                if head <= high:
                    continue
                high = head
                if head <= top:
                    continue
                # a right record: past every cell visited before
                top, stack, v, low = head, lows, low, head
            else:
                if head >= low:
                    continue
                low = head
                if head >= bottom:
                    continue
                bottom, stack, v, high = head, highs, -high, head
            if not 0 <= head + origin < len(tape):
                pad = [blank] * len(tape)
                tape = pad + tape + pad
                origin += len(pad)
            while stack and stack[-1][1] >= v:
                stack.pop()
            stack.append((t, v))
            now = tape[bottom + origin:top + origin + 1]
            if d < 0:
                now.reverse()
            bucket = records.setdefault((d, q), [])
            i = 0
            for t1, p1, snap in bucket:
                # the window runs from the reach to the record head, the
                # last cell of snap and of now; cells before snap were
                # unvisited, so blank, at t1.  The reach lies within the
                # visited cells, so the window fits in now.
                while stack[i][0] <= t1:
                    i += 1
                span = d * p1 - stack[i][1] + 1
                if span < 1:
                    span = 1
                # most pairs already differ at the window's far end
                inside = span <= len(snap)
                if now[-span] != (snap[-span] if inside else blank):
                    continue
                earlier = (snap[-span:] if inside else
                           [blank] * (span - len(snap)) + snap)
                if earlier == now[-span:]:
                    return ("translated-cycler", t1, t, head - p1), None
            bucket.append((t, head, now))
    except TypeError:
        if tr is not None:
            raise
        # unpacking None, the Halt cell, which step t runs
        return ("halts", t), _SavedRun(
            t, q, head, blank, tape, origin, left, right, low, high, bottom,
            top, seen, lows, highs, records)
    return None, None


def _pass_certificate(m: MachineTable, budget: int, decider: str):
    if budget < 0:
        raise ValueError("budget must be a natural number")
    verdict = _classified(_run_deciders(m.table, budget,
                                        _SavedRun.start(m.init, m.blank))[0])
    if verdict and verdict.decider == decider:
        return verdict.certificate
    return None


def decide_cycler(m: MachineTable, budget: int):
    """Certificate (t1, t2) of an exact configuration repeat within budget,
    or None if the machine halts first or no repeat shows up."""
    return _pass_certificate(m, budget, "cycler")


def decide_translated_cycler(m: MachineTable, budget: int):
    """Certificate of a recurring record-breaking configuration with a
    nonzero shift (see TranslatedCyclerCertificate for the matching rule),
    or None if the machine halts first or no repeat shows up in budget."""
    return _pass_certificate(m, budget, "translated-cycler")


def _canonical_dfas(k: int, blank: int):
    """Canonical total DFAs over k symbols, fewest states first, without
    end.  State 0 is initial and blank maps it to itself, so leading
    blanks are absorbed.  Cells are filled in row-major order by the
    restricted-growth rule: a cell may name at most the one state never
    named before, and each state must be named before its row starts
    (so every state is reachable).  That yields one representative per
    isomorphism class.  Each DFA is a tuple of k-tuples of successors."""
    for size in itertools.count(1):
        yield from _fill_dfas([], 1, size, k, blank)


def _fill_dfas(cells: list, used: int, size: int, k: int, blank: int):
    idx = len(cells)
    if idx == size * k:
        yield tuple(tuple(cells[q * k:(q + 1) * k]) for q in range(size))
        return
    if idx == used * k:
        return  # row `used` starts before its state is named
    for v in (0,) if idx == blank else range(min(used, size - 1) + 1):
        cells.append(v)
        yield from _fill_dfas(cells, max(used, v + 1), size, k, blank)
        cells.pop()


# Steps of the concrete run that must pass without halting before the
# closure search starts.
_PROBE_STEPS = 4096

# Left DFAs the closure search tries per machine before it gives up.  The
# first 25,000 hold every DFA of up to 5, 3 and 2 states over 2, 3 and 4
# symbols.
_DFA_LIMIT = 25_000


def _derive_right(table, init: int, blank: int, left: tuple):
    """The least right side that closes with `left`, as (right DFA,
    accepted quadruples), or None once the abstract run reaches a halting
    cell.

    An NFA reads the tape from the head rightwards, with one entry per
    left-DFA state l and machine state q; it holds a configuration when
    the entry reads its word into the blank tail (blanks after it).  A
    step rewrites the word's prefix: moving right pops the head symbol
    into the left DFA; moving left pushes a symbol c that some l' maps to
    l on, then the written one, through one middle state per (l', q', c).
    Saturating these rules from the initial configuration gives the least
    fixpoint (the pushdown post* construction).  The right DFA is the NFA
    reversed and determinized from the blank tail: a state is the set of
    NFA states that read the cells right of the head, then blanks, into
    the tail."""
    n, k = len(table), len(left[0])
    entries = len(left) * n
    tail = entries * (k + 1)
    # per (NFA state, symbol), the bitmask of successor states
    succ = [0] * ((tail + 1) * k)
    succ[tail * k + blank] = 1 << tail
    # per NFA state, its edges as (symbol, successor) and the entries whose
    # language contains its language
    edges = {tail: [(blank, tail)]}
    includers = {}
    work = [(init, blank, tail)]  # entry (0, init) reads the blank tape
    while work:
        x, a, y = work.pop()
        i = x * k + a
        if succ[i] >> y & 1:
            continue
        succ[i] |= 1 << y
        edges.setdefault(x, []).append((a, y))
        for z in includers.get(x, ()):
            work.append((z, a, y))
        if x >= entries:
            continue
        l, q = divmod(x, n)
        tr = table[q][a]
        if tr is None:
            return None
        w, mv, q2 = tr
        if mv > 0:
            z = left[l][w] * n + q2
            into = includers.setdefault(y, [])
            if z not in into:
                into.append(z)
                work.extend((z, b, t) for b, t in edges.get(y, ()))
        else:
            for l2, row in enumerate(left):
                for c, target in enumerate(row):
                    if target == l:
                        e = l2 * n + q2
                        mid = entries + e * k + c
                        work += (e, c, mid), (mid, w, y)

    def back(now: int, a: int) -> int:
        """The NFA states that read `a` into the set `now`."""
        return sum(1 << x for x in range(tail + 1) if succ[x * k + a] & now)

    start, grown = 0, 1 << tail
    while grown != start:  # every state that blanks lead into the tail
        start, grown = grown, grown | back(grown, blank)
    sets, index, right = [start], {start: 0}, []
    for now in sets:
        row = []
        for a in range(k):
            nxt = back(now, a)
            if nxt not in index:
                index[nxt] = len(sets)
                sets.append(nxt)
            row.append(index[nxt])
        right.append(tuple(row))
    accepted = tuple((*divmod(x, n), s, r) for x in range(entries)
                     for s in range(k) for r, now in enumerate(sets)
                     if succ[x * k + s] & now)
    return tuple(right), accepted


def decide_regular_closure(m: MachineTable):
    """Search for a RegularClosureCertificate, or None.

    Left DFAs come from _canonical_dfas, fewest states first, and for each
    one _derive_right solves for the right side, on the machine and then
    on its mirror image (moves swapped, so the enumerated DFA reads the
    tape from the right and the sides are swapped back).  The search
    gives up after _DFA_LIMIT left DFAs.

    Once the first left DFA, the one-state one, fails on both sides, a
    tm.FlatRun from the blank tape must last _PROBE_STEPS steps without
    halting before the search goes on."""
    table = m.table
    mirror = tuple(tuple(None if tr is None else (tr[0], -tr[1], tr[2])
                         for tr in row) for row in table)
    probed = False
    for left in itertools.islice(_canonical_dfas(m.n_symbols, m.blank),
                                 _DFA_LIMIT):
        found = _derive_right(table, m.init, m.blank, left)
        if found is not None:
            return RegularClosureCertificate(left, *found)
        found = _derive_right(mirror, m.init, m.blank, left)
        if found is not None:
            right, accepted = found
            swapped = sorted((r, q, s, l) for l, q, s, r in accepted)
            return RegularClosureCertificate(right, left, tuple(swapped))
        if not probed:
            # a machine observed to halt has no closure certificate; a
            # short concrete run is far cheaper than failing on every
            # left DFA
            probe = FlatRun(m)
            probe.advance(_PROBE_STEPS)
            if probe.halted:
                return None
            probed = True
    return None


def _indices(values, sizes) -> bool:
    """Whether `values` is a tuple of one int per size in `sizes`, each in
    range(size): the shape of a DFA row and of an accepted quadruple."""
    return (isinstance(values, tuple) and len(values) == len(sizes)
            and all(isinstance(v, int) and 0 <= v < size
                    for v, size in zip(values, sizes)))


def _closure_axioms_hold(m: MachineTable,
                         cert: RegularClosureCertificate) -> bool:
    """Check every axiom of the closure proof directly against the table;
    independent of how the certificate was found."""
    k = m.n_symbols
    left, right = cert.left_dfa, cert.right_dfa
    for dfa in (left, right):
        if not (isinstance(dfa, tuple) and dfa
                and all(_indices(row, (len(dfa),) * k) for row in dfa)
                and dfa[0][m.blank] == 0):
            return False
    sizes = (len(left), m.n_states, k, len(right))
    if not (isinstance(cert.accepted, tuple)
            and all(_indices(entry, sizes) for entry in cert.accepted)):
        return False
    accepted = set(cert.accepted)
    if (0, m.init, m.blank, 0) not in accepted:
        return False
    for l, q, s, r in accepted:
        tr = m.table[q][s]
        if tr is None:
            return False  # a halting configuration is accepted
        w, mv, q2 = tr
        if mv > 0:
            l2 = left[l][w]
            successors = ((l2, q2, s2, r2) for s2 in range(k)
                          for r2 in range(len(right))
                          if right[r2][s2] == r)
        else:
            r2 = right[r][w]
            successors = ((l2, q2, s2, r2) for s2 in range(k)
                          for l2 in range(len(left))
                          if left[l2][s2] == l)
        if any(succ not in accepted for succ in successors):
            return False
    return True


def revalidate_certificate(m: MachineTable, cert) -> bool:
    """Independently re-check a decider certificate: against the table for
    escape, against the closure axioms for regular closure, and against
    tm execution for the cycler certificates, which must have
    0 <= t1 < t2.  Anything else, or a certificate whose fields have the
    wrong shape, is rejected: the check returns False and never raises."""
    if isinstance(cert, RegularClosureCertificate):
        return _closure_axioms_hold(m, cert)
    if isinstance(cert, EscapeCertificate):
        states = cert.reachable
        return (isinstance(states, tuple)
                and _indices(states, (m.n_states,) * len(states))
                and m.init in states
                and all(tr is not HALT and tr[2] in states
                        for q in states for tr in m.table[q]))
    if not isinstance(cert, (CyclerCertificate, TranslatedCyclerCertificate)):
        return False
    offset = getattr(cert, "offset", 0)
    if not all(isinstance(v, int) for v in (cert.t1, cert.t2, offset)):
        return False
    if not 0 <= cert.t1 < cert.t2:
        return False  # t1 == t2 would compare a configuration with itself
    c = initial_configuration(m)
    heads = [c.head]
    for t in range(cert.t2):
        if t == cert.t1:
            snap1 = c.clone()
        if c.halted:
            return False
        step(m, c)
        heads.append(c.head)
    if c.state != snap1.state or c.head != snap1.head + offset:
        return False
    p1, p2 = snap1.head, c.head
    if offset == 0:
        lo = min(snap1.tape.lo, c.tape.lo) - 1
        hi = max(snap1.tape.hi, c.tape.hi) + 1
        return all(snap1.tape.read(i) == c.tape.read(i)
                   for i in range(lo, hi + 1))
    # translated case: both ends must be strict head records in the drift
    # direction, and the tape between the record cell and the farthest
    # opposite excursion of the interval must match relative to the heads
    d = 1 if offset > 0 else -1
    before = [d * h for h in heads[:cert.t1]]
    if before and max(before) >= d * p1:
        return False
    if max(d * h for h in heads[:cert.t2]) >= d * p2:
        return False
    width = max(0, d * p1 - min(d * h for h in heads[cert.t1 + 1:]))
    return all(snap1.tape.read(p1 - d * j) == c.tape.read(p2 - d * j)
               for j in range(width + 1))


# ---------------------------------------------------------------------------
# classification and enumeration


def classify(m: MachineTable, budget: int) -> Classification:
    """Cheapest decider first: the static escape check, one bounded run
    checking the cycler and the translated cycler after every step, then
    the regular-closure search on survivors; anything left is Undecided
    at this budget."""
    if budget < 0:
        raise ValueError("budget must be a natural number")
    seen = _escape(m.table, m.init)
    if seen is not None:
        cert = EscapeCertificate(tuple(sorted(seen)))
    else:
        verdict = _run_deciders(m.table, budget,
                                _SavedRun.start(m.init, m.blank))[0]
        if verdict is not None:
            return _classified(verdict)
        cert = decide_regular_closure(m)
        if cert is None:
            return Classification("undecided")
    return Classification("nonhalt", decider="escape", certificate=cert)


def _space_table(n: int, k: int, cells) -> MachineTable:
    """The MachineTable of a tuple of cells of the n-state, k-symbol
    enumeration space: symbols "0".."k-1" with blank 0, states "A", "B",
    ... starting in A."""
    return MachineTable(
        name=f"tm{n}x{k}", symbols=tuple(str(i) for i in range(k)),
        blank=0, states=tuple(chr(ord("A") + i) for i in range(n)), init=0,
        table=cells)


@dataclass
class EnumerationSummary:
    n: int
    k: int
    budget: int
    reduced: bool
    counts: dict = field(default_factory=lambda: {
        "halts": 0, "escape": 0, "cycler": 0, "translated-cycler": 0,
        "undecided": 0})
    max_steps: int = 0
    # MachineTables; bare tuples of cells while the enumeration runs
    champions: list = field(default_factory=list)
    undecided: list = field(default_factory=list)
    # How the pipeline went: runs of the decider pass and the steps they
    # simulated, closure searches and the verdicts they gave (counted
    # under "escape"), and the seconds of each; not in to_dict.
    decider_pass_runs: int = 0
    decider_pass_steps: int = 0
    closure_searches: int = 0
    closure_decided: int = 0
    decider_pass_seconds: float = 0.0
    closure_seconds: float = 0.0

    @property
    def total(self) -> int:
        return sum(self.counts.values())  # the machines classified

    @property
    def confirmed(self) -> bool:
        """The reported maximum is a proven BB value only when nothing was
        left undecided."""
        return self.counts["undecided"] == 0

    def record(self, tag: str, end: int, cells, first: int):
        """Count the plain verdict (tag, end) on the machine whose tuple of
        cells is `cells`, kept bare if it is a champion or undecided
        (enumerate_and_classify builds their MachineTables at the end).
        The decider pass ran from step `first` (1 from the blank tape, the
        fork's step for a resumed tree-normal-form child) to step `end`,
        where it stopped: "halts" at the halting step, "cycler" or
        "translated-cycler" at the certificate's t2, or else the budget,
        where the closure search ran and gave "escape" or, failing,
        "undecided"."""
        self.counts[tag] += 1
        self.decider_pass_runs += 1
        self.decider_pass_steps += end - first + 1
        if tag == "halts":
            if end > self.max_steps:
                self.max_steps = end
                self.champions = [cells]
            elif end == self.max_steps:
                self.champions.append(cells)
        elif tag == "escape":
            self.closure_searches += 1
            self.closure_decided += 1
        elif tag == "undecided":
            self.closure_searches += 1
            self.undecided.append(cells)

    def to_dict(self) -> dict:
        from .machines import serialize_machine
        return {
            "n": self.n, "k": self.k, "budget": self.budget,
            "reduced": self.reduced, "total": self.total,
            "counts": self.counts, "max_steps": self.max_steps,
            "confirmed": self.confirmed,
            "champions": [serialize_machine(m) for m in self.champions[:5]],
            "undecided": [serialize_machine(m) for m in self.undecided],
        }


def _decide(cells, budget: int, saved: _SavedRun,
            summary: EnumerationSummary):
    """The decider pass on an enumerated tuple of cells from `saved`,
    then the regular-closure search on its MachineTable if the run
    outlasts the budget.  Records the verdict's tag and end step and the
    seconds the pass and the search took; returns the pass's plain
    verdict and, for a halt, the fork."""
    started = time.perf_counter()
    verdict, fork = _run_deciders(cells, budget, saved)
    ran = searched = time.perf_counter()
    if verdict is None:
        closure = decide_regular_closure(
            _space_table(summary.n, summary.k, cells))
        searched = time.perf_counter()
        tag, end = ("undecided" if closure is None else "escape"), budget
    else:
        tag, end = verdict[0], verdict[1 if verdict[0] == "halts" else 2]
    summary.decider_pass_seconds += ran - started
    summary.closure_seconds += searched - ran
    summary.record(tag, end, cells, saved.t)
    return verdict, fork


def _escapes_into(cells, q: int, sym: int, targets) -> list:
    """The target states q2 such that every table that is `cells` with
    its Halt cell (q, sym) replaced by a transition into q2 escapes:
    whatever it writes and wherever it moves, the state graph is the
    parent's plus q -> q2."""
    return [q2 for q2 in targets
            if _escape(replace_cell(cells, q, sym, (0, 1, q2)), 0)]


def _tnf_enumerate(n: int, k: int, budget: int, summary: EnumerationSummary):
    # Branching never chooses Halt, so the Halt cells are exactly the
    # cells not chosen yet, and every node runs as a complete table.

    @functools.cache
    def branch_options(first: bool, top_state: int, top_symbol: int):
        """The transitions a cell not chosen yet may take, given
        the highest state and symbol the chosen cells use (or 0)."""
        moves = (1,) if first else (-1, 1)
        return tuple((w, d, q2)
                     for w in range(min(top_symbol + 1, k - 1) + 1)
                     for d in moves
                     for q2 in range(min(top_state + 1, n - 1) + 1))

    def recurse(cells, saved: _SavedRun, top_state: int, top_symbol: int):
        verdict, fork = _decide(cells, budget, saved, summary)
        if fork is None:
            return
        # the run halted on a cell not chosen yet: every completion with
        # Halt there (that is `cells`) stops at the same step, and the
        # others are the branches, which all resume from the fork.  The
        # run reached the cell, so its state and symbol are already at
        # most the tops.
        q, sym = fork.cell
        targets = range(min(top_state + 1, n - 1) + 1)
        escaping = _escapes_into(cells, q, sym, targets)
        options = branch_options(verdict[1] == 1, top_state, top_symbol)
        # each target takes an equal share of the options; the branches
        # into an escaping one are counted, never built or recorded
        summary.counts["escape"] += (len(options) // len(targets)
                                     * len(escaping))
        for tr in options:
            if tr[2] not in escaping:
                recurse(replace_cell(cells, q, sym, tr), fork,
                        max(top_state, tr[2]), max(top_symbol, tr[0]))

    # the root halts on every cell, so its state graph cannot escape
    recurse(((None,) * k,) * n, _SavedRun.start(0, 0), 0, 0)


def _raw_enumerate(n: int, k: int, budget: int, summary: EnumerationSummary):
    # every table runs from the blank tape: nothing is resumed here, so
    # comparing both enumerators checks the forks
    options = [None] + [(w, d, q2) for w in range(k) for d in (-1, 1)
                        for q2 in range(n)]
    start = _SavedRun.start(0, 0)
    # cells in row-major order, the first one slowest (product order);
    # the inner product's (2nk+1)^k rows are built once and shared
    rows = itertools.product(options, repeat=k)
    for cells in itertools.product(rows, repeat=n):
        if _escape(cells, 0):
            summary.counts["escape"] += 1  # no pass ran, no table is kept
        else:
            _decide(cells, budget, start, summary)


def enumerate_and_classify(n: int, k: int, budget: int,
                           reduced: bool = True) -> EnumerationSummary:
    """Classify every n-state k-symbol machine (canonical representatives
    when `reduced`, the full raw space otherwise)."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 states and k >= 2 symbols")
    if budget < 0:
        raise ValueError("budget must be a natural number")
    raw_count = (2 * n * k + 1) ** (n * k)
    if not reduced and raw_count > _CANDIDATE_GUARD:
        raise SpaceTooLarge(
            f"raw space has {raw_count} candidates (> {_CANDIDATE_GUARD})")
    summary = EnumerationSummary(n=n, k=k, budget=budget, reduced=reduced)
    if reduced:
        _tnf_enumerate(n, k, budget, summary)
    else:
        _raw_enumerate(n, k, budget, summary)
    # the summary kept bare cells while it counted; most champions
    # were replaced by longer runs, so only the ones reported are built
    summary.champions = [_space_table(n, k, c) for c in summary.champions]
    summary.undecided = [_space_table(n, k, c) for c in summary.undecided]
    return summary
