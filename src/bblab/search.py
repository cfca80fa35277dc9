"""Brute-force enumeration of tiny machine spaces with non-halt deciders,
plus the checkpoint schedule of the power-of-two machine.

One decider pipeline serves `classify` and both enumerators, cheapest
first: the escape decider (no halting transition is reachable in the
state graph); then a single bounded run that checks the cycler (exact
configuration repeat) and the translated cycler (recurring
record-breaking configuration shifted by a rigid offset) after every
step; and finally, for machines that outlast the budget, the
regular-closure decider (a regular set of configurations that contains
the initial one, is closed under stepping, and excludes every halting
one — the escape idea generalized from the state graph to tape
contents; both are tagged "escape" since both prove halting
unreachable).  The closure search enumerates only the DFA that reads
the tape left of the head and derives the one for the right side as a
least fixpoint, on the machine and on its mirror image.  The bounded
run is a `tm.FlatRun`, which the closure search's halting probe
continues; `revalidate_certificate` re-checks every certificate
independently, on `tm.step` for the cyclers.

Enumeration runs either over the raw space of all (2nk+1)^(nk) tables
or over a canonical subset built in tree normal form: cells are filled
lazily in the order the blank-tape run first needs them, new
states/symbols are introduced lowest-index-first, and the very first
transition moves right.  A node's cells not chosen yet are Halt, so
every node is a complete table and the pipeline runs it as is; a run
that halts on such a cell branches on it.  The reduction preserves
every halting step count, so maxima are exact; raw mode remains
available as ground truth.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

from .errors import CheckpointMismatch, SpaceTooLarge, ValidationError
from .tm import (HALT, L, R, FlatRun, MachineTable, Transition,
                 compile_cells, initial_configuration, step)
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


class _CheckpointCache:
    """Prefix sums of 2*(digits(2^k) + 1), grown on demand."""

    def __init__(self):
        self._sums = [0]  # cumulative over k = 1..n
        self._lengths = ternary.power_of_two_lengths()
        next(self._lengths)  # discard k = 0

    def prefix(self, n: int) -> int:
        while len(self._sums) <= n:
            _, length = next(self._lengths)
            self._sums.append(self._sums[-1] + 2 * (length + 1))
        return self._sums[n]


_checkpoints = _CheckpointCache()


def checkpoint_steps(n: int) -> int:
    """Step at which the power-of-two machine returns to `rewind` at cell 0
    holding 2^n: 5 + bumps + sum of 2*(digits(2^k)+1) for k = 1..n."""
    if n < 0:
        raise ValueError("n must be a natural number")
    return 5 + counter_bumps(n) + _checkpoints.prefix(n)


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

    The checks read the live tape of one tm.FlatRun at each s_n.  The
    len(2^n) cells right of the separator, read by `ternary.lsf_to_int`
    as a least-significant-first digit string, must equal 2^n, which
    Python integers give exactly.
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
    run = FlatRun(m54)
    tape, unvisited = run.tape, run.sentinel
    # symbol index -> its digit character, "x" (no base-3 digit) otherwise
    numeral = bytes.maketrans(
        bytes(range(m54.n_symbols + 1)),
        bytes(ord(label) if label in ("0", "1", "2") else ord("x")
              for label in (*m54.symbols, "")))
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
        p = run.pos
        if p - run.origin != rest:
            raise CheckpointMismatch(
                n, f"head at {p - run.origin}, expected {rest}")
        if tape[p] not in (blank, unvisited):
            raise CheckpointMismatch(n, "separator cell is not blank")
        start, end = p + 1, p + 1 + length
        text = bytes(tape[start:end]).translate(numeral).decode()
        if "x" in text or ternary.lsf_to_int(text) != power:
            expected = ternary.TernaryNumber.from_int(power).lsf_str()
            for i, d in enumerate(expected, start=rest + 1):
                sym = tape[i + run.origin]
                if sym != m54.symbol_index(d):
                    label = m54.symbols[blank if sym == unvisited else sym]
                    raise CheckpointMismatch(
                        n, f"cell {i} holds {label}, expected digit {d} "
                        f"of 2^{n}")
        # the visited cells end at the first unvisited one (the list
        # always ends with one, see tm.FlatRun)
        for i in range(end, tape.index(unvisited, end)):
            if tape[i] != blank:
                raise CheckpointMismatch(
                    n, f"cell {i - run.origin} not blank past 2^{n}")
        counter = counter_bumps(n) // 2
        sym = tape[p - 1]
        if sym == unvisited:
            sym = blank
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

    t1 and t2 are steps at which the head reached a fresh extreme in the
    same direction with equal state, and the tape within reach of the
    future run (the segment between the record cell and the farthest
    opposite excursion of the t1..t2 interval) is identical relative to
    the head.  The run from t2 therefore replays the run from t1 shifted
    by `offset`, forever.
    """
    t1: int
    t2: int
    offset: int


class _TranslatedDetector:
    """Record-breaking translated-cycle detection, shared by the deciders.

    A record-breaking step puts the head strictly beyond every previously
    visited cell; everything further out is still blank.  For two records
    t1 < t2 in the same direction with equal state, let the reach be the
    farthest opposite excursion of steps t1+1..t2.  If the tape between
    the reach and the head reads the same relative to both record heads,
    the run from t2 replays the run from t1 shifted by head(t2)-head(t1):
    it reads only checked-equal cells or blanks beyond the record, so it
    drifts forever and never halts.
    """

    __slots__ = ("blank", "lows", "highs", "records")

    def __init__(self, blank: bytes):
        self.blank = blank
        # Suffix minima and maxima of the head as (step, head) stacks: the
        # first entry after step t holds the lowest (highest) head since t,
        # and the first entry the lowest (highest) head so far.
        self.lows = [(0, 0)]
        self.highs = [(0, 0)]
        # (direction, state) -> [(t, head, tape bytes, origin)]
        self.records = {}

    def on_step(self, run: FlatRun,
                tape: bytes) -> TranslatedCyclerCertificate | None:
        """Feed the run after each step, with `tape` its list as bytes and
        unvisited cells read as blank; certificate on match."""
        p2 = run.pos - run.origin
        t2, o2 = run.steps, run.origin
        lo, hi = self.lows[0][1], self.highs[0][1]
        for stack, sign in ((self.lows, 1), (self.highs, -1)):
            while stack and sign * stack[-1][1] >= sign * p2:
                stack.pop()
            stack.append((t2, p2))
        if lo <= p2 <= hi:
            return None
        d = 1 if p2 > hi else -1
        stack = self.lows if d > 0 else self.highs
        bucket = self.records.setdefault((d, run.state), [])
        for t1, p1, snap, o1 in bucket:
            # the farthest opposite excursion of steps t1+1..t2
            reach = stack[bisect.bisect_left(stack, (t1 + 1,))][1]
            # the cells from the reach to the record head, as list indices
            # (i1 of snap, i2 of tape); cells outside snap were blank at t1
            if d > 0:
                width = max(0, p1 - reach)
                i1, i2 = p1 - width + o1, p2 - width + o2
                earlier = snap[max(i1, 0):p1 + o1 + 1].rjust(width + 1,
                                                             self.blank)
            else:
                width = max(0, reach - p1)
                i1, i2 = p1 + o1, p2 + o2
                earlier = snap[i1:i1 + width + 1].ljust(width + 1, self.blank)
            if earlier == tape[i2:i2 + width + 1]:
                return TranslatedCyclerCertificate(t1, t2, p2 - p1)
        bucket.append((t2, p2, tape, o2))
        return None


def decide_escape(m: MachineTable):
    """Certificate that no halting transition is reachable in the state
    graph from the initial state, or None.  Reachability ignores the tape
    (it over-approximates the states the run can enter), so a certificate
    soundly implies the machine never halts."""
    seen = {m.init}
    stack = [m.init]
    while stack:
        for tr in m.table[stack.pop()]:
            if tr is HALT:
                return None
            if tr.next_state not in seen:
                seen.add(tr.next_state)
                stack.append(tr.next_state)
    return EscapeCertificate(tuple(sorted(seen)))


@dataclass
class Classification:
    status: str  # "halts" | "nonhalt" | "undecided"
    steps: int | None = None
    decider: str | None = None
    certificate: object = None


def _run_deciders(m: MachineTable, budget: int):
    """One bounded tm.FlatRun from the blank tape with the cycler and the
    translated cycler checked after every step.  Returns a Classification
    (cycler or translated-cycler), or else the stopped run: halted, or
    at the budget.

    The cycler's signature is the state, the head and the tape with
    unvisited cells read as blank and blanks stripped from both ends.  An
    exact repeat keeps the head bounded while a translated repeat proves
    unbounded drift, so the two never both fire on one machine."""
    run = FlatRun(m)
    blank = bytes([m.blank])
    as_blank = bytes.maketrans(bytes([run.sentinel]), blank)
    seen = {(m.init, 0, 0, b""): 0}
    detector = _TranslatedDetector(blank)
    while run.steps < budget:
        run.advance(run.steps + 1)
        if run.halted:
            break
        tape = bytes(run.tape).translate(as_blank)
        head = run.pos - run.origin
        rest = tape.lstrip(blank)
        content = rest.rstrip(blank)
        lo = len(tape) - len(rest) - run.origin if content else head
        sig = (run.state, head, lo, content)
        if sig in seen:
            return Classification(
                "nonhalt", decider="cycler",
                certificate=CyclerCertificate(seen[sig], run.steps))
        seen[sig] = run.steps
        cert = detector.on_step(run, tape)
        if cert is not None:
            return Classification("nonhalt", decider="translated-cycler",
                                  certificate=cert)
    return run


def _pass_certificate(m: MachineTable, budget: int, decider: str):
    out = _run_deciders(m, budget)
    if isinstance(out, Classification) and out.decider == decider:
        return out.certificate
    return None


def decide_cycler(m: MachineTable, budget: int):
    """Certificate (t1, t2) of an exact configuration repeat within budget,
    or None if the machine halts first or no repeat shows up."""
    return _pass_certificate(m, budget, "cycler")


def decide_translated_cycler(m: MachineTable, budget: int):
    """Certificate of a recurring record-breaking configuration with a
    nonzero shift (see _TranslatedDetector for the matching rule), or
    None if the machine halts first or no repeat shows up in budget."""
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


def decide_regular_closure(m: MachineTable, *, probe=None):
    """Search for a RegularClosureCertificate, or None.

    Left DFAs come from _canonical_dfas, fewest states first, and for each
    one _derive_right solves for the right side, on the machine and then
    on its mirror image (moves swapped, so the enumerated DFA reads the
    tape from the right and the sides are swapped back).  The search
    gives up after _DFA_LIMIT left DFAs.

    Before the search, a concrete run from the blank tape must last
    _PROBE_STEPS steps without halting.  `probe` is a tm.FlatRun of m
    that has already gone some steps without halting (the run _decide
    stopped at its budget); the check continues it instead of starting
    over."""
    if probe is None:
        probe = FlatRun(m)
    # a machine observed to halt has no closure certificate; a short
    # concrete run is far cheaper than failing on every left DFA
    probe.advance(_PROBE_STEPS)
    if probe.halted:
        return None
    table = compile_cells(m)
    mirror = tuple(tuple(None if tr is None else (tr[0], -tr[1], tr[2])
                         for tr in row) for row in table)
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
    return None


def _closure_axioms_hold(m: MachineTable,
                         cert: RegularClosureCertificate) -> bool:
    """Check every axiom of the closure proof directly against the table;
    independent of how the certificate was found."""
    k = m.n_symbols
    left, right = cert.left_dfa, cert.right_dfa
    for dfa in (left, right):
        if not dfa or dfa[0][m.blank] != 0:
            return False
        if any(len(row) != k for row in dfa):
            return False
        if any(not 0 <= t < len(dfa) for row in dfa for t in row):
            return False
    accepted = set(cert.accepted)
    if (0, m.init, m.blank, 0) not in accepted:
        return False
    table = compile_cells(m)
    for l, q, s, r in accepted:
        if not (0 <= l < len(left) and 0 <= r < len(right)
                and 0 <= q < m.n_states and 0 <= s < k):
            return False
        tr = table[q][s]
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
    tm execution for the cycler certificates."""
    if isinstance(cert, RegularClosureCertificate):
        return _closure_axioms_hold(m, cert)
    if isinstance(cert, EscapeCertificate):
        states = set(cert.reachable)
        if m.init not in states:
            return False
        for q in states:
            for tr in m.table[q]:
                if tr is HALT or tr.next_state not in states:
                    return False
        return True
    c = initial_configuration(m)
    heads = [c.head]
    for _ in range(cert.t1):
        if c.halted:
            return False
        step(m, c)
        heads.append(c.head)
    snap1 = c.clone()
    for _ in range(cert.t2 - cert.t1):
        if c.halted:
            return False
        step(m, c)
        heads.append(c.head)
    offset = getattr(cert, "offset", 0)
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
    between = heads[cert.t1 + 1:cert.t2 + 1]
    if d > 0:
        width = max(0, p1 - min(between))
    else:
        width = max(0, max(between) - p1)
    return all(snap1.tape.read(p1 - d * j) == c.tape.read(p2 - d * j)
               for j in range(width + 1))


# ---------------------------------------------------------------------------
# classification and enumeration


def _decide(m: MachineTable, budget: int):
    """The decider pipeline: the static escape check, then the single
    bounded run of _run_deciders, then the regular-closure search if the
    run outlasts the budget; anything left is Undecided at this budget.
    Returns the Classification and, for a halt, the halted tm.FlatRun
    (None otherwise)."""
    escape = decide_escape(m)
    if escape is not None:
        return Classification("nonhalt", decider="escape",
                              certificate=escape), None
    out = _run_deciders(m, budget)
    if isinstance(out, Classification):
        return out, None
    if out.halted:
        return Classification("halts", steps=out.steps), out
    closure = decide_regular_closure(m, probe=out)
    if closure is not None:
        return Classification("nonhalt", decider="escape",
                              certificate=closure), None
    return Classification("undecided"), None


def classify(m: MachineTable, budget: int) -> Classification:
    """Cheapest decider first: the static escape check, one bounded run
    checking the cycler and the translated cycler after every step, then
    the regular-closure search on survivors; anything left is Undecided
    at this budget."""
    return _decide(m, budget)[0]


@dataclass
class EnumerationSummary:
    n: int
    k: int
    budget: int
    reduced: bool
    total: int = 0
    counts: dict = field(default_factory=lambda: {
        "halts": 0, "escape": 0, "cycler": 0, "translated-cycler": 0,
        "undecided": 0})
    max_steps: int = 0
    champions: list = field(default_factory=list)
    undecided: list = field(default_factory=list)

    @property
    def confirmed(self) -> bool:
        """The reported maximum is a proven BB value only when nothing was
        left undecided."""
        return self.counts["undecided"] == 0

    def record(self, cls: Classification, table: MachineTable):
        self.total += 1
        if cls.status == "halts":
            self.counts["halts"] += 1
            if cls.steps > self.max_steps:
                self.max_steps = cls.steps
                self.champions = [table]
            elif cls.steps == self.max_steps:
                self.champions.append(table)
        elif cls.status == "nonhalt":
            self.counts[cls.decider] += 1
        else:
            self.counts["undecided"] += 1
            self.undecided.append(table)

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


def _machine(n: int, k: int, rows) -> MachineTable:
    """The n-state, k-symbol enumeration table with the given rows of
    Transitions and HALT, starting in state 0 on blank symbol 0."""
    return MachineTable(name=f"tm{n}x{k}",
                        symbols=tuple(str(i) for i in range(k)), blank=0,
                        states=tuple(chr(ord("A") + i) for i in range(n)),
                        init=0, table=tuple(tuple(row) for row in rows))


def _tnf_enumerate(n: int, k: int, budget: int, summary: EnumerationSummary):
    # Branching never chooses Halt, so the HALT cells are exactly the
    # cells not chosen yet, and every node runs as a complete table.
    cells = [[HALT] * k for _ in range(n)]

    def branch_options(first: bool):
        used_states = {0}
        used_symbols = {0}
        for q in range(n):
            for s in range(k):
                tr = cells[q][s]
                if tr is not HALT:
                    used_states.add(q)
                    used_states.add(tr.next_state)
                    used_symbols.add(s)
                    used_symbols.add(tr.write)
        max_state = min(max(used_states) + 1, n - 1)
        max_symbol = min(max(used_symbols) + 1, k - 1)
        moves = (R,) if first else (L, R)
        return [Transition(w, move, q2)
                for w in range(max_symbol + 1)
                for move in moves
                for q2 in range(max_state + 1)]

    def recurse():
        m = _machine(n, k, cells)
        verdict, run = _decide(m, budget)
        summary.record(verdict, m)
        if run is None:
            return
        # the run halted on a cell not chosen yet: every completion with
        # Halt there (that is `m`) stops at the same step, and the others
        # are the branches
        q, sym = run.state, run.tape[run.pos]
        if sym == run.sentinel:
            sym = m.blank
        for option in branch_options(first=(run.steps == 1)):
            cells[q][sym] = option
            recurse()
        cells[q][sym] = HALT

    recurse()


def _raw_enumerate(n: int, k: int, budget: int, summary: EnumerationSummary):
    options = [HALT] + [Transition(w, move, q2) for w in range(k)
                        for move in (L, R) for q2 in range(n)]
    for combo in itertools.product(options, repeat=n * k):
        m = _machine(n, k, (combo[q * k:(q + 1) * k] for q in range(n)))
        summary.record(_decide(m, budget)[0], m)


def enumerate_and_classify(n: int, k: int, budget: int,
                           reduced: bool = True) -> EnumerationSummary:
    """Classify every n-state k-symbol machine (canonical representatives
    when `reduced`, the full raw space otherwise)."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 states and k >= 2 symbols")
    raw_count = (2 * n * k + 1) ** (n * k)
    if not reduced and raw_count > _CANDIDATE_GUARD:
        raise SpaceTooLarge(
            f"raw space has {raw_count} candidates (> {_CANDIDATE_GUARD})")
    summary = EnumerationSummary(n=n, k=k, budget=budget, reduced=reduced)
    if reduced:
        _tnf_enumerate(n, k, budget, summary)
    else:
        _raw_enumerate(n, k, budget, summary)
    return summary
