"""Checkpoint schedule, non-halt deciders, certificates, enumeration."""

import collections
import dataclasses
import hashlib
import itertools
import json
import random
import re
import time
import tracemalloc

import pytest

from bblab import machines, search, simcheck, ternary, tm
from bblab.errors import CheckpointMismatch, SpaceTooLarge, ValidationError
from bblab.search import (CyclerCertificate, EscapeCertificate,
                          RegularClosureCertificate,
                          TranslatedCyclerCertificate, checkpoint_steps,
                          classify, decide_cycler, decide_escape,
                          decide_regular_closure, decide_translated_cycler,
                          enumerate_and_classify, revalidate_certificate,
                          verify_checkpoints)
from bblab.tm import HALT, L, R, Transition

DRIFTER = """\
symbols: 0 1
blank: 0
states: A
init: A
A 0 -> 1 R A
A 1 -> halt
"""

PINGPONG = """\
symbols: 0 1
blank: 0
states: A B
init: A
A 0 -> 1 R B
A 1 -> 0 R B
B 0 -> 1 L A
B 1 -> 0 L A
"""

# Exact two-cell oscillation returning to the all-blank configuration;
# the halting cells exist (so the escape decider declines) but are never
# dynamically reached because symbol 2 is never written.
CYCLER = """\
symbols: 0 1 2
blank: 0
states: A B
init: A
A 0 -> 1 R B
A 1 -> 0 R B
A 2 -> halt
B 0 -> 1 L A
B 1 -> 0 L A
B 2 -> halt
"""

NO_HALT_REACHABLE = """\
symbols: 0 1
blank: 0
states: A B
init: A
A 0 -> 1 R A
A 1 -> 0 L A
B 0 -> halt
B 1 -> halt
"""

# A two-sided bouncer: no exact or shifted repeat, but its reachable
# configurations form a small regular set.
BOUNCER = """\
symbols: 0 1
blank: 0
states: A B C D
init: A
A 0 -> 0 R B
A 1 -> 1 R D
B 0 -> 1 R C
B 1 -> halt
C 0 -> 1 L A
C 1 -> 1 R C
D 0 -> 1 L B
D 1 -> 1 L D
"""


@pytest.fixture(scope="module")
def m54():
    return machines.builtin_m54()


# -- checkpoint schedule ----------------------------------------------------


def test_checkpoint_steps_known_values():
    assert checkpoint_steps(0) == 5
    assert checkpoint_steps(1) == 9
    assert checkpoint_steps(2) == 17
    assert checkpoint_steps(20) == 333


def test_checkpoint_steps_rejects_negative():
    with pytest.raises(ValueError):
        checkpoint_steps(-1)


@pytest.mark.parametrize("call", [
    lambda: checkpoint_steps(-1),
    lambda: verify_checkpoints(machines.builtin_m54(), -5),
    lambda: ternary.scan_erdos(-3),
    lambda: ternary.power_of_two_ternary(-1),
    lambda: simcheck.verify_simulation(machines.builtin_m152(),
                                       machines.builtin_m54(),
                                       simcheck.DEFAULT_ENCODING, -2),
    lambda: tm.run(machines.builtin_m54(), -5),
    lambda: tm.run_trace(machines.builtin_m54(), [-3, 2]),
    lambda: search.classify(machines.builtin_m54(), -1),
    lambda: search.enumerate_and_classify(2, 2, -1),
    lambda: decide_cycler(machines.parse_machine(PINGPONG), -1),
    lambda: decide_translated_cycler(machines.parse_machine(DRIFTER), -5),
], ids=["checkpoint_steps", "verify_checkpoints", "scan_erdos",
        "power_of_two_ternary", "verify_simulation", "run", "run_trace",
        "classify", "enumerate_and_classify", "decide_cycler",
        "decide_translated_cycler"])
def test_negative_bounds_are_rejected(call):
    with pytest.raises(ValueError, match="natural number"):
        call()


def test_checkpoint_steps_grow_superlinearly():
    previous = checkpoint_steps(0)
    for n in range(1, 200):
        current = checkpoint_steps(n)
        assert current > previous
        assert current >= n
        previous = current


def test_verify_checkpoints_passes(m54):
    report = verify_checkpoints(m54, 50)
    assert report.checked == 51
    assert report.final_step == checkpoint_steps(50)


def test_verify_checkpoints_catches_corruption(m54):
    q = m54.state_index("find_2")
    s = m54.symbol_index("#")
    bad = m54.with_cell(q, s, Transition(s, R, q))
    with pytest.raises(CheckpointMismatch):
        verify_checkpoints(bad, 5)


@pytest.mark.parametrize("state, symbol, cell, message", [
    ("mul2_F", "0", Transition(1, R, 0),
     "n=7: cell 1 holds 1, expected digit 0 of 2^7"),
    ("mul2_F", "#", Transition(1, L, 2), "n=0: cell 1 not blank past 2^0"),
    ("check_halt", "0", Transition(0, R, 3),
     "n=2: counter cell holds 0, expected 1"),
    ("rewind", "#", Transition(2, R, 0), "n=1: separator cell is not blank"),
    ("mul2_F", "0", Transition(0, L, 0), "n=7: head at 1, expected -1"),
    ("mul2_F", "0", Transition(0, R, 2), "n=7: state mul2_F, expected rewind"),
    pytest.param("mul2_F", "0", HALT, "n=7: machine halted before s_n",
                 id="mul2_F-0-cell6-n=7: machine halted before s_n"),
])
def test_verify_checkpoints_reports_the_failed_check(m54, state, symbol,
                                                     cell, message):
    bad = m54.with_cell(m54.state_index(state), m54.symbol_index(symbol),
                        cell)
    with pytest.raises(CheckpointMismatch, match=re.escape(message)):
        verify_checkpoints(bad, 25)


# m54 with five mul2 cells rewritten so that every sweep turns back at
# cell 0: the run is in rewind on the separator with the right counter at
# s_0, s_1 and s_2, but it never visits cell 1, so at s_2 the visited
# cells hold one digit of 2^2 = "11".
_SHORT_SWEEPS = [("mul2_G", "#", Transition(0, L, 2)),
                 ("mul2_F", "0", Transition(1, L, 3)),
                 ("mul2_F", "1", Transition(2, L, 0)),
                 ("mul2_F", "2", Transition(0, L, 0)),
                 ("mul2_F", "#", Transition(3, R, 2))]


def test_verify_checkpoints_reads_unvisited_digits_as_blank(m54):
    """Digits that stop short of their length read as blank, so the
    mismatch names the first unvisited digit cell instead of comparing
    the visited prefix alone, which matches."""
    bad = m54
    for state, symbol, cell in _SHORT_SWEEPS:
        bad = bad.with_cell(bad.state_index(state), bad.symbol_index(symbol),
                            cell)
    message = "n=2: cell 1 holds #, expected digit 1 of 2^2"
    with pytest.raises(CheckpointMismatch, match=re.escape(message)):
        verify_checkpoints(bad, 25)


def test_verify_checkpoints_rejects_a_machine_without_rewind():
    with pytest.raises(ValidationError, match="has no state 'rewind'"):
        verify_checkpoints(machines.builtin_bb5_champion(), 1)


@pytest.mark.parametrize("digit", ["0", "1", "2"])
def test_verify_checkpoints_rejects_a_machine_without_a_digit(m54, digit):
    symbols = tuple("3" if s == digit else s for s in m54.symbols)
    relabelled = tm.MachineTable(m54.name, symbols, m54.blank, m54.states,
                                 m54.init, m54.table)
    with pytest.raises(ValidationError, match=f"has no symbol '{digit}'"):
        verify_checkpoints(relabelled, 1)


# -- alphabets wider than a byte --------------------------------------------


def _widened(m, k=300):
    """`m` with k symbols: the new ones are never written, and their cells,
    never read, write blank and go right into the initial state."""
    symbols = m.symbols + tuple(f"x{i}" for i in range(m.n_symbols, k))
    unread = (Transition(m.blank, R, m.init),) * (k - m.n_symbols)
    table = tuple(row + unread for row in m.table)
    return tm.MachineTable(m.name, symbols, m.blank, m.states, m.init, table)


def _reversed_alphabet(m):
    """`m` with symbol index i renamed k - 1 - i, labels and all: the same
    machine, its symbols moved to the other end of the alphabet."""
    k = m.n_symbols

    def rename(tr):
        return tr if tr is HALT else (k - 1 - tr[0], tr[1], tr[2])

    table = tuple(tuple(map(rename, reversed(row))) for row in m.table)
    return tm.MachineTable(m.name, m.symbols[::-1], k - 1 - m.blank,
                           m.states, m.init, table)


# one state, 300 symbols: the blank cell writes symbol 299
WIDE = _widened(machines.parse_machine(DRIFTER)).with_cell(
    0, 0, Transition(299, R, 0))


def _drifter(wide):
    return WIDE if wide else machines.parse_machine(DRIFTER)


def _m54(wide, fault=None):
    """m54 with the cell (state, symbol) of `fault` replaced by its
    transition, over 300 symbols with its own at 296..299 if `wide`."""
    m = machines.builtin_m54()
    if fault is not None:
        state, symbol, cell = fault
        m = m.with_cell(m.state_index(state), m.symbol_index(symbol), cell)
    return _reversed_alphabet(_widened(m)) if wide else m


def _mismatch(m):
    with pytest.raises(CheckpointMismatch) as exc:
        verify_checkpoints(m, 25)
    return str(exc.value)


def _counts(summary):
    return summary.total, summary.counts, summary.max_steps


@pytest.mark.parametrize("call, expected", [
    (lambda wide: classify(_drifter(wide), 10),
     search.Classification("nonhalt", decider="translated-cycler",
                           certificate=TranslatedCyclerCertificate(1, 2, 1))),
    (lambda wide: decide_cycler(_drifter(wide), 10), None),
    (lambda wide: decide_translated_cycler(_drifter(wide), 10),
     TranslatedCyclerCertificate(1, 2, 1)),
    (lambda wide: _counts(enumerate_and_classify(1, 300 if wide else 3, 10)),
     (3, {"halts": 1, "escape": 0, "cycler": 0, "translated-cycler": 2,
          "undecided": 0}, 1)),
    (lambda wide: verify_checkpoints(_m54(wide), 20),
     search.CheckpointReport(20, checkpoint_steps(20), 21)),
    (lambda wide: _mismatch(_m54(wide, ("mul2_F", "0", Transition(1, R, 0)))),
     "checkpoint n=7: cell 1 holds 1, expected digit 0 of 2^7"),
], ids=["classify", "decide_cycler", "decide_translated_cycler",
        "enumerate-reduced", "verify_checkpoints", "verify_checkpoints-fault"])
def test_symbols_past_a_byte_match_their_narrow_relabelling(call, expected):
    """A table that writes symbols of index 256 or more gets the verdict,
    certificate, enumeration counts and checkpoint report of its narrow
    relabelling (one state over 3 symbols for the enumeration)."""
    assert call(False) == expected
    assert call(True) == expected


def test_wide_alphabets_that_write_narrow_symbols_still_run(m54):
    """300 symbols of which only the first few are ever written: the
    verdicts and the checkpoint check are those of the narrow table."""
    for text in (DRIFTER, PINGPONG):
        narrow = machines.parse_machine(text)
        assert classify(_widened(narrow), 50) == classify(narrow, 50)
    report = verify_checkpoints(_widened(m54), 20)
    assert (report.checked, report.final_step) == (21, checkpoint_steps(20))
    assert tm.run(WIDE, 10).tape.window(0, 9) == (299,) * 10


# -- deciders and certificates ----------------------------------------------


def test_escape_decider():
    m = machines.parse_machine(NO_HALT_REACHABLE, name="no-halt")
    cert = decide_escape(m)
    assert isinstance(cert, EscapeCertificate)
    assert cert.reachable == (0,)
    assert revalidate_certificate(m, cert)


def test_escape_decider_declines_when_halt_reachable():
    assert decide_escape(machines.parse_machine(DRIFTER)) is None


def test_escape_certificate_tampering_rejected():
    m = machines.parse_machine(NO_HALT_REACHABLE, name="no-halt")
    # a set containing the halting state is not closed
    assert not revalidate_certificate(m, EscapeCertificate((0, 1)))
    # a set missing the initial state proves nothing
    assert not revalidate_certificate(m, EscapeCertificate((1,)))


def test_cycler_decider():
    m = machines.parse_machine(PINGPONG, name="pingpong")
    cert = decide_cycler(m, 100)
    assert isinstance(cert, CyclerCertificate)
    assert cert.t1 < cert.t2
    assert revalidate_certificate(m, cert)


def test_cycler_certificate_tampering_rejected():
    m = machines.parse_machine(PINGPONG, name="pingpong")
    cert = decide_cycler(m, 100)
    assert not revalidate_certificate(
        m, CyclerCertificate(cert.t1, cert.t2 + 1))


@pytest.mark.parametrize("cert", [
    CyclerCertificate(0, 0), CyclerCertificate(7, 3), CyclerCertificate(5, 5),
    CyclerCertificate(-2, 2), TranslatedCyclerCertificate(4, 4, 0),
    TranslatedCyclerCertificate(6, 2, 0), TranslatedCyclerCertificate(3, 3, 1),
])
@pytest.mark.parametrize("text", [None, PINGPONG], ids=["champion",
                                                        "pingpong"])
def test_cycler_certificates_need_t1_before_t2(text, cert):
    """With t2 <= t1 no step runs between the two configurations, so the
    check would compare one configuration with itself; such a certificate
    proves nothing, even for the halting champion."""
    m = (machines.builtin_bb5_champion() if text is None
         else machines.parse_machine(text))
    assert not revalidate_certificate(m, cert)


@pytest.mark.parametrize("compact, cert", [
    ("1RB1LB_1LA0LC_---1LD_1RD0RA", TranslatedCyclerCertificate(1, 3, -2)),
    ("1LC0RB_0LD1RA_1RA---_0LE0RE_1LA0LE",
     TranslatedCyclerCertificate(0, 11, -1)),
    ("1RB1LB_1LA0LC_---1LD_1RD0RA", CyclerCertificate(0, 200)),
], ids=["t1-not-a-record", "t2-not-a-record", "t2-past-the-halt"])
def test_cycler_certificates_of_halting_machines_are_rejected(compact, cert):
    """bb4 halts at step 107 and the other machine at step 13, so no
    certificate of either may pass.  The translated ones match state,
    head offset and tape between their ends: only the record check at t1
    rejects the first, and only the one at t2 the second.  The last
    reaches past bb4's halt, where the check stops instead of stepping a
    halted configuration."""
    m = machines.parse_compact(compact)
    assert tm.run(m, 1000).halted
    assert revalidate_certificate(m, cert) is False


def _first_repeat(m, budget):
    """Reference cycler: the first (t1, t2) at which the tm.step
    configuration, keyed by state, head and the set of non-blank cells,
    repeats within `budget` steps, or None if it halts or none does."""
    c = tm.initial_configuration(m)
    seen = {}
    while True:
        key = (c.state, c.head, frozenset(
            (i, s) for i, s in c.tape.cells.items() if s != m.blank))
        if key in seen:
            return seen[key], c.step_count
        seen[key] = c.step_count
        if c.step_count == budget:
            return None
        tm.step(m, c)
        if c.halted:
            return None


def test_cycler_finds_the_first_exact_repeat():
    """decide_cycler against the reference on random tables, with random
    blanks and initial states: the same first repeat, or none."""
    rng = random.Random(5)
    found = 0
    for n, k in ((2, 2), (3, 2), (2, 3)):
        options = _options(n, k)
        for _ in range(600):
            m = _table(n, k, [rng.choice(options) for _ in range(n * k)])
            m = search.MachineTable(m.name, m.symbols, rng.randrange(k),
                                    m.states, rng.randrange(n), m.table)
            expected = _first_repeat(m, 60)
            cert = decide_cycler(m, 60)
            assert (cert and (cert.t1, cert.t2)) == expected, \
                machines.serialize_machine(m)
            found += expected is not None
    assert found >= 60


def _first_translated_repeat(m, budget):
    """Reference translated cycler: the first (t1, t2, offset) the
    matching rule of TranslatedCyclerCertificate accepts within `budget`
    steps of tm.step, or None if it halts or none does.  At each head
    record t2 it tries the earlier records t1 in the same direction with
    the same state, oldest first, and rescans the heads of steps t1+1..t2
    for the farthest opposite excursion."""
    c = tm.initial_configuration(m)
    heads = [0]
    records = []  # (t, direction, state, head, configuration)
    while c.step_count < budget:
        tm.step(m, c)
        if c.halted:
            return None
        t2, p2 = c.step_count, c.head
        earlier = heads[:t2]
        heads.append(p2)
        d = 1 if p2 > max(earlier) else -1 if p2 < min(earlier) else 0
        if not d:
            continue
        for t1, d1, q1, p1, c1 in records:
            if (d1, q1) != (d, c.state):
                continue
            between = heads[t1 + 1:t2 + 1]
            width = max(0, d * p1 - min(d * h for h in between))
            if all(c1.tape.read(p1 - d * j) == c.tape.read(p2 - d * j)
                   for j in range(width + 1)):
                return t1, t2, p2 - p1
        records.append((t2, d, c.state, p2, c.clone()))
    return None


def test_translated_cycler_finds_the_first_translated_repeat():
    """decide_translated_cycler against the reference on random tables,
    with random blanks and initial states, and on bouncers, whose records
    recur with reaches that keep changing: the same first certificate, or
    none."""
    rng = random.Random(6)
    cases = []
    for n, k in ((2, 2), (3, 2), (2, 3)):
        options = _options(n, k)
        for _ in range(600):
            m = _table(n, k, [rng.choice(options) for _ in range(n * k)])
            cases.append((search.MachineTable(
                m.name, m.symbols, rng.randrange(k), m.states,
                rng.randrange(n), m.table), 60))
    cases += [(machines.parse_compact(row), 300) for row, _ in BOUNCERS_2X3]
    cases.append((machines.parse_machine(BOUNCER), 2000))
    found = 0
    for m, budget in cases:
        expected = _first_translated_repeat(m, budget)
        cert = decide_translated_cycler(m, budget)
        assert (cert and (cert.t1, cert.t2, cert.offset)) == expected, \
            machines.serialize_machine(m)
        found += expected is not None
    assert found >= 1400


def test_decider_pass_survivors_have_no_cycler_certificate(monkeypatch):
    """The (3,2) machines that outlast budget 1000 in the decider pass go
    on to the closure search.  On ten of them, spread over all 86, the
    reference detectors find no certificate within that budget either."""
    survivors = []
    closure = search.decide_regular_closure

    def kept(m, **kwargs):
        survivors.append(m)
        return closure(m, **kwargs)

    monkeypatch.setattr(search, "decide_regular_closure", kept)
    enumerate_and_classify(3, 2, 1000)
    assert len(survivors) == 86
    for m in survivors[::9][:10]:
        assert _first_repeat(m, 1000) is None
        assert _first_translated_repeat(m, 1000) is None


def test_cycler_declines_on_halting_machine():
    assert decide_cycler(machines.parse_machine(DRIFTER), 100) is None


def test_translated_cycler_decider():
    m = machines.parse_machine(DRIFTER, name="drifter")
    cert = decide_translated_cycler(m, 100)
    assert isinstance(cert, TranslatedCyclerCertificate)
    assert cert.offset != 0
    assert revalidate_certificate(m, cert)


def test_translated_cycler_tampering_rejected():
    m = machines.parse_machine(DRIFTER, name="drifter")
    cert = decide_translated_cycler(m, 100)
    assert not revalidate_certificate(
        m, TranslatedCyclerCertificate(cert.t1, cert.t2, -cert.offset))


# Two tables from the random draws of
# test_translated_cycler_finds_the_first_translated_repeat, one drifting
# each way, whose certificate compares a window that reaches past the
# cells visited at t1.
_PAST_SNAPSHOT = {
    1: "symbols: 0 1\nblank: 1\nstates: A B\ninit: B\n"
       "A 0 -> 1 R B\nA 1 -> 0 L B\nB 0 -> 0 L B\nB 1 -> 0 R A\n",
    -1: "symbols: 0 1\nblank: 1\nstates: A B\ninit: A\n"
        "A 0 -> 1 L A\nA 1 -> 0 L B\nB 0 -> 0 R A\nB 1 -> 0 R B\n",
}


@pytest.mark.parametrize("d", [1, -1])
def test_translated_cycler_reads_cells_past_a_snapshot_as_blank(d):
    """The window the translated cycler compares may reach past the
    earlier record's snapshot of visited cells; those cells were unvisited
    then, so they read as blank."""
    m = machines.parse_machine(_PAST_SNAPSHOT[d])
    expected = _first_translated_repeat(m, 60)
    cert = decide_translated_cycler(m, 60)
    assert (cert.t1, cert.t2, cert.offset) == expected
    assert cert.offset * d > 0
    # the window, from the record cell at t1 back to the farthest opposite
    # excursion of steps t1+1..t2, against the cells visited at t1
    c = tm.initial_configuration(m)
    heads = [0]
    for _ in range(cert.t1):
        tm.step(m, c)
        heads.append(c.head)
    lo, hi = c.tape.lo, c.tape.hi
    for _ in range(cert.t2 - cert.t1):
        tm.step(m, c)
        heads.append(c.head)
    between = heads[cert.t1 + 1:]
    if d > 0:
        assert min(between) < lo
    else:
        assert max(between) > hi


@pytest.mark.parametrize("d", [1, -1])
def test_translated_cycler_pads_past_a_snapshot_with_a_wide_blank(d):
    """The tables above over 300 symbols, with their two symbols renamed
    299 and 298 (the blank is 298): the window past the earlier snapshot
    pads with that blank, and the certificate is the reference's and the
    narrow table's."""
    narrow = machines.parse_machine(_PAST_SNAPSHOT[d])
    m = _reversed_alphabet(_widened(narrow))
    assert m.blank == 298
    cert = decide_translated_cycler(m, 60)
    assert (cert.t1, cert.t2, cert.offset) == _first_translated_repeat(m, 60)
    assert cert == decide_translated_cycler(narrow, 60)


def test_translated_cycler_checks_the_padding_past_a_snapshot():
    """At step 17 this (3,2) machine breaks a right record in state B, as
    at step 1, two cells further right.  The window reaches from cell -2
    to the record cell 1 at step 1, past the cells 0 and 1 visited then,
    and it agrees with the one at step 17 at the far end (cell 0) and on
    those visited cells (cells 2 and 3).  But cell 1, which faces a padded
    blank, holds a 1 at step 17, so the pair is no certificate, and the
    machine outlasts 1000 steps with none."""
    m = machines.parse_compact("0RB0LA_0LC1RA_1LA---")
    c = tm.initial_configuration(m)
    for _ in range(17):
        tm.step(m, c)
    assert (c.state, c.head) == (1, 3)
    assert [c.tape.read(i) for i in range(4)] == [0, 1, 0, 0]
    assert not revalidate_certificate(m, TranslatedCyclerCertificate(1, 17, 2))
    assert _first_translated_repeat(m, 1000) is None
    assert _fresh_pass(m, 1000) == (None, None)


def _restricted_growth(cells, size: int, k: int, blank: int) -> bool:
    """Reference for the canonical-DFA rule on a row-major table: blank
    maps state 0 to itself, each cell names at most the one state not
    named yet, and each state is named before its row starts."""
    if cells[blank] != 0:
        return False
    used = 1
    for i, v in enumerate(cells):
        if i == used * k or v > used:
            return False
        used = max(used, v + 1)
    return used == size


@pytest.mark.parametrize("k, blank", [(2, 0), (2, 1), (3, 0), (3, 2)])
def test_canonical_dfas_match_a_brute_force_filter(k, blank):
    dfas = search._canonical_dfas(k, blank)
    for size in (1, 2, 3):
        expected = [tuple(tuple(cells[q * k:(q + 1) * k])
                          for q in range(size))
                    for cells in itertools.product(range(size),
                                                   repeat=size * k)
                    if _restricted_growth(cells, size, k, blank)]
        assert list(itertools.islice(dfas, len(expected))) == expected


@pytest.mark.parametrize("k, counts", [(2, [1, 4, 45, 816, 20225]),
                                       (3, [1, 24, 2268])])
def test_canonical_dfa_counts_per_size(k, counts):
    """Fewest states first, with the per-size counts of restricted-growth
    tables; every DFA of these sizes is within the search's limit."""
    first = list(itertools.islice(search._canonical_dfas(k, 0),
                                  sum(counts) + 1))
    sizes = collections.Counter(len(dfa) for dfa in first[:-1])
    assert [sizes[size] for size in range(1, len(counts) + 1)] == counts
    assert [len(dfa) for dfa in first] == sorted(len(dfa) for dfa in first)
    assert len(first[-1]) == len(counts) + 1
    assert sum(counts) <= search._DFA_LIMIT


def test_regular_closure_decider():
    m = machines.parse_machine(BOUNCER, name="bouncer")
    # the cheap deciders genuinely cannot handle this machine
    assert decide_cycler(m, 5000) is None
    assert decide_translated_cycler(m, 5000) is None
    cert = decide_regular_closure(m)
    assert isinstance(cert, RegularClosureCertificate)
    assert revalidate_certificate(m, cert)


def _fresh_pass(m, budget):
    """The decider pass on `m` from the blank tape: its plain verdict and
    its fork."""
    return search._run_deciders(m.table, budget,
                                search._SavedRun.start(m.init, m.blank))


def test_translated_detector_keeps_long_runs_linear():
    """Each record's reach comes from one forward walk per record of a
    stack of the excursions between records, pushed only when a record
    is broken, not from a rescan of the steps since the record.  On a
    2-core Xeon this run takes about 0.1 s; a rescan per record takes
    about 5 s."""
    m = machines.parse_machine(BOUNCER, name="bouncer")
    started = time.perf_counter()
    assert _fresh_pass(m, 32_000) == (None, None)
    assert time.perf_counter() - started < 2.5


def test_decider_pass_raises_a_type_error_off_the_halt_cell():
    """Only unpacking a Halt cell means "halts": a cell whose next state
    is not an int raises its TypeError at the step that indexes with it,
    step 2 here, instead of passing for a halt."""
    cells = (((1, 1, "B"), (1, -1, 0)), ((1, -1, 0), None))
    with pytest.raises(TypeError):
        search._run_deciders(cells, 100, search._SavedRun.start(0, 0))
    cells = (((1, 1, 1), (1, -1, 0)), ((1, -1, 0), None))
    verdict, fork = search._run_deciders(cells, 100,
                                         search._SavedRun.start(0, 0))
    assert verdict == ("halts", 5)
    assert search._classified(verdict) == search.Classification("halts",
                                                                steps=5)
    assert fork.cell == (1, 1)


def test_decider_pass_memory_stays_small():
    """The cycler keeps each step's tape as two ints, and the translated
    cycler copies the visited cells only at head records.  Under Python
    3.11, tracemalloc's peak for this run is 5.0 MiB; a copy of the
    visited cells per step took 13.2 MiB."""
    m = machines.parse_machine(BOUNCER, name="bouncer")
    tracemalloc.start()
    try:
        out = _fresh_pass(m, 32_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == (None, None)
    assert peak < 8 * 2 ** 20


# Eleven (2,3) bouncers that outlast budget 100 and on which none of the
# first 3,000,000 pairs of canonical DFAs of up to 3 states per side
# closes (smallest classes first), with their verdicts.  The last,
# A0->1RB A1->0LB A2->halt B0->2LA B1->halt B2->0RA, stays undecided.
BOUNCERS_2X3 = [
    ("1RB0LB---_1LA2RA1LA", "nonhalt"),
    ("1RB1LB0RA_1LA2RB---", "nonhalt"),
    ("1RB2LA---_1LA1RA0LB", "nonhalt"),
    ("1RB2LA1RB_1LA---1RA", "nonhalt"),
    ("1RB2LA0LA_1LA---2RA", "nonhalt"),
    ("1RB2LB1RB_1LA0RA---", "nonhalt"),
    ("1RB2LA---_1LB1RA0LB", "nonhalt"),
    ("1RB0LB---_2LA2LA1RA", "nonhalt"),
    ("1RB2LB1RB_2LA---0RA", "nonhalt"),
    ("1RB---0RB_2LB2LA0RA", "nonhalt"),
    ("1RB0LB---_2LA---0RA", "undecided"),
]


@pytest.mark.parametrize("row, status", BOUNCERS_2X3)
def test_2x3_bouncers(row, status):
    m = machines.parse_compact(row)
    out = classify(m, 100)
    assert out.status == status
    if status == "nonhalt":
        assert out.decider == "escape"
        assert isinstance(out.certificate, RegularClosureCertificate)
        assert revalidate_certificate(m, out.certificate)


# Brady's 4-state champion: halts at step 107.
BB4 = """\
symbols: 0 1
blank: 0
states: A B C D
init: A
A 0 -> 1 R B
A 1 -> 1 L B
B 0 -> 1 L A
B 1 -> 0 L C
C 0 -> halt
C 1 -> 1 L D
D 0 -> 1 R D
D 1 -> 0 R A
"""


def test_closure_probe_runs_on_its_own():
    """The closure search runs its own halting probe from the blank tape,
    so classify's verdict is the search's alone at any budget: a run past
    the probe length goes straight to the search, and a halt after the
    budget but within the probe still blocks a certificate."""
    bouncer = machines.parse_machine(BOUNCER, name="bouncer")
    cert = decide_regular_closure(bouncer)
    for budget in (10, 5000):
        out = classify(bouncer, budget)
        assert out.decider == "escape" and out.certificate == cert
    bb4 = machines.parse_machine(BB4, name="bb4")
    assert tm.run(bb4, 1000).step_count == 107
    assert decide_regular_closure(bb4) is None
    assert classify(bb4, 50).status == "undecided"


def test_regular_closure_tampering_rejected():
    m = machines.parse_machine(BOUNCER, name="bouncer")
    cert = decide_regular_closure(m)
    # dropping any accepted quadruple breaks closure or the initial entry
    pruned = RegularClosureCertificate(cert.left_dfa, cert.right_dfa,
                                       cert.accepted[1:])
    assert not revalidate_certificate(m, pruned)
    # rewiring a DFA edge invalidates the step axioms
    dfa = list(map(list, cert.left_dfa))
    dfa[0][1] = (dfa[0][1] + 1) % len(dfa)
    rewired = RegularClosureCertificate(tuple(map(tuple, dfa)),
                                        cert.right_dfa, cert.accepted)
    assert not revalidate_certificate(m, rewired)


def test_regular_closure_certificate_never_accepts_halting_cell():
    m = machines.parse_machine(BOUNCER, name="bouncer")
    cert = decide_regular_closure(m)
    halting = {(q, s) for q in range(m.n_states) for s in range(m.n_symbols)
               if m.transition(q, s) is HALT}
    assert halting
    assert all((q, s) not in halting for _, q, s, _ in cert.accepted)


def test_regular_closure_rejected_where_an_accepted_cell_halts():
    """Every closure certificate accepts the initial cell (A, 0).  On the
    bouncer's table with that cell set to Halt, its certificate is
    rejected, not stepped through the Halt cell."""
    m = machines.parse_machine(BOUNCER, name="bouncer")
    cert = decide_regular_closure(m)
    assert revalidate_certificate(m, cert)
    halting = m.with_cell(m.init, m.blank, HALT)
    assert revalidate_certificate(halting, cert) is False


@pytest.mark.parametrize("text, malform", [
    (BOUNCER, lambda c: RegularClosureCertificate(((),), c.right_dfa,
                                                  c.accepted)),
    (BOUNCER, lambda c: RegularClosureCertificate(
        c.left_dfa, c.right_dfa, c.accepted + ((0, 0, 0),))),
    (BOUNCER, lambda c: RegularClosureCertificate(c.left_dfa, c.right_dfa,
                                                  None)),
    (NO_HALT_REACHABLE, lambda c: EscapeCertificate(c.reachable + (99,))),
    (NO_HALT_REACHABLE, lambda c: EscapeCertificate(None)),
    (PINGPONG, lambda c: None),
    (PINGPONG, lambda c: CyclerCertificate(0.5, 3)),
    (DRIFTER, lambda c: TranslatedCyclerCertificate(c.t1, c.t2, "1")),
], ids=["closure-empty-dfa-row", "closure-short-quadruple",
        "closure-no-accepted", "escape-unknown-state", "escape-no-states",
        "none", "cycler-fractional-step", "translated-text-offset"])
def test_malformed_certificates_revalidate_false(text, malform):
    """The checker rejects a certificate whose fields have the wrong shape
    instead of raising, and still accepts the well-formed one it was made
    from."""
    m = machines.parse_machine(text)
    cert = classify(m, 100).certificate
    assert revalidate_certificate(m, cert)
    assert revalidate_certificate(m, malform(cert)) is False


def test_classify_statuses():
    halter = machines.parse_machine(
        DRIFTER.replace("A 0 -> 1 R A", "A 0 -> 1 L A"), name="left-halter")
    # moving left onto fresh blanks forever: classified without halting
    assert classify(halter, 100).status == "nonhalt"
    drift = classify(machines.parse_machine(DRIFTER), 100)
    assert drift.status == "nonhalt"
    assert drift.decider == "translated-cycler"
    ping = classify(machines.parse_machine(CYCLER), 100)
    assert ping.decider == "cycler"
    closed = classify(machines.parse_machine(NO_HALT_REACHABLE), 100)
    assert closed.decider == "escape"
    bounce = classify(machines.parse_machine(BOUNCER), 1000)
    assert bounce.status == "nonhalt"
    assert bounce.decider == "escape"


def test_classify_halting_machine():
    m = machines.parse_machine(PINGPONG.replace("B 1 -> 0 L A",
                                                "B 1 -> halt"))
    out = classify(m, 100)
    assert out.status == "halts"
    assert out.steps is not None


def _options(n: int, k: int):
    return [HALT] + [Transition(w, m, q) for w in range(k)
                     for m in ("L", "R") for q in range(n)]


def _table(n: int, k: int, cells) -> search.MachineTable:
    return search.MachineTable(name="rnd",
                               symbols=tuple(str(s) for s in range(k)),
                               blank=0, states=tuple("ABCD"[:n]), init=0,
                               table=tuple(tuple(cells[q * k:(q + 1) * k])
                                           for q in range(n)))


def _assert_halts_like_tm_run(m, out, budget):
    if out.status == "halts":
        run = tm.run(m, budget)
        assert (run.halted, run.step_count) == (True, out.steps), \
            machines.serialize_machine(m)


def test_random_sample_certificates_all_revalidate():
    rng = random.Random(99)
    for n, k in ((3, 2), (2, 3), (4, 2)):
        options = _options(n, k)
        for _ in range(150):
            m = _table(n, k, [rng.choice(options) for _ in range(n * k)])
            out = classify(m, 500)
            _assert_halts_like_tm_run(m, out, 500)
            if out.certificate is not None:
                assert revalidate_certificate(m, out.certificate), \
                    machines.serialize_machine(m)


def test_raw_enumeration_agrees_with_classify():
    """Both entry points run the same decider pipeline, so tallying
    classify over the raw (2,2) space reproduces the enumerator's counts,
    which count plain verdicts, at budgets 100 and 1000."""
    for budget in (100, 1000):
        tally = dict.fromkeys(("halts", "escape", "cycler",
                               "translated-cycler", "undecided"), 0)
        for cells in itertools.product(_options(2, 2), repeat=4):
            m = _table(2, 2, cells)
            out = classify(m, budget)
            _assert_halts_like_tm_run(m, out, budget)
            tally[out.decider or out.status] += 1
        if budget == 100:
            assert tally == {"halts": 1165, "escape": 4368, "cycler": 44,
                             "translated-cycler": 984, "undecided": 0}
        summary = enumerate_and_classify(2, 2, budget, reduced=False)
        assert summary.counts == tally


@pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_decider_pass_verdicts_build_classify_results(n, k):
    """On seeded random complete tables, with a random initial state,
    blank and budget, the Classification that search._classified builds
    from the decider pass's plain verdict is classify's result wherever
    the state graph does not escape.  Where it escapes, the pass gives no
    halt; where the pass reaches the budget, classify's result is the
    closure search's.  A non-halt verdict's tag names its certificate's
    class and its fields are the certificate's; every non-halt
    certificate revalidates, and every halt's step count is tm.run's."""
    rng = random.Random(f"plain verdicts {n}x{k}")
    options = _options(n, k)
    seen = collections.Counter()
    for _ in range(300):
        cells = [rng.choice(options) for _ in range(n * k)]
        if rng.random() < 0.5:  # else most tables escape
            cells[rng.randrange(n * k)] = HALT
        m = _table(n, k, cells)
        m = search.MachineTable(m.name, m.symbols, rng.randrange(k),
                                m.states, rng.randrange(n), m.table)
        budget = rng.randrange(400)
        verdict, fork = search._run_deciders(
            m.table, budget, search._SavedRun.start(m.init, m.blank))
        built, expected = search._classified(verdict), classify(m, budget)
        if decide_escape(m) is not None:
            assert isinstance(expected.certificate, EscapeCertificate)
            assert fork is None and (built is None or built.steps is None)
        elif built is None:
            assert expected.status == "undecided" or isinstance(
                expected.certificate, RegularClosureCertificate)
        else:
            assert built == expected, machines.serialize_machine(m)
        if built is not None and built.status == "nonhalt":
            kind = {"cycler": CyclerCertificate,
                    "translated-cycler": TranslatedCyclerCertificate}
            assert type(built.certificate) is kind[verdict[0]]
            assert built.decider == verdict[0]
            assert dataclasses.astuple(built.certificate) == verdict[1:]
        for out in (built, expected):
            if out is not None and out.status == "nonhalt":
                assert revalidate_certificate(m, out.certificate)
        _assert_halts_like_tm_run(m, expected, budget)
        seen[expected.decider or expected.status] += 1
    assert seen["halts"] and seen["escape"]
    assert seen["cycler"] + seen["translated-cycler"]


def test_classify_lines_are_pinned():
    """classify's status, steps, decider and certificate over the raw (2,2)
    space and over random tables in five more spaces, pinned by two
    digests.  The first shortens each closure certificate to its class
    name, so it pins the verdicts whichever DFAs the closure search
    picks; the second covers the full lines.  Every closure certificate
    revalidates."""
    cases = [(_table(2, 2, cells), 100)
             for cells in itertools.product(_options(2, 2), repeat=4)]
    rng = random.Random(7)
    for n, k in ((3, 2), (4, 2), (2, 3), (3, 3), (2, 4)):
        options = _options(n, k)
        for i in range(300):
            cells = [rng.choice(options) for _ in range(n * k)]
            cells[rng.randrange(n * k)] = HALT
            m = _table(n, k, cells)
            if i % 4 == 0:  # a random blank symbol and initial state
                m = search.MachineTable(m.name, m.symbols, rng.randrange(k),
                                        m.states, rng.randrange(n), m.table)
            cases.append((m, (10, 100, 300)[i % 3]))
    lines, verdicts = [], []
    for m, budget in cases:
        out = classify(m, budget)
        cert = out.certificate
        verdict = f"{out.status} {out.steps} {out.decider}"
        lines.append(f"{verdict} {cert!r}")
        if isinstance(cert, RegularClosureCertificate):
            assert revalidate_certificate(m, cert), \
                machines.serialize_machine(m)
            verdicts.append(f"{verdict} {type(cert).__name__}")
        else:
            verdicts.append(lines[-1])

    def digest(texts):
        return hashlib.sha256("\n".join(texts).encode()).hexdigest()

    assert digest(verdicts) == ("5a5f56e3e05063b45e425ccf1ba8db2a"
                                "63cb8909d9a3c4e9265ca5ae9bc5b884")
    assert digest(lines) == ("65d0e1e67f03c30e7af6d59b54598005"
                             "1a13955fc13470a6a26e4342928ba09d")


# -- enumeration --------------------------------------------------------------


def test_enumerate_one_state():
    summary = enumerate_and_classify(1, 2, 10)
    assert summary.max_steps == 1
    assert summary.confirmed


def test_enumerate_2x2_reduced_and_raw_agree():
    reduced = enumerate_and_classify(2, 2, 100)
    raw = enumerate_and_classify(2, 2, 100, reduced=False)
    assert reduced.max_steps == raw.max_steps == 6
    assert reduced.counts == {"halts": 19, "escape": 88, "cycler": 6,
                              "translated-cycler": 36, "undecided": 0}
    assert reduced.confirmed and raw.confirmed
    assert raw.total == (2 * 2 * 2 + 1) ** 4
    assert sum(raw.counts.values()) == raw.total


def test_enumerate_2x3_leaves_one_bouncer():
    summary = enumerate_and_classify(2, 3, 100)
    assert (summary.total, summary.max_steps) == (10_897, 38)
    # the pass resumes each child from its parent's halt; from the blank
    # tape it took 42,681 steps
    assert summary.decider_pass_steps == 26_353
    assert summary.counts == {"halts": 909, "escape": 8_049, "cycler": 216,
                              "translated-cycler": 1_722, "undecided": 1}
    assert [m.table for m in summary.undecided] == [
        machines.parse_compact(BOUNCERS_2X3[-1][0]).table]


@pytest.mark.parametrize("n, k, budget, reduced, expected", [
    (2, 2, 100, True, "7209bdc5847131ff903b6210bcf60652"
                      "552a4719c81fbd6b766985d83263f727"),
    (2, 2, 100, False, "b689fd25896f7712eae368ff7876b2bd"
                       "75af8ee1e7ed41a139a150c257a223d4"),
    (3, 2, 1000, True, "a4243208ba2f345185a95308997f24bf"
                       "2d6bcbfac9233490fade4c58ec663ee3"),
    (2, 3, 100, True, "4005e2c121985dec83946593481ad3a8"
                      "d0429cf4edf93aae73e83320ffda89ab"),
], ids=["2x2", "2x2-raw", "3x2", "2x3"])
def test_enumeration_outputs_are_pinned(n, k, budget, reduced, expected):
    """The whole summary, champions and undecided machines in their order
    included, pinned by the digest of its sorted-key JSON."""
    summary = enumerate_and_classify(n, k, budget, reduced=reduced)
    text = json.dumps(summary.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == expected


@pytest.mark.parametrize("n, k, budget, reduced", [
    (2, 2, 3, True), (2, 2, 100, False), (3, 2, 1000, True)])
def test_enumeration_counters_match_the_calls(monkeypatch, n, k, budget,
                                              reduced):
    """The summary reads its decider-pass and closure counters off the
    verdicts and the step each pass started at; they match counts taken
    by wrapping the calls."""
    calls = collections.Counter()
    run_deciders = search._run_deciders
    closure = search.decide_regular_closure

    def counted_run(cells, budget, saved):
        verdict, fork = run_deciders(cells, budget, saved)
        calls["runs"] += 1
        cls = search._classified(verdict)
        end = (budget if cls is None else
               cls.steps if cls.status == "halts" else cls.certificate.t2)
        calls["steps"] += end - saved.t + 1
        return verdict, fork

    def counted_closure(m):
        cert = closure(m)
        calls["searches"] += 1
        calls["decided"] += cert is not None
        return cert

    monkeypatch.setattr(search, "_run_deciders", counted_run)
    monkeypatch.setattr(search, "decide_regular_closure", counted_closure)
    summary = enumerate_and_classify(n, k, budget, reduced=reduced)
    assert (summary.decider_pass_runs, summary.decider_pass_steps,
            summary.closure_searches, summary.closure_decided) == (
        calls["runs"], calls["steps"], calls["searches"], calls["decided"])
    assert summary.decider_pass_runs > 0
    assert summary.closure_decided <= summary.counts["escape"]


@pytest.mark.parametrize("n, k, budget, reduced, steps", [
    (3, 2, 1000, True, 103_173), (2, 2, 1000, True, 153),
    (2, 2, 1000, False, 4_281)], ids=["3x2", "2x2", "2x2-raw"])
def test_decider_pass_steps_are_pinned(n, k, budget, reduced, steps):
    """The steps the decider pass simulated.  A tree-normal-form child
    resumes from its parent's halt and counts only the steps from there
    on; the raw enumerator runs every table from the blank tape.  Run
    from the blank tape, the two reduced spaces take 128,001 and 257
    steps.  test_enumerate_2x3_leaves_one_bouncer pins (2,3)."""
    summary = enumerate_and_classify(n, k, budget, reduced=reduced)
    assert summary.decider_pass_steps == steps


@pytest.mark.parametrize("n, k, budget", [(3, 2, 1000), (2, 3, 100)])
def test_escapes_per_target_state_match_each_branch(monkeypatch, n, k,
                                                    budget):
    """At every branch point of the tree the escape check runs once per
    target state on the parent's cells and returns the targets whose
    branches escape.  decide_escape on each branch built in full,
    whatever it writes and wherever it moves, gives a certificate exactly
    for the branches into those targets, the same one for every branch
    into a target, and each certificate revalidates on its branch."""
    branch_points = []
    escapes_into = search._escapes_into

    def kept(cells, q, sym, targets):
        escaping = escapes_into(cells, q, sym, targets)
        branch_points.append((cells, q, sym, targets, escaping))
        return escaping

    monkeypatch.setattr(search, "_escapes_into", kept)
    summary = enumerate_and_classify(n, k, budget)
    # every halt is on a cell not chosen yet, so every halting node branches
    assert len(branch_points) == summary.counts["halts"]
    escaped = 0
    for cells, q, sym, targets, escaping in branch_points:
        m = search._space_table(n, k, cells)
        assert m.table[q][sym] is HALT
        assert set(escaping) <= set(targets)
        for q2 in targets:
            certs = set()
            for w in range(k):
                for move in (L, R):
                    branch = m.with_cell(q, sym, Transition(w, move, q2))
                    cert = decide_escape(branch)
                    assert (cert is not None) == (q2 in escaping)
                    if cert is not None:
                        assert revalidate_certificate(branch, cert)
                    certs.add(cert)
            assert len(certs) == 1
            escaped += q2 in escaping
    assert escaped > 0


@pytest.mark.parametrize("n, k, budget", [(3, 2, 1000), (2, 3, 100)])
def test_resumed_children_match_fresh_runs(monkeypatch, n, k, budget):
    """Every tree-normal-form node that resumes from its parent's fork
    gives what a pass from the blank tape gives on its whole table: the
    same verdict (status, steps, decider and certificate) and the same
    fork, halting cell included.  Run again after the enumeration, each
    node's children in reverse order, from the forks they shared, they
    give the same verdicts, so no child changed its fork.  Every
    certificate of a pass's verdict (built by search._classified) and of
    a closure search revalidates on its table."""
    run_deciders = search._run_deciders
    closure = search.decide_regular_closure
    children = collections.defaultdict(list)  # id(fork) -> runs
    forks = {}
    checked = collections.Counter()

    def revalidated(m, cert):
        if cert is not None:
            assert revalidate_certificate(m, cert)
            checked["certificates"] += 1

    def compared(cells, budget, saved):
        verdict, fork = run_deciders(cells, budget, saved)
        cls = search._classified(verdict)
        revalidated(search._space_table(n, k, cells), cls and cls.certificate)
        if saved.t > 1:
            fresh = run_deciders(cells, budget, search._SavedRun.start(0, 0))
            assert (verdict, fork) == fresh
            assert (fork and fork.cell) == (fresh[1] and fresh[1].cell)
            children[id(saved)].append((cells, verdict, fork))
            forks[id(saved)] = saved
            checked["resumed"] += 1
        return verdict, fork

    def searched(m):
        cert = closure(m)
        revalidated(m, cert)
        return cert

    monkeypatch.setattr(search, "_run_deciders", compared)
    monkeypatch.setattr(search, "decide_regular_closure", searched)
    enumerate_and_classify(n, k, budget)
    assert checked["resumed"] > 0 and checked["certificates"] > 0
    for key, runs in children.items():
        for cells, verdict, fork in reversed(runs):
            assert run_deciders(cells, budget, forks[key]) == (verdict, fork)


def test_enumerate_records_champions():
    summary = enumerate_and_classify(2, 2, 100)
    assert summary.champions
    for champ in summary.champions:
        out = classify(champ, 100)
        assert out.status == "halts" and out.steps == 6
    d = summary.to_dict()
    assert d["max_steps"] == 6 and d["confirmed"] is True
    assert isinstance(d["champions"][0], str)


def test_enumerate_starved_budget_is_honest():
    """With too small a budget, halting machines past the horizon must be
    reported undecided, never guessed."""
    summary = enumerate_and_classify(2, 2, 3)
    assert summary.counts["undecided"] > 0
    assert not summary.confirmed
    assert summary.undecided  # the machines themselves are kept


def test_raw_enumeration_past_a_byte_meets_the_candidate_guard():
    """Symbols of index 256 or more are no input error, but one state over
    300 symbols is far past the raw candidate-count guard."""
    with pytest.raises(SpaceTooLarge):
        enumerate_and_classify(1, 300, 10, reduced=False)


def test_enumerate_guard_and_validation():
    with pytest.raises(SpaceTooLarge):
        enumerate_and_classify(4, 2, 10, reduced=False)
    with pytest.raises(ValueError):
        enumerate_and_classify(0, 2, 10)
    with pytest.raises(ValueError):
        enumerate_and_classify(1, 1, 10)
