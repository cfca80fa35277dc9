"""Checkpoint schedule, non-halt deciders, certificates, enumeration."""

import collections
import hashlib
import itertools
import random
import re
import time
from types import SimpleNamespace

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
], ids=["checkpoint_steps", "verify_checkpoints", "scan_erdos",
        "power_of_two_ternary", "verify_simulation"])
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


@pytest.mark.parametrize("d", [1, -1])
def test_translated_detector_reads_cells_past_a_snapshot_as_blank(d):
    """The window the detector compares may reach past the earlier
    record's tape list; those cells were unvisited then, so they read as
    blank.  Records fed by hand, drifting in direction d: head d*1 at
    t=1, an excursion to -d*4 at t=2, head d*5 at t=3."""
    def feed(detector, t, head, state, cells, first):
        # `cells` lists the tape from cell `first` on
        return detector.on_step(SimpleNamespace(
            pos=head - first, origin=-first, steps=t, state=state),
            bytes(cells))

    def detect(later):
        detector = search._TranslatedDetector(b"\0")
        # the list at t=1 holds cells -1..2 (or -2..1) with a 1 at cell 0,
        # while the window at t=3 reaches cells -4..1 (or -1..4)
        assert feed(detector, 1, d, 0, [0, 1, 0, 0] if d > 0 else
                    [0, 0, 1, 0], -1 if d > 0 else -2) is None
        assert feed(detector, 2, -4 * d, 1, [0] * 10, -5) is None
        return feed(detector, 3, 5 * d, 0, later, -6)

    # cells -6..5 at t=3; shifted by 4*d, the window holds the 1 at 4*d
    later = [0] * 12
    later[4 * d + 6] = 1
    assert detect(later) == TranslatedCyclerCertificate(1, 3, 4 * d)
    later[2 * d + 6] = 1
    assert detect(later) is None


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


def test_translated_detector_keeps_long_runs_linear():
    """Each record's reach comes from suffix minima and maxima of the
    head, not from a rescan of the steps since the record.  On a 2-core
    Xeon this run takes about 0.5 s; a rescan per record takes about 5 s."""
    m = machines.parse_machine(BOUNCER, name="bouncer")
    started = time.perf_counter()
    run = search._run_deciders(m, 32_000)
    assert run.steps == 32_000 and not run.halted
    assert time.perf_counter() - started < 2.5


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


def test_closure_probe_continues_the_bounded_run():
    """classify hands its stopped run to the closure search, whose halting
    probe goes on from there: a run past the probe length goes straight
    to the search, and a halt after the budget but within the probe
    still blocks a certificate."""
    bouncer = machines.parse_machine(BOUNCER, name="bouncer")
    probe = search._run_deciders(bouncer, 10)
    assert probe.steps == 10
    cert = decide_regular_closure(bouncer, probe=probe)
    assert probe.steps == search._PROBE_STEPS
    assert cert == decide_regular_closure(bouncer)
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
    classify over the raw (2,2) space reproduces the enumerator's counts."""
    tally = dict.fromkeys(("halts", "escape", "cycler", "translated-cycler",
                           "undecided"), 0)
    for cells in itertools.product(_options(2, 2), repeat=4):
        m = _table(2, 2, cells)
        out = classify(m, 100)
        _assert_halts_like_tm_run(m, out, 100)
        tally[out.decider or out.status] += 1
    assert tally == {"halts": 1165, "escape": 4368, "cycler": 44,
                     "translated-cycler": 984, "undecided": 0}
    assert enumerate_and_classify(2, 2, 100, reduced=False).counts == tally


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
    assert summary.counts == {"halts": 909, "escape": 8_049, "cycler": 216,
                              "translated-cycler": 1_722, "undecided": 1}
    assert [m.table for m in summary.undecided] == [
        machines.parse_compact(BOUNCERS_2X3[-1][0]).table]


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


def test_enumerate_guard_and_validation():
    with pytest.raises(SpaceTooLarge):
        enumerate_and_classify(4, 2, 10, reduced=False)
    with pytest.raises(ValueError):
        enumerate_and_classify(0, 2, 10)
    with pytest.raises(ValueError):
        enumerate_and_classify(1, 1, 10)
