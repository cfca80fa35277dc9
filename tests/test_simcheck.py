"""Lockstep verification of the 2-symbol machine against the 4-symbol one."""

import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from bblab import machines, simcheck, tm
from bblab.errors import OutOfRange, UndefinedCost, UnknownKey, ValidationError
from bblab.simcheck import (DEFAULT_ENCODING, K, Encoding, head_map,
                            state_map_h, step_cost, verify_simulation)
from bblab.tm import HALT, L, R, Transition


@pytest.fixture(scope="module")
def big():
    return machines.builtin_m152()


@pytest.fixture(scope="module")
def small():
    return machines.builtin_m54()


@pytest.fixture(scope="module")
def transcript(big, small):
    return verify_simulation(big, small, DEFAULT_ENCODING, 1000)


def test_encoding_must_be_injective_fixed_width():
    with pytest.raises(ValidationError):
        Encoding({"#": "bb", "0": "bb", "1": "ab", "2": "aa"})
    with pytest.raises(ValidationError):
        Encoding({"#": "bb", "0": "b", "1": "ab", "2": "aa"})


def test_state_map(small):
    assert state_map_h(("mul2_F", R)) == "mul2_F_sim"
    assert state_map_h(("rewind", R)) == "rewind_b"
    with pytest.raises(UnknownKey):
        state_map_h(("mul2_F", L))  # mul2 states are only entered rightward


def test_head_map():
    assert head_map(0, R) == 0
    assert head_map(0, L) == 1
    assert head_map(-1, L) == -1
    assert head_map(3, R) == 6


def test_step_cost_table():
    assert step_cost(("mul2_G", R), "1") == 4
    assert step_cost(("check_halt", L), "1") == 1
    with pytest.raises(UnknownKey):
        step_cost(("find_2", R), "0")
    with pytest.raises(UndefinedCost):
        step_cost(("rewind", R), "1")  # rewind enters rightward only on blank


def test_verification_passes_to_1000(transcript):
    assert transcript.ok
    assert transcript.status == "verified"
    assert transcript.n_verified == 1000
    assert "verified" in transcript.summary()


def test_time_scale_values(transcript):
    assert transcript.time_scale(0) == 0
    assert transcript.time_scale(5) == 10
    assert transcript.time_scale(9) == 19
    assert transcript.time_scale(16) == 35
    assert transcript.time_scale(17) == 38
    assert transcript.time_scale(333) == 741


def test_time_scale_is_strictly_increasing(transcript):
    f = transcript.f
    assert all(int(f[i]) < int(f[i + 1]) for i in range(len(f) - 1))


def test_time_scale_out_of_range(transcript):
    with pytest.raises(OutOfRange):
        transcript.time_scale(1001)
    with pytest.raises(OutOfRange):
        transcript.time_scale(-1)


def test_argument_validation(big, small):
    with pytest.raises(ValidationError):
        verify_simulation(small, small, DEFAULT_ENCODING, 10)  # big not binary
    with pytest.raises(ValidationError):
        verify_simulation(big, big, DEFAULT_ENCODING, 10)  # encoding not total


def test_encoding_block_other_than_two_is_rejected():
    with pytest.raises(ValidationError):
        Encoding({"#": "bbb", "0": "bab", "1": "abb", "2": "aab"})


def test_small_without_a_keyed_state_is_rejected(big):
    one_state = tm.MachineTable("one", ("#", "0", "1", "2"), 0, ("A",), 0,
                                ((HALT,) * 4,))
    with pytest.raises(ValidationError, match="small machine has no state "
                                              "'mul2_F'"):
        verify_simulation(big, one_state, DEFAULT_ENCODING, 10)


def test_big_without_a_mapped_state_is_rejected(big, small):
    states = tuple("renamed" if q == "rewind_b" else q for q in big.states)
    renamed = tm.MachineTable(big.name, big.symbols, big.blank, states,
                              big.init, big.table)
    with pytest.raises(ValidationError, match="big machine has no state "
                                              "'rewind_b'"):
        verify_simulation(renamed, small, DEFAULT_ENCODING, 10)


def test_small_without_a_costed_symbol_is_rejected(big, small):
    symbols = tuple("3" if s == "2" else s for s in small.symbols)
    relabelled = tm.MachineTable(small.name, symbols, small.blank,
                                 small.states, small.init, small.table)
    enc = Encoding({"#": "bb", "0": "ba", "1": "ab", "3": "aa"})
    with pytest.raises(ValidationError, match="small machine has no symbol "
                                              "'2'"):
        verify_simulation(big, relabelled, enc, 10)


@pytest.mark.parametrize("words", [
    {"#": "bb", "0": "bx", "1": "ab", "2": "aa"},   # a label big lacks
    {"#": "bb", "0": "ba", "1": "ab", "3": "aa"},   # a label small lacks
])
def test_encoding_label_a_machine_lacks_is_rejected(big, small, words):
    with pytest.raises(ValidationError):
        verify_simulation(big, small, Encoding(words), 10)


def test_corrupted_big_cell_is_detected(big, small):
    """Misdirecting an exercised transition derails the coupling quickly."""
    q = big.state_index("rewind_sim")
    w, d, q2 = big.transition(q, 0)
    bad = big.with_cell(q, 0, (1 - w, d, q2))
    out = verify_simulation(bad, small, DEFAULT_ENCODING, 1000)
    assert not out.ok
    assert out.status == "mismatch"
    assert out.mismatch["n"] <= 1000
    assert "expected" in out.summary()
    assert out.mismatch == {"n": 23, "f": 51, "kind": "tape cell 0",
                            "expected": "aa", "actual": "ab"}
    assert out.n_verified == 22


def test_corrupted_next_state_is_detected(big, small):
    q = big.state_index("mul2_F_sim")
    w, d, _ = big.transition(q, 0)
    bad = big.with_cell(q, 0, (w, d, big.state_index("rewind_b")))
    out = verify_simulation(bad, small, DEFAULT_ENCODING, 1000)
    assert not out.ok
    assert out.mismatch == {"n": 7, "f": 14, "kind": "tape cell 0",
                            "expected": "aa", "actual": "ab"}


def test_premature_big_halt_breaks_halting_synchrony(big, small):
    q = big.state_index("mul2_G_sim")
    bad = big.with_cell(q, 0, HALT)
    out = verify_simulation(bad, small, DEFAULT_ENCODING, 1000)
    assert not out.ok
    assert out.mismatch["kind"] == "halting-synchrony"
    assert out.mismatch == {"n": 26, "f": 57, "kind": "halting-synchrony",
                            "expected": "big still running",
                            "actual": "big halted at micro-step 1"}


def test_small_halting_without_big_is_detected(big, small):
    """If the simulated machine halts but the simulator keeps running, the
    halting-synchrony check fires at that step."""
    q = small.state_index("check_halt")
    bad_small = small.with_cell(q, small.symbol_index("0"), HALT)
    out = verify_simulation(big, bad_small, DEFAULT_ENCODING, 1000)
    assert not out.ok
    assert out.mismatch["kind"] == "halting-synchrony"
    assert out.mismatch == {"n": 17, "f": 38, "kind": "halting-synchrony",
                            "expected": "big halts at micro-step 3",
                            "actual": "big still running"}
    # the arrays stop at the mismatch step, which was never recorded
    assert len(out.f) == 18 and out.f[17] == 0


def test_time_scale_stops_before_an_unrecorded_mismatch_step(big, small):
    """Small halts at step 17 without big, so step 17 is never recorded:
    its f entry is a 0 placeholder, and time_scale covers 0..16 only."""
    q = small.state_index("check_halt")
    bad_small = small.with_cell(q, small.symbol_index("0"), HALT)
    out = verify_simulation(big, bad_small, DEFAULT_ENCODING, 1000)
    assert (out.n_verified, out.unrecorded) == (16, True)
    assert out.time_scale(16) == 35
    with pytest.raises(OutOfRange, match=r"^step 17 beyond verified range "
                                         r"0\.\.16$"):
        out.time_scale(17)


def test_halting_at_different_micro_steps_is_detected(big, small):
    """Small halts at step 17 and big halts at the first of the three
    micro-steps that step costs (big step 36)."""
    q = small.state_index("check_halt")
    bad_small = small.with_cell(q, small.symbol_index("0"), HALT)
    bad_big = big.with_cell(big.state_index("check_halt_sim"), 0, HALT)
    out = verify_simulation(bad_big, bad_small, DEFAULT_ENCODING, 1000)
    assert out.mismatch == {"n": 17, "f": 36, "kind": "halting-synchrony",
                            "expected": "big halts at micro-step 3",
                            "actual": "big halted at micro-step 1"}


def test_machines_halting_together_are_both_halted(big, small):
    """Small halts at step 4 on check_halt reading #, and big halts at the
    last micro-step that step costs: the run ends verified, both-halted,
    with the same transcript as the reference lockstep at every bound."""
    bad_small = small.with_cell(small.state_index("check_halt"),
                                small.symbol_index("#"), HALT)
    bad_big = big.with_cell(big.state_index("check_halt_sim"),
                            big.symbol_index("b"), HALT)
    out = verify_simulation(bad_big, bad_small, DEFAULT_ENCODING, 1000)
    assert (out.status, out.n_verified, out.ok) == ("both-halted", 4, True)
    assert out.summary() == "both-halted to n = 4, f(4) = 9"
    for n_max in (3, 4, 5, 2000):
        _assert_matches_reference(bad_big, bad_small, n_max)


def _configuration(state, head, cells, blank):
    """A tm.Configuration in `state` with the head at `head` and the tape
    holding `cells`, a dict of cell -> symbol index, the head cell among
    its keys."""
    tape = tm.Tape(blank)
    tape.cells = dict(cells)
    tape.lo, tape.hi = min(cells), max(cells)
    return tm.Configuration(state, head, tape)


def _halting_start(small):
    """m54 in rewind on the separator, cell -1, with counter 2 at cell -2
    and the number 2 at cell 0: it doubles 2 to 4, "11" in ternary, finds
    no digit 2, and halts in check_halt on the counter's 2."""
    two, blank = small.symbol_index("2"), small.blank
    return {-2: two, -1: blank, 0: two}


def test_m54_halts_where_a_power_has_no_digit_2(small):
    """The paper's halting direction, which no run from the blank tape
    takes, on a hand-built tape: step 8 executes (check_halt, 2)."""
    c = _configuration(small.state_index("rewind"), -1,
                       _halting_start(small), small.blank)
    while not c.halted:
        tm.step(small, c)
    assert (c.step_count, small.states[c.state], c.head) == (
        8, "check_halt", -2)
    assert small.symbols[c.read()] == "2"


def test_m152_halts_with_m54_at_the_summed_step_costs(big, small):
    """m152 started from the encoded tape, in rewind_sim at head_map(-1, L),
    halts in check_halt_a at micro-step 18, the sum of STEP_COSTS along
    m54's eight keys, on its only Halt cell, (check_halt_a, a).  None of
    the 60 one-cell corruptions of that cell halts there: each one runs
    the same 17 micro-steps, reads that cell and goes on."""
    cells = _halting_start(small)
    c = _configuration(small.state_index("rewind"), -1, cells, small.blank)
    keys, direction = [], L
    while not c.halted:
        keys.append(((small.states[c.state], direction),
                     small.symbols[c.read()]))
        head = c.head
        tm.step(small, c)
        direction = R if c.head > head else L
    cost = sum(step_cost(key, symbol) for key, symbol in keys)
    assert (len(keys), cost) == (8, 18)

    bits = {2 * i + j: big.symbol_index(DEFAULT_ENCODING.words[
                small.symbols[s]][j])
            for i, s in cells.items() for j in range(2)}
    start = (big.state_index(state_map_h(("rewind", L))), head_map(-1, L),
             bits)
    halting = big.state_index("check_halt_a"), big.symbol_index("a")
    assert [(q, s) for q, row in enumerate(big.table)
            for s, cell in enumerate(row) if cell is HALT] == [halting]
    c = _configuration(*start, big.blank)
    while not c.halted:
        tm.step(big, c)
    assert (c.step_count, c.state, c.read()) == (18, *halting)

    corruptions = [Transition(w, move, q) for w in range(2) for move in (L, R)
                   for q in range(big.n_states)]
    assert len(corruptions) == 60
    for tr in corruptions:
        bad = big.with_cell(*halting, tr)
        c = _configuration(*start, bad.blank)
        for _ in range(17):
            tm.step(bad, c)
        assert (c.state, c.read()) == halting
        tm.step(bad, c)
        assert not c.halted and c.step_count == 18


def test_small_leaving_the_key_set_raises(big, small):
    """A small machine that enters mul2_F leftward has no big state to
    map to."""
    bad_small = small.with_cell(
        small.state_index("mul2_G"), small.symbol_index("#"),
        Transition(small.symbol_index("1"), L, small.state_index("mul2_F")))
    with pytest.raises(UnknownKey, match=r"^\(mul2_F, L\) at step 1$"):
        verify_simulation(big, bad_small, DEFAULT_ENCODING, 100)


def test_transcript_records_per_step_data(transcript):
    assert len(transcript.f) == 1001
    assert len(transcript.keys) == len(transcript.sigmas) == 1001
    assert transcript.heads[0] == 0


# Digest of f, keys, sigmas and heads to n = 10^5.
_PINNED_DIGEST = ("fb0adef623e821d5a359b766c22fce69"
                  "f2bdc5e8390da9609d0e0d6c56bf9c2d")


def _digest(t):
    h = hashlib.sha256()
    for a in (t.f, t.keys, t.sigmas, t.heads):
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def long_transcript(big, small):
    return verify_simulation(big, small, DEFAULT_ENCODING, 100_000)


def test_transcript_arrays_are_pinned(long_transcript):
    """Digest of f, keys, sigmas and heads (dtypes included) to n = 10^5,
    recorded from the earlier numpy-scalar implementation."""
    t = long_transcript
    assert t.status == "verified" and t.n_verified == 100_000
    assert [a.dtype for a in (t.f, t.keys, t.sigmas, t.heads)] == [
        np.int64, np.int8, np.int8, np.int64]
    assert _digest(t) == _PINNED_DIGEST


def test_a_transcript_builds_its_int64_arrays_on_first_access(big, small):
    """To n = 10^5 the verification allocates at most 1 MiB at its peak
    (0.23-0.25 MiB, with a 2-byte-a-step log and the doubling passes
    carry-crossed; 0.62 MiB when they were crossed in chunks from a cache
    of chunk crossings, 0.475 MiB before doubling passes were crossed in
    bulk, 2.04 MiB when f and heads were built with every run).  f(n_verified),
    the summary and small's head come from running totals, and `f` and
    `heads`, built when first read, give the pinned digest."""
    tracemalloc.start()
    try:
        t = verify_simulation(big, small, DEFAULT_ENCODING, 100_000)
        assert t.summary() == "verified to n = 100000, f(100000) = 217198"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not {"f", "heads"} & vars(t).keys()
    assert (t.big_steps, t.head) == (217198, 116)
    assert _digest(t) == _PINNED_DIGEST


@pytest.fixture(scope="module")
def million_transcript(big, small):
    return verify_simulation(big, small, DEFAULT_ENCODING, 10**6)


def test_the_log_to_a_million_steps_is_pinned(million_transcript):
    """The log to n = 10^6, 2,000,002 bytes, by its sha256, recorded when
    doubling passes were crossed in chunks, with f(10^6) and small's head
    there."""
    t = million_transcript
    assert (t.status, len(t.log)) == ("verified", 2_000_002)
    assert hashlib.sha256(t.log).hexdigest() == (
        "80078db442cb9ff698b2d90ffc5e8acb933f6089fc8bd90a5f3bb776ccc51145")
    assert (t.big_steps, t.head) == (2_168_294, 118)


def test_the_doubling_passes_are_carry_crossed_from_both_keys(
        big, small, monkeypatch):
    """To n = 10^5 each of the 396 passes is one carry crossing, whose
    cells are stepped from both mul2_F and mul2_G, so losing the carry
    crossing fails here and not only slows the check down."""
    crossed, cross = [], tm.CarryPass.cross

    def counted(carry, stretch):
        cells, key = cross(carry, stretch)
        crossed.append({carry.keys[v >> 7] for v in cells})
        return cells, key
    monkeypatch.setattr(tm.CarryPass, "cross", counted)
    t = verify_simulation(big, small, DEFAULT_ENCODING, 100_000)
    assert len(crossed) == t.passes == 396
    assert set().union(*crossed) == {K.index(("mul2_F", R)),
                                     K.index(("mul2_G", R))}


def test_window_runs_replays_and_sweeps_are_pinned(long_transcript,
                                                  million_transcript):
    """To n = 10^5 the verifier computes 98 steps and replays 1,441 from
    its memo; the 641 sweeps take the rest of each rewind pass and
    find_2's scans over 0 and 1, and the 396 passes the digits of each
    doubling, 40.36 small steps per replay, sweep or pass.  The memo is
    full by then: to 10^6 it computes no further step."""
    t = long_transcript
    assert (t.window_runs, t.replays, t.sweeps, t.passes) == (98, 1441,
                                                              641, 396)
    assert t.compression == 100_000 / 2_478
    assert million_transcript.window_runs == t.window_runs


def test_a_sweep_cut_short_by_n_max_agrees_with_the_reference(big, small):
    """Steps 9,923 to 9,999 are one rewind pass.  Its sweep takes steps
    9,923 to 9,998 and stops at the blank that step 9,999 reads.  Each
    bound in between cuts the sweep short: one sweep more than to step
    9,923, and the same verdict and transcript as the reference
    lockstep."""
    rewind = K.index(("rewind", L))
    start = verify_simulation(big, small, DEFAULT_ENCODING, 9923)
    for n_max in (9925, 9950, 9975, 9998):
        t = _assert_matches_reference(big, small, n_max)
        assert set(t.keys[9923:].tolist()) == {rewind}
        assert t.sweeps == start.sweeps + 1


def test_a_doubling_pass_cut_short_by_n_max_agrees_with_the_reference(
        big, small):
    """Steps 10,000 to 10,077 read the 78 digits of 2^123 in mul2_F and
    mul2_G, doubling it, and step 10,078 reads the blank after them.  One
    pass takes steps 10,000 to 10,077 and stops at that blank.  Each
    bound in between cuts the pass short: one pass more than to step
    10,000, and the same verdict and transcript as the reference
    lockstep."""
    doubling = {K.index(("mul2_F", R)), K.index(("mul2_G", R))}
    start = verify_simulation(big, small, DEFAULT_ENCODING, 10_000)
    for n_max in (10_001, 10_020, 10_048, 10_076):
        t = _assert_matches_reference(big, small, n_max)
        assert set(t.keys[10_000:].tolist()) == doubling
        assert t.passes == start.passes + 1
        assert (t.replays, t.sweeps) == (start.replays, start.sweeps)


def test_a_digit_step_reading_the_block_behind_is_not_swept(big, small,
                                                             monkeypatch):
    """With rewind_sim reading `a` moving right, rewind's step on 0 and 2
    (code words ending in `a`) reads the block behind small's head, and
    on the cells of a sweep check, with no cell behind, big leaves them:
    neither digit is a sweep symbol, and rewind's passes end on both.
    The step fails at rewind's first such digit, step 23, before any
    rewind sweep, as in the reference; the two sweeps before it are
    find_2's scans over 0 and 1."""
    q = big.state_index("rewind_sim")
    w, _, q2 = big.transition(q, 0)
    bad = big.with_cell(q, 0, Transition(w, R, q2))
    found, crossed = [], []
    pass_ends, pass_end = simcheck.pass_ends, simcheck.pass_end

    def found_ends(*args):
        found.append(pass_ends(*args))
        return found[-1]

    def crossing_end(t, p, d, steps, margin, ends):
        end = pass_end(t, p, d, steps, margin, ends)
        if end != p:
            crossed.append(ends)
        return end
    monkeypatch.setattr(simcheck, "pass_ends", found_ends)
    monkeypatch.setattr(simcheck, "pass_end", crossing_end)
    rewind = K.index(("rewind", L))
    for n_max in (22, 23, 2000):
        crossed.clear()
        t = _assert_matches_reference(bad, small, n_max)
        ends = found[-1][0]
        assert set(ends[rewind]) == {small.symbol_index(c) for c in "02#"}
        assert ends[rewind] not in crossed
        assert (t.sweeps, t.sweeps + t.passes) == (2, len(crossed))
    assert t.mismatch == {"n": 23, "f": 51, "kind": "head",
                          "expected": -1, "actual": 1}


def test_transcript_agrees_with_independent_runs(big, small,
                                                 long_transcript):
    """At sampled n, running each machine on its own with tm.run puts
    big at the mapped state and head after f(n) steps, small at heads[n]
    after n steps, and big's tape blocks spell small's tape."""
    t = long_transcript
    rng = random.Random(54)
    samples = [0, 1, 5, 16, 333] + rng.sample(range(20_000), 45)
    for n in samples:
        key = K[t.keys[n]]
        b = tm.run(big, int(t.f[n]))
        s = tm.run(small, n)
        assert s.head == t.heads[n]
        assert s.tape.read(s.head) == t.sigmas[n]
        assert big.states[b.state] == state_map_h(key)
        assert b.head == head_map(int(t.heads[n]), key[1])
        for j in range(s.tape.lo - 1, s.tape.hi + 2):
            word = DEFAULT_ENCODING.words[small.symbols[s.tape.read(j)]]
            got = big.symbols[b.tape.read(2 * j)] + big.symbols[
                b.tape.read(2 * j + 1)]
            assert got == word, (n, j)


def _corruptions(big):
    """The 1800 machines that differ from big in one cell."""
    options = [HALT] + [Transition(w, d, q) for w in range(2) for d in (L, R)
                        for q in range(big.n_states)]
    for q in range(big.n_states):
        for s in range(2):
            for alt in options:
                if alt != big.transition(q, s):
                    yield big.with_cell(q, s, alt)


def test_every_big_corruption_gives_the_pinned_verdict(big, small):
    """Status, mismatch and transcript digest for each of the 1800 one-cell
    corruptions of big at n_max = 300, pinned to the values the earlier
    numpy-scalar implementation gave."""
    verdicts = []
    for bad in _corruptions(big):
        t = verify_simulation(bad, small, DEFAULT_ENCODING, 300)
        verdicts.append([t.status, t.n_verified, repr(t.mismatch),
                         _digest(t)])
    assert len(verdicts) == 1800
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert digest == ("b7e09105fb095a5500a151740624479d"
                      "529ca25ba2e20fac7e7189dc99295a1a")


def test_every_big_corruption_to_20000_steps_gives_the_pinned_verdict(
        big, small):
    """Status, n_verified, mismatch, log digest, f(n_verified) and small's
    head for each of the 1800 one-cell corruptions of big at n_max =
    20,000, far enough for the runs that verify to cross doubling passes
    of over a hundred digits.  Pinned to the values the verifier gave
    before it crossed doubling passes in bulk."""
    verdicts = []
    for bad in _corruptions(big):
        t = verify_simulation(bad, small, DEFAULT_ENCODING, 20_000)
        verdicts.append([t.status, t.n_verified, repr(t.mismatch),
                         hashlib.sha256(t.log).hexdigest(), t.big_steps,
                         t.head])
    assert len(verdicts) == 1800
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert digest == ("f8ba62a9bb099971a16b79eba6e85753"
                      "5c47385713dafe2c7a841ae2cab6f07f")


def _reference_lockstep(big, small, n_max):
    """The lockstep check spelled out on `tm.step` and dict tapes, one
    micro-step at a time: (status, n_verified, mismatch, f, keys, sigmas,
    heads), with a mismatch step that was never recorded left at 0."""
    words = DEFAULT_ENCODING.words
    b, s = tm.initial_configuration(big), tm.initial_configuration(small)
    f, keys, sigmas, heads = [], [], [], []
    entered = R

    def word(i):
        return big.symbols[b.tape.read(2 * i)] + big.symbols[
            b.tape.read(2 * i + 1)]

    def mismatch(n, kind, expected, actual):
        for a in (f, keys, sigmas, heads):
            a.extend([0] * (n + 1 - len(a)))
        return ("mismatch", max(n - 1, 0),
                {"n": n, "f": b.step_count, "kind": kind,
                 "expected": expected, "actual": actual},
                f, keys, sigmas, heads)

    for n in range(n_max + 1):
        key = (small.states[s.state], entered)
        f.append(b.step_count)
        keys.append(K.index(key))
        sigmas.append(s.read())
        heads.append(s.head)
        if big.states[b.state] != state_map_h(key):
            return mismatch(n, "state", state_map_h(key),
                            big.states[b.state])
        if b.head != head_map(s.head, entered):
            return mismatch(n, "head", head_map(s.head, entered), b.head)
        if n == n_max:
            break
        cost = step_cost(key, small.symbols[s.read()])
        start = s.head
        tm.step(small, s)
        visited = [b.head]
        halted_at = None
        for micro in range(1, cost + 1):
            tm.step(big, b)
            if b.halted:
                halted_at = micro
                break
            visited.append(b.head)
        if s.halted:
            if halted_at != cost:
                return mismatch(n + 1, "halting-synchrony",
                                f"big halts at micro-step {cost}",
                                "big still running" if halted_at is None
                                else f"big halted at micro-step {halted_at}")
            return "both-halted", n, None, f, keys, sigmas, heads
        if halted_at is not None:
            return mismatch(n + 1, "halting-synchrony", "big still running",
                            f"big halted at micro-step {halted_at}")
        for i in range(min(visited) // 2, max(visited) // 2 + 1):
            if word(i) != words[small.symbols[s.tape.read(i)]]:
                return mismatch(n + 1, f"tape cell {i}",
                                words[small.symbols[s.tape.read(i)]],
                                word(i))
        entered = R if s.head > start else L
    for i in range(s.tape.lo - 1, s.tape.hi + 2):
        if word(i) != words[small.symbols[s.tape.read(i)]]:
            return mismatch(n_max, f"tape cell {i} (final sweep)",
                            words[small.symbols[s.tape.read(i)]], word(i))
    return "verified", n_max, None, f, keys, sigmas, heads


def _assert_matches_reference(big, small, n_max):
    t = verify_simulation(big, small, DEFAULT_ENCODING, n_max)
    status, n_verified, mismatch, *arrays = _reference_lockstep(big, small,
                                                                n_max)
    assert (t.status, t.n_verified, t.mismatch) == (status, n_verified,
                                                    mismatch)
    # the running totals, and the range of time_scale, which stops at
    # n_verified when the mismatch step was never recorded
    f, heads = arrays[0], arrays[3]
    assert t.time_scale(n_verified) == f[n_verified]
    assert t.head == heads[n_verified]
    unrecorded = mismatch is not None and mismatch["kind"] not in ("state",
                                                                   "head")
    assert t.unrecorded == unrecorded
    last = n_verified if unrecorded else len(f) - 1
    for n in (-1, last + 1):
        with pytest.raises(OutOfRange, match=rf"^step {n} beyond verified "
                                             rf"range 0\.\.{last}$"):
            t.time_scale(n)
    for got, want in zip((t.f, t.keys, t.sigmas, t.heads), arrays):
        assert got.tolist() == want
    return t


def test_window_runs_agree_with_a_reference_lockstep(big, small):
    """m152 itself and 400 seeded random two-cell corruptions of it,
    checked against a lockstep written here on tm.step and dict tapes;
    between them they fail every kind of check."""
    _assert_matches_reference(big, small, 2000)
    rng = random.Random(2021)
    cells = [(q, s) for q in range(big.n_states) for s in range(2)]
    options = [HALT] + [Transition(w, d, q) for w in range(2) for d in (L, R)
                        for q in range(big.n_states)]
    outcomes = set()
    for _ in range(400):
        bad = big
        for q, s in rng.sample(cells, 2):
            bad = bad.with_cell(q, s, rng.choice(options))
        t = _assert_matches_reference(bad, small, rng.randrange(2001))
        outcomes.add(t.mismatch["kind"].split()[0] if t.mismatch
                     else t.status)
    assert outcomes == {"verified", "tape", "state", "head",
                        "halting-synchrony"}


def test_a_step_leaving_the_window_is_checked_on_wider_cells(big, small):
    """A corruption whose big head reaches behind small's head in the
    failing step: the tape cell that fails lies against the direction
    small's key entered, within the `simcheck._REACH` cells on either
    side of small's head that every step runs on."""
    q, r = big.state_index("mul2_G_extra"), big.state_index("rewind_a")
    (wq, dq, q2), (wr, dr, r2) = big.transition(q, 0), big.transition(r, 1)
    bad = big.with_cell(q, 0, (wq, -dq, q2))
    bad = bad.with_cell(r, 1, (1 - wr, dr, r2))
    t = _assert_matches_reference(bad, small, 2000)
    n = t.mismatch["n"]
    assert t.mismatch == {"n": 35, "f": 80, "kind": "tape cell 1",
                          "expected": "ab", "actual": "aa"}
    cell = int(t.mismatch["kind"].split()[2])
    head, key = int(t.heads[n - 1]), K[t.keys[n - 1]]
    assert (head, key) == (2, ("mul2_G", R))
    assert head - simcheck._REACH <= cell < head


def test_transcripts_are_prefixes_of_longer_ones(big, small):
    """Every bound n_max in 0..200 gives the first n_max + 1 entries of
    the n_max = 1000 transcript, on m152 and on a run that ends in an
    unrecorded mismatch step."""
    q = small.state_index("check_halt")
    bad_small = small.with_cell(q, small.symbol_index("0"), HALT)
    for pair in ((big, small), (big, bad_small)):
        full = verify_simulation(*pair, DEFAULT_ENCODING, 1000)
        for n_max in range(201):
            t = verify_simulation(*pair, DEFAULT_ENCODING, n_max)
            m = min(n_max + 1, len(full.f))
            for got, want in zip((t.f, t.keys, t.sigmas, t.heads),
                                 (full.f, full.keys, full.sigmas,
                                  full.heads)):
                assert got.tolist() == want[:m].tolist()
            if n_max + 1 < len(full.f):
                assert (t.status, t.n_verified) == ("verified", n_max)
            else:
                assert (t.status, t.mismatch) == (full.status,
                                                  full.mismatch)
