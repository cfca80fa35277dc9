"""Lockstep verification of the 2-symbol machine against the 4-symbol one."""

import hashlib
import json
import random

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
    assert simcheck.time_scale(transcript, 5) == 10


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
    tr = big.transition(q, 0)
    bad = big.with_cell(q, 0, Transition(1 - tr.write, tr.move,
                                         tr.next_state))
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
    tr = big.transition(q, 0)
    bad = big.with_cell(q, 0, Transition(tr.write, tr.move,
                                         big.state_index("rewind_b")))
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


def test_transcript_records_per_step_data(transcript):
    assert len(transcript.f) == 1001
    assert len(transcript.keys) == len(transcript.sigmas) == 1001
    assert transcript.heads[0] == 0


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
    assert _digest(t) == ("fb0adef623e821d5a359b766c22fce69"
                          "f2bdc5e8390da9609d0e0d6c56bf9c2d")


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


def test_every_big_corruption_gives_the_pinned_verdict(big, small):
    """Status, mismatch and transcript digest for each of the 1800 one-cell
    corruptions of big at n_max = 300, pinned to the values the earlier
    numpy-scalar implementation gave."""
    options = [HALT] + [Transition(w, d, q) for w in range(2) for d in (L, R)
                        for q in range(big.n_states)]
    verdicts = []
    for q in range(big.n_states):
        for s in range(2):
            for alt in options:
                if alt == big.transition(q, s):
                    continue
                t = verify_simulation(big.with_cell(q, s, alt), small,
                                      DEFAULT_ENCODING, 300)
                verdicts.append([t.status, t.n_verified, repr(t.mismatch),
                                 _digest(t)])
    assert len(verdicts) == 1800
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert digest == ("b7e09105fb095a5500a151740624479d"
                      "529ca25ba2e20fac7e7189dc99295a1a")
