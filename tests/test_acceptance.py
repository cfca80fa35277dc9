"""Acceptance gate: one test and one printed pass/fail line per criterion.

The `report` fixture prints each line with capture suspended so it
reaches the real stdout even under pytest's fd-level capture; each test
also asserts, so a failed criterion fails the suite.
"""

import itertools
import random
import time

import pytest

from bblab import fst, machines, search, simcheck, ternary, tm
from bblab.tm import HALT, L, R, Transition

CHAMPION_STEPS = 47_176_870


@pytest.fixture
def report(capfd):
    def _report(criterion: int, ok: bool, detail: str) -> None:
        line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_criterion_1_champion_step_count(report):
    m = machines.builtin_bb5_champion()
    tm.run(m, 200_000)  # warm-up run; timing covers only the full run
    started = time.perf_counter()
    outcome = tm.run(m, 100_000_000)
    elapsed = time.perf_counter() - started
    ok = outcome.halted and outcome.step_count == CHAMPION_STEPS
    ok = ok and elapsed < 5.0
    report(1, ok, f"bb5 champion halts at step {outcome.step_count:,} "
                  f"in {elapsed:.2f}s")


GOLDEN_TRACE = [
    # (step, state, head, window over the full touched extent from cell -2)
    (5, "rewind", -1, "0#1#"),
    (9, "rewind", -1, "0#2#"),
    (13, "find_2", 1, "0#11#"),
    (16, "check_halt", -2, "0#11#"),
    (17, "rewind", -1, "1#11#"),
    (23, "rewind", -1, "1#22#"),
    (63, "rewind", -1, "1#20211#"),
    (71, "find_2", 5, "1#111001#"),
    (79, "rewind", -1, "2#111001#"),
    (333, "rewind", -1, "2#1101011202221#"),
]


def test_criterion_2_golden_trace(report):
    m = machines.builtin_m54()
    snaps = tm.run_trace(m, [g[0] for g in GOLDEN_TRACE])
    bad = []
    for snap, (step_n, state, head, window) in zip(snaps, GOLDEN_TRACE):
        got = (snap.step_count, m.states[snap.state], snap.head,
               tm.window_str(m, snap, -2, snap.tape.hi))
        if got != (step_n, state, head, window):
            bad.append((got, (step_n, state, head, window)))
    final = snaps[-1]
    decoded = int(ternary.decode_tape_number(
        tm.window_str(m, final, 0, final.tape.hi)))
    ok = not bad and decoded == 2 ** 20
    report(2, ok, f"10-point golden trace matches; step-333 tape decodes "
                  f"to {decoded} = 2^20" if ok else f"trace mismatches: {bad}")


def _all_corruptions(big):
    options = [HALT] + [Transition(w, mv, q2) for w in range(2)
                        for mv in (L, R) for q2 in range(big.n_states)]
    for q in range(big.n_states):
        for s in range(2):
            current = big.transition(q, s)
            for alt in options:
                if alt == current or (alt is HALT and current is HALT):
                    continue
                yield (q, s), big.with_cell(q, s, alt)


def test_criterion_3_simulation_verified_and_faults_detected(report):
    big = machines.builtin_m152()
    small = machines.builtin_m54()
    transcript = simcheck.verify_simulation(big, small,
                                            simcheck.DEFAULT_ENCODING,
                                            1_000_000)
    ok = (transcript.ok and transcript.n_verified == 1_000_000
          and transcript.time_scale(5) == 10
          and transcript.time_scale(16) == 35
          and transcript.time_scale(333) == 741)

    halt_cells = {(q, s) for q in range(big.n_states) for s in range(2)
                  if big.transition(q, s) is HALT}
    assert len(halt_cells) == 1  # the single halting cell of the simulator
    detected = missed = 0
    for cell, bad in _all_corruptions(big):
        out = simcheck.verify_simulation(bad, small,
                                         simcheck.DEFAULT_ENCODING, 1000)
        if not out.ok:
            detected += 1
        else:
            missed += 1
            # only corruptions of the halting cell may go unnoticed, and
            # only because they are behaviorally invisible: that cell is
            # never exercised in the verified horizon
            ok = ok and cell in halt_cells
    ok = ok and detected == 1740 and missed == 60
    report(3, ok, f"lockstep verified to n=10^6 with f(5)=10, f(16)=35, "
                  f"f(333)=741; {detected}/1740 corruptions of exercised "
                  f"cells detected within 1000 steps ({missed} corruptions "
                  "of the sole never-exercised halting cell are "
                  "behaviorally inert)")


def test_criterion_4_fst_exhaustive_and_random(report):
    checked = 0
    ok = True
    for length in range(2, 10):
        for body in itertools.product("012", repeat=length - 1):
            word = "".join(body) + "0"
            got = [int(d) for d in fst.double_reverse_ternary(word)]
            while len(got) > 1 and got[-1] == 0:
                got.pop()
            ok = ok and got == fst.oracle_double(int(d) for d in word)
            checked += 1
    rng = random.Random(8)
    for _ in range(100):
        word = "".join(rng.choice("012") for _ in range(9999)) + "0"
        got = [int(d) for d in fst.double_reverse_ternary(word)]
        while len(got) > 1 and got[-1] == 0:
            got.pop()
        ok = ok and got == fst.oracle_double(int(d) for d in word)
    report(4, ok, f"transducer matches the oracle on {checked} exhaustive "
                  "padded inputs (3^8 at the top length) and 100 random "
                  "10^4-digit inputs")


def test_criterion_5_checkpoint_formula(report):
    m54 = machines.builtin_m54()
    out = search.verify_checkpoints(m54, 1000)
    growth = all(search.checkpoint_steps(n) >= n for n in range(1001))
    ok = out.checked == 1001 and growth
    report(5, ok, f"checkpoint formula verified against execution for "
                  f"n <= 1000 (final step {out.final_step:,}); "
                  "s_n >= n throughout")


def test_criterion_6_erdos_scan(report):
    report_scan = ternary.scan_erdos(10_000)
    ok = (report_scan.free_exponents == [0, 2, 8]
          and report_scan.counterexample is None
          and report_scan.elapsed_seconds < 10.0)

    # the scanner's digits must agree with the machine tape at checkpoints
    m54 = machines.builtin_m54()
    targets = [search.checkpoint_steps(n) for n in range(101)]
    snaps = tm.run_trace(m54, targets)
    for (n, power), snap in zip(ternary.powers_of_two(100), snaps):
        labels = tm.window_str(m54, snap, 0, snap.tape.hi)
        ok = ok and ternary.decode_tape_number(labels) == power
    report(6, ok, "2^n is digit-2-free only for n in {0, 2, 8} up to 10^4 "
                  f"({report_scan.elapsed_seconds:.2f}s); scanner digits "
                  "equal machine tape at every checkpoint n <= 100")


def test_criterion_7_enumeration(report):
    t0 = time.perf_counter()
    two = search.enumerate_and_classify(2, 2, 100)
    t_two = time.perf_counter() - t0
    t0 = time.perf_counter()
    three = search.enumerate_and_classify(3, 2, 1000)
    t_three = time.perf_counter() - t0
    ok = (two.max_steps == 6 and two.confirmed and t_two < 60.0
          and three.max_steps == 21 and three.confirmed and t_three < 60.0
          and three.total == 21_257
          and three.counts == {"halts": 1_772, "escape": 16_014,
                               "cycler": 515, "translated-cycler": 2_956,
                               "undecided": 0})
    report(7, ok, f"BB(2)={two.max_steps} ({t_two:.1f}s) and "
                  f"BB(3)={three.max_steps} ({t_three:.1f}s) confirmed with "
                  f"zero undecided machines; (3,2) counts {three.counts}")


def test_criterion_8_property_suites(report):
    """Spot-check the randomized properties backing the non-reproducible
    claims; the full hypothesis suites live in the per-module tests."""
    rng = random.Random(2026)
    ok = True
    for _ in range(50):
        v = rng.randrange(10 ** 18)
        ok = ok and int(ternary.TernaryNumber.from_int(v).doubled()) == 2 * v
    options = [HALT] + [Transition(w, mv, q2) for w in range(2)
                        for mv in (L, R) for q2 in range(3)]
    for _ in range(60):
        table = tuple(tuple(rng.choice(options) for _ in range(2))
                      for _ in range(3))
        m = tm.MachineTable(name="rnd", symbols=("0", "1"), blank=0,
                            states=("A", "B", "C"), init=0, table=table)
        out = search.classify(m, 300)
        if out.certificate is not None:
            ok = ok and search.revalidate_certificate(m, out.certificate)
    report(8, ok, "randomized spot-checks pass; hypothesis property suites "
                  "cover doubling, round-trips, and certificate "
                  "revalidation in the module tests")
