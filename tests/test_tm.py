"""Execution semantics: stepping, halting, tapes, bounded runs."""

import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bblab import machines, search, tm
from bblab.errors import StepAfterHalt, ValidationError
from bblab.tm import HALT, L, R, MachineTable, Tape, Transition


@pytest.fixture
def two_stepper():
    """A tiny machine: writes 1, bounces right then left, halts on 1."""
    return machines.parse_machine(
        """
        symbols: 0 1
        blank: 0
        states: A B
        init: A
        A 0 -> 1 R B
        A 1 -> halt
        B 0 -> 1 L A
        B 1 -> 1 L A
        """,
        name="two-stepper")


def test_initial_configuration(two_stepper):
    c = tm.initial_configuration(two_stepper)
    assert c.state == two_stepper.init
    assert c.head == 0
    assert c.step_count == 0
    assert not c.halted
    assert c.read() == two_stepper.blank


def test_step_executes_write_move_state(two_stepper):
    c = tm.initial_configuration(two_stepper)
    tm.step(two_stepper, c)
    assert c.step_count == 1
    assert c.head == 1
    assert c.state == two_stepper.state_index("B")
    assert c.tape.read(0) == 1


def test_halt_counts_as_a_step_and_freezes(two_stepper):
    c = tm.initial_configuration(two_stepper)
    for _ in range(3):
        tm.step(two_stepper, c)
    # A reads the 1 written earlier: the halting transition
    assert c.halted
    assert c.step_count == 3
    head_before, state_before = c.head, c.state
    with pytest.raises(StepAfterHalt):
        tm.step(two_stepper, c)
    assert (c.head, c.state, c.step_count) == (head_before, state_before, 3)


def test_run_halts_with_exact_step_count(two_stepper):
    outcome = tm.run(two_stepper, 100)
    assert outcome.halted is True
    assert outcome.halted
    assert outcome.step_count == 3
    assert isinstance(outcome, tm.Configuration)


def test_run_budget_exhausted_reports_running(two_stepper):
    outcome = tm.run(two_stepper, 2)
    assert outcome.halted is False
    assert not outcome.halted
    assert outcome.step_count == 2


def test_run_is_deterministic(two_stepper):
    a = tm.run(two_stepper, 2)
    b = tm.run(two_stepper, 2)
    assert a.step_count == b.step_count
    assert a.head == b.head
    assert a.tape.window(-2, 2) == b.tape.window(-2, 2)


def test_tape_extent_and_blank_reads():
    t = Tape(blank=3)
    assert t.read(1000) == 3
    t.write(-2, 1)
    t.write(5, 2)
    # lo/hi track visited cells, recorded via touch()
    t.touch(-2)
    t.touch(5)
    assert t.lo == -2 and t.hi == 5
    assert t.window(-2, 5) == (1, 3, 3, 3, 3, 3, 3, 2)


def test_run_trace_snapshots(two_stepper):
    snaps = tm.run_trace(two_stepper, [1, 2, 3])
    assert [s.step_count for s in snaps] == [1, 2, 3]
    assert snaps[-1].halted
    # snapshots are independent copies
    assert snaps[0].tape is not snaps[1].tape


def test_run_trace_stops_early_at_halt(two_stepper):
    snaps = tm.run_trace(two_stepper, [1, 50])
    assert snaps[-1].halted
    assert snaps[-1].step_count == 3


def test_run_trace_requires_sorted_checkpoints(two_stepper):
    with pytest.raises(ValueError):
        tm.run_trace(two_stepper, [5, 1])


def test_run_trace_reads_a_one_shot_iterable_once(two_stepper):
    snaps = tm.run_trace(two_stepper, (t for t in [1, 2, 3]))
    expected = tm.run_trace(two_stepper, [1, 2, 3])
    assert len(snaps) == len(expected) == 3
    for got, want in zip(snaps, expected):
        _assert_same_config(got, want)


def _step_to(m, c, budget):
    """Reference run: single steps until `budget` or halt."""
    while c.step_count < budget and not c.halted:
        tm.step(m, c)
    return c


def _assert_same_run(outcome, c):
    assert isinstance(outcome, tm.Configuration)
    assert outcome.step_count == c.step_count
    _assert_same_config(outcome, c)


def _assert_same_config(got, c):
    assert got.step_count == c.step_count
    assert (got.state, got.head, got.halted) == (c.state, c.head, c.halted)
    assert (got.tape.lo, got.tape.hi) == (c.tape.lo, c.tape.hi)
    assert got.tape.window(c.tape.lo, c.tape.hi) == c.tape.window(c.tape.lo,
                                                                  c.tape.hi)


def test_fast_and_slow_paths_agree():
    """The PassRun behind run() must agree exactly with single-stepping,
    also when the budget ends inside a self-loop sweep."""
    m = machines.builtin_bb5_champion()
    c = tm.initial_configuration(m)
    # The champion sweeps D over a run of 1s at steps 981..1032 and B at
    # steps 1035..1087; 1033 and 200_000 end where a sweep ends, 1032 one
    # step before.
    for budget in (0, 1, 1000, 1032, 1033, 1060, 199_000, 200_000):
        _assert_same_run(tm.run(m, budget), _step_to(m, c, budget))


def test_run_picks_its_stepper_once_from_the_first_probe():
    """_ZIGZAG's first probe takes one PassRun move a step, so a run past
    it hands itself to FlatRun and stays there, as m152's does; the
    champion's and m54's first probes average more than _RATIO steps a
    move, so neither hands off."""
    probe = tm._RATIO * tm._PROBE
    counts = [tm.run(_ZIGZAG, budget).handoffs
              for budget in (probe, probe + 1, 50_000)]
    assert counts == [0, 1, 1]
    final = tm.run(_ZIGZAG, 50_000)
    assert (final.macro_steps, final.compression) == (50_000, 1.0)
    assert tm.run(machines.builtin("m152"), 100_000).handoffs == 1
    assert tm.run(machines.builtin_bb5_champion(), 100_000_000).handoffs == 0
    m54_to_s700 = tm.run(machines.builtin_m54(), search.checkpoint_steps(700))
    assert m54_to_s700.handoffs == 0


def test_run_steps_a_table_of_more_than_256_symbols_on_flat_run():
    """PassRun holds at most 256 symbols, so a table of 257 runs on
    FlatRun from its first step, one macro step a step, with no
    hand-off; it agrees with tm.step.  Its head bounces between cells 0
    and 1, counting each up through all 257 symbols and round again."""
    k = 257
    m = MachineTable("wide", tuple(str(i) for i in range(k)), 0, ("A", "B"),
                     0, tuple(tuple(((s + 1) % k, d, q) for s in range(k))
                              for d, q in ((1, 1), (-1, 0))))
    c = tm.initial_configuration(m)
    for budget in (0, 1, 600, 3000):
        final = tm.run(m, budget)
        _assert_same_run(final, _step_to(m, c, budget))
        assert (final.macro_steps, final.handoffs) == (budget, 0)


def test_champion_hand_offs_agree_with_single_steps():
    """The champion's first phase of 1.0 steps per macro step starts near
    step 99,888, long after its first probe, so the run stays on its
    PassRun through it.  The budgets end in and around that phase."""
    m = machines.builtin_bb5_champion()
    assert [tm.run(m, b).handoffs for b in (100_144, 100_145)] == [0, 0]
    c = tm.initial_configuration(m)
    for budget in (99_900, 100_143, 100_144, 100_145, 116_527, 116_528,
                   116_529, 116_600):
        _assert_same_run(tm.run(m, budget), _step_to(m, c, budget))


def test_champion_ratio_one_phases_agree_with_flat_run():
    """Budgets inside the champion's later phases of 1.0 steps per macro
    step, against a FlatRun advanced through them."""
    m = machines.builtin_bb5_champion()
    ref = tm.FlatRun(m)
    for budget in (280_700, 785_500, 2_191_000, 6_100_000):
        ref.advance(budget)
        _assert_run_is_config(ref, tm.run(m, budget))


def test_champion_halts_on_the_same_tape():
    final = tm.run(machines.builtin_bb5_champion(), 100_000_000)
    assert (final.halted, final.step_count, final.state, final.head) == (
        True, 47_176_870, 4, -12243)
    assert (final.tape.lo, final.tape.hi) == (-12243, 45)
    symbols = final.tape.window(final.tape.lo, final.tape.hi)
    assert hashlib.sha256(bytes(symbols)).hexdigest() == (
        "529dd915b4f16340d6c33cd66d844b71aba0cbed6b8d961db347ca16fb6b19d4")
    assert final.compression > 100


def test_m54_checkpoints_agree_with_flat_run():
    """m54 at s_n for n in {0, 1, 8, 100, 700}, against a FlatRun advanced
    through them: the run stays on its PassRun, which crosses the rewinds
    and doublings in bulk, over 50 steps a move by s_700."""
    m = machines.builtin_m54()
    ref = tm.FlatRun(m)
    for n in (0, 1, 8, 100, 700):
        budget = search.checkpoint_steps(n)
        ref.advance(budget)
        final = tm.run(m, budget)
        _assert_run_is_config(ref, final)
        assert final.macro_steps <= budget and final.handoffs == 0
    assert final.compression > 50


def test_champion_trace_stays_on_the_pass_stepper_to_its_halt():
    """A trace runs on the stepper that run picks: the champion traced to
    10^8 steps stays on its PassRun throughout and halts as run does."""
    snaps = tm.run_trace(machines.builtin_bb5_champion(),
                         [10 ** 6, 47_176_869, 10 ** 8])
    assert [s.handoffs for s in snaps] == [0, 0, 0]
    assert [(s.step_count, s.halted) for s in snaps] == [
        (10 ** 6, False), (47_176_869, False), (47_176_870, True)]
    assert snaps[-1].compression > 100


def test_trace_picks_its_stepper_from_its_last_checkpoint():
    """_ZIGZAG traced across its hand-off at step _RATIO * _PROBE = 512
    matches tm.step and ends as run to its last checkpoint ends; traced
    to 512 it stays on the PassRun, as run to 512 does.  A checkpoint at
    every probe step cuts the champion's and m54's passes into one move a
    step, yet their traces pick the PassRun, as run does."""
    probe = tm._RATIO * tm._PROBE
    final = tm.run(_ZIGZAG, 3000)
    for checkpoints in ([probe - 1, probe, probe + 1, 3000], [probe, 3000]):
        snaps = tm.run_trace(_ZIGZAG, checkpoints)
        c = tm.initial_configuration(_ZIGZAG)
        for target, snap in zip(checkpoints, snaps, strict=True):
            _assert_same_config(snap, _step_to(_ZIGZAG, c, target))
        assert (snaps[-1].macro_steps, snaps[-1].handoffs) == (
            final.macro_steps, final.handoffs) == (3000, 1)
    snaps = tm.run_trace(_ZIGZAG, [300, probe])
    assert [s.handoffs for s in snaps] == [0, 0]
    assert tm.run(_ZIGZAG, probe).handoffs == 0
    for m in (machines.builtin_bb5_champion(), machines.builtin_m54()):
        snaps = tm.run_trace(m, list(range(1, probe + 1)) + [10 ** 5])
        assert snaps[probe - 1].macro_steps == probe
        assert snaps[-1].handoffs == tm.run(m, 10 ** 5).handoffs == 0


@st.composite
def _tables(draw):
    """Random (n, k) tables with a few Halt cells."""
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=2, max_value=4))
    cell = st.one_of(
        st.just(HALT),
        st.builds(Transition, st.integers(0, k - 1), st.sampled_from((L, R)),
                  st.integers(0, n - 1)))
    rows = draw(st.lists(st.lists(cell, min_size=k, max_size=k).map(tuple),
                         min_size=n, max_size=n))
    return MachineTable(name="random", symbols=tuple("0123"[:k]), blank=0,
                        states=tuple("ABCD"[:n]), init=0, table=tuple(rows))


# A self-loop on blank at either end of the tape, which never ends.
_SWEEP_RIGHT = machines.parse_machine(
    "symbols: 0 1\nblank: 0\nstates: A\ninit: A\n"
    "A 0 -> 1 R A\nA 1 -> halt\n", name="sweep-right")
_SWEEP_LEFT = machines.parse_machine(
    "symbols: 0 1\nblank: 0\nstates: A B\ninit: A\n"
    "A 0 -> 1 R B\nA 1 -> halt\nB 0 -> 0 L B\nB 1 -> 1 L B\n",
    name="sweep-left")
# Sweeps a growing run of 1s; its sweeps end at steps 3, 6, 10, ..., 190.
_BOUNCER = machines.parse_machine(
    "symbols: 0 1\nblank: 0\nstates: A B\ninit: A\n"
    "A 0 -> 1 L B\nA 1 -> 1 R A\nB 0 -> 1 R A\nB 1 -> 1 L B\n",
    name="bouncer")


# No transition keeps its state and no two keys share a pass symbol, so
# PassRun crosses no pass: its first probe takes one move a step, and a
# run past step _RATIO * _PROBE hands itself to FlatRun there.  Its tape
# grows on both sides and holds all three symbols.
_ZIGZAG = machines.parse_machine(
    "symbols: 0 1 2\nblank: 0\nstates: A B\ninit: A\n"
    "A 0 -> 2 L B\nA 1 -> 0 R B\nA 2 -> 1 R B\n"
    "B 0 -> 2 R A\nB 1 -> 0 L A\nB 2 -> 1 L A\n", name="zigzag")


@given(_tables(), st.integers(min_value=0, max_value=3000),
       st.lists(st.integers(min_value=0, max_value=3000), max_size=6))
@example(_ZIGZAG, tm._RATIO * tm._PROBE - 1, [])
@example(_ZIGZAG, tm._RATIO * tm._PROBE, [tm._RATIO * tm._PROBE - 1])
@example(_ZIGZAG, tm._RATIO * tm._PROBE + 1, [tm._RATIO * tm._PROBE])
@example(_ZIGZAG, 3000, [tm._RATIO * tm._PROBE + 1, 3000])
@example(_SWEEP_RIGHT, 0, [0])
@example(_SWEEP_RIGHT, 2500, [1, 2, 2, 2500])
@example(_SWEEP_LEFT, 2500, [17, 40, 1000, 2500])
@example(_BOUNCER, 180, [3, 6, 10, 180])
@example(_BOUNCER, 189, [189])
@example(_BOUNCER, 190, [190, 3000])
@example(_SWEEP_LEFT, 100, list(range(1, 101)))
@example(_BOUNCER, 200, list(range(1, 201)))
@settings(max_examples=300, deadline=None)
def test_run_matches_single_steps(m, budget, checkpoints):
    """run at `budget`, and run_trace at sorted `checkpoints` (each on a
    PassRun, then FlatRun if the first probe to its last step count
    compresses poorly), against single steps.  Consecutive checkpoints 1,
    2, 3, ... advance the run one step at a time.  The _ZIGZAG budgets end
    one step before, at and one step after its hand-off, and far into
    FlatRun."""
    _assert_same_run(tm.run(m, budget),
                     _step_to(m, tm.initial_configuration(m), budget))
    checkpoints.sort()
    snaps = tm.run_trace(m, checkpoints)
    c = tm.initial_configuration(m)
    for target, snap in zip(checkpoints, snaps):
        _assert_same_config(snap, _step_to(m, c, target))
    halted = [i for i, snap in enumerate(snaps) if snap.halted]
    assert len(snaps) == (halted[0] + 1 if halted else len(checkpoints))


def _relabelled(m, blank, init):
    """`m` with blank symbol index `blank` and initial state `init`, each
    taken modulo the table's size."""
    return MachineTable(m.name, m.symbols, blank % m.n_symbols, m.states,
                        init % m.n_states, m.table)


def _assert_run_is_config(run, c):
    """A FlatRun or PassRun agrees with a tm.step configuration: state,
    steps, halted flag, head and visited cells."""
    assert (run.state, run.steps, run.halted, run.head) == (
        c.state, c.step_count, c.halted, c.head)
    first, cells = run.visited()
    assert (first, first + len(cells) - 1) == (c.tape.lo, c.tape.hi)
    assert tuple(cells) == c.tape.window(c.tape.lo, c.tape.hi)


@given(_tables(),
       st.lists(st.tuples(st.integers(min_value=0, max_value=3000),
                          st.integers(min_value=0, max_value=40)),
                max_size=5))
@example(_SWEEP_LEFT, [(0, 40), (2000, 3)])
@example(_SWEEP_RIGHT, [(0, 0), (30, 40)])
@example(_BOUNCER, [(185, 10)])
@settings(max_examples=200, deadline=None)
def test_flat_run_matches_single_steps(m, stops):
    """FlatRun advanced to sorted targets against single steps.  Each
    (target, extra) stop advances to `target` and then one step at a time
    `extra` more times.  At every target the
    state, steps, halted flag, head and visited cells agree with
    tm.step's."""
    targets = sorted(t + i for t, extra in stops for i in range(extra + 1))
    run = tm.FlatRun(m)
    c = tm.initial_configuration(m)
    for target in targets:
        run.advance(target)
        _assert_run_is_config(run, _step_to(m, c, target))


def _random_pass_table(rng):
    """A table of 1-5 states and 2-5 symbols with a random blank, initial
    state and some Halt cells.  Most cells of a row move the way the row
    leans, and some write their symbol back and keep the state, so that
    the head makes passes and sweeps."""
    n, k = rng.randint(1, 5), rng.randint(2, 5)
    rows = []
    for q in range(n):
        lean = rng.choice((-1, 1))
        row = []
        for s in range(k):
            roll = rng.random()
            if roll < 0.1:
                row.append(HALT)
            elif roll < 0.4:
                row.append((s, lean, q))
            elif roll < 0.7:
                row.append((rng.randrange(k), lean, rng.randrange(n)))
            else:
                row.append((rng.randrange(k), rng.choice((-1, 1)),
                            rng.randrange(n)))
        rows.append(tuple(row))
    return MachineTable("random", tuple("01234"[:k]), rng.randrange(k),
                        tuple("ABCDE"[:n]), rng.randrange(n), tuple(rows))


def _assert_same_run_state(run, ref):
    """Two runs with FlatRun's read interface agree: steps, state, halted
    flag, head and visited cells, so also every cell past them, which
    both read as blank."""
    assert (run.steps, run.state, run.halted, run.head) == (
        ref.steps, ref.state, ref.halted, ref.head)
    first, cells = run.visited()
    ref_first, ref_cells = ref.visited()
    assert (first, list(cells)) == (ref_first, list(ref_cells))


def test_pass_run_matches_flat_run_on_random_tables():
    """PassRun against FlatRun on 2,000 seeded random tables, each
    advanced through four increasing targets.  The tables lean so that
    their passes cross many cells: many tables have a key that sweeps and
    many a pass that is carry-crossed."""
    rng = random.Random(27)
    sweeps = carried = 0
    for _ in range(2000):
        m = _random_pass_table(rng)
        run, ref = tm.PassRun(m), tm.FlatRun(m)
        keys = [key for key, ends in enumerate(run._ends)
                if len(ends) < m.n_symbols]
        sweeps += any(run._carries[key] is None for key in keys)
        carried += any(run._carries[key] is not None for key in keys)
        for target in sorted(rng.randrange(3000) for _ in range(4)):
            run.advance(target)
            ref.advance(target)
            _assert_same_run_state(run, ref)
    assert sweeps > 500 and carried > 500


def test_pass_run_matches_single_steps():
    """PassRun against tm.step on the first 200 of those random tables,
    at every target, and on tables whose sweeps over the blank grow the
    tape on either side far past its first 64 cells."""
    rng = random.Random(27)
    tables = [(_random_pass_table(rng),
               sorted(rng.randrange(3000) for _ in range(4)))
              for _ in range(200)]
    tables += [(_SWEEP_RIGHT, [0, 1, 31, 32, 100, 5000]),
               (_SWEEP_LEFT, [1, 2, 33, 34, 5000]),
               (_BOUNCER, [3, 6, 10, 180, 189, 190, 3000]),
               (_ZIGZAG, [1, 2, 255, 3000])]
    for m, targets in tables:
        run, c = tm.PassRun(m), tm.initial_configuration(m)
        for target in targets:
            run.advance(target)
            _assert_run_is_config(run, _step_to(m, c, target))


def test_pass_run_matches_flat_run_on_m54():
    """m54 at more than 150 targets up to 10^6: the checkpoints s_n for
    every tenth n to 1000, where a rewind sweep ends on the separator, one
    step before and after every hundredth, and 40 seeded targets that
    fall inside the sweeps and the doubling passes."""
    m = machines.builtin_m54()
    rng = random.Random(54)
    targets = {search.checkpoint_steps(n) + i for n in range(0, 1001, 10)
               for i in ((-1, 0, 1) if n % 100 == 0 else (0,))}
    targets |= {rng.randrange(10 ** 6) for _ in range(40)} | {10 ** 6}
    assert len(targets) > 150
    run, ref = tm.PassRun(m), tm.FlatRun(m)
    for target in sorted(targets):
        run.advance(target)
        ref.advance(target)
        _assert_same_run_state(run, ref)


def test_pass_run_takes_at_most_256_symbols():
    """A table of 256 symbols runs, here a sweep to the right over its
    blank, symbol 255; one of 257 symbols is refused."""
    symbols = tuple(str(i) for i in range(257))
    with pytest.raises(ValidationError, match="at most 256 symbols"):
        tm.PassRun(MachineTable("wide", symbols, 0, ("A",), 0,
                                ((HALT,) * 257,)))
    run = tm.PassRun(MachineTable("byte", symbols[:256], 255, ("A",), 0,
                                  ((HALT,) * 255 + ((255, 1, 0),),)))
    run.advance(1000)
    assert (run.steps, run.head, run.halted) == (1000, 1000, False)
    assert run.visited() == (0, bytearray([255]) * 1001)


def _pass_steps(m, rng):
    """PassRun's pass steps of `m`, as `tm.pass_ends` takes them, each
    with a random cost from 1 to 4."""
    return [{s: (c[0], 2 * c[2] + (d > 0), rng.randint(1, 4))
             for s, c in enumerate(row) if c is not None and c[1] == d}
            for row in m.table for d in (-1, 1)]


def test_carry_crossing_agrees_with_composed_pass_steps():
    """Every CarryPass of 100 seeded random tables and of m54, whose two
    doubling keys each start one, against its pass steps composed one
    cell at a time.  The stretches are random strings of the key's pass
    symbols of every length from 0 to 64, and one of 4,400 cells, past
    the 4,300 digits CPython converts between an int and a string in a
    base that is not a power of two.  The written cells, the key at each
    cell, the key after them, the (key, symbol) log records `simcheck`
    makes of them and their summed cost agree."""
    rng = random.Random(28)
    m54 = machines.builtin_m54()
    doubling = {2 * m54.state_index(q) + 1 for q in ("mul2_F", "mul2_G")}
    crossed = 0
    for m in [_random_pass_table(rng) for _ in range(100)] + [m54]:
        pass_steps = _pass_steps(m, rng)
        ends, carries = tm.pass_ends(pass_steps, m.n_symbols)
        keys = {key for key, carry in enumerate(carries)
                if carry and len(ends[key]) < m.n_symbols}
        if m is m54:
            assert keys == doubling
        for key in keys:
            carry, crossed = carries[key], crossed + 1
            assert carry.keys[0] == key
            symbols = [s for s in range(m.n_symbols) if s not in ends[key]]
            for n in [*range(65), 4400]:
                stretch = bytes(rng.choice(symbols) for _ in range(n))
                k, log, written, cost = key, bytearray(), bytearray(), 0
                for s in stretch:
                    w, k2, c = pass_steps[k][s]
                    log += bytes((k, s))
                    written.append(w)
                    cost += c
                    k = k2
                cells, after = carry.cross(stretch)
                assert after == k
                assert cells.translate(carry.write) == written
                assert bytes(v & 127 for v in cells) == stretch
                records = bytearray(2 * n)
                records[0::2] = bytes(carry.keys[v >> 7] for v in cells)
                records[1::2] = stretch
                assert records == log
                assert carry.base * n + sum(
                    c * cells.count(v) for v, c in carry.extras) == cost
    assert crossed > 100


def test_cost_terms_sum_a_stretch_as_its_step_costs():
    """A stretch costs base times its length plus each extra times its
    byte's count, as the lockstep check costs sweeps and carry passes;
    bytes that all cost alike leave no extra to count."""
    rng = random.Random(29)
    for _ in range(200):
        costs = {v: rng.randint(1, 4)
                 for v in rng.sample(range(256), rng.randint(1, 6))}
        base, extras = tm.cost_terms(costs)
        stretch = bytes(rng.choice(list(costs)) for _ in range(50))
        assert base * len(stretch) + sum(
            extra * stretch.count(v) for v, extra in extras) == sum(
            costs[v] for v in stretch)
    assert tm.cost_terms({0: 2, 1: 2, 2: 2}) == (2, [])
    assert tm.cost_terms({}) == (0, [])


# Tables whose pass from (A, R) takes no bulk pass and has no self-loop
# symbol to fall back on, so PassRun steps it one cell at a time; C
# sweeps back to the blank left of the digits.  A and B swap on 1
# (_SWAP); A, B and D rotate on 1 (_ROTATE); and (A, R) keeps its state
# but writes every symbol anew, on 200 symbols, too many for a (key,
# symbol) byte (_WIDE).
_SWAP = machines.parse_machine(
    "symbols: 0 1 2\nblank: 0\nstates: A B C\ninit: A\n"
    "A 0 -> 1 L C\nA 1 -> 2 R B\nA 2 -> 2 R B\n"
    "B 0 -> 2 L C\nB 1 -> 1 R A\nB 2 -> 1 R B\n"
    "C 0 -> 0 R A\nC 1 -> 1 L C\nC 2 -> 2 L C\n", name="swap")
_ROTATE = machines.parse_machine(
    "symbols: 0 1 2\nblank: 0\nstates: A B D C\ninit: A\n"
    "A 0 -> 1 L C\nA 1 -> 2 R B\nA 2 -> 2 R B\n"
    "B 0 -> 2 L C\nB 1 -> 1 R D\nB 2 -> 1 R B\n"
    "D 0 -> 1 L C\nD 1 -> 2 R A\nD 2 -> 2 R D\n"
    "C 0 -> 0 R A\nC 1 -> 1 L C\nC 2 -> 2 L C\n", name="rotate")
_WIDE = MachineTable(
    "wide", tuple(str(i) for i in range(200)), 0, ("A", "C"), 0,
    (((1, -1, 1),) + tuple((s % 199 + 1, 1, 0) for s in range(1, 200)),
     ((0, 1, 0),) + tuple((s, -1, 1) for s in range(1, 200))))


@pytest.mark.parametrize("m", [_SWAP, _ROTATE, _WIDE],
                         ids=lambda m: m.name)
def test_pass_run_single_steps_a_key_without_a_bulk_pass(m):
    """On each planted table (A, R) has neither a sweep nor a carry
    crossing and ends on every symbol, and PassRun agrees with FlatRun
    and with tm.step at every target, the machine's passes growing by a
    cell each round."""
    run, flat, c = tm.PassRun(m), tm.FlatRun(m), tm.initial_configuration(m)
    a_right = 2 * m.state_index("A") + 1
    assert run._carries[a_right] is None
    assert len(run._ends[a_right]) == m.n_symbols
    for target in (1, 2, 7, 100, 1234, 3000):
        run.advance(target)
        flat.advance(target)
        _assert_same_run_state(run, flat)
        _assert_run_is_config(run, _step_to(m, c, target))
    assert len(run.visited()[1]) > 50


# Shaped like the bb5 champion's D: the pass from (D, L) reaches B and C
# as well, so it is not crossed whole, but D's write-back self-loop on 1
# sweeps; A sweeps right over the same growing run of 1s.
_THREE_KEYS = machines.parse_machine(
    "symbols: 0 1\nblank: 0\nstates: A B C D\ninit: A\n"
    "A 0 -> 1 L D\nA 1 -> 1 R A\nB 0 -> 1 R A\nB 1 -> 1 L C\n"
    "C 0 -> 0 R A\nC 1 -> 1 L D\nD 0 -> 1 L B\nD 1 -> 1 L D\n",
    name="three-keys")


def test_pass_run_sweeps_the_self_loop_of_a_key_reaching_three_keys():
    """(D, L) ends exactly on its symbols that are not self-loops, the
    blank, and sweeps the rest; PassRun agrees with FlatRun and with
    tm.step at every target, crossing each run of 1s in one move."""
    m = _THREE_KEYS
    run, flat, c = tm.PassRun(m), tm.FlatRun(m), tm.initial_configuration(m)
    d_left = 2 * m.state_index("D")
    assert (run._ends[d_left], run._carries[d_left]) == (b"\x00", None)
    for target in (1, 2, 7, 100, 1234, 3000):
        run.advance(target)
        flat.advance(target)
        _assert_same_run_state(run, flat)
        _assert_run_is_config(run, _step_to(m, c, target))
    assert len(run.visited()[1]) > 50 and run.moves < 200


def test_pass_run_sweeps_only_write_backs_past_128_symbols():
    """On 200 symbols (A, R) keeps its state on every symbol but the
    blank and writes each anew but 3, which 3 * 67 % 199 + 1 writes back:
    too many symbols for a carry crossing, so (A, R) sweeps 3 alone, and
    PassRun agrees with FlatRun and with tm.step."""
    m = MachineTable(
        "wide-3", tuple(str(i) for i in range(200)), 0, ("A", "C"), 0,
        (((1, -1, 1),) + tuple((s * 67 % 199 + 1, 1, 0)
                               for s in range(1, 200)),
         ((0, 1, 0),) + tuple((s, -1, 1) for s in range(1, 200))))
    run, flat, c = tm.PassRun(m), tm.FlatRun(m), tm.initial_configuration(m)
    a_right = 2 * m.state_index("A") + 1
    assert run._carries[a_right] is None
    assert run._ends[a_right] == bytes(s for s in range(200) if s != 3)
    for target in (1, 2, 7, 100, 1234, 3000):
        run.advance(target)
        flat.advance(target)
        _assert_same_run_state(run, flat)
        _assert_run_is_config(run, _step_to(m, c, target))


def test_pass_run_carry_crosses_both_of_m54s_doubling_keys(monkeypatch):
    """To s_100 each of the 100 doublings is one carry crossing, whose
    cells are stepped from both mul2_F and mul2_G, so losing the carry
    crossing fails here and not only slows the run down."""
    m = machines.builtin_m54()
    doubling = {2 * m.state_index(q) + 1 for q in ("mul2_F", "mul2_G")}
    crossed, cross = [], tm.CarryPass.cross

    def counted(carry, stretch):
        cells, key = cross(carry, stretch)
        crossed.append({carry.keys[v >> 7] for v in cells})
        return cells, key
    monkeypatch.setattr(tm.CarryPass, "cross", counted)
    run = tm.PassRun(m)
    assert {key for key, carry in enumerate(run._carries) if carry} == (
        doubling)
    run.advance(search.checkpoint_steps(100))
    assert len(crossed) == 100 and set().union(*crossed) == doubling


# The first machine halts at step 107; the second runs to any budget, and
# by step 2,000 its tape spans cells -49..26, past the decider pass's
# first list of 32 cells on both sides.
_BB4 = machines.parse_compact("1RB1LB_1LA0LC_---1LD_1RD0RA")
_WIDE_BOUNCER = machines.parse_compact("0RB1RD_1RC---_1LA1RC_1LB1LD")


@given(_tables(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=600))
@example(_BB4, 0, 0, 1000)
@example(_BB4, 0, 0, 107)
@example(_BB4, 0, 0, 106)
@example(_WIDE_BOUNCER, 0, 0, 2000)
@settings(max_examples=300, deadline=None)
def test_decider_pass_verdict_agrees_with_tm_step(m, blank, init, budget):
    """search._run_deciders steps the table's cells on a list of its own
    and returns plain values, a verdict tuple that search._classified
    turns into a Classification and a fork.  A halt at step t comes with
    the run saved before step t, whose cell is the (state, symbol)
    tm.step halts on at step t; (None, None) means tm.step is still
    running at the budget; a cycler verdict comes only where tm.step does
    not halt by the certificate's t2, which is at most the budget."""
    m = _relabelled(m, blank, init)
    verdict, fork = search._run_deciders(
        m.table, budget, search._SavedRun.start(m.init, m.blank))
    cls = search._classified(verdict)
    cell = fork and fork.cell
    c = tm.initial_configuration(m)
    if cls is None:
        assert verdict is None and cell is None
        _step_to(m, c, budget)
        assert c.step_count == budget and not c.halted
    elif cls.status == "halts":
        _step_to(m, c, cls.steps - 1)
        assert not c.halted and cell == (c.state, c.read())
        assert (fork.t, fork.head) == (cls.steps, c.head)
        tm.step(m, c)
        assert c.halted and c.step_count == cls.steps <= budget
    else:
        assert cls.status == "nonhalt" and cell is None
        _step_to(m, c, cls.certificate.t2)
        assert not c.halted
        assert c.step_count == cls.certificate.t2 <= budget


def test_machine_table_validation_rejects_bad_indices():
    with pytest.raises(ValidationError):
        MachineTable(name="bad", symbols=("0", "1"), blank=0,
                     states=("A",), init=0,
                     table=((Transition(5, R, 0), HALT),))
    with pytest.raises(ValidationError):
        MachineTable(name="bad", symbols=("0", "1"), blank=0,
                     states=("A",), init=3,
                     table=((HALT, HALT),))


def test_with_cell_replaces_one_transition(two_stepper):
    changed = two_stepper.with_cell(0, 0, HALT)
    assert changed.transition(0, 0) is HALT
    assert changed.transition(1, 0) == two_stepper.transition(1, 0)
    assert tm.run(changed, 10).step_count == 1


def _rows_with(m, state, symbol, tr):
    rows = [list(row) for row in m.table]
    rows[state][symbol] = tr
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("tr", [HALT, Transition(0, L, 0),
                                Transition(1, R, 1)])
def test_with_cell_equals_the_constructed_table(two_stepper, tr):
    """A derived table equals, and hashes as, the table the constructor
    builds from the same rows; the source table is left as it was."""
    before = two_stepper.table
    changed = two_stepper.with_cell(1, 1, tr)
    built = MachineTable(name=two_stepper.name, symbols=two_stepper.symbols,
                         blank=two_stepper.blank, states=two_stepper.states,
                         init=two_stepper.init,
                         table=_rows_with(two_stepper, 1, 1, tr))
    assert changed == built and hash(changed) == hash(built)
    assert changed.transition(1, 1) == tr
    assert two_stepper.table == before
    assert two_stepper.transition(1, 1) == Transition(1, L, 0)
    # the derived table derives further, and runs like the built one
    again = changed.with_cell(0, 1, Transition(0, L, 1))
    assert again.transition(1, 1) == changed.transition(1, 1)
    assert tm.run(changed, 50).step_count == tm.run(built, 50).step_count


@pytest.mark.parametrize("tr", [(1, R, 0), Transition(2, R, 0),
                                Transition(-1, R, 0), (0, 0, 0),
                                Transition(0, R, 2), Transition(0, L, -1),
                                (1.0, 1, 0), (0, 1.0, 0), (0, 1, True),
                                [0, 1, 0]],
                         ids=["not-a-transition", "write-too-big",
                              "write-negative", "bad-move",
                              "next-state-too-big", "next-state-negative",
                              "float-write", "float-delta",
                              "bool-next-state", "list-cell"])
def test_with_cell_rejects_a_bad_cell_as_the_constructor_does(two_stepper,
                                                              tr):
    with pytest.raises(ValidationError) as built:
        MachineTable(name="bad", symbols=two_stepper.symbols, blank=0,
                     states=two_stepper.states, init=0,
                     table=_rows_with(two_stepper, 1, 0, tr))
    with pytest.raises(ValidationError) as derived:
        two_stepper.with_cell(1, 0, tr)
    assert str(derived.value) == str(built.value)
    assert str(derived.value).startswith("cell (B, 0)")
    assert two_stepper.transition(1, 0) == Transition(1, L, 0)


def test_machine_table_rejects_rows_that_are_not_tuples(two_stepper):
    """The steppers extend each row with `row + (row[blank],)`, so a list
    row or table is rejected up front."""
    rows = two_stepper.table
    for table in ((list(rows[0]), rows[1]), list(rows)):
        with pytest.raises(ValidationError):
            MachineTable(name="bad", symbols=two_stepper.symbols, blank=0,
                         states=two_stepper.states, init=0, table=table)


def test_window_str_uses_symbol_labels(two_stepper):
    c = tm.initial_configuration(two_stepper)
    tm.step(two_stepper, c)
    assert tm.window_str(two_stepper, c, -1, 1) == "010"
    with pytest.raises(ValueError):
        tm.tape_window(c, 2, 1)


def test_moves_are_left_and_right_only():
    assert {L, R} == {"L", "R"}
    assert (Transition(1, L, 0), Transition(1, R, 0)) == ((1, -1, 0),
                                                          (1, 1, 0))
    with pytest.raises(ValidationError):
        Transition(0, "U", 0)
    with pytest.raises(ValidationError):
        MachineTable(name="bad", symbols=("0", "1"), blank=0,
                     states=("A",), init=0,
                     table=(((0, 0, 0), HALT),))


def test_halt_cells_survive_copying(two_stepper):
    """HALT is None, so a Halt cell stays `is HALT` through pickle and
    deepcopy, and the copies run as the original does."""
    assert HALT is None
    for copied in (pickle.loads(pickle.dumps(two_stepper)),
                   copy.deepcopy(two_stepper)):
        assert copied == two_stepper
        assert copied.transition(0, 1) is HALT
        assert tm.run(copied, 100).step_count == 3


def test_tape_keeps_written_cells_in_one_dict():
    t = Tape(blank=0)
    t.write(-3, 1)
    t.write(2, 1)
    assert t.cells == {-3: 1, 2: 1}
    u = t.clone()
    u.write(-3, 0)
    assert (t.read(-3), u.read(-3), u.read(2)) == (1, 0, 1)
