"""Execution semantics: stepping, halting, tapes, bounded runs."""

import copy
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bblab import machines, tm
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
    """The run-length chain stepper behind run() must agree exactly with
    single-stepping, also when the budget ends inside a chain."""
    m = machines.builtin_bb5_champion()
    c = tm.initial_configuration(m)
    # The champion chains D over a run of 1s at steps 981..1032 and B at
    # steps 1035..1087; 1033 and 200_000 end where a chain ends, 1032 one
    # step before.
    for budget in (0, 1, 1000, 1032, 1033, 1060, 199_000, 200_000):
        _assert_same_run(tm.run(m, budget), _step_to(m, c, budget))


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
# Sweeps a growing run of 1s; its chains end at steps 3, 6, 10, ..., 190.
_BOUNCER = machines.parse_machine(
    "symbols: 0 1\nblank: 0\nstates: A B\ninit: A\n"
    "A 0 -> 1 L B\nA 1 -> 1 R A\nB 0 -> 1 R A\nB 1 -> 1 L B\n",
    name="bouncer")


@given(_tables(), st.integers(min_value=0, max_value=3000),
       st.lists(st.integers(min_value=0, max_value=3000), max_size=6))
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
    """run (the chain stepper) at `budget`, and run_trace (the flat-list
    stepper) at sorted `checkpoints`, against single steps.  Consecutive
    checkpoints 1, 2, 3, ... advance the flat-list stepper one step at a
    time, as the search deciders do."""
    _assert_same_run(tm.run(m, budget),
                     _step_to(m, tm.initial_configuration(m), budget))
    checkpoints.sort()
    snaps = tm.run_trace(m, checkpoints)
    c = tm.initial_configuration(m)
    for target, snap in zip(checkpoints, snaps):
        _assert_same_config(snap, _step_to(m, c, target))
    halted = [i for i, snap in enumerate(snaps) if snap.halted]
    assert len(snaps) == (halted[0] + 1 if halted else len(checkpoints))


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


def test_window_str_uses_symbol_labels(two_stepper):
    c = tm.initial_configuration(two_stepper)
    tm.step(two_stepper, c)
    assert tm.window_str(two_stepper, c, -1, 1) == "010"
    with pytest.raises(ValueError):
        tm.tape_window(c, 2, 1)


def test_moves_are_left_and_right_only():
    assert {L, R} == {"L", "R"}
    with pytest.raises(ValidationError):
        MachineTable(name="bad", symbols=("0", "1"), blank=0,
                     states=("A",), init=0,
                     table=((Transition(0, "U", 0), HALT),))


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
