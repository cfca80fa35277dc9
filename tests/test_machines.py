"""Machine text format: parser, serializer, compact reader, builtins."""

import pytest

from bblab import machines, search, tm
from bblab.errors import ParseError, ValidationError
from bblab.machines import (BUILTIN_NAMES, builtin, parse_compact,
                            parse_machine, serialize_machine)

GOOD = """\
symbols: 0 1 2 #
blank: #
states: go stop
init: go
go 0 -> 1 R go
go 1 -> 2 L stop
go 2 -> halt
go # -> 0 R go
stop 0 -> halt
stop 1 -> halt
stop 2 -> halt
stop # -> halt
"""


def test_parse_good_machine():
    m = parse_machine(GOOD, name="good")
    assert m.name == "good"
    assert m.symbols == ("0", "1", "2", "#")
    assert m.blank == 3
    assert m.states == ("go", "stop")
    assert m.init == 0
    assert m.transition(0, 1) == tm.Transition(2, "L", 1) == (2, -1, 1)
    assert m.transition(0, 2) is tm.HALT


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_roundtrip(name):
    m = builtin(name)
    again = parse_machine(serialize_machine(m), name=m.name)
    assert again == m


def test_roundtrip_of_parsed_machine():
    m = parse_machine(GOOD, name="good")
    assert parse_machine(serialize_machine(m), name="good") == m


def test_comments_and_blank_lines_are_ignored():
    src = GOOD.replace("init: go", "init: go  ; initial state\n\n; comment")
    assert parse_machine(src, name="good") == parse_machine(GOOD, name="good")


def test_hash_is_a_symbol_not_a_comment():
    m = parse_machine(GOOD)
    assert "#" in m.symbols


def test_parse_error_carries_line_number():
    src = GOOD.replace("go 1 -> 2 L stop", "go 1 -> 2 U stop")
    with pytest.raises(ParseError) as exc:
        parse_machine(src)
    assert exc.value.line_no == 6
    assert "U" in exc.value.reason


def test_malformed_cell_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_machine(GOOD + "stray tokens without arrow\n")
    with pytest.raises(ParseError):
        parse_machine(GOOD.replace("go 2 -> halt", "go 2 -> halt extra"))


def test_duplicate_cell_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_machine(GOOD + "go 0 -> 1 R go\n")


def test_missing_cell_rejected():
    src = GOOD.replace("stop # -> halt\n", "")
    with pytest.raises(ValidationError, match="missing cell"):
        parse_machine(src)


def test_unknown_symbol_or_state_rejected():
    with pytest.raises(ValidationError, match="unknown"):
        parse_machine(GOOD.replace("go 0 -> 1 R go", "go 0 -> 9 R go"))
    with pytest.raises(ValidationError, match="unknown"):
        parse_machine(GOOD.replace("go 0 -> 1 R go", "go 0 -> 1 R nowhere"))


def test_missing_declarations_rejected():
    for line in ("symbols: 0 1 2 #", "blank: #", "states: go stop",
                 "init: go"):
        with pytest.raises(ValidationError):
            parse_machine(GOOD.replace(line + "\n", ""))


@pytest.mark.parametrize("line", ["symbols: 1 0 2 #", "blank: 0",
                                  "states: stop go", "init: stop"])
def test_repeated_declaration_is_a_parse_error(line):
    """A second declaration of the same kind is reported at its line,
    not silently taken over the first."""
    src = GOOD.replace("go 0 -> 1 R go\n", f"go 0 -> 1 R go\n{line}\n")
    with pytest.raises(ParseError) as exc:
        parse_machine(src)
    assert exc.value.line_no == 6
    assert exc.value.reason == f"repeated {line.split()[0]} declaration"


def test_undeclared_blank_or_init_rejected():
    with pytest.raises(ValidationError):
        parse_machine(GOOD.replace("blank: #", "blank: x"))
    with pytest.raises(ValidationError):
        parse_machine(GOOD.replace("init: go", "init: gone"))


def test_parse_compact_champion_matches_builtin():
    compact = parse_compact("1RB1LC_1RC1RB_1RD0LE_1LA1LD_---0LA",
                            name="bb5-champion")
    assert compact == builtin("bb5-champion")


def test_parse_compact_rejects_bad_rows():
    with pytest.raises(ValidationError):
        parse_compact("1RB1LC_1RC1R")        # short row
    with pytest.raises(ValidationError):
        parse_compact("1RB1LZ_1RA1RA")       # unknown state letter
    with pytest.raises(ValidationError):
        parse_compact("1UB1LA_1RA1RA")       # bad move


def test_cells_are_exact_tuples():
    """Every cell the steppers read is None or an exact tuple (write,
    delta, next state) with delta -1 or +1: CPython unpacks an exact tuple
    on its fast path and a tuple subclass on the generic one."""
    tables = [builtin(name) for name in BUILTIN_NAMES]
    tables.append(parse_compact("1RB1LC_1RC1RB_1RD0LE_1LA1LD_---0LA"))
    tables += search.enumerate_and_classify(2, 2, 100).champions
    for m in tables:
        for row in m.table:
            assert type(row) is tuple
            for tr in row:
                assert tr is None or (type(tr) is tuple and len(tr) == 3
                                      and tr[1] in (-1, 1)), (m.name, tr)


def test_builtin_lookup():
    assert builtin("m54").n_states == 5
    assert builtin("m54").n_symbols == 4
    assert builtin("m152").n_states == 15
    assert builtin("m152").n_symbols == 2
    with pytest.raises(ValidationError, match="unknown builtin"):
        builtin("nope")


def test_builtins_are_cached():
    assert builtin("m54") is builtin("m54")
