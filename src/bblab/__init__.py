"""Busy-beaver laboratory.

Exact Turing machine execution (tm), built-in machines and a text format
(machines), the base-3 doubling transducer (fst), base-3 digit strings
and the powers-of-two scanner (ternary), the lockstep simulation verifier
(simcheck), and small-space enumeration with non-halt deciders (search).
"""

from .tm import (HALT, L, R, Configuration, MachineTable, Tape, Transition,
                 initial_configuration, run, run_trace, step, tape_window,
                 window_str)
from .machines import (builtin, builtin_bb5_champion, builtin_m152,
                       builtin_m54, parse_compact, parse_machine,
                       serialize_machine)
from .fst import F, G, double_reverse_ternary, oracle_double, transduce
from .ternary import (ScanReport, TernaryNumber, decode_tape_number,
                      has_digit_two, power_of_two_ternary, powers_of_two,
                      scan_erdos)
from .simcheck import (DEFAULT_ENCODING, Encoding, SimulationTranscript,
                       head_map, state_map_h, step_cost, time_scale,
                       verify_simulation)
from .search import (Classification, CheckpointReport, CyclerCertificate,
                     EnumerationSummary, EscapeCertificate,
                     RegularClosureCertificate, TranslatedCyclerCertificate,
                     checkpoint_steps, classify, decide_cycler, decide_escape,
                     decide_regular_closure, decide_translated_cycler,
                     enumerate_and_classify, revalidate_certificate,
                     verify_checkpoints)

__version__ = "0.1.0"
