"""A corpus of classic litmus tests in the textual DSL.

Each entry records the test source and whether its ``exists`` clause
(the relaxed outcome) is observable on this simulator under RMO.  The
model is multi-copy atomic with program-ordered loads and drain-time
store visibility (see DESIGN.md), so store-buffer-driven relaxations
(SB, MP) are observable without fences and forbidden with the right
ones, while same-location coherence and fenced causality chains never
relax.

Expectations under each memory model for the classic tests (documented
deviations included; ``tests/test_litmus.py::test_outcome_table``
checks every cell on both coherence backends):

=====  ==========================  ====  ====  ====  ====
test   relaxed outcome             SC    TSO   PSO   RMO
=====  ==========================  ====  ====  ====  ====
SB     r0 == r1 == 0               no    yes   yes   yes
MP     r_flag == 1, r_data == 0    no    no    yes   yes
LB     r0 == r1 == 1               no    no    no    no*
CoRR   new then old (same addr)    no    no    no    no
IRIW   readers disagree on order   no    no    no    no*
=====  ==========================  ====  ====  ====  ====

(*) RMO permits LB and IRIW on paper; the simulator binds load values
at dispatch in program order and publishes stores to a single shared
image, making it multi-copy atomic with ordered loads.  This is the
documented functional-first approximation (DESIGN.md) -- it matches
TSO/PSO for load behaviour and does not affect fence-stall timing.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the timing-offset grid every corpus sweep runs: ``campaign --litmus``
#: and verify's seed 0
CORPUS_OFFSETS = [0, 1, 40, 150, 320]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: str
    observable_rmo: bool   # is the `exists` outcome observable under RMO?


CORPUS: list[CorpusEntry] = [
    CorpusEntry(
        "SB",
        """
        name SB
        x = 1  | y = 1
        r0 = y | r1 = x
        exists r0 == 0 and r1 == 0
        """,
        observable_rmo=True,
    ),
    CorpusEntry(
        "SB+fences",
        """
        name SB+fences
        x = 1  | y = 1
        fence  | fence
        r0 = y | r1 = x
        exists r0 == 0 and r1 == 0
        """,
        observable_rmo=False,
    ),
    CorpusEntry(
        # a load-load fence does not order the store before the load:
        # the SB outcome stays observable (mask selectivity)
        "SB+ll",
        """
        name SB+ll
        x = 1    | y = 1
        fence.ll | fence.ll
        r0 = y   | r1 = x
        exists r0 == 0 and r1 == 0
        """,
        observable_rmo=True,
    ),
    CorpusEntry(
        # MP: the reader pre-touches y (warming its line), so the
        # writer's younger y-store drains long before the older
        # cold-miss x-store -- the flag-before-data relaxation
        "MP",
        """
        name MP
        x = 1  | rw = y
        y = 1  | delay
               | r0 = y
               | r1 = x
        exists r0 == 1 and r1 == 0
        """,
        observable_rmo=True,
    ),
    CorpusEntry(
        "MP+ss",
        """
        name MP+ss
        x = 1    | rw = y
        fence.ss | delay
        y = 1    | r0 = y
                 | r1 = x
        exists r0 == 1 and r1 == 0
        """,
        observable_rmo=False,
    ),
    CorpusEntry(
        # same-location write order is never relaxed (coherence)
        "CoWR",
        """
        name CoWR
        x = 1  | r0 = x
        x = 2  | r1 = x
        exists r0 == 2 and r1 == 1
        """,
        observable_rmo=False,
    ),
    CorpusEntry(
        # WRC causality chain with fences everywhere must hold
        "WRC+fences",
        """
        name WRC+fences
        x = 1  | r0 = x | r1 = y
        fence  | fence  | fence
               | y = 1  | r2 = x
        exists r0 == 1 and r1 == 1 and r2 == 0
        """,
        observable_rmo=False,
    ),
]

