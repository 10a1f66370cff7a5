"""The synthesis corpus: stripped programs + hand-written placements.

Each entry pairs a litmus program (the synthesizer strips any fences
it carries) with the *hand-written* placement a careful developer
ships for the same ordering problem, so ``python -m repro synth`` can
table synthesized-vs-hand-written fence count, mode mix and measured
stall cycles.  Both sources share one ``exists`` clause and register
set, so the bad-outcome spec and the two oracles apply to either
verbatim.

Four classics cover the canonical relaxations:

* **SB** / **MP** / **WRC** are the litmus corpus programs; their
  hand-written placements are the corpus' own fenced siblings
  (``SB+fences``-style full fences; WRC keeps the hand version's
  traditional fence on the lone-store thread, which orders nothing --
  exactly the kind of paid-for-nothing fence synthesis deletes).
* **IRIW** needs independent reads of independent writes to stay
  consistent: hand-written full fences between each reader's loads.

Two kernels are distilled from the ``apps/`` suite -- small enough for
exhaustive oracles, faithful to the fence problem the app actually
has (unflagged private traffic in flight at the fence, the situation
scoped fences exist for):

* **barnes-publish** (from :mod:`repro.apps.barnes`): a thread
  publishes a flagged position update, spills to private unflagged
  scratch, then raises the flag; the reader polls the flag and reads
  the position.  The hand-written version brackets *every* store with
  ``fence.set`` the way barnes' SC-by-fences compilation does at
  delay-set boundaries.
* **ptc-handoff** (from :mod:`repro.apps.ptc` via its Chase-Lev
  deques): the owner stores a task slot, bumps an unflagged ticket
  counter, then publishes ``bottom``; the thief reads ``bottom`` then
  the slot.  The hand-written fences are the deque's class-scope
  S-Fences -- which, in a litmus program with no method scopes,
  degrade to the conservative global interpretation and wait out the
  ticket store the set-scope fence skips.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..litmus.dsl import parse_litmus


@dataclass(frozen=True)
class SynthEntry:
    """One synthesis case: the stripped program and the hand placement."""

    name: str
    source: str          # synthesis input (fences, if any, are stripped)
    handwritten: str     # the developer placement to compare against
    note: str = ""


SYNTH_CORPUS: list[SynthEntry] = [
    SynthEntry(
        "SB",
        """
        name SB
        x = 1  | y = 1
        r0 = y | r1 = x
        exists r0 == 0 and r1 == 0
        """,
        """
        name SB
        x = 1  | y = 1
        fence  | fence
        r0 = y | r1 = x
        exists r0 == 0 and r1 == 0
        """,
        note="store buffering; hand-written full fences (corpus SB+fences)",
    ),
    SynthEntry(
        "MP",
        """
        name MP
        x = 1  | rw = y
        y = 1  | delay
               | r0 = y
               | r1 = x
        exists r0 == 1 and r1 == 0
        """,
        """
        name MP
        x = 1  | rw = y
        fence  | delay
        y = 1  | r0 = y
               | fence
               | r1 = x
        exists r0 == 1 and r1 == 0
        """,
        note="message passing; hand-written full publish/consume fences",
    ),
    SynthEntry(
        "WRC",
        """
        name WRC
        x = 1  | r0 = x | r1 = y
               | y = 1  | r2 = x
        exists r0 == 1 and r1 == 1 and r2 == 0
        """,
        """
        name WRC
        x = 1  | r0 = x | r1 = y
        fence  | fence  | fence
               | y = 1  | r2 = x
        exists r0 == 1 and r1 == 1 and r2 == 0
        """,
        note="write-to-read causality; hand version fences all three "
             "threads (corpus WRC+fences), including the lone-store one",
    ),
    SynthEntry(
        "IRIW",
        """
        name IRIW
        x = 1 | y = 1 | r0 = x | r2 = y
              |       | r1 = y | r3 = x
        exists r0 == 1 and r1 == 0 and r2 == 1 and r3 == 0
        """,
        """
        name IRIW
        x = 1 | y = 1 | r0 = x | r2 = y
              |       | fence  | fence
              |       | r1 = y | r3 = x
        exists r0 == 1 and r1 == 0 and r2 == 1 and r3 == 0
        """,
        note="independent reads of independent writes; hand-written full "
             "fences between each reader's loads",
    ),
    SynthEntry(
        "barnes-publish",
        """
        name barnes-publish
        flag x y
        x = 1 | r0 = y
        p = 1 | r1 = x
        y = 1 |
        exists r0 == 1 and r1 == 0
        """,
        """
        name barnes-publish
        flag x y
        x = 1     | r0 = y
        fence.set | fence.set
        p = 1     | r1 = x
        fence.set |
        y = 1     |
        exists r0 == 1 and r1 == 0
        """,
        note="apps/barnes position publish: flagged data, unflagged "
             "scratch spill, flagged flag; hand version brackets every "
             "store at the delay-set boundaries",
    ),
    SynthEntry(
        "ptc-handoff",
        """
        name ptc-handoff
        flag task bot
        task = 7   | r0 = bot
        ticket = 1 | r1 = task
        bot = 1    |
        exists r0 == 1 and r1 == 0
        """,
        """
        name ptc-handoff
        flag task bot
        task = 7    | r0 = bot
        ticket = 1  | fence.class
        fence.class | r1 = task
        bot = 1     |
        exists r0 == 1 and r1 == 0
        """,
        note="apps/ptc deque handoff: the hand-written class-scope "
             "S-Fences degrade to global scope outside any method and "
             "wait out the unflagged ticket store",
    ),
]

_BY_NAME = {entry.name: entry for entry in SYNTH_CORPUS}


def synth_entry(name: str) -> SynthEntry:
    if name not in _BY_NAME:
        raise KeyError(
            f"unknown synth test {name!r} (have {sorted(_BY_NAME)})")
    return _BY_NAME[name]


def _check_shared_spec() -> None:
    """Corpus invariant: stripped and hand sources share one spec."""
    for entry in SYNTH_CORPUS:
        stripped = parse_litmus(entry.source)
        hand = parse_litmus(entry.handwritten)
        assert stripped.condition == hand.condition, entry.name
        assert stripped.name == hand.name == entry.name, entry.name
