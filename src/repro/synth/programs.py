"""Whole-program fence synthesis over ``apps/`` and ``algorithms/``.

The litmus-corpus synthesizer (:mod:`repro.synth.search`) enumerates
canonical sites of a seven-line DSL program and proves placements with
two exhaustive memory-model oracles.  Real programs are out of reach
for that recipe twice over: their site space is the delay-set
analysis' output, not a DSL enumeration, and their state space is far
beyond either exhaustive oracle.  This module closes both gaps:

* **Sites from delay-set analysis.**  Each app is concretely replayed
  at tiny scale (:func:`repro.apps.delay_set.record_program`), the
  Shasha-Snir graph of the recording is built, its critical cycles and
  delay pairs enumerated, and the app's *named fence slots* (the
  ``FencePlan`` labels the algorithms and apps now carry) classified
  live or dead by whether deleting them shrinks the statically
  enforced pattern set.  The mode lattice is searched per slot, not
  per textual site.
* **A soundness-oracle hierarchy.**  Distillable programs (the
  lock-free algorithms) have each critical-cycle *signature* distilled
  into a litmus-sized kernel that the existing DPOR + axiomatic oracle
  pair proves exactly, with the spec derived differentially (bad =
  allowed without fences, minus allowed under the hand-written
  placement).  Full-scale apps get the *chaos-campaign oracle*: N
  seeded fault-schedule runs through :func:`repro.chaos.runner.run_plan_case`
  with the :class:`~repro.chaos.invariants.DelayPairChecker` watching
  the delay-set ordering requirements, judged by rejection sampling
  with an explicit confidence figure calibrated against the mutation
  battery's observed kill rate.  The monitor spec is calibrated on the
  hand placement's own battery, which runs once: the runs that show
  which patterns the hand fences trip also judge the hand placement
  (:func:`hand_battery`).

Every synthesized placement must statically enforce the same
delay-pair pattern floor as the hand-written one; the chaos oracle
then polices the dynamic side.  A placement the static floor accepts
but a chaos run rejects is an *oracle disagreement* and aborts
synthesis rather than silently trusting either side, mirroring the
DPOR-vs-axiomatic agreement rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from ..algorithms.chase_lev import WorkStealingDeque
from ..algorithms.harris_set import HarrisSet
from ..algorithms.workloads import build_harris_workload, build_wsq_workload
from ..apps.barnes import build_barnes
from ..apps.delay_set import (
    ProgramSkeleton,
    RecordedFence,
    critical_cycle_summary,
    enforced_patterns,
    record_program,
    required_patterns,
)
from ..apps.ptc import build_ptc
from ..apps.radiosity import build_radiosity
from ..chaos.runner import run_plan_case
from ..isa.instructions import FenceKind, WAIT_LOADS, WAIT_STORES
from ..isa.program import Program
from ..litmus.dsl import LitmusTest, abstract_threads
from ..core.semantics import reference_allowed_outcomes
from ..runtime.harness import MODE_KIND, FencePlan
from ..runtime.lang import Env
from ..sim.config import SimConfig
from ..verify.explorer import explore_allowed_outcomes
from .search import SynthesisError, synthesize
from .sites import MODE_STMT, MODES, FenceSite, strip_test

#: default chaos-oracle battery for validating a placement
CHAOS_SCENARIOS = ("drain", "latency")
CHAOS_SEEDS = (0, 1)
#: default battery for the anti-vacuity mutants (drain throttling keeps
#: stores buffered long enough that a deleted fence is near-certain to
#: let the DelayPairChecker observe the reordering)
MUTANT_SCENARIOS = ("drain",)
MUTANT_SEEDS = (0, 1)

#: mutant runs get a deliberately small budget and no escalation
#: ladder: a sound placement finishes its validation workload in a few
#: thousand cycles, while a broken mutant often *livelocks* the
#: algorithm outright (e.g. Harris search spinning on a never-published
#: node) -- with the default 600k-cycle budget times the x2 escalation
#: ladder that one kill would cost minutes of simulation.  Running out
#: of 20k cycles is itself unambiguous kill evidence at this scale.
MUTANT_BUDGET = 20_000
MUTANT_ESCALATIONS = 0

#: at most this many distinct cycle signatures are distilled per app;
#: more is an analysis explosion, and truncation is reported, never silent
KERNEL_CAP = 64

#: per-slot mode lattice of the whole-program search, weakest first.
#: ``none`` is only reachable for *dead* slots (no delay pair crosses
#: them); live slots search strengths only, so the static floor stays
#: intact by construction on the chaos path.
APP_LATTICE = ("sfence-set", "sfence-class", "full")


# ------------------------------------------------------------------ the corpus
@dataclass(frozen=True)
class AppEntry:
    """One whole-program synthesis target.

    ``record`` replays the app at tiny scale (always built at
    ``FenceKind.SET`` so the recorded flags match a set-scope runtime
    build); ``chaos_build``/``cost_build`` construct the real workload
    at small (fault-injected validation) and moderate (fault-free cost
    measurement) scale with an arbitrary :class:`FencePlan` swapped in.
    """

    name: str
    oracle: str                   # "dpor+axiomatic" | "chaos"
    hand_mode: str                # lattice mode of the shipped placement
    hand_scope: FenceKind         # scope the shipped build runs at
    schedule: str                 # replay schedule for record_program
    record: Callable[[], ProgramSkeleton]
    chaos_build: Callable[[Env, FencePlan, FenceKind, bool], object]
    cost_build: Callable[[Env, FencePlan, FenceKind], object]
    note: str = ""
    #: which fault scenarios expose *this* app's protocol when a fence
    #: is weakened.  Store-buffer drain throttling catches most corpus
    #: members; ptc's deque hand-off only comes apart under scope-fault
    #: injection, so its battery runs there.
    mutant_scenarios: tuple = MUTANT_SCENARIOS
    mutant_seeds: tuple = MUTANT_SEEDS


def _record_chase_lev() -> ProgramSkeleton:
    env = Env(SimConfig())
    deque = WorkStealingDeque(env, capacity=8, scope=FenceKind.SET)

    def owner(tid: int):
        for task in (1, 2, 3):
            yield from deque.put(task)
        yield from deque.take()

    def thief(tid: int):
        yield from deque.steal()
        yield from deque.steal()

    return record_program(
        Program([owner, thief], name="chase-lev"), env.memory)


def _record_harris() -> ProgramSkeleton:
    env = Env(SimConfig())
    sset = HarrisSet(env, pool_size=16, scope=FenceKind.SET)

    def t0(tid: int):
        yield from sset.insert(3)
        yield from sset.insert(7)

    def t1(tid: int):
        yield from sset.insert(5)
        yield from sset.delete(3)
        yield from sset.contains(7)

    return record_program(Program([t0, t1], name="harris-list"), env.memory)


def _record_barnes() -> ProgramSkeleton:
    env = Env(SimConfig())
    inst = build_barnes(env, n_bodies=4, n_threads=2, scope=FenceKind.SET)
    return record_program(inst.program, env.memory)


def _record_ptc() -> ProgramSkeleton:
    env = Env(SimConfig())
    inst = build_ptc(env, n_vertices=6, avg_out_degree=1.5, n_threads=2,
                     scope=FenceKind.SET, compute_per_successor=0)
    return record_program(inst.program, env.memory, schedule="round-robin")


def _record_radiosity() -> ProgramSkeleton:
    # exchange_every=1 so the recording actually exercises the shared
    # exchange region: with the default cadence the two tasks per
    # thread at this scale never emit, the skeleton sees a single
    # conflicting base, and no distinct-base pattern can form
    env = Env(SimConfig())
    inst = build_radiosity(env, n_patches=4, interactions_per_patch=3,
                           rounds=2, n_threads=2, scope=FenceKind.SET,
                           exchange_every=1)
    return record_program(inst.program, env.memory)


APP_CORPUS: dict[str, AppEntry] = {
    e.name: e
    for e in (
        AppEntry(
            "chase-lev", "dpor+axiomatic", "sfence-class", FenceKind.CLASS,
            "sequential", _record_chase_lev,
            lambda env, plan, scope, br: build_wsq_workload(
                env, scope=scope, iterations=4, workload_level=1,
                n_threads=4, emit_branches=br, fence_plan=plan),
            lambda env, plan, scope: build_wsq_workload(
                env, scope=scope, iterations=8, workload_level=1,
                n_threads=4, fence_plan=plan),
            note="work-stealing deque; kernels distilled per cycle signature",
        ),
        AppEntry(
            "harris-list", "dpor+axiomatic", "sfence-class", FenceKind.CLASS,
            "sequential", _record_harris,
            lambda env, plan, scope, br: build_harris_workload(
                env, scope=scope, iterations=3, workload_level=1,
                n_threads=4, emit_branches=br, fence_plan=plan),
            lambda env, plan, scope: build_harris_workload(
                env, scope=scope, iterations=6, workload_level=1,
                n_threads=4, fence_plan=plan),
            note="lock-free list; load-ordering slot provable only by kernels",
        ),
        AppEntry(
            "barnes", "chaos", "sfence-set", FenceKind.SET,
            "sequential", _record_barnes,
            lambda env, plan, scope, br: build_barnes(
                env, n_bodies=12, n_threads=4, scope=scope, fence_plan=plan),
            lambda env, plan, scope: build_barnes(
                env, n_bodies=32, n_threads=4, scope=scope, fence_plan=plan),
            note="SPLASH-2 force step; full-scale, chaos-campaign oracle",
        ),
        AppEntry(
            "ptc", "chaos", "sfence-class", FenceKind.CLASS,
            "round-robin", _record_ptc,
            lambda env, plan, scope, br: build_ptc(
                env, n_vertices=10, avg_out_degree=1.8, n_threads=4,
                scope=scope, compute_per_successor=10, fence_plan=plan),
            lambda env, plan, scope: build_ptc(
                env, n_vertices=24, avg_out_degree=2.0, n_threads=4,
                scope=scope, compute_per_successor=20, fence_plan=plan),
            note="transitive closure over work-stealing deques",
            # drain throttling never breaks ptc's deque hand-off; the
            # latency-spike scenario at these seeds kills every mutant
            # (delete and weaken alike) while the hand build stays clean
            mutant_scenarios=("latency",),
            mutant_seeds=(4, 15),
        ),
        AppEntry(
            "radiosity", "chaos", "sfence-set", FenceKind.SET,
            "sequential", _record_radiosity,
            lambda env, plan, scope, br: build_radiosity(
                env, n_patches=8, interactions_per_patch=4, rounds=1,
                n_threads=4, scope=scope, exchange_every=1, fence_plan=plan),
            lambda env, plan, scope: build_radiosity(
                env, n_patches=24, interactions_per_patch=6, rounds=2,
                n_threads=4, scope=scope, exchange_every=1, fence_plan=plan),
            note="SPLASH-2 gather/publish rounds; chaos-campaign oracle",
        ),
    )
}


def app_names() -> list[str]:
    return list(APP_CORPUS)


def app_entry(name: str) -> AppEntry:
    try:
        return APP_CORPUS[name]
    except KeyError:
        raise KeyError(
            f"unknown app synth target {name!r} (have {sorted(APP_CORPUS)})"
        ) from None


# ------------------------------------------------------------------- analysis
@dataclass
class AppAnalysis:
    """The delay-set view of one recorded app."""

    skel: ProgramSkeleton
    cycles: int                   # critical cycles, counted
    pairs: set
    components: int
    blocks: list                  # CriticalCycles.blocks
    patterns: set                 # runtime-checkable requirements
    hand_enforced: set            # floor: what the hand placement enforces
    slots: dict[str, list[RecordedFence]]
    live: list[str]
    dead: list[str]


def analyze_app(entry: AppEntry) -> AppAnalysis:
    """Record, summarize the critical cycles, classify the fence slots."""
    skel = entry.record()
    summary = critical_cycle_summary(skel)
    patterns = required_patterns(skel, summary.pairs)
    slots = skel.slots()
    hand = {s: entry.hand_mode for s in slots}
    hand_enforced = enforced_patterns(skel, patterns, modes=hand)
    live, dead = [], []
    for slot in sorted(slots):
        without = dict(hand)
        without[slot] = "none"
        if enforced_patterns(skel, patterns, modes=without) == hand_enforced:
            dead.append(slot)
        else:
            live.append(slot)
    return AppAnalysis(
        skel=skel, cycles=summary.count, pairs=summary.pairs,
        components=summary.components, blocks=summary.blocks,
        patterns=patterns, hand_enforced=hand_enforced,
        slots=slots, live=live, dead=dead,
    )


# ------------------------------------------------- kernel path (dpor oracle)
def _clean(base: str) -> str:
    return re.sub(r"\W+", "_", base)


def _slots_between(skel: ProgramSkeleton, entry_key, exit_key) -> tuple:
    """Named fence slots strictly between two same-thread accesses."""
    t = entry_key[0]
    names, seen = [], set()
    for f in sorted(skel.thread_fences(t), key=lambda f: f.after):
        if f.name and f.covers(entry_key[1], exit_key[1]):
            if f.name not in seen:
                seen.add(f.name)
                names.append(f.name)
    return tuple(names)


def _block_signature(skel: ProgramSkeleton, entry, exit_) -> tuple:
    """The shape of one thread block of a critical cycle.

    ``(entry, slot-names-between, exit-or-None)`` where each access is
    abstracted to ``(base, kind, op, flagged)``; a single-access block
    (``exit_ == entry``) has no slots and no exit.
    """
    def desc(key):
        a = skel.access(key)
        return (a.base, a.kind, a.op, a.flagged)

    if exit_ == entry:
        return (desc(entry), (), None)
    return (desc(entry), _slots_between(skel, entry, exit_), desc(exit_))


def cycle_signatures(skel: ProgramSkeleton, blocks: list) -> set:
    """The distinct rotation-canonical signatures of the critical cycles.

    A cycle's signature is its two block shapes, in the rotation with
    the lesser ``repr``; cycles with the same signature distill to the
    same kernel.  Built per block-entry pair of ``blocks``
    (:attr:`CriticalCycles.blocks`) from the distinct block shapes on
    each side, so the cycles are never listed.
    """
    signatures: set = set()
    for s, xas, v, ybs in blocks:
        firsts = {_block_signature(skel, s, xa) for xa in xas}
        seconds = {_block_signature(skel, v, yb) for yb in ybs}
        for a in firsts:
            for b in seconds:
                signatures.add(min((a, b), (b, a), key=repr))
    return signatures


def _fence_stmt(mode: str, waits: int) -> str:
    stmt = MODE_STMT[mode]
    if waits == WAIT_STORES:
        return stmt + ".ss"
    if waits == WAIT_LOADS:
        return stmt + ".ll"
    return stmt


@dataclass
class Kernel:
    """One distilled critical-cycle kernel plus its differential spec."""

    name: str
    signature: tuple
    hand: LitmusTest              # with the hand-written fences rendered
    stripped: LitmusTest
    sites: list[FenceSite]
    site_slots: list[tuple]       # parallel to sites: slot names at the site
    forbidden: set                # allowed(stripped) - allowed(hand)
    slot_fences: dict             # slot -> exemplar RecordedFence


def _agreed_allowed(test: LitmusTest) -> set:
    """Both oracles' allowed set; disagreement aborts synthesis."""
    threads = abstract_threads(test)
    init = dict(test.init)
    exploration = explore_allowed_outcomes(threads, init)
    reference = reference_allowed_outcomes(threads, init)
    if exploration.outcomes != reference:
        raise SynthesisError(
            f"{test.name}: oracle disagreement: explorer-only "
            f"{sorted(exploration.outcomes - reference)}, reference-only "
            f"{sorted(reference - exploration.outcomes)}"
        )
    return exploration.outcomes


def _render_kernel(name: str, sig: tuple, slot_fences: dict,
                   hand_mode: str, drop_slot: str | None = None) -> LitmusTest:
    """The hand-fenced litmus rendering of one cycle signature.

    CAS accesses render as stores (the write is what a delay pair
    orders); store values are distinct and nonzero so outcomes
    discriminate; ``drop_slot`` omits one slot's fences (the kernel
    mutation check).
    """
    value = 0
    flagged: set[str] = set()
    threads: list[list[str]] = []
    for t, (entry, slots, exit_) in enumerate(sig):
        regs = 0
        stmts: list[str] = []

        def render(desc):
            nonlocal value, regs
            base, kind, _op, fl = desc
            var = _clean(base)
            if fl:
                flagged.add(var)
            if kind == "w":
                value += 1
                return f"{var} = {value}"
            reg = f"r{t}_{regs}"
            regs += 1
            return f"{reg} = {var}"

        stmts.append(render(entry))
        if exit_ is not None:
            for slot in slots:
                if slot == drop_slot:
                    continue
                f = slot_fences[slot]
                stmts.append(_fence_stmt(hand_mode, f.waits))
            stmts.append(render(exit_))
        threads.append(stmts)
    if not flagged:
        # a kernel with no flagged access must not inherit the
        # flag-everything fallback, or sfence-set would order it all
        flagged = {"__none__"}
    return LitmusTest(name, threads, {}, flagged, None)


def distill_kernels(entry: AppEntry, analysis: AppAnalysis,
                    cap: int = KERNEL_CAP) -> tuple[list[Kernel], int]:
    """One kernel per distinct critical-cycle signature.

    Returns ``(kernels, n_signatures)``; kernels whose differential
    spec is empty (the hand fences never constrained the cycle) are
    kept with ``forbidden == set()`` so callers can count vacuity.
    """
    slot_fences = {s: fs[0] for s, fs in analysis.slots.items()}
    signatures = cycle_signatures(analysis.skel, analysis.blocks)
    truncated = len(signatures)
    signatures = sorted(signatures, key=repr)[:cap]

    kernels: list[Kernel] = []
    for k, sig in enumerate(signatures):
        name = f"{entry.name}-k{k}"
        hand = _render_kernel(name, sig, slot_fences, entry.hand_mode)
        stripped = strip_test(hand)
        sites: list[FenceSite] = []
        site_slots: list[tuple] = []
        for t, (_entry, slots, exit_) in enumerate(sig):
            if exit_ is not None and slots:
                sites.append(FenceSite(t, 0, ",".join(slots)))
                site_slots.append(slots)
        forbidden = _agreed_allowed(stripped) - _agreed_allowed(hand)
        kernels.append(Kernel(
            name=name, signature=sig, hand=hand, stripped=stripped,
            sites=sites, site_slots=site_slots, forbidden=forbidden,
            slot_fences=slot_fences,
        ))
    return kernels, truncated


_RANK = {m: i for i, m in enumerate(MODES)}


def synthesize_kernel_slots(entry: AppEntry, analysis: AppAnalysis,
                            kernels: list[Kernel],
                            on_progress=None) -> tuple[dict, dict]:
    """Per-slot modes: the strongest any kernel's synthesis demands.

    Every kernel is synthesized over the full lattice (``none``
    included -- the kernels, not the static floor, are the designated
    oracle here) with the slot-bearing block boundaries as the only
    sites; the per-site results are unioned per slot, strongest wins.
    Slots no constrained kernel touches fall to ``none``.
    """
    assignment = {slot: "none" for slot in analysis.slots}
    per_kernel: dict[str, dict] = {}
    for kernel in kernels:
        if not kernel.forbidden:
            per_kernel[kernel.name] = {"vacuous": True}
            continue
        result = synthesize(
            kernel.stripped, sites=kernel.sites, forbidden=kernel.forbidden,
            # the app-realizable lattice: a slot can hold a scoped fence
            # or nothing; ``full`` is the traditional-fence baseline the
            # apps exist to avoid, and abstractly sfence-class already
            # covers it
            modes=("none", "sfence-set", "sfence-class"),
            offsets=[0, 40], on_progress=on_progress,
        )
        per_kernel[kernel.name] = {
            "vacuous": False,
            "placement": result.placement(),
            "forbidden": len(kernel.forbidden),
        }
        for slots, mode in zip(kernel.site_slots, result.assignment):
            for slot in slots:
                if _RANK[mode] > _RANK[assignment[slot]]:
                    assignment[slot] = mode
    return assignment, per_kernel


def kernel_mutant_kills(entry: AppEntry, analysis: AppAnalysis,
                        kernels: list[Kernel]) -> dict:
    """Which hand-placement mutants the kernel oracle kills.

    Deleting slot ``s`` from every kernel's hand rendering must admit
    at least one differentially-forbidden outcome somewhere, or the
    battery is vacuous for that slot.
    """
    kills: dict[str, dict] = {}
    for slot in analysis.live:
        admitted = []
        for kernel in kernels:
            if not kernel.forbidden:
                continue
            if not any(slot in slots for slots in kernel.site_slots):
                continue
            mutant = _render_kernel(
                kernel.name, kernel.signature, kernel.slot_fences,
                entry.hand_mode, drop_slot=slot)
            bad = _agreed_allowed(mutant) & kernel.forbidden
            if bad:
                admitted.append(
                    {"kernel": kernel.name,
                     "admits": sorted([list(o) for o in bad])[:4]})
        kills[f"{slot}:delete"] = {
            "kind": "delete", "slot": slot,
            "killed": bool(admitted), "runs": 1,
            "kills": 1 if admitted else 0,
            "evidence": admitted[:2],
        }
    return kills


# -------------------------------------------------- chaos path (full apps)
def _static_floor_holds(analysis: AppAnalysis, assignment: dict) -> bool:
    """Does a slot->mode assignment still enforce the hand floor?"""
    held = enforced_patterns(analysis.skel, analysis.patterns,
                             modes=assignment)
    return held >= analysis.hand_enforced


WEAKER = {"full": "sfence-class", "sfence-class": "sfence-set"}


def weaken_slots(entry: AppEntry, analysis: AppAnalysis) -> dict:
    """Greedy static weakening: hand modes stepped down to a fixpoint.

    Dead slots drop to ``none`` one at a time -- a slot can be
    *individually* dead but jointly load-bearing (radiosity's ``flush``
    and the next round's ``gather`` are back-to-back and cover for each
    other), so every drop re-proves the floor on the cumulative
    assignment.  Surviving slots then weaken one lattice step at a time
    (``full -> sfence-class -> sfence-set``) while the statically
    enforced pattern set still covers the hand floor.  The result is
    the candidate the chaos-campaign oracle then validates.
    """
    assignment = {slot: entry.hand_mode for slot in analysis.slots}
    for slot in sorted(analysis.dead):
        trial = dict(assignment)
        trial[slot] = "none"
        if _static_floor_holds(analysis, trial):
            assignment = trial
    changed = True
    while changed:
        changed = False
        for slot in sorted(assignment):
            weaker = WEAKER.get(assignment[slot])
            if weaker is None:
                continue
            trial = dict(assignment)
            trial[slot] = weaker
            if _static_floor_holds(analysis, trial):
                assignment = trial
                changed = True
    return assignment


def plan_scope(entry: AppEntry, assignment: dict) -> FenceKind:
    """Set-scope builds are needed the moment any slot runs sfence-set."""
    if any(mode == "sfence-set" for mode in assignment.values()):
        return FenceKind.SET
    return entry.hand_scope


def builds_hand_program(entry: AppEntry, analysis: AppAnalysis,
                        assignment: dict, scope: FenceKind) -> bool:
    """Whether a synthesized placement builds exactly the hand program.

    The hand plan gives every fence call the kind of the build's scope;
    a synthesized plan run at the hand scope that assigns every
    recorded slot the hand mode, whose kind is the hand scope, gives
    every call the same fence.  The hand battery's verdict and the hand
    cost run then stand for the synthesized placement too.

    It reads only the slots the recording reached, and the synthesized
    plan elides every other slot while the hand plan fences it, so it
    holds only if the recording reaches every slot the chaos and cost
    builds fence -- a slot behind a CAS retry included.
    ``tests/test_hand_battery.py`` checks that on every battery cell
    and cost build of each app it holds for.
    """
    return (scope is entry.hand_scope
            and MODE_KIND.get(entry.hand_mode) is entry.hand_scope
            and set(assignment) == set(analysis.slots)
            and all(mode == entry.hand_mode for mode in assignment.values()))


def _run_battery(entry: AppEntry, plan: FencePlan, scope: FenceKind,
                 patterns: set, scenarios, seeds, base_budget: int,
                 escalations: int = 3, on_progress=None,
                 watch_only: bool = False) -> tuple[dict, set]:
    """Run every (scenario, seed) cell of one placement's battery.

    Returns ``(verdict, violated)``: the rejection-sampling verdict
    (``runs``, ``failures``, ``ok``) and the union of the delay patterns
    the cells' :class:`~repro.chaos.invariants.DelayPairChecker` saw
    violated.  ``watch_only`` keeps those violations out of the verdict
    (see :func:`repro.chaos.runner.run_plan_case`).
    """
    def builder(env, emit_branches):
        return entry.chaos_build(env, plan, scope, emit_branches)

    runs, failures, violated = 0, [], set()
    for scenario in scenarios:
        for seed in seeds:
            rep = run_plan_case(
                builder, scenario, seed, patterns=patterns,
                label=entry.name, base_budget=base_budget,
                escalations=escalations, watch_only=watch_only)
            runs += 1
            violated.update(tuple(p) for p in rep.pair_violated)
            if on_progress is not None:
                on_progress()
            if not rep.ok:
                failures.append({
                    "scenario": scenario, "seed": seed,
                    "status": rep.status,
                    "detail": rep.detail.splitlines()[0] if rep.detail else "",
                })
    return {"runs": runs, "failures": failures, "ok": not failures}, violated


def chaos_validate(entry: AppEntry, plan: FencePlan, scope: FenceKind,
                   patterns: set, scenarios, seeds,
                   base_budget: int = 600_000, escalations: int = 3,
                   on_progress=None) -> dict:
    """N-run rejection sampling of one concrete placement.

    Every (scenario, seed) cell rebuilds the app from scratch with the
    plan swapped in, runs it under seeded fault injection with the
    ordering checker *and* the delay-pair checker watching, and judges
    the run by both checkers plus the workload's own invariants.
    """
    verdict, _violated = _run_battery(
        entry, plan, scope, patterns, scenarios, seeds,
        base_budget, escalations, on_progress)
    return verdict


def hand_battery(entry: AppEntry, candidates: set, scenarios, seeds,
                 base_budget: int = 600_000,
                 on_progress=None) -> tuple[set, set, dict]:
    """One chaos battery of the hand placement: calibrated spec + verdict.

    The static ``hand_enforced`` set generalises from one recorded path
    per thread, but a chaos cell can drive the workload down paths the
    recording never took (failed steals, contention retries) where an
    accidentally-enforced pair has no fence between its accesses.  The
    hand placement is ground truth, so every pattern it dynamically
    reorders somewhere in the battery is calibrated out; what survives
    is the ordering contract the hand fences actually maintain -- the
    spec synthesized placements and mutants are then held to, the same
    differential move the kernel oracle makes with allowed-outcome
    sets.

    The candidates are watched, not judged, so the same runs also give
    the hand verdict.  That verdict is exactly what judging the hand
    placement again with the calibrated spec would give: the cells are
    deterministic replays, the delay-pair checker flags each pattern
    independently of the others, and every pattern one of these runs
    trips is calibrated out, so a second pass's pair checker could
    never fire and its verdict would rest on the supervisor, the
    ordering checker and ``check()`` alone -- which is what a
    watch-only run is judged by.  Returns ``(monitored, discarded,
    hand_verdict)``.
    """
    verdict, violated = _run_battery(
        entry, FencePlan.hand(), entry.hand_scope, candidates, scenarios,
        seeds, base_budget, on_progress=on_progress, watch_only=True)
    return candidates - violated, violated, verdict


def chaos_mutants(entry: AppEntry, analysis: AppAnalysis) -> list[dict]:
    """The anti-vacuity battery: one mutant per live hand fence.

    ``delete`` elides the slot; ``weaken`` steps a stronger-than-set
    slot down to ``sfence-set`` *while keeping the hand build's scope*,
    where nothing is flagged -- the fence still executes but orders
    nothing, the subtler way a placement rots.
    """
    mutants = []
    for slot in analysis.live:
        mutants.append({"slot": slot, "kind": "delete",
                        "modes": {slot: "none"}})
        if entry.hand_mode in WEAKER:
            mutants.append({"slot": slot, "kind": "weaken",
                            "modes": {slot: "sfence-set"}})
    return mutants


def run_mutation_battery(entry: AppEntry, analysis: AppAnalysis,
                         patterns: set, scenarios, seeds,
                         base_budget: int = MUTANT_BUDGET,
                         escalations: int = MUTANT_ESCALATIONS,
                         on_progress=None) -> dict:
    """Run every mutant through the chaos battery; count kills per run.

    ``patterns`` should be the *calibrated* monitor set so that a kill
    always names a reordering the hand build provably never commits.
    """
    results: dict[str, dict] = {}
    for mutant in chaos_mutants(entry, analysis):
        plan = FencePlan(mutant["modes"], default="hand")
        verdicts = chaos_validate(
            entry, plan, entry.hand_scope, patterns,
            scenarios, seeds, base_budget=base_budget,
            escalations=escalations, on_progress=on_progress)
        kills = len(verdicts["failures"])
        results[f"{mutant['slot']}:{mutant['kind']}"] = {
            "kind": mutant["kind"], "slot": mutant["slot"],
            "killed": kills > 0, "runs": verdicts["runs"], "kills": kills,
            "evidence": verdicts["failures"][:2],
        }
    return results


# --------------------------------------------------------------- cost + case
def measure_app_cycles(entry: AppEntry, plan: FencePlan, scope: FenceKind,
                       check: bool = True,
                       max_cycles: int = 100_000) -> int | None:
    """Fault-free cycle count of one placement at moderate scale.

    ``None`` when the run fails (the fence-free baseline may
    legitimately corrupt itself or never terminate -- that *is* the
    result; the paper's apps are incorrect without their fences).  The
    cap is ~14x the largest sound run in the corpus (~7k cycles), so
    hitting it means livelock, not slowness.
    """
    env = Env(SimConfig(n_cores=4))
    handle = entry.cost_build(env, plan, scope)
    try:
        res = env.run(handle.program, max_cycles=max_cycles)
        if check:
            handle.check()
    except (AssertionError, RuntimeError):
        return None
    return res.cycles


def _battery_stats(battery: dict) -> dict:
    mutants = len(battery)
    killed = sum(1 for m in battery.values() if m["killed"])
    rates = [m["kills"] / m["runs"] for m in battery.values() if m["runs"]]
    return {
        "mutants": mutants,
        "killed": killed,
        "kill_rate": round(killed / mutants, 6) if mutants else 1.0,
        "p_floor": round(min(rates), 6) if rates else 1.0,
    }


def _confidence(p_floor: float, runs: int) -> float:
    """Rejection-sampling confidence: P(>=1 kill in N runs) at the
    weakest observed per-run detection rate."""
    return round(1.0 - (1.0 - p_floor) ** runs, 6)


def run_app_synth_case(
    name: str,
    scenarios=CHAOS_SCENARIOS,
    seeds=CHAOS_SEEDS,
    mutant_scenarios=None,
    mutant_seeds=None,
    base_budget: int = 600_000,
    measure_costs: bool = True,
    on_progress=None,
) -> dict:
    """Synthesize + validate one app; returns the report payload.

    Deterministic end to end: the recording replay, the static
    analysis, the kernel oracles, the seeded chaos schedules and the
    fault-free cost runs all derive from fixed seeds, so the committed
    report reproduces byte-identically.
    """
    entry = app_entry(name)
    if mutant_scenarios is None:
        mutant_scenarios = entry.mutant_scenarios
    if mutant_seeds is None:
        mutant_seeds = entry.mutant_seeds
    analysis = analyze_app(entry)
    slots_payload = {
        slot: {
            "hand_mode": entry.hand_mode,
            "live": slot in analysis.live,
            "instances": len(fences),
        }
        for slot, fences in sorted(analysis.slots.items())
    }

    # the static delay-set floor is the baseline synthesis for every
    # app: dead slots dropped, live slots weakened to the cheapest mode
    # that still enforces everything the hand placement enforces
    assignment = weaken_slots(entry, analysis)

    kernel_payload = None
    kernel_kills: dict = {}
    if entry.oracle == "dpor+axiomatic":
        # the kernel oracle can only *strengthen* the floor: a cycle
        # whose differential spec demands a stronger mode at a slot
        # wins (the floor is base-granular; kernels are memory-model
        # exact).  Cycles the hand fences never constrained (one-sided
        # placements covered by the algorithm's CAS protocol instead)
        # are vacuous and contribute nothing.
        kernels, n_signatures = distill_kernels(entry, analysis)
        kernel_assignment, per_kernel = synthesize_kernel_slots(
            entry, analysis, kernels, on_progress=on_progress)
        for slot, mode in kernel_assignment.items():
            if _RANK[mode] > _RANK[assignment.get(slot, "none")]:
                assignment[slot] = mode
        kernel_kills = kernel_mutant_kills(entry, analysis, kernels)
        kernel_payload = {
            "signatures": n_signatures,
            "distilled": len(kernels),
            "truncated": n_signatures > len(kernels),
            "vacuous": sum(1 for k in kernels if not k.forbidden),
            "per_kernel": per_kernel,
        }
    if not _static_floor_holds(analysis, assignment):
        raise SynthesisError(
            f"{name}: synthesized assignment fails the static "
            f"delay-pair floor -- weakening bug")

    # calibrate the runtime monitor spec against the hand build before
    # judging anything with it; the same runs judge the hand placement
    # (see hand_battery)
    patterns, discarded, hand_verdict = hand_battery(
        entry, analysis.hand_enforced, scenarios, seeds,
        base_budget=base_budget, on_progress=on_progress)

    # the anti-vacuity battery polices every app through the chaos
    # oracle; kernel apps carry the static kernel admits as additional
    # (exhaustive) kill evidence
    battery = run_mutation_battery(
        entry, analysis, patterns, mutant_scenarios, mutant_seeds,
        on_progress=on_progress)
    for key, kill in kernel_kills.items():
        if key in battery:
            battery[key]["kernel_admit"] = kill["evidence"]
            battery[key]["killed"] = battery[key]["killed"] or kill["killed"]

    scope = plan_scope(entry, assignment)
    synth_plan = FencePlan(dict(assignment), default="none")
    # ptc and harris-list synthesize the hand placement itself: its
    # battery cells and cost run are the hand build's, already run
    # (judging the hand build with the calibrated spec gives the
    # watch-only verdict, see hand_battery)
    hand_program = builds_hand_program(entry, analysis, assignment, scope)

    if hand_program:
        synth_verdict = dict(hand_verdict)
    else:
        synth_verdict = chaos_validate(
            entry, synth_plan, scope, patterns, scenarios, seeds,
            base_budget=base_budget, on_progress=on_progress)
    if hand_verdict["ok"] and not synth_verdict["ok"]:
        f = synth_verdict["failures"][0]
        raise SynthesisError(
            f"{name}: oracle disagreement: the static delay-set floor "
            f"accepts the synthesized placement but chaos run "
            f"scenario={f['scenario']} seed={f['seed']} reports "
            f"{f['status']}: {f['detail']}"
        )

    stats = _battery_stats(battery)
    sound = hand_verdict["ok"] and synth_verdict["ok"]
    if entry.oracle == "dpor+axiomatic":
        confidence = 1.0 if sound else 0.0   # exhaustive kernel proof
    else:
        confidence = _confidence(stats["p_floor"], synth_verdict["runs"]) \
            if sound else 0.0

    cost = None
    if measure_costs:
        baseline = measure_app_cycles(
            entry, FencePlan.none(), entry.hand_scope, check=False)
        hand_cycles = measure_app_cycles(
            entry, FencePlan.hand(), entry.hand_scope)
        synth_cycles = (hand_cycles if hand_program
                        else measure_app_cycles(entry, synth_plan, scope))
        cost = {
            "baseline_cycles": baseline,
            "hand_cycles": hand_cycles,
            "synth_cycles": synth_cycles,
            "hand_stall": (hand_cycles - baseline
                           if None not in (hand_cycles, baseline) else None),
            "synth_stall": (synth_cycles - baseline
                            if None not in (synth_cycles, baseline) else None),
        }

    hand_count = len(analysis.slots)
    synth_count = sum(1 for m in assignment.values() if m != "none")
    killed_all = all(m["killed"] for m in battery.values())
    return {
        # the committed acceptance bar: both placements proven sound by
        # the designated oracle, no more fences than hand, and every
        # seeded mutant killed
        "ok": sound and synth_count <= hand_count and killed_all,
        "app": name,
        "oracle": entry.oracle,
        "schedule": entry.schedule,
        "note": entry.note,
        "recording": {
            "accesses": sum(len(ops) for ops in analysis.skel.threads),
            "fences": len(analysis.skel.fences),
            "steps": analysis.skel.steps,
        },
        "analysis": {
            "critical_cycles": analysis.cycles,
            "delay_pairs": len(analysis.pairs),
            "components": analysis.components,
            "patterns": sorted(list(p) for p in analysis.patterns),
            "hand_enforced": sorted(list(p) for p in analysis.hand_enforced),
        },
        "monitor": {
            "candidates": len(analysis.hand_enforced),
            "monitored": len(patterns),
            "calibrated_out": sorted(list(p) for p in discarded),
        },
        "slots": slots_payload,
        "synthesized": {s: assignment[s] for s in sorted(assignment)},
        "scope": scope.value,
        "kernels": kernel_payload,
        "fences": {"hand": hand_count, "synthesized": synth_count},
        "soundness": {
            "method": entry.oracle,
            "sound": sound,
            "hand": hand_verdict,
            "synthesized": synth_verdict,
            "confidence": confidence,
        },
        "mutation": {"battery": battery, **stats},
        "cost": cost,
    }
