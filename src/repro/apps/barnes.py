"""Barnes-Hut n-body force step with SC-by-fences (``barnes``, Table IV).

The paper's barnes comes from SPLASH-2, compiled with fences that
enforce sequential consistency; delay-set analysis [Shasha-Snir] marks
only the *conflicting* accesses, so ``S-FENCE[set,...]`` fences skip
the dominant private/read-only traffic (Section VI-B).

This is a faithful-in-structure, reduced-scale force-computation step:

* a host-built quadtree over seeded 2-D bodies, flattened into
  read-only cell arrays (one line per cell record: scale model);
* guest threads claim bodies from a shared work counter (CAS),
  traverse the tree with an opening criterion (dependent loads --
  pointer chasing serialises), read the positions of nearby bodies
  (shared, *conflicting* -> flagged), accumulate into per-thread
  private scratch (unflagged, long-latency), and finally update their
  body's position (conflicting -> flagged) bracketed by SC fences.

The SC-enforcing fences are emitted at the delay-set boundary points:
before and after each conflicting (flagged) access region.  With
traditional fences these wait for the private scratch stores and any
in-flight read-only tree loads; with set scope they only wait for the
flagged accesses -- the 40-50% fence-stall reduction of Figure 13.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..isa.instructions import Compute, FenceKind, WAIT_BOTH
from ..isa.program import Program
from ..runtime.harness import FencePlan, FlaggedExchange, ScratchSpill
from ..runtime.lang import Env, SharedArray
from .quadtree import Quadtree, build_quadtree

#: fixed-point scale for positions stored in integer memory words
FIX = 1 << 16


@dataclass
class BarnesInstance:
    """A barnes run plus end-of-run sanity checks."""

    program: Program
    tree: Quadtree
    pos_x: SharedArray
    pos_y: SharedArray
    n_bodies: int
    interactions: list[int] = field(default_factory=list)
    #: body -> the (x, y) its thread published, recorded host-side
    published: dict[int, tuple[int, int]] = field(default_factory=dict)

    def check(self) -> None:
        assert len(self.interactions) == self.n_bodies, (
            f"barnes: only {len(self.interactions)} of {self.n_bodies} "
            f"bodies processed"
        )
        # an update can be the identity (a force that rounds to -1 per
        # axis cancels the +1), so compare against what was published,
        # not against the initial position
        stale = [
            b for b in range(self.n_bodies)
            if (self.pos_x.peek(b), self.pos_y.peek(b))
            != self.published.get(b)
        ]
        assert not stale, (
            f"barnes: bodies {stale} do not hold their published position"
        )
        assert all(n > 0 for n in self.interactions), "barnes: empty traversal"


def build_barnes(
    env: Env,
    n_bodies: int = 256,
    n_threads: int = 8,
    scope: FenceKind = FenceKind.SET,
    seed: int = 5,
    theta_cells: int = 8,
    cold_spill_every: int = 1,
    compute_per_interaction: int = 4,
    exchange_every: int = 2,
    fence_plan=None,
) -> BarnesInstance:
    """Construct the barnes force-step guest program.

    ``scope=FenceKind.GLOBAL`` is the traditional-fence baseline;
    ``scope=FenceKind.SET`` flags exactly the delay-set conflicting
    data (body positions + the work counter).
    """
    rng = random.Random(seed)
    bodies = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n_bodies)]
    tree = build_quadtree(bodies, leaf_capacity=4)

    flag = scope is FenceKind.SET
    # conflicting (delay-set-flagged) data: body positions
    pos_x = env.line_array("barnes.pos_x", n_bodies, flagged=flag)
    pos_y = env.line_array("barnes.pos_y", n_bodies, flagged=flag)
    # read-only tree records (never flagged: no conflicting write)
    cell_com_x = env.line_array("barnes.com_x", tree.n_cells)
    cell_com_y = env.line_array("barnes.com_y", tree.n_cells)
    cell_mass = env.line_array("barnes.mass", tree.n_cells)
    cell_child = env.line_array("barnes.child", tree.n_cells * 4)
    cell_count = env.line_array("barnes.count", tree.n_cells)
    for b, (x, y) in enumerate(bodies):
        pos_x.poke(b, int(x * FIX))
        pos_y.poke(b, int(y * FIX))
    for c in range(tree.n_cells):
        cell_com_x.poke(c, int(tree.com[c][0] * FIX))
        cell_com_y.poke(c, int(tree.com[c][1] * FIX))
        cell_mass.poke(c, tree.count[c] * FIX)
        cell_count.poke(c, tree.count[c])
        for k in range(4):
            cell_child.poke(c * 4 + k, tree.children[c][k] + 1)  # 0 = none

    # per-thread private force accumulators (unflagged, long-latency)
    spills = [
        ScratchSpill(env, t, "barnes", cold_every=cold_spill_every)
        for t in range(n_threads)
    ]
    # conflicting body/cell-ownership exchange traffic (delay-set flagged):
    # the reason set-scope fences still stall (Section VI-B discussion)
    exchange_region = FlaggedExchange.make_region(env, "barnes.exchange", n_threads)
    exchanges = [
        FlaggedExchange(env, t, n_threads, exchange_region, every=exchange_every)
        for t in range(n_threads)
    ]

    instance = BarnesInstance(
        Program([], name="barnes"), tree, pos_x, pos_y, n_bodies
    )

    plan = fence_plan if fence_plan is not None else FencePlan.hand()
    # the guest threads record into the list, not the instance: the
    # instance holds the program, which holds ``thread``, and a closure
    # over the instance would make a cycle that outlives the run
    interactions = instance.interactions
    published = instance.published

    def sc_fence(slot: str):
        return plan.fence(slot, scope, WAIT_BOTH)

    def thread(tid: int):
        spill = spills[tid]
        exchange = exchanges[tid]
        # SPLASH-2 style static partitioning: bodies tid, tid+P, ...
        for b in range(tid, n_bodies, n_threads):
            # delay-set boundary before conflicting reads
            yield from sc_fence("gather")
            ax = ay = 0
            visited = 0
            stack = [tree.root]
            bx = yield pos_x.load(b)  # flagged read of own position
            by = yield pos_y.load(b)
            while stack:
                c = stack.pop()
                visited += 1
                count = yield cell_count.load(c)
                cx = yield cell_com_x.load(c)
                cy = yield cell_com_y.load(c)
                if count <= theta_cells or tree.is_leaf(c):
                    if tree.is_leaf(c):
                        # read the (conflicting) positions of leaf bodies
                        for ob in tree.leaf_bodies(c):
                            if ob != b:
                                ox = yield pos_x.load(ob)
                                oy = yield pos_y.load(ob)
                                ax += (ox - bx) >> 8
                                ay += (oy - by) >> 8
                    else:
                        ax += (cx - bx) >> 8
                        ay += (cy - by) >> 8
                    yield Compute(compute_per_interaction)  # force kernel arithmetic
                else:
                    for k in range(4):
                        child = yield cell_child.load(c * 4 + k)
                        if child:
                            stack.append(child - 1)
            interactions.append(visited)
            # spill the accumulated force to private scratch (unflagged,
            # long-latency stores pending at the next fence)
            yield spill.store(ax & ((1 << 62) - 1))
            yield spill.store(ay & ((1 << 62) - 1))
            yield from exchange.emit(b + 1)  # conflicting ownership traffic
            # position update: conflicting accesses, SC-fence bracketed
            yield from sc_fence("publish")
            nx, ny = bx + (ax >> 8) + 1, by + (ay >> 8) + 1
            published[b] = (nx, ny)
            yield pos_x.store(b, nx)
            yield pos_y.store(b, ny)
            yield from sc_fence("flush")

    instance.program = Program([thread] * n_threads, name="barnes")
    return instance
