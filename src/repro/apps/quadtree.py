"""Host-side quadtree builder for the Barnes-Hut workload.

The tree is built once on the host (the paper's barnes rebuilds it each
timestep; the force phase we reproduce treats it as read-only) and
flattened into arrays the guest traverses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Quadtree:
    """Flattened quadtree: cell -> children / center of mass / count."""

    root: int
    children: list[list[int]]      # 4 child cell ids, -1 = none
    com: list[tuple[float, float]]
    count: list[int]               # bodies under each cell
    bodies_in: list[list[int]]     # body ids stored at leaf cells

    @property
    def n_cells(self) -> int:
        return len(self.children)

    def is_leaf(self, c: int) -> bool:
        return all(k == -1 for k in self.children[c])

    def leaf_bodies(self, c: int) -> list[int]:
        return self.bodies_in[c]

    def depth(self) -> int:
        def d(c: int) -> int:
            kids = [k for k in self.children[c] if k != -1]
            return 1 + (max(d(k) for k in kids) if kids else 0)

        depth = d(self.root)
        del d  # d calls itself through its closure cell
        return depth


def build_quadtree(
    bodies: list[tuple[float, float]],
    leaf_capacity: int = 4,
    max_depth: int = 16,
) -> Quadtree:
    """Recursively partition unit-square ``bodies`` into a quadtree."""
    if not bodies:
        raise ValueError("need at least one body")
    children: list[list[int]] = []
    com: list[tuple[float, float]] = []
    count: list[int] = []
    bodies_in: list[list[int]] = []

    def new_cell() -> int:
        children.append([-1, -1, -1, -1])
        com.append((0.0, 0.0))
        count.append(0)
        bodies_in.append([])
        return len(children) - 1

    def build(ids: list[int], x0: float, y0: float, size: float, depth: int) -> int:
        c = new_cell()
        count[c] = len(ids)
        cx = sum(bodies[i][0] for i in ids) / len(ids)
        cy = sum(bodies[i][1] for i in ids) / len(ids)
        com[c] = (cx, cy)
        if len(ids) <= leaf_capacity or depth >= max_depth:
            bodies_in[c] = list(ids)
            return c
        half = size / 2.0
        quads: list[list[int]] = [[], [], [], []]
        for i in ids:
            bx, by = bodies[i]
            q = (1 if bx >= x0 + half else 0) + (2 if by >= y0 + half else 0)
            quads[q].append(i)
        for q, qids in enumerate(quads):
            if qids:
                qx = x0 + half * (q & 1)
                qy = y0 + half * (q >> 1)
                children[c][q] = build(qids, qx, qy, half, depth + 1)
        return c

    root = build(list(range(len(bodies))), 0.0, 0.0, 1.0, 0)
    # build calls itself through its closure cell: clear the cell so the
    # closures die by refcount instead of waiting for the cyclic GC
    del build
    return Quadtree(root, children, com, count, bodies_in)
