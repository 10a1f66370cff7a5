#!/usr/bin/env python
"""Litmus-test tour of the simulator's memory models.

Shows which classic relaxed outcomes each model permits and how fences
-- including *scoped* fences -- forbid them again.

Run:  python examples/memory_model_tour.py
"""

from repro import MemoryModel
from repro.litmus import pair_grid, parse_litmus, run_litmus

OFFSETS = [0, 1, 5, 40, 150, 320]


def store_buffering(fence=""):
    """SB: each thread stores one variable, then loads the other."""
    return f"""
        name SB
        {"flag x y" if ".set" in fence else ""}
        x = 1   | y = 1
        {fence} | {fence}
        r0 = y  | r1 = x
        exists r0 == 0 and r1 == 0
    """


def message_passing(fence=""):
    """MP: the writer stores data x then flag y; the reader, its flag
    line warmed up, reads the flag then the data."""
    return f"""
        name MP
        {"flag x y" if ".set" in fence else ""}
        x = 1   | rw = y
        {fence} | delay
        y = 1   | r0 = y
                | r1 = x
        exists r0 == 1 and r1 == 0
    """


def observed(source, model):
    test = parse_litmus(source)
    return run_litmus(test, model, pair_grid(test, OFFSETS)).condition_observed


def main():
    print("Store buffering (SB): can both threads read 0?")
    for model in (MemoryModel.SC, MemoryModel.TSO, MemoryModel.RMO):
        seen = observed(store_buffering(), model)
        print(f"  {model.value:>4}, no fence:        {'YES (relaxed!)' if seen else 'no'}")
    for kind, fence in (("global", "fence"), ("set", "fence.set")):
        seen = observed(store_buffering(fence), MemoryModel.RMO)
        print(f"   rmo, {kind:>6} fence:    {'YES' if seen else 'no (forbidden)'}")

    print()
    print("Message passing (MP): can the reader see the flag but stale data?")
    for model in (MemoryModel.TSO, MemoryModel.PSO, MemoryModel.RMO):
        seen = observed(message_passing(), model)
        print(f"  {model.value:>4}, no fence:        {'YES (relaxed!)' if seen else 'no'}")
    for kind, fence in (("global", "fence.ss"), ("set", "fence.set.ss")):
        seen = observed(message_passing(fence), MemoryModel.RMO)
        print(f"   rmo, {kind:>6} fence:    {'YES' if seen else 'no (forbidden)'}")

    print()
    print("A set-scope fence forbids exactly the same outcomes as a full")
    print("fence here because the racing variables are in its set -- the")
    print("paper's point: scoping loses no correctness, only false waiting.")


if __name__ == "__main__":
    main()
