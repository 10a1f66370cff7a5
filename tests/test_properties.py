"""Property-based tests (hypothesis) on core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import Cache
from repro.mem.memory import SharedMemory
from repro.runtime.address_space import AddressSpace


# -------------------------------------------------------------------- cache
@given(
    lines=st.lists(st.integers(0, 200), min_size=1, max_size=120),
    assoc=st.sampled_from([1, 2, 4]),
)
def test_cache_capacity_never_exceeded(lines, assoc):
    c = Cache(16, assoc)
    for line in lines:
        c.fill(line)
        assert len(c) <= 16
    # per-set occupancy never exceeds associativity
    per_set = {}
    for line in c.resident_lines():
        per_set.setdefault(line % c.n_sets, []).append(line)
    assert all(len(v) <= assoc for v in per_set.values())


@given(lines=st.lists(st.integers(0, 50), min_size=1, max_size=60))
def test_cache_most_recent_line_always_resident(lines):
    c = Cache(8, 2)
    for line in lines:
        c.fill(line)
        assert c.contains(line)


@given(lines=st.lists(st.integers(0, 20), min_size=1, max_size=40))
def test_cache_touch_consistent_with_contains(lines):
    c = Cache(8, 2)
    for line in lines:
        assert c.touch(line) == c.contains(line) or c.contains(line)
        c.fill(line)
        assert c.touch(line)


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["fill", "fill_absent", "touch", "invalidate"]),
                  st.integers(0, 40)),
        max_size=80,
    ),
    assoc=st.sampled_from([1, 2, 4]),
)
def test_cache_matches_per_set_lru_model_from_cold(ops, assoc):
    """Every op against a per-set LRU reference, starting from a cold
    cache so each set's first fill takes the allocation path."""
    c = Cache(16, assoc)
    model: dict[int, list[int]] = {}  # set index -> lines, LRU first
    for kind, line in ops:
        ways = model.setdefault(line % c.n_sets, [])
        if kind == "touch":
            hit = line in ways
            assert c.touch(line) == hit
            if hit:
                ways.remove(line)
                ways.append(line)
        elif kind == "invalidate":
            assert c.invalidate(line) == (line in ways)
            if line in ways:
                ways.remove(line)
        elif kind == "fill_absent" and line in ways:
            continue  # only valid for a line known to be absent
        else:
            victim = None
            if line in ways:
                ways.remove(line)
            elif len(ways) == assoc:
                victim = ways.pop(0)
            ways.append(line)
            assert getattr(c, kind)(line) == victim
        assert c.resident_lines() == {x for w in model.values() for x in w}
    for si, ways in model.items():
        assert (c._sets[si] or []) == ways  # recency order, LRU first


# ------------------------------------------------------------ shared memory
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["store", "drain", "read"]),
            st.integers(0, 2),   # core
            st.integers(0, 7),   # addr
            st.integers(1, 99),  # value
        ),
        max_size=60,
    )
)
def test_memory_forwarding_matches_reference(ops):
    """Model: per-core pending FIFO per address + global image."""
    mem = SharedMemory(64, 3)
    ref_global = [0] * 8
    ref_pending = {c: {} for c in range(3)}
    for kind, core, addr, value in ops:
        if kind == "store":
            mem.buffer_store(core, addr, value)
            ref_pending[core].setdefault(addr, []).append(value)
        elif kind == "drain":
            fifo = ref_pending[core].get(addr)
            if fifo:
                got = mem.drain_store(core, addr)
                expect = fifo.pop(0)
                assert got == expect
                ref_global[addr] = expect
        else:
            expect = (
                ref_pending[core][addr][-1]
                if ref_pending[core].get(addr)
                else ref_global[addr]
            )
            assert mem.read(core, addr) == expect
            # other cores never see pending values of this core
            for other in range(3):
                if other != core and not ref_pending[other].get(addr):
                    assert mem.read(other, addr) == ref_global[addr]


@given(
    addrs=st.lists(st.integers(0, 15), min_size=1, max_size=30),
    core=st.integers(0, 1),
)
def test_memory_pending_count_balances(addrs, core):
    mem = SharedMemory(64, 2)
    for a in addrs:
        mem.buffer_store(core, a, a + 1)
    assert mem.pending_count(core) == len(addrs)
    for a in addrs:
        mem.drain_store(core, a)
    assert mem.pending_count(core) == 0


# ------------------------------------------------------------ address space
@given(
    sizes=st.lists(st.integers(1, 64), min_size=1, max_size=20),
    aligned=st.booleans(),
)
def test_allocations_never_overlap(sizes, aligned):
    space = AddressSpace(1 << 16, 8)
    regions = []
    for i, size in enumerate(sizes):
        base = space.alloc(f"r{i}", size, line_aligned=aligned)
        regions.append((base, size))
    for i, (b1, s1) in enumerate(regions):
        for b2, s2 in regions[i + 1:]:
            assert b1 + s1 <= b2 or b2 + s2 <= b1, "overlapping allocations"


@settings(max_examples=25)
@given(st.data())
def test_owner_of_resolves_inside_regions(data):
    space = AddressSpace(1 << 14, 8)
    n = data.draw(st.integers(1, 8))
    for i in range(n):
        size = data.draw(st.integers(1, 32))
        base = space.alloc(f"r{i}", size)
        assert space.owner_of(base) == f"r{i}"
        assert space.owner_of(base + size - 1) == f"r{i}"
