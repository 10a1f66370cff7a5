"""Unit tests for the Fence Scope Stack."""

import pytest

from repro.core.fss import ScopeStack


def test_push_pop_top():
    s = ScopeStack(4)
    s.push(2)
    s.push(1)
    assert s.top() == 1
    assert s.pop() == 1
    assert s.top() == 2
    assert len(s) == 1


def test_capacity_enforced():
    s = ScopeStack(2)
    s.push(0)
    s.push(1)
    assert s.full
    with pytest.raises(OverflowError):
        s.push(2)


def test_empty_errors():
    s = ScopeStack(2)
    with pytest.raises(IndexError):
        s.pop()
    with pytest.raises(IndexError):
        s.top()


def test_mask_is_union_of_entries():
    s = ScopeStack(4)
    s.push(0)
    s.push(2)
    assert s.mask() == 0b101
    s.push(0)  # duplicates collapse in the mask
    assert s.mask() == 0b101


def test_contains():
    s = ScopeStack(4)
    s.push(3)
    assert s.contains(3)
    assert not s.contains(1)


def test_restore_from_shadow():
    fss = ScopeStack(4)
    shadow = ScopeStack(4)
    shadow.push(1)
    shadow.push(2)
    fss.push(0)
    fss.restore_from(shadow)
    assert fss.items() == (1, 2)
    # the shadow is untouched and independent afterwards
    fss.pop()
    assert shadow.items() == (1, 2)


def test_items_bottom_to_top():
    s = ScopeStack(4)
    for e in (3, 1, 2):
        s.push(e)
    assert s.items() == (3, 1, 2)


def test_reset():
    s = ScopeStack(2)
    s.push(0)
    s.reset()
    assert s.empty


def test_invalid_capacity():
    with pytest.raises(ValueError):
        ScopeStack(0)
