"""Tests for the simulated Cache Allocation Technology."""

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cat_apply_reference
from repro.errors import ClosExhaustedError, InvalidMaskError, ReproError
from repro.hardware import (
    CatController,
    contiguous_layout,
    format_mask,
    mask_from_range,
    mask_is_contiguous,
    mask_to_ways,
    mask_ways,
    parse_mask,
    small_test_platform,
    skylake_gold_6138,
)


class TestMaskHelpers:
    def test_mask_from_range_basic(self):
        assert mask_from_range(0, 3) == 0b111
        assert mask_from_range(2, 2) == 0b1100

    def test_mask_from_range_rejects_empty(self):
        with pytest.raises(InvalidMaskError):
            mask_from_range(0, 0)

    def test_mask_from_range_rejects_negative_start(self):
        with pytest.raises(InvalidMaskError):
            mask_from_range(-1, 2)

    def test_mask_ways_counts_bits(self):
        assert mask_ways(0b1011) == 3
        assert mask_ways(0) == 0

    @pytest.mark.parametrize("mask,expected", [(0b111, True), (0b1110, True), (0b1011, False), (0, False), (0b1, True)])
    def test_mask_is_contiguous(self, mask, expected):
        assert mask_is_contiguous(mask) is expected

    def test_mask_to_ways_lists_indices(self):
        assert mask_to_ways(0b1010) == [1, 3]

    def test_format_and_parse_round_trip(self):
        mask = 0b11111111111
        text = format_mask(mask, 11)
        assert parse_mask(text) == mask

    def test_format_mask_width(self):
        assert format_mask(0x7FF, 11) == "7ff"

    def test_parse_mask_invalid(self):
        with pytest.raises(InvalidMaskError):
            parse_mask("not-hex")


class TestContiguousLayout:
    def test_layout_packs_from_way_zero(self):
        masks = contiguous_layout([2, 3, 1], 11)
        assert masks == [0b11, 0b11100, 0b100000]

    def test_layout_rejects_overflow(self):
        with pytest.raises(InvalidMaskError):
            contiguous_layout([6, 6], 11)

    def test_layout_rejects_zero_way_cluster(self):
        with pytest.raises(InvalidMaskError):
            contiguous_layout([0, 4], 11)


class TestCatController:
    def test_default_class_spans_full_cache(self):
        cat = CatController(skylake_gold_6138())
        assert cat.get_class(0).mask == (1 << 11) - 1

    def test_create_class_and_bind(self):
        cat = CatController(skylake_gold_6138())
        cos = cat.create_class(0b11)
        cat.bind_task("task-a", cos.clos_id)
        assert cat.clos_of("task-a") == cos.clos_id
        assert cat.effective_ways("task-a") == 2

    def test_unbound_tasks_use_default_class(self):
        cat = CatController(skylake_gold_6138())
        assert cat.clos_of("stranger") == 0
        assert cat.effective_ways("stranger") == 11

    def test_validate_mask_rejects_non_contiguous(self):
        cat = CatController(skylake_gold_6138())
        with pytest.raises(InvalidMaskError):
            cat.create_class(0b101)

    def test_validate_mask_rejects_too_wide(self):
        cat = CatController(small_test_platform(ways=4))
        with pytest.raises(InvalidMaskError):
            cat.create_class(0b11111)

    def test_validate_mask_respects_min_width(self):
        import dataclasses

        plat = dataclasses.replace(small_test_platform(ways=4), min_mask_bits=2)
        cat = CatController(plat)
        with pytest.raises(InvalidMaskError):
            cat.create_class(0b1)
        cat.create_class(0b11)

    def test_clos_exhaustion(self):
        plat = small_test_platform(ways=4)
        cat = CatController(plat)
        for _ in range(plat.n_clos - 1):
            cat.create_class(0b1)
        with pytest.raises(ClosExhaustedError):
            cat.create_class(0b1)

    def test_remove_class_rebinds_tasks_to_default(self):
        cat = CatController(skylake_gold_6138())
        cos = cat.create_class(0b111)
        cat.bind_task("t", cos.clos_id)
        cat.remove_class(cos.clos_id)
        assert cat.clos_of("t") == 0

    def test_default_class_cannot_be_removed(self):
        cat = CatController(skylake_gold_6138())
        with pytest.raises(InvalidMaskError):
            cat.remove_class(0)

    def test_rebind_moves_task_between_classes(self):
        cat = CatController(skylake_gold_6138())
        a = cat.create_class(0b1)
        b = cat.create_class(0b110)
        cat.bind_task("t", a.clos_id)
        cat.bind_task("t", b.clos_id)
        assert cat.clos_of("t") == b.clos_id
        assert "t" not in cat.get_class(a.clos_id).tasks

    def test_apply_allocation_shares_clos_per_mask(self):
        cat = CatController(skylake_gold_6138())
        allocation = {"a": 0b1, "b": 0b1, "c": 0b1110}
        mapping = cat.apply_allocation(allocation)
        assert mapping["a"] == mapping["b"]
        assert mapping["a"] != mapping["c"]
        assert cat.current_allocation() == allocation

    def test_apply_allocation_resets_previous_state(self):
        cat = CatController(skylake_gold_6138())
        cat.apply_allocation({"a": 0b1, "b": 0b110})
        cat.apply_allocation({"a": 0b11, "b": 0b11})
        assert cat.mask_of("a") == 0b11
        assert cat.mask_of("b") == 0b11

    def test_reset_restores_full_default_mask(self):
        cat = CatController(skylake_gold_6138())
        cat.apply_allocation({"a": 0b1})
        cat.reset()
        assert cat.n_classes == 1
        assert cat.get_class(0).mask == (1 << 11) - 1


def cat_state(cat):
    """Everything a CAT apply programs: classes, task sets and the task map."""
    return (
        [(cos.clos_id, cos.mask, set(cos.tasks)) for cos in cat.classes()],
        list(cat._task_to_clos.items()),
        list(cat.current_allocation().items()),
    )


class TestApplyAllocationIsAtomic:
    def test_bad_mask_leaves_the_previous_allocation_programmed(self):
        cat = CatController(skylake_gold_6138())
        cat.apply_allocation({"a": 0x3, "b": 0xC, "c": 0x1F0})
        before = cat_state(cat)
        with pytest.raises(InvalidMaskError, match="mask 0x5 is not contiguous"):
            cat.apply_allocation({"a": 0x1, "b": 0x5, "c": 0x2})
        assert cat_state(cat) == before
        assert cat.current_allocation() == {"a": 0x3, "b": 0xC, "c": 0x1F0}

    def test_clos_exhaustion_leaves_the_previous_allocation_programmed(self):
        plat = dataclasses.replace(small_test_platform(ways=4), n_clos=4)
        cat = CatController(plat)
        cat.apply_allocation({"a": 0b1, "b": 0b110, "c": 0b1000})
        before = cat_state(cat)
        with pytest.raises(ClosExhaustedError, match="supports only 4 classes"):
            cat.apply_allocation({"a": 0b1, "b": 0b10, "c": 0b100, "d": 0b1000})
        assert cat_state(cat) == before
        assert cat.clos_of("d") == 0


TASKS = ("t0", "t1", "t2", "t3", "t4", "t5")
WAYS = 5


def contiguous_masks():
    return st.builds(
        lambda start, width: ((1 << min(width, WAYS - start)) - 1) << start,
        st.integers(0, WAYS - 1),
        st.integers(1, WAYS),
    )


# Mostly valid contiguous masks (shared between tasks, the full mask
# included); sometimes an empty, non-contiguous or too wide one.
masks = st.one_of(contiguous_masks(), contiguous_masks(), st.integers(0, 1 << WAYS))
allocations = st.dictionaries(st.sampled_from(TASKS), masks, max_size=len(TASKS))


class TestApplyAllocationMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(allocations, min_size=1, max_size=8), st.integers(2, 6))
    def test_sequences_match_reset_and_rebind(self, sequence, n_clos):
        """The one-pass apply leaves the state reset-and-rebind leaves, and
        where the reference raises part-way it raises the same error and
        keeps the previous allocation."""
        plat = dataclasses.replace(small_test_platform(ways=WAYS), n_clos=n_clos)
        cat = CatController(plat)
        reference = CatController(plat)
        for allocation in sequence:
            before = copy.deepcopy(reference)
            try:
                expected = cat_apply_reference(reference, allocation)
            except ReproError as exc:
                with pytest.raises(type(exc)) as raised:
                    cat.apply_allocation(allocation)
                assert str(raised.value) == str(exc)
                assert cat_state(cat) == cat_state(before)
                reference = before
                continue
            mapping = cat.apply_allocation(allocation)
            assert list(mapping.items()) == list(expected.items())
            assert cat_state(cat) == cat_state(reference)
            for task in TASKS:
                assert cat.clos_of(task) == reference.clos_of(task)
