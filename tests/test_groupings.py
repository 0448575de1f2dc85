import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import _reference as ref
from gammavar import Grouping, PartitionMasks, SizeLimitError, enumerate_groupings, groupings
from gammavar.groupings import (
    bell_number,
    MAX_ATOMS_ALL,
    MAX_ATOMS_CONTIGUOUS,
    _block_sum,
    block_sums,
    check_enumeration_size,
    grouping_from_labels,
    grouping_labels,
)


class TestGrouping:
    def test_blocks_are_canonicalized(self):
        grouping = Grouping([(2, 1), (0,)], 3)
        assert grouping.blocks == ((0,), (1, 2))

    def test_equal_groupings_compare_and_hash_equal(self):
        a = Grouping([[1, 2], [0]], 3)
        b = Grouping([[0], [2, 1]], 3)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_finest_is_all_singletons(self):
        grouping = Grouping.finest(3)
        assert grouping.blocks == ((0,), (1,), (2,))
        assert grouping.n_blocks == 3

    def test_sort_key_prefers_fewer_blocks(self):
        merged = Grouping([[0, 1]], 2)
        finest = Grouping.finest(2)
        assert merged.sort_key() < finest.sort_key()

    def test_to_lists(self):
        assert Grouping([(1,), (0, 2)], 3).to_lists() == [[0, 2], [1]]

    def test_validation(self):
        with pytest.raises(ValueError):
            Grouping([[]], 2)
        with pytest.raises(ValueError):
            Grouping([[0], [0, 1]], 2)  # overlap
        with pytest.raises(ValueError):
            Grouping([[2]], 2)  # out of range
        with pytest.raises(ValueError):
            Grouping([], 2)  # no blocks


class TestBellNumbers:
    def test_matches_the_independent_recurrence(self):
        for n in range(15):
            assert bell_number(n) == ref.bell_reference(n)

    def test_frozen_values(self):
        assert bell_number(6) == 203
        assert bell_number(8) == 4140
        assert bell_number(12) == 4213597
        assert bell_number(13) == 27644437


class TestEnumeration:
    def test_covering_partitions_of_three_atoms(self):
        got = {ref.canonical_blocks(g.blocks) for g in enumerate_groupings(3, "all")}
        want = {
            ref.canonical_blocks(blocks)
            for blocks in ref.set_partitions_reference(range(3))
        }
        assert got == want
        assert len(got) == 5

    @pytest.mark.parametrize("n", range(1, 9))
    def test_covering_counts_are_bell_numbers(self, n):
        count = sum(1 for _ in enumerate_groupings(n, "all"))
        assert count == ref.bell_reference(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_mode_enumerates_every_set_partition(self, n):
        got = [ref.canonical_blocks(g.blocks) for g in enumerate_groupings(n, "all")]
        want = {
            ref.canonical_blocks(blocks)
            for blocks in ref.set_partitions_reference(range(n))
        }
        assert len(got) == len(set(got))  # no duplicates
        assert set(got) == want
        assert len(got) == ref.bell_reference(n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_contiguous_covering_counts_compositions(self, n):
        groupings = list(enumerate_groupings(n, "contiguous"))
        assert len(groupings) == 2 ** (n - 1)
        for grouping in groupings:
            assert sorted(a for b in grouping.blocks for a in b) == list(range(n))
            for block in grouping.blocks:
                assert list(block) == list(range(block[0], block[-1] + 1))

    def test_contiguous_mode_matches_a_brute_filter(self):
        def is_interval(block):
            return list(block) == list(range(block[0], block[-1] + 1))

        got = {ref.canonical_blocks(g.blocks) for g in enumerate_groupings(4, "contiguous")}
        want = {
            ref.canonical_blocks(blocks)
            for blocks in ref.set_partitions_reference(range(4))
            if all(is_interval(sorted(b)) for b in blocks)
        }
        assert got == want

    def test_all_yielded_groupings_are_valid(self):
        for grouping in enumerate_groupings(4, "all"):
            seen = [a for b in grouping.blocks for a in b]
            assert len(seen) == len(set(seen))
            assert all(0 <= a < 4 for a in seen)

    def test_exhaustive_cap_names_the_bell_number(self):
        with pytest.raises(SizeLimitError) as exc:
            next(enumerate_groupings(MAX_ATOMS_ALL + 1, "all"))
        message = str(exc.value)
        assert str(MAX_ATOMS_ALL) in message
        assert "27644437" in message  # Bell(13)

    def test_contiguous_cap(self):
        with pytest.raises(SizeLimitError):
            next(enumerate_groupings(MAX_ATOMS_CONTIGUOUS + 1, "contiguous"))

    def test_limits_are_inclusive(self):
        # the caps themselves still enumerate (generators construct lazily)
        first = next(enumerate_groupings(MAX_ATOMS_ALL, "all"))
        assert first.n_atoms == MAX_ATOMS_ALL
        first = next(enumerate_groupings(MAX_ATOMS_CONTIGUOUS, "contiguous"))
        assert first.n_atoms == MAX_ATOMS_CONTIGUOUS

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            next(enumerate_groupings(0, "all"))
        with pytest.raises(ValueError):
            next(enumerate_groupings(3, "sideways"))


def _chunk_rows(monkeypatch, n_atoms: int, max_rows: int) -> None:
    """Set the label-chunk budget to the most bytes that hold max_rows rows
    of n_atoms atoms under grouping_labels' per-row rule."""
    row = 2 * n_atoms * (1 + np.min_scalar_type((1 << n_atoms) - 1).itemsize) + 64
    monkeypatch.setattr(groupings, "_LABEL_CHUNK_BYTES", (max_rows + 1) * row - 1)


class TestGroupingLabels:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_are_every_grouping_once(self, n):
        ((labels, _),) = grouping_labels(n)
        assert labels.dtype == np.int8
        assert labels.shape == (ref.bell_reference(n), n)
        got = [ref.canonical_blocks(grouping_from_labels(row).blocks) for row in labels.tolist()]
        assert len(set(got)) == len(got)
        assert set(got) == {
            ref.canonical_blocks(blocks) for blocks in ref.set_partitions_reference(range(n))
        }

    @pytest.mark.parametrize("n", range(1, 8))
    def test_the_enumeration_yields_the_rows_in_order(self, n):
        ((labels, _),) = grouping_labels(n)
        got = [g.blocks for g in enumerate_groupings(n, "all")]
        assert got == [
            tuple(tuple(np.flatnonzero(row == m).tolist()) for m in range(row.max() + 1))
            for row in labels
        ]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_are_canonical_restricted_growth_strings(self, n):
        ((labels, _),) = grouping_labels(n)
        assert np.all(labels[:, 0] == 0)
        running = np.maximum.accumulate(labels, axis=1)
        assert np.all(labels[:, 1:] <= running[:, :-1] + 1)
        # strictly increasing rows in lexicographic order
        keys = [tuple(row) for row in labels.tolist()]
        assert keys == sorted(set(keys))
        for row in labels[:: max(1, len(labels) // 50)]:
            grouping = grouping_from_labels(row.tolist())
            assert grouping.n_blocks == row.max() + 1
            assert sorted(a for b in grouping.blocks for a in b) == list(range(n))
            # block m of the grouping holds exactly the atoms labelled m
            for m, block in enumerate(grouping.blocks):
                assert block == tuple(np.flatnonzero(row == m))

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("max_rows", [1, 2, 5, 17, 200])
    def test_small_chunks_concatenate_to_the_default_chunks(self, n, max_rows, monkeypatch):
        whole, whole_masks = map(np.concatenate, zip(*grouping_labels(n)))
        _chunk_rows(monkeypatch, n, max_rows)
        chunks = list(grouping_labels(n))
        assert all(0 < len(labels) <= max_rows for labels, _ in chunks)
        assert all(len(labels) == len(masks) for labels, masks in chunks)
        assert np.array_equal(np.concatenate([labels for labels, _ in chunks]), whole)
        assert np.array_equal(np.concatenate([masks for _, masks in chunks]), whole_masks)

    @pytest.mark.parametrize("n", range(1, MAX_ATOMS_ALL + 1))
    @pytest.mark.parametrize("max_rows", [1, 7, 300, 5000])
    def test_chunks_keep_their_bound_and_the_order_up_to_the_cap(self, n, max_rows, monkeypatch):
        # at most about 2000 chunks, each checked alone: no walk is held
        max_rows = max(max_rows, bell_number(n) // 2000)
        _chunk_rows(monkeypatch, n, max_rows)
        weights = 13 ** np.arange(n - 1, -1, -1, dtype=np.int64)
        previous, rows = -1, 0
        for labels, masks in grouping_labels(n):
            assert 0 < len(labels) <= max_rows
            assert labels.dtype == np.int8 and masks.dtype == np.min_scalar_type((1 << n) - 1)
            running = np.maximum.accumulate(labels, axis=1)
            assert np.all(labels[:, 0] == 0) and np.all(labels[:, 1:] <= running[:, :-1] + 1)
            # lexicographic order across chunks: labels < 13 are base-13 digits
            keys = labels.astype(np.int64) @ weights
            assert previous < keys[0] and np.all(np.diff(keys) > 0)
            assert np.array_equal(masks, ref.label_masks_reference(labels))
            previous, rows = keys[-1], rows + len(labels)
        assert rows == ref.bell_reference(n)

    def test_cap_names_the_bell_number(self):
        with pytest.raises(SizeLimitError, match="27644437"):
            next(grouping_labels(MAX_ATOMS_ALL + 1))

    def test_masks_mark_each_labels_atoms(self):
        ((labels, masks),) = grouping_labels(5)
        for row, row_masks in zip(labels, masks):
            for m in range(5):
                atoms = np.flatnonzero(row == m)
                assert row_masks[m] == sum(1 << int(a) for a in atoms)

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("max_rows", [200, None])
    def test_masks_equal_the_per_atom_scatter(self, n, max_rows, monkeypatch):
        if max_rows:
            _chunk_rows(monkeypatch, n, max_rows)
        for labels, masks in grouping_labels(n):
            assert np.array_equal(masks, ref.label_masks_reference(labels))

    def test_field_prefixes_the_cap_message(self):
        with pytest.raises(SizeLimitError, match=r"^engine\.mode: contiguous .* got 21$"):
            check_enumeration_size(21, "contiguous", "engine.mode")
        check_enumeration_size(MAX_ATOMS_ALL, "all", "suite.n_atoms")


class TestPartitionMasks:
    def test_label_rows_read_as_their_groupings(self):
        for n_atoms in range(1, 7):
            ((_, masks),) = grouping_labels(n_atoms)
            assert list(PartitionMasks(masks)) == list(enumerate_groupings(n_atoms))

    def test_masks_past_64_atoms_are_python_ints(self):
        blocks = [list(range(0, 70, 2)), list(range(1, 70, 2))]
        masks = ref.block_masks_reference([blocks], 70)
        assert masks.dtype == object
        assert PartitionMasks(masks)[0] == Grouping(blocks, 70)

    @pytest.mark.parametrize(
        "row",
        [
            [1, 4, 0, 0],  # atom 1 and atom 3 are in no block
            [3, 6, 8, 0],  # atom 1 is in two blocks
            [2, 1, 12, 0],  # blocks out of the order of their smallest atoms
            [1, 0, 14, 0],  # a zero before a block
            [1, 2, 4, 24],  # a bit past the last atom
        ],
    )
    def test_rows_outside_the_label_layout_are_refused(self, row):
        masks = np.array([[1, 2, 4, 8], row], dtype=np.uint8)
        with pytest.raises(ValueError, match="set partitions of the 4 atoms"):
            PartitionMasks(masks)


@st.composite
def _grouped_values(draw):
    """A grouping of at most 7 atoms (uncovered atoms allowed) and
    atom-indexed values with 1, 2 or 3 axes."""
    n_atoms = draw(st.integers(1, 7))
    # label each atom with its block, or with -1 to leave it uncovered
    labels = draw(
        st.lists(st.integers(-1, n_atoms - 1), min_size=n_atoms, max_size=n_atoms)
        .filter(lambda ls: any(label >= 0 for label in ls))
    )
    blocks = [
        [a for a, label in enumerate(labels) if label == b]
        for b in sorted(set(labels) - {-1})
    ]
    tail = draw(st.sampled_from([(), (2,), (3, 2)]))
    values = draw(
        arrays(float, (n_atoms,) + tail, elements=st.floats(-1e3, 1e3, width=64))
    )
    return Grouping(blocks, n_atoms), values


class TestBlockSums:
    @settings(derandomize=True, deadline=None)
    @given(_grouped_values())
    def test_matches_the_per_block_brute_force(self, case):
        grouping, values = case
        got = block_sums(values, grouping)
        want = ref.block_sums_reference(values, grouping.blocks)
        assert got.shape == want.shape
        # the two may associate a block's additions differently
        scale = float(np.max(np.abs(values), initial=0.0)) * grouping.n_atoms
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_a_run_of_atoms_sums_without_copying_its_rows(self):
        values = np.random.default_rng(8).standard_normal((120, 1000))
        tracemalloc.start()
        try:
            total = _block_sum(values, list(range(10, 110)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # gathering the 100 rows would take 100 rows of 8000 bytes
        assert peak < 4 * values[0].nbytes
        assert np.array_equal(total, np.sum(values[list(range(10, 110))], axis=0))

    @pytest.mark.parametrize("shape", [(40,), (40, 3), (40, 5, 2)])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
    def test_keeps_the_bits_of_summing_the_gathered_rows(self, shape, layout):
        # magnitudes over twelve decades, so the association shows in the bits
        rng = np.random.default_rng(9)
        values = rng.standard_normal((2 * shape[0],) + shape[1:])
        values *= 10.0 ** rng.integers(-6, 7, values.shape)
        values = {
            "contiguous": values[: shape[0]],
            "strided": values[::2],
            "fortran": np.asfortranarray(values[: shape[0]]),
        }[layout]
        for atoms in ([7], list(range(3, 12)), list(range(40)), [0, 2, 3, 4], [5, 39]):
            want = np.sum(values[atoms], axis=0)
            assert np.array_equal(_block_sum(values, atoms), want)

    @pytest.mark.parametrize("shape", [(6,), (6, 1), (6, 3), (6, 4, 2), (6, 1, 1)])
    def test_the_finest_grouping_keeps_the_bits_of_the_per_block_sums(self, shape):
        # every block a singleton: values + 0.0 against one _block_sum per
        # atom, on -0.0, infinities, nan, repeated atoms and small integers
        rng = np.random.default_rng(10)
        values = rng.integers(-2, 3, shape).astype(float)
        values[0] = -0.0
        values[1] = np.inf
        values[2] = -np.inf
        values[3] = values[4]
        values.reshape(-1)[-1] = np.nan
        want = np.stack([_block_sum(values, [atom]) for atom in range(6)])
        # laid out as the stack, also from a Fortran-ordered array, whose
        # sums over atoms numpy would otherwise take pairwise
        for layout in (values, np.asfortranarray(values)):
            got = block_sums(layout, Grouping.finest(6))
            assert got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert not np.any(np.signbit(got[0]))
