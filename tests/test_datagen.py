"""Partitioner, synthetic data, augmentation, and FVD/CSV format checks."""

import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedclust.datagen import (
    FVD_MAGIC,
    LabeledDataset,
    PartitionSpec,
    augment,
    gaussian_mixture,
    load_csv,
    load_fvd,
    partition,
    save_fvd,
)
from fedclust.errors import ConfigError, FormatError, SizeError
from fedclust.kmeans import lloyd
from fedclust.metrics import nmi


def balanced_dataset(classes=3, per_class=30, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), per_class)
    return LabeledDataset(rng.normal(size=(classes * per_class, dim)), labels, "fixture")


def list_pop_partition(dataset, spec):
    """The partitioner written with per-class Python lists that each quota
    pops row ids off, kept as the oracle of `partition`'s indices and errors."""
    num_classes = dataset.num_classes
    m, s, p = spec.num_clients, spec.samples_per_client, spec.heterogeneity
    if m * s > dataset.n:
        raise SizeError(f"{m} clients x {s} samples exceeds dataset size {dataset.n}")
    quota = int(round(p * s))
    rng = np.random.default_rng(spec.seed)
    class_pools = [list(rng.permutation(np.flatnonzero(dataset.labels == c)))
                   for c in range(num_classes)]
    demand = np.zeros(num_classes, dtype=np.int64)
    for l in range(m):
        demand[l % num_classes] += quota
    for c in range(num_classes):
        if demand[c] > len(class_pools[c]):
            raise ConfigError(
                f"class {c} has {len(class_pools[c])} samples but clients need "
                f"{demand[c]} at heterogeneity {p}"
            )
    clients = [[int(class_pools[l % num_classes].pop()) for _ in range(quota)] for l in range(m)]
    leftovers = np.concatenate(
        [np.array(pool, dtype=np.int64) for pool in class_pools if pool]
        or [np.empty(0, dtype=np.int64)]
    )
    leftovers = rng.permutation(leftovers)
    fill = s - quota
    for l in range(m):
        clients[l].extend(int(i) for i in leftovers[l * fill:(l + 1) * fill])
    return [np.array(ix, dtype=np.int64) for ix in clients]


def _outcome(fn, dataset, spec):
    try:
        return fn(dataset, spec)
    except (ConfigError, SizeError) as exc:
        return type(exc), str(exc)


class TestPartition:
    def test_p_one_gives_pure_clients(self):
        ds = balanced_dataset(classes=3, per_class=10)
        split = partition(ds, PartitionSpec(3, 1.0, 10, seed=0))
        assert isinstance(split, list) and all(idx.dtype == np.int64 for idx in split)
        for l, idx in enumerate(split):
            assert len(idx) == 10
            assert set(ds.labels[idx]) == {l}

    def test_p_zero_matches_global_histogram(self):
        ds = balanced_dataset(classes=4, per_class=250, dim=3, seed=1)
        split = partition(ds, PartitionSpec(2, 0.0, 400, seed=2))
        # Multinomial 3-sigma around the uniform share of 100 per class.
        sigma = np.sqrt(400 * 0.25 * 0.75)
        for idx in split:
            counts = np.bincount(ds.labels[idx], minlength=4)
            assert np.all(np.abs(counts - 100) <= 3 * sigma)

    def test_half_and_half_count_oracle(self):
        ds = balanced_dataset(classes=3, per_class=500, dim=2, seed=3)
        split = partition(ds, PartitionSpec(3, 0.5, 100, seed=4))
        all_indices = np.concatenate(split)
        assert len(np.unique(all_indices)) == 300  # disjoint
        for l, idx in enumerate(split):
            assert len(idx) == 100
            own = int((ds.labels[idx] == l).sum())
            assert own >= 50  # quota guaranteed, random fill may add more

    def test_quota_exceeding_class_errors(self):
        # Three clients cycle over two classes, so class 0 is asked for 2*13
        # samples but only has 20.
        ds = balanced_dataset(classes=2, per_class=20)
        with pytest.raises(ConfigError, match="class 0"):
            partition(ds, PartitionSpec(3, 1.0, 13, seed=0))

    def test_oversubscribed_dataset_errors(self):
        ds = balanced_dataset(classes=2, per_class=10)
        with pytest.raises(SizeError):
            partition(ds, PartitionSpec(2, 0.0, 15, seed=0))

    def test_heterogeneity_monotone_in_p(self):
        ds = balanced_dataset(classes=5, per_class=200, dim=2, seed=5)
        fractions = []
        for p in [0.0, 0.25, 0.5, 0.75, 1.0]:
            split = partition(ds, PartitionSpec(5, p, 100, seed=6))
            majority = []
            for idx in split:
                counts = np.bincount(ds.labels[idx], minlength=5)
                majority.append(counts.max() / len(idx))
            fractions.append(np.mean(majority))
        assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_more_clients_than_classes_cycles(self):
        ds = balanced_dataset(classes=2, per_class=50)
        split = partition(ds, PartitionSpec(4, 1.0, 20, seed=7))
        for l, idx in enumerate(split):
            assert set(ds.labels[idx]) == {l % 2}

    def test_deterministic(self):
        ds = balanced_dataset(classes=3, per_class=100, seed=8)
        a = partition(ds, PartitionSpec(3, 0.3, 50, seed=9))
        b = partition(ds, PartitionSpec(3, 0.3, 50, seed=9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("classes", [1, 2, 3, 5])
    @pytest.mark.parametrize("clients", [1, 2, 3, 4, 7])
    def test_matches_list_pop_oracle(self, classes, clients):
        # Values, dtype and error messages over sizes, p and seeds, including
        # p=0, p=1, fewer clients than classes and quotas a class cannot meet;
        # the class sizes are uneven so pools run dry at different points.
        rng = np.random.default_rng(classes * 10 + clients)
        labels = np.concatenate([np.arange(classes), rng.integers(0, classes, size=60)])
        ds = LabeledDataset(rng.normal(size=(labels.size, 2)), labels, "uneven")
        for size, p, seed in itertools.product((1, 4, 9, 20), (0.0, 0.3, 0.5, 0.75, 1.0), (0, 1, 2)):
            spec = PartitionSpec(clients, p, size, seed=seed)
            expected = _outcome(list_pop_partition, ds, spec)
            got = _outcome(partition, ds, spec)
            if isinstance(expected, tuple):
                assert got == expected
                continue
            assert len(got) == len(expected)
            for ix, want in zip(got, expected):
                assert ix.dtype == want.dtype == np.int64
                np.testing.assert_array_equal(ix, want)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            PartitionSpec(2, 0.5, 10, seed=-1)


class TestGaussianMixture:
    def test_zero_separation_coincides(self):
        ds = gaussian_mixture(3, 50, 2, 0.0, seed=0)
        _, assignment = lloyd(ds.features, 3, seed=0)
        assert nmi(assignment.labels, ds.labels) < 0.1

    def test_wide_separation_recoverable(self):
        ds = gaussian_mixture(3, 60, 2, 20.0, seed=1)
        _, assignment = lloyd(ds.features, 3, seed=0)
        assert nmi(assignment.labels, ds.labels) > 0.99

    def test_pairwise_mean_distances(self):
        k, sep = 5, 4.0
        ds = gaussian_mixture(k, 200, 8, sep, seed=2)
        means = np.vstack([ds.features[ds.labels == c].mean(axis=0) for c in range(k)])
        for i in range(k):
            for j in range(i + 1, k):
                # Empirical means wobble by ~sigma/sqrt(n) around the placed ones.
                assert np.linalg.norm(means[i] - means[j]) > sep - 0.5

    def test_shapes_and_labels(self):
        ds = gaussian_mixture(4, 25, 3, 1.0, seed=3)
        assert ds.features.shape == (100, 3)
        assert ds.num_classes == 4
        np.testing.assert_array_equal(np.bincount(ds.labels), [25] * 4)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
            gaussian_mixture(2, 5, 2, 1.0, seed=-3)

    @pytest.mark.parametrize("sizes, key", [((0, 5, 2), "components"),
                                            ((2, 0, 2), "per_component"),
                                            ((2, 5, 0), "dim")])
    def test_size_below_one_names_its_key(self, sizes, key):
        with pytest.raises(ConfigError, match=f"^{key} must be >= 1, got 0$"):
            gaussian_mixture(*sizes, 1.0, seed=0)


class TestAugment:
    def test_zero_strength_is_identity(self):
        x = np.random.default_rng(0).normal(size=(5, 4))
        np.testing.assert_array_equal(augment(x, 0.0, seed=1), x)

    def test_masking_rate(self):
        x = np.ones((200, 50))
        out = augment(x, 0.6, seed=2)
        zero_fraction = float((out == 0.0).mean())
        assert abs(zero_fraction - 0.3) < 0.02

    def test_deterministic(self):
        x = np.random.default_rng(3).normal(size=(10, 6))
        np.testing.assert_array_equal(augment(x, 0.5, seed=4), augment(x, 0.5, seed=4))

    def test_negative_strength_rejected(self):
        with pytest.raises(ConfigError):
            augment(np.ones((2, 2)), -0.1, seed=0)

    def test_nan_strength_rejected(self):
        with pytest.raises(ConfigError, match="strength must be >= 0, got nan"):
            augment(np.ones((2, 2)), float("nan"), seed=0)


class TestFvdFormat:
    def test_round_trip(self, tmp_path):
        ds = balanced_dataset(classes=3, per_class=10, dim=5, seed=4)
        path = tmp_path / "data.fvd"
        save_fvd(ds, path)
        back = load_fvd(path)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_allclose(back.features, ds.features, atol=1e-6)  # f32 rounding
        assert back.features.dtype == np.float64

    def test_round_trip_without_labels(self, tmp_path):
        ds = LabeledDataset(np.random.default_rng(5).normal(size=(4, 3)), None)
        path = tmp_path / "plain.fvd"
        save_fvd(ds, path)
        assert load_fvd(path).labels is None

    def test_known_byte_fixture(self, tmp_path):
        features = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], dtype=np.float64)
        labels = np.array([0, 1, 1])
        expected = (
            b"FVD1"
            + struct.pack("<II", 3, 2)
            + struct.pack("<6f", 1, 2, 3, 4, 5, 6)
            + struct.pack("<B", 1)
            + struct.pack("<3I", 0, 1, 1)
        )
        path = tmp_path / "fixture.fvd"
        save_fvd(LabeledDataset(features, labels), path)
        assert path.read_bytes() == expected
        back = load_fvd(path)
        np.testing.assert_array_equal(back.features, features)
        np.testing.assert_array_equal(back.labels, labels)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.fvd"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="offset 0"):
            load_fvd(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fvd"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_fvd(path)

    def test_truncation_reports_offset(self, tmp_path):
        ds = balanced_dataset(classes=2, per_class=5, dim=3, seed=6)
        path = tmp_path / "trunc.fvd"
        save_fvd(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(FormatError, match="byte offset"):
            load_fvd(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        ds = balanced_dataset(classes=2, per_class=5, dim=3, seed=7)
        path = tmp_path / "extra.fvd"
        save_fvd(ds, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_fvd(path)

    def test_non_finite_feature_reports_offset(self, tmp_path):
        path = tmp_path / "inf.fvd"
        blob = b"FVD1" + struct.pack("<II", 2, 2) + struct.pack("<4f", 1, 2, np.inf, 4)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(FormatError, match="inf.fvd: non-finite feature at byte offset 20"):
            load_fvd(path)

    def test_bad_label_flag_reports_offset(self, tmp_path):
        path = tmp_path / "flag.fvd"
        blob = b"FVD1" + struct.pack("<II", 2, 1) + struct.pack("<2f", 1, 2)
        path.write_bytes(blob + b"\x02" + struct.pack("<2I", 0, 1))
        with pytest.raises(FormatError, match="flag.fvd: bad label flag at byte offset 20$"):
            load_fvd(path)

    def test_noncontiguous_labels_rejected(self, tmp_path):
        path = tmp_path / "gap.fvd"
        blob = b"FVD1" + struct.pack("<II", 2, 1) + struct.pack("<2f", 1, 2)
        path.write_bytes(blob + b"\x01" + struct.pack("<2I", 0, 2))
        with pytest.raises(FormatError, match="gap.fvd: label ids must be contiguous"):
            load_fvd(path)


class TestCsvLoader:
    def test_with_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label,b\n1.0,0,2.0\n3.0,1,4.0\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_without_label_column(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        ds = load_csv(path)
        assert ds.labels is None
        assert ds.features.shape == (2, 2)

    def test_label_named_twice(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("x,label,label\n1.0,0,1\n2.0,1,0\n")
        with pytest.raises(FormatError, match="twice.csv: header names 'label' 2 times"):
            load_csv(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x,y\n1,2\n3\n")
        with pytest.raises(FormatError, match="line 3"):
            load_csv(path)

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            load_csv(path)

    # The row case puts the bad byte past the text reader's first 8 KiB
    # chunk, so it is decoded only after many rows were read.
    @pytest.mark.parametrize("where", ["header", "row"])
    def test_undecodable_byte_is_format_error(self, tmp_path, where):
        path = tmp_path / "bad.csv"
        good_rows = b"1.0,2.0\n" * (1 if where == "header" else 5000)
        head = b"x,\xffy\n" if where == "header" else b"x,y\n"
        tail = b"3.0,4.0\xff\n" if where == "row" else b""
        path.write_bytes(head + good_rows + tail)
        with pytest.raises(FormatError, match="bad.csv"):
            load_csv(path)

    @pytest.mark.parametrize(
        "body,message",
        [
            ("1.0,1999999999999999999999999999999\n", "line 2: label"),
            ("1.0,-1\n", "line 2: label"),
            ("1.0,0\n1e999,1\n", "line 3: non-finite"),
            ("nan,0\n", "line 2: non-finite"),
            ("1.0,0\n2.0,2\n", "contiguous"),
            ("1.0,0.5\n", "line 2"),
        ],
    )
    def test_bad_values_name_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "values.csv"
        path.write_text("x,label\n" + body)
        with pytest.raises(FormatError, match=f"values.csv.*{message}"):
            load_csv(path)

    def test_oversized_field_is_format_error(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("x\n" + "1" * 200_000 + "\n")
        with pytest.raises(FormatError, match="wide.csv line 2"):
            load_csv(path)


class TestLabeledDataset:
    def test_noncontiguous_labels_rejected(self):
        with pytest.raises(ConfigError):
            LabeledDataset(np.zeros((3, 2)), [0, 2, 2])

    def test_label_length_mismatch(self):
        with pytest.raises(ConfigError):
            LabeledDataset(np.zeros((3, 2)), [0, 1])

    @pytest.mark.parametrize(
        "shape", [(0, 2), (3, 0), (0, 0)], ids=["no-rows", "no-columns", "neither"]
    )
    def test_empty_features_rejected(self, shape):
        with pytest.raises(ConfigError, match="no rows or no columns"):
            LabeledDataset(np.zeros(shape), None)
        with pytest.raises(ConfigError, match="no rows or no columns"):
            LabeledDataset(np.zeros(shape), np.zeros(shape[0], dtype=np.int64))


# Loaders on truncated or garbled input: every failure is a FormatError.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def garbled_fvd(draw):
    n, d = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    features = draw(st.lists(st.floats(width=32), min_size=n * d, max_size=n * d))
    blob = bytearray(FVD_MAGIC + struct.pack("<II", n, d) + struct.pack(f"<{n * d}f", *features))
    if draw(st.booleans()):
        labels = st.integers(0, 3) | st.integers(0, 2**32 - 1)
        blob += b"\x01" + struct.pack(f"<{n}I", *draw(st.lists(labels, min_size=n, max_size=n)))
    else:
        blob += b"\x00"
    edit = draw(st.sampled_from(["none", "truncate", "overwrite", "append", "replace"]))
    if edit == "truncate":
        blob = blob[: draw(st.integers(0, len(blob)))]
    elif edit == "overwrite":
        for _ in range(draw(st.integers(1, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    elif edit == "append":
        blob += draw(st.binary(min_size=1, max_size=8))
    elif edit == "replace":
        blob = bytearray(draw(st.binary(max_size=40)))
    return bytes(blob)


CSV_PIECES = st.sampled_from(
    ["x", "y", "label", ",", ",", "\n", "\n", "\r\n", '"', "0", "1", "2", "-1", "0.5",
     "1e999", "nan", "-inf", "19999999999999999999999", " ", "e", ".", "\x00", "\xff"]
)


@st.composite
def garbled_csv(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=60))
    text = "".join(draw(st.lists(CSV_PIECES, max_size=30)))
    return text.encode("utf-8", "surrogateescape")


def _loads_or_format_error(loader, path, blob):
    path.write_bytes(blob)
    try:
        loader(path)
    except FormatError:
        pass


@PROPERTY
@given(garbled_fvd())
def test_garbled_fvd_raises_only_format_error(tmp_path_factory, blob):
    _loads_or_format_error(load_fvd, tmp_path_factory.getbasetemp() / "garbled.fvd", blob)


@PROPERTY
@given(garbled_csv())
def test_garbled_csv_raises_only_format_error(tmp_path_factory, blob):
    _loads_or_format_error(load_csv, tmp_path_factory.getbasetemp() / "garbled.csv", blob)
