import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmapl.datasets import (CsvFormatError, Dataset, DomainShiftSpec,
                            class_centers, generate_domain_pair, load_csv,
                            rotation_matrix, sample_gaussian_clusters,
                            save_csv, stratified_split)

DEFAULT = DomainShiftSpec()


def test_spec_validation():
    with pytest.raises(ValueError):
        DomainShiftSpec(noise_sigma=0.0)
    with pytest.raises(ValueError):
        DomainShiftSpec(shift_rotation_deg=360.0)
    with pytest.raises(ValueError, match="rotation requires dim"):
        DomainShiftSpec(feature_dim=1, shift_rotation_deg=30.0)
    with pytest.raises(ValueError):
        DomainShiftSpec(samples_per_class=0)
    for counts in ({"samples_per_class": 3.5}, {"feature_dim": 2.0}, {"num_classes": True},
                   {"seed": True}):
        with pytest.raises(ValueError, match="must be integers"):
            DomainShiftSpec(**counts)
    assert DomainShiftSpec(seed=np.int64(3)).seed == 3
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        DomainShiftSpec(seed=-1)
    for floats in ({"noise_sigma": True}, {"shift_rotation_deg": True}):
        with pytest.raises(ValueError, match="must be finite numbers"):
            DomainShiftSpec(**floats)


def test_class_centers_spacing():
    centers = class_centers(4, 2, 4.0)
    # adjacent centers sit exactly class_separation apart
    for c in range(4):
        d = np.linalg.norm(centers[c] - centers[(c + 1) % 4])
        assert abs(d - 4.0) < 1e-9


def test_generate_pair_deterministic():
    a_src, a_tgt = generate_domain_pair(DEFAULT)
    b_src, b_tgt = generate_domain_pair(DEFAULT)
    np.testing.assert_array_equal(a_src.features, b_src.features)
    np.testing.assert_array_equal(a_tgt.features, b_tgt.features)
    np.testing.assert_array_equal(a_src.labels, b_src.labels)


def test_generate_pair_domains_use_fresh_noise():
    src, tgt = generate_domain_pair(DomainShiftSpec(shift_rotation_deg=0.0))
    assert not np.array_equal(src.features, tgt.features)


def test_no_shift_same_noise_seed_gives_identical_cluster_means():
    centers = class_centers(3, 2, 4.0)
    a = sample_gaussian_clusters(centers, 100, 0.5, seed=7)
    b = sample_gaussian_clusters(centers, 100, 0.5, seed=7)
    for c in range(3):
        np.testing.assert_array_equal(a.features[a.labels == c].mean(axis=0),
                                      b.features[b.labels == c].mean(axis=0))


def test_rotation_matrix_basics():
    rot = rotation_matrix(90.0, 3)
    np.testing.assert_allclose(rot @ np.array([1.0, 0.0, 5.0]), [0.0, 1.0, 5.0], atol=1e-12)
    with pytest.raises(ValueError, match="rotation requires dim"):
        rotation_matrix(30.0, 1)


def test_stratified_split_floor_rule():
    data = sample_gaussian_clusters(class_centers(3, 2, 4.0), 100, 0.5, seed=0)
    train, test = stratified_split(data, 0.8, seed=1)
    for c in range(3):
        assert (train.labels == c).sum() == 80
        assert (test.labels == c).sum() == 20


def test_stratified_split_small_class_floor():
    feats = np.arange(10, dtype=float).reshape(5, 2)
    data = Dataset(feats, np.zeros(5, dtype=int), 1)
    train, test = stratified_split(data, 0.8, seed=0)
    assert train.n == 4 and test.n == 1


def test_stratified_split_class_too_small():
    data = Dataset(np.zeros((3, 2)), np.array([0, 0, 1]), 2)
    with pytest.raises(ValueError, match="too small to split"):
        stratified_split(data, 0.8, seed=0)


@settings(max_examples=50, deadline=None)
@given(per_class=st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=5),
       ratio=st.floats(min_value=0.05, max_value=0.95),
       seed=st.integers(min_value=0, max_value=2**31))
def test_stratified_split_partition_property(per_class, ratio, seed):
    labels = np.concatenate([np.full(n, c) for c, n in enumerate(per_class)])
    feats = np.arange(labels.size * 2, dtype=float).reshape(labels.size, 2)
    data = Dataset(feats, labels, len(per_class))
    train, test = stratified_split(data, ratio, seed)
    # disjoint and exhaustive: every original row appears exactly once
    combined = np.vstack([train.features, test.features])
    assert combined.shape == feats.shape
    assert set(map(tuple, combined)) == set(map(tuple, feats))
    for c, n in enumerate(per_class):
        k = (train.labels == c).sum()
        assert k == int(np.floor(ratio * n))
        # per-class train share stays within [ratio - 1/n_c, ratio]
        assert ratio - 1.0 / n - 1e-12 <= k / n <= ratio + 1e-12


def test_csv_round_trip(tmp_path):
    src, _ = generate_domain_pair(DomainShiftSpec(samples_per_class=20))
    path = tmp_path / "d.csv"
    save_csv(src, str(path))
    back = load_csv(str(path), num_classes=src.num_classes)
    np.testing.assert_allclose(back.features, src.features, atol=1e-9)
    np.testing.assert_array_equal(back.labels, src.labels)


def test_csv_round_trip_is_exact(tmp_path):
    # 17 significant digits give a bit-exact float64 round trip
    src, _ = generate_domain_pair(DomainShiftSpec(samples_per_class=5))
    path = tmp_path / "d.csv"
    save_csv(src, str(path))
    back = load_csv(str(path))
    np.testing.assert_array_equal(back.features, src.features)


def test_csv_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n")
    data = load_csv(str(path))
    assert data.n == 1 and data.dim == 2
    assert data.labels.tolist() == [0]


def test_csv_unlabeled(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("f0,f1\n1.0,2.0\n3.0,4.0\n")
    data = load_csv(str(path))
    assert data.labels is None and data.n == 2


def test_csv_errors_name_the_line(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        load_csv(str(ragged))

    bad = tmp_path / "bad.csv"
    bad.write_text("f0,f1\n1.0,abc\n")
    with pytest.raises(CsvFormatError, match="line 2.*non-numeric"):
        load_csv(str(bad))
    # the header's feature count is checked before any row is parsed
    with pytest.raises(CsvFormatError, match="bad.csv: line 1: header declares 2 feature "
                                             "columns, expected 3"):
        load_csv(str(bad), feature_dim=3)

    out_of_range = tmp_path / "range.csv"
    out_of_range.write_text("f0,label\n1.0,5\n")
    with pytest.raises(CsvFormatError, match="line 2.*out of range"):
        load_csv(str(out_of_range), num_classes=3)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(CsvFormatError, match="empty"):
        load_csv(str(empty))


def test_csv_zero_rows_round_trip(tmp_path):
    path = tmp_path / "zero.csv"
    save_csv(Dataset(np.empty((0, 2)), np.empty(0, np.int64), 4), str(path))
    assert path.read_bytes() == b"f0,f1,label\r\n"
    data = load_csv(str(path), num_classes=4)
    assert data.features.shape == (0, 2) and data.labels.shape == (0,)


def test_csv_rejects_non_finite_features(tmp_path):
    path = tmp_path / "nonfinite.csv"
    path.write_text("f0,f1\n1.0,nan\ninf,2\n")
    with pytest.raises(CsvFormatError, match="nonfinite.csv: line 2: non-finite"):
        load_csv(str(path))
    path.write_text("f0,f1\n1.0,2.0\n\ninf,2\n")
    with pytest.raises(CsvFormatError, match="line 4: non-finite"):
        load_csv(str(path))
