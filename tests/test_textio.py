"""The file formats: golden bytes of every writer, and loader fuzzing."""

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmapl.datasets import (CsvFormatError, DomainShiftSpec, generate_domain_pair, load_csv,
                            save_csv)
from dmapl.model import Model, ModelConfig, ModelFormatError, load_model, save_model
from dmapl.numkit import make_rng
from dmapl.pseudolabel import SoftLabelStore
from dmapl.splitter import save_split_csv, split_target

# sha256 of each file `_write_golden_files` writes; recorded with the
# row-by-row writers that the bulk codec replaced
GOLDEN_SHA256 = {
    "labeled.csv": "8cf576eb2b73e9788f5521d78f1bdcf5f5bf4cc0cf1b30eceaa2018c843dd392",
    "unlabeled.csv": "f617aaa96e76fd3feedcb64df72cc399910e392bc6861ee0843d4790b8faf276",
    "model.txt": "78a146480694b036b4793d7bebd939d3acbb88c54eb44a600a891b5aab908039",
    "soft_labels.csv": "7925b4ade48ad75568b6307c2005821e82428c6ff1686e2101e621031e708e1d",
    "split.csv": "b9dc72ee9d85b01992e7840ef605c245881141ba743944ae4c378e6bf6075556",
}


def _write_golden_files(out) -> dict[str, bytes]:
    source, target = generate_domain_pair(DomainShiftSpec(samples_per_class=6, seed=11))
    unlabeled = target.without_labels()
    model = Model.init(ModelConfig(2, (5, 4), 3, 4), make_rng(3))
    split = split_target(model, unlabeled, p_th=0.3)
    assert 0 < split.labeled_indices.size < unlabeled.n
    # signed zero, the smallest subnormal, a huge and a plain value
    model.params["classifier.b"][:] = [-0.0, 5e-324, 1e300, -1.5]

    store = SoftLabelStore(7, 3, beta=[0.7])
    rng = make_rng(5)
    for _ in range(4):
        rows = rng.permutation(7)[:4]
        store.update(rows, rng.integers(0, 3, size=(1, 4)))
    assert len(set(store.update_counts[0].tolist())) > 1

    paths = {name: out / name for name in
             ("labeled.csv", "unlabeled.csv", "model.txt", "soft_labels.csv", "split.csv")}
    save_csv(source, str(paths["labeled.csv"]))
    save_csv(unlabeled, str(paths["unlabeled.csv"]))
    save_model(model, str(paths["model.txt"]))
    store.save_csv(str(paths["soft_labels.csv"]))
    save_split_csv(split, str(paths["split.csv"]))
    return {name: path.read_bytes() for name, path in paths.items()}


def test_writers_match_golden_bytes(tmp_path):
    files = _write_golden_files(tmp_path)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert digests == GOLDEN_SHA256


def _reference_load_csv(path):
    """The row-by-row parse that load_csv replaced: csv.reader, then float()
    per feature and int() per label."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        dim = len(next(reader)) - 1
        rows = [row for row in reader if row]
    return (np.array([[float(v) for v in row[:dim]] for row in rows]),
            np.array([int(row[dim]) for row in rows]))


SPELLINGS = ["{:.17g}".format, repr, "{:.6e}".format, "{:+.17G}".format, "{:.20f}".format,
             " {!r} ".format, "{:.0f}.".format]


@settings(max_examples=60, deadline=None)
@given(features=arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 3)),
                       elements=st.floats(allow_nan=False, allow_infinity=False)),
       spelling=st.sampled_from(SPELLINGS),
       labels=st.lists(st.sampled_from(["0", " 3", "+2", "01", "1 "]), min_size=12, max_size=12))
def test_load_csv_parses_like_float_and_int(tmp_path_factory, features, spelling, labels):
    path = tmp_path_factory.mktemp("spell") / "d.csv"
    header = ",".join(f"f{j}" for j in range(features.shape[1])) + ",label\r\n"
    body = "".join(",".join(map(spelling, row.tolist())) + f",{label}\r\n"
                   for row, label in zip(features, labels))
    path.write_text(header + body, newline="")
    expected_features, expected_labels = _reference_load_csv(path)
    data = load_csv(str(path))
    # compare bits, so a sign of zero must match as well
    np.testing.assert_array_equal(data.features.view(np.int64),
                                  expected_features.view(np.int64))
    np.testing.assert_array_equal(data.labels, expected_labels)


def _corrupt(draw, valid: bytes) -> bytes:
    """Truncate `valid`, overwrite a few of its bytes, or replace a short span
    of it with other bytes."""
    kind = draw(st.sampled_from(["truncate", "mutate", "splice"]))
    n = len(valid)
    if kind == "truncate":
        return valid[:draw(st.integers(0, n))]
    if kind == "mutate":
        data = bytearray(valid)
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, n - 1))] = draw(st.integers(0, 255))
        return bytes(data)
    start = draw(st.integers(0, n))
    end = draw(st.integers(start, min(n, start + 40)))
    insert = draw(st.one_of(
        st.binary(max_size=12),
        st.sampled_from([b"nan", b"-inf", b"1e999", b"99999999999999999999", b"-1", b"x", b",",
                         b" ", b"\n", b"\r", b"\r\n", b'"', b"\x00", b"\xff", b"_", b"param ",
                         b"label", b"param enc0.W 2 1\n"])))
    return valid[:start] + insert + valid[end:]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("valid")
    save_model(Model.init(ModelConfig(3, (5, 4), 3, 3), make_rng(0)), str(out / "model.txt"))
    source, _ = generate_domain_pair(DomainShiftSpec(samples_per_class=2, seed=1))
    save_csv(source, str(out / "data.csv"))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupted_model_file_loads_or_raises_model_format_error(valid_files, data):
    path = valid_files / "corrupt_model.txt"
    path.write_bytes(_corrupt(data.draw, (valid_files / "model.txt").read_bytes()))
    try:
        load_model(str(path))
    except ModelFormatError:
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.data(), num_classes=st.sampled_from([None, 4]))
def test_corrupted_csv_loads_or_raises_csv_format_error(valid_files, data, num_classes):
    path = valid_files / "corrupt_data.csv"
    path.write_bytes(_corrupt(data.draw, (valid_files / "data.csv").read_bytes()))
    try:
        loaded = load_csv(str(path), num_classes=num_classes)
    except CsvFormatError:
        return
    assert np.isfinite(loaded.features).all()


CSV_ERRORS = [("3.0,1", "expected 3 fields, got 2"),
              ("3.0,abc,1", "non-numeric value 'abc'"),
              ("3.0,inf,1", "non-finite value"),
              ("3.0,4.0,-1", "negative label"),
              ("3.0,4.0,7", "label 7 out of range for 4 classes")]
# the second row of a 3x5 weight block, written as a format of the row's values
MODEL_ERRORS = [("{0} {1} {2} {3}", "expected 5 fields, got 4"),
                ("{0} x {2} {3} {4}", "non-numeric value 'x'"),
                ("{0} {1} -inf {3} {4}", "non-finite value")]


@pytest.mark.parametrize("loader, bad_row, reason, blank_line",
                         [("csv", *case, blank) for case in CSV_ERRORS for blank in (False, True)]
                         + [("model", *case, False) for case in MODEL_ERRORS])
def test_loaders_name_the_first_bad_line(tmp_path, loader, bad_row, reason, blank_line):
    if loader == "csv":
        path = tmp_path / "d.csv"
        lines = ["f0,f1,label", "1.0,2.0,0"] + [""] * blank_line + [bad_row, bad_row]
        lineno = len(lines) - 1
        expected = f"{path}: line {lineno}: {reason}"
    else:
        path = tmp_path / "m.txt"
        save_model(Model.init(ModelConfig(3, (5, 4), 3, 3), make_rng(0)), str(path))
        lines = path.read_text().splitlines()
        lineno = lines.index("param enc0.W 3 5") + 3
        for k in (lineno - 1, lineno):  # the second and third rows are bad
            lines[k] = bad_row.format(*lines[k].split())
        expected = f"{path}: line {lineno}: {reason} in 'enc0.W'"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises((CsvFormatError, ModelFormatError)) as info:
        load_csv(str(path), num_classes=4) if loader == "csv" else load_model(str(path))
    assert str(info.value) == expected
