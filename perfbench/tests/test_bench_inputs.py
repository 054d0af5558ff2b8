"""The workload generators are deterministic in the seed and shaped as documented."""

from dataclasses import replace

import inputs
import spec
from imgmine.segment import encode_item


def _tdb_digests(tmp_path, name, seed, workload):
    dest = tmp_path / name
    inputs.write_tdb_inputs(dest, seed, workload, encode_item)
    return inputs.file_digests(dest)


def test_tdb_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    w = spec.WORKLOADS["dense-tdb"]
    first = _tdb_digests(tmp_path, "a", 1, w)
    assert first == _tdb_digests(tmp_path, "b", 1, w)
    assert first["train.csv"] != _tdb_digests(tmp_path, "c", 2, w)["train.csv"]
    assert set(first) == {"train.csv", "heldout.csv", "heldout_labels.csv", "config.json"}


def test_tdb_rows_have_fixed_sizes_and_balanced_classes():
    w = spec.WORKLOADS["dense-tdb"]
    rows = inputs.transactions(3, "t", w.n_train, w.max_regions, encode_item)
    assert len(rows) == w.n_train
    sizes = {len(items) for _, _, items in rows}
    assert sizes == {6, 6 + 2 * inputs.DEVIATIONS}
    for cls in inputs.CLASSES:
        assert sum(label == cls for _, label, _ in rows) == w.n_train // 3
    wide = spec.WORKLOADS["wide-tdb"]
    assert {len(items) for _, _, items in inputs.transactions(3, "t", 30, wide.max_regions, encode_item)} == {6}


def test_heldout_file_carries_no_labels(tmp_path):
    inputs.write_tdb_inputs(tmp_path / "d", 5, spec.WORKLOADS["dense-tdb"], encode_item)
    rows = (tmp_path / "d" / "heldout.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[1] == "" for row in rows)


def test_image_corpus_repeats_for_a_seed(tmp_path):
    w = replace(spec.WORKLOADS["large256"], per_class=1, size=64)
    for name, seed in (("a", 4), ("b", 4), ("c", 5)):
        inputs.write_image_corpus(tmp_path / name, seed, w.per_class, w.size)
    a, b, c = (inputs.file_digests(tmp_path / n) for n in "abc")
    assert a == b
    assert a["images/benign_000.pgm"] != c["images/benign_000.pgm"]
    assert (tmp_path / "a" / "images" / "normal_000.pgm").read_bytes().startswith(b"P5\n64 64\n255\n")
