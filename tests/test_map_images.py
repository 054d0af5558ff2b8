"""Image commands split their images with one forked helper when two CPUs are
free; every output, message and exit code must match a one-CPU run."""

import os
import pickle
import signal
import time

import numpy as np
import pytest

from imgmine import cli, pipeline
from imgmine.cli import main
from imgmine.config import PipelineConfig
from imgmine.prep import GrayImage
from imgmine.segment import QuantizationModel

from test_cli import blob_image, labeled_tdb, write_image


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the process report n CPUs it may run on."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers forked while the test runs."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# Manifest rows of skip_manifest that do not read. The helper takes the odd rows, so rows 2,
# 10 and 28 fall on this process's side and row 19 on the helper's. Each side extracts its
# rows eight at a time: rows 2 and 10 share this process's first stack, row 28 is in its
# second, and row 19 is in the helper's second.
UNREADABLE = {2: "ghost.pgm", 10: "broken.pgm", 19: "above.pgm", 28: "empty.pgm"}
SKIP_ROWS = 40


def skip_manifest(tmp_path):
    """Forty rows, with unreadable images on both this process's and the helper's side."""
    assert pipeline.JOB_IMAGES == 8
    (tmp_path / "broken.pgm").write_bytes(b"P5\n32 32\n255\n")  # no pixel data
    (tmp_path / "above.pgm").write_bytes(b"P5 2 2 15\n" + bytes([1, 2, 200, 3]))
    (tmp_path / "empty.pgm").write_bytes(b"")
    rows = []
    for i in range(SKIP_ROWS):
        name = UNREADABLE.get(i, f"img{i}.pgm")
        if name not in UNREADABLE.values():
            write_image(tmp_path / name, np.full((32, 32), 90) if i == 36 else blob_image(i))
        label = ("normal", "benign", "malignant")[i % 3]
        rows.append(f"{name},{label},{'test' if i % 4 == 1 else 'train'}")
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,split\n" + "".join(row + "\n" for row in rows))
    return man


def run(capsys, argv, outputs):
    rc = main(argv)
    err = capsys.readouterr().err
    return rc, err, [p.read_bytes() if p.exists() else None for p in outputs]


def test_image_commands_match_a_one_cpu_run(tmp_path, capsys, cpus, forks):
    man = skip_manifest(tmp_path)
    tdb, model, pred = tmp_path / "tdb.csv", tmp_path / "model.json", tmp_path / "pred.csv"
    commands = [
        (["features", str(man), str(tdb)], [tdb, tmp_path / "tdb.csv.quant.json"]),
        (["train", "--manifest", str(man), str(model)], [model]),
        (["classify", str(model), "--manifest", str(man), str(pred)], [pred]),
    ]
    runs = {}
    for n in (1, 2):
        cpus(n)
        runs[n] = [run(capsys, argv, outputs) for argv, outputs in commands]
        assert len(forks) == (0 if n == 1 else len(commands))  # one helper a command
    assert runs[2] == runs[1]
    assert [rc for rc, _, _ in runs[2]] == [1, 1, 1]
    for _, err, _ in runs[2]:
        skipped = [line.split(":")[1].strip() for line in err.splitlines()]
        assert skipped[:4] == list(UNREADABLE.values())
    assert_reaped(forks)


def test_each_image_keeps_its_message_across_jobs(tmp_path, capsys, cpus):
    """The stderr lines of features over skip_manifest, as one image at a time gives them."""
    man = skip_manifest(tmp_path)
    cpus(2)
    assert main(["features", str(man), str(tmp_path / "tdb.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"imgmine: ghost.pgm: no such input: {tmp_path / 'ghost.pgm'}",
        "imgmine: broken.pgm: truncated pixel data at byte 13",
        "imgmine: above.pgm: pixel 200 above maxval 15 at byte 12",
        "imgmine: empty.pgm: unexpected end of header at byte 0",
    ]


def test_an_extraction_error_is_each_readable_image_of_its_stack(tmp_path, capsys, cpus,
                                                                  monkeypatch):
    """img21.pgm is in the helper's second stack, the odd rows 17-31; row 19 does not read."""
    man = skip_manifest(tmp_path)
    extract, chosen = pipeline.image_feature_vectors, cli._read_image(tmp_path / "img21.pgm")

    def fake(images, cfg):
        if any(np.array_equal(image.pixels, chosen.pixels) for image in images):
            raise ValueError("cannot extract")
        return extract(images, cfg)

    monkeypatch.setattr(pipeline, "image_feature_vectors", fake)
    tdb = tmp_path / "tdb.csv"
    runs = {}
    for n in (1, 2):
        cpus(n)
        runs[n] = run(capsys, ["features", str(man), str(tdb)], [tdb])
    assert runs[2] == runs[1]
    rc, err, [written] = runs[2]
    assert rc == 1
    stack = [f"img{i}.pgm" for i in range(17, 32, 2) if i != 19]
    assert [line for line in err.splitlines() if "cannot extract" in line] == [
        f"imgmine: {name}: cannot extract" for name in stack]
    assert "imgmine: above.pgm: pixel 200 above maxval 15 at byte 12" in err.splitlines()
    tids = {line.split(",")[0] for line in written.decode().splitlines()}
    assert not tids & set(stack) and "img20.pgm" in tids


def raising_read(paths):
    read = cli._read_image

    def fake(path):
        if os.path.basename(str(path)) in paths:
            raise RuntimeError(f"cannot decode {os.path.basename(str(path))}")
        return read(path)

    return fake


@pytest.mark.parametrize("argv", [["features", "{man}", "{tmp}/tdb.csv"],
                                  ["classify", "{tmp}/model.json", "--manifest", "{man}",
                                   "{tmp}/pred.csv"]])
def test_an_uncaught_error_is_raised_in_manifest_order(tmp_path, capsys, cpus, forks,
                                                       monkeypatch, argv):
    man = skip_manifest(tmp_path)
    cpus(1)
    assert main(["train", "--manifest", str(man), str(tmp_path / "model.json")]) == 1
    capsys.readouterr()
    argv = [a.format(man=man, tmp=tmp_path) for a in argv]
    # img31.pgm (an odd row) is the helper's, img34.pgm (an even row) this process's.
    monkeypatch.setattr(cli, "_read_image", raising_read({"img31.pgm", "img34.pgm"}))
    errors = {}
    for n in (1, 2):
        cpus(n)
        with pytest.raises(RuntimeError) as caught:
            main(argv)
        errors[n] = (str(caught.value), capsys.readouterr().err)
    assert errors[2] == errors[1]
    message, err = errors[2]
    assert message == "cannot decode img31.pgm"
    assert all(name in err for name in UNREADABLE.values())
    assert len(forks) == 1
    assert_reaped(forks)


def test_a_killed_helper_ends_with_the_serial_result(tmp_path, capsys, cpus, forks, monkeypatch):
    man = skip_manifest(tmp_path)
    tdb = tmp_path / "tdb.csv"
    argv, outputs = ["features", str(man), str(tdb)], [tdb, tmp_path / "tdb.csv.quant.json"]
    cpus(1)
    serial = run(capsys, argv, outputs)
    parent, read = os.getpid(), cli._read_image

    def killed_in_the_helper(path):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return read(path)

    monkeypatch.setattr(cli, "_read_image", killed_in_the_helper)
    cpus(2)
    assert run(capsys, argv, outputs) == serial
    assert "Traceback" not in serial[1]
    assert len(forks) == 1
    assert_reaped(forks)


def test_a_fork_that_fails_runs_every_image_here(tmp_path, capsys, cpus, monkeypatch):
    man = skip_manifest(tmp_path)
    tdb = tmp_path / "tdb.csv"
    argv, outputs = ["features", str(man), str(tdb)], [tdb, tmp_path / "tdb.csv.quant.json"]
    cpus(1)
    serial = run(capsys, argv, outputs)

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    cpus(2)
    assert run(capsys, argv, outputs) == serial


def test_outcomes_come_back_in_job_order(cpus, forks):
    def run(some):
        return [(None, ValueError(f"job {j}")) if j % 3 == 0 else (j * j, None) for j in some]

    cpus(2)
    outcomes = pipeline.map_images(run, range(7))
    assert [value for value, _ in outcomes] == [None, 1, 4, None, 16, 25, None]
    assert [str(exc) if exc else None for _, exc in outcomes] == [
        "job 0", None, None, "job 3", None, None, "job 6"]
    assert len(forks) == 1
    assert_reaped(forks)


@pytest.mark.parametrize("kind", ["feature vectors", "transaction"])
def test_image_outcomes_survive_the_pipe(cpus, forks, kind):
    """The helper pickles its images' FeatureVector lists or Transactions back to this process."""
    cfg = PipelineConfig()
    images = [GrayImage(blob_image(i).astype(np.uint8)) for i in range(4)]
    qm = QuantizationModel.fit(fv for fvs in pipeline.image_feature_vectors(images, cfg) for fv in fvs)
    each = {"feature vectors": lambda fvs: fvs,
            "transaction": lambda fvs: pipeline.image_transaction(fvs, qm, tid="t")}[kind]

    def run(some):
        return [(each(fvs), None) for fvs in pipeline.image_feature_vectors(some, cfg)]

    here = [run([image])[0] for image in images]
    assert all(value for value, _ in here)
    assert all(pickle.loads(pickle.dumps(x, pickle.HIGHEST_PROTOCOL)) == x for x in here)
    cpus(2)
    assert pipeline.map_images(run, images) == here
    assert len(forks) == 1
    assert_reaped(forks)


def test_a_helper_whose_outcome_does_not_pickle_is_replaced(cpus, forks):
    cpus(2)
    outcomes = pipeline.map_images(  # a lambda does not pickle
        lambda some: [((lambda j=j: j), None) for j in some], range(4))
    assert [value() for value, _ in outcomes] == [0, 1, 2, 3]
    assert len(forks) == 1
    assert_reaped(forks)


def test_an_interrupt_in_this_process_kills_and_reaps_the_helper(cpus, forks):
    parent = os.getpid()

    def run(some):
        if os.getpid() != parent:
            time.sleep(60)  # the helper would outlive the call unless it is killed
        raise KeyboardInterrupt

    cpus(2)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        pipeline.map_images(run, range(2))
    assert time.monotonic() - t0 < 30
    assert len(forks) == 1
    assert_reaped(forks)


def test_one_job_or_one_cpu_runs_here(cpus, forks):
    """Here too run sees every other job, so which jobs share a stack never depends on the CPUs."""
    seen = []

    def run(some):
        seen.append(some)
        return [(abs(j), None) for j in some]

    cpus(2)
    assert pipeline.map_images(run, [-3]) == [(3, None)]
    cpus(1)
    assert pipeline.map_images(run, [-3, 4, -5]) == [(3, None), (4, None), (5, None)]
    assert seen == [[-3], [], [-3, -5], [4]]
    assert forks == []


def test_commands_without_an_image_list_never_fork(tmp_path, capsys, cpus, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    cpus(2)
    monkeypatch.setattr(os, "fork", no_fork)
    tdb, model, pred = tmp_path / "t.csv", tmp_path / "model.json", tmp_path / "pred.csv"
    tdb.write_bytes(labeled_tdb())
    (tmp_path / "t.csv.quant.json").write_text(
        '{"area": [0, 500], "glcm_contrast": [0, 5], "glcm_energy": [0, 1], '
        '"glcm_entropy": [0, 6], "glcm_homogeneity": [0, 1], "mean_intensity": [0, 255]}')
    write_image(tmp_path / "blob.pgm", blob_image())
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,split\nnormal0,normal,test\nbenign0,benign,test\n")
    for argv in (["mine", str(tdb), "--mfi", str(tmp_path / "m.csv"), "--rules", str(tmp_path / "r.csv")],
                 ["train", "--tdb", str(tdb), str(model)],
                 ["classify", str(model), "--tdb", str(tdb), str(pred)],
                 ["evaluate", str(pred), str(man)],
                 ["classify", str(model), "--image", str(tmp_path / "blob.pgm"), str(pred)]):
        assert main(argv) == 0, argv
    assert pred.read_text().splitlines()[1].startswith(str(tmp_path / "blob.pgm") + ",")
