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


def skip_manifest(tmp_path):
    """Eight rows, with unreadable images on both this process's (even) and the helper's (odd) side."""
    for i in range(4):
        write_image(tmp_path / f"img{i}.pgm", blob_image(i))
    write_image(tmp_path / "flat.pgm", np.full((32, 32), 90))
    (tmp_path / "broken.pgm").write_bytes(b"P5\n32 32\n255\n")  # no pixel data
    (tmp_path / "above.pgm").write_bytes(b"P5 2 2 15\n" + bytes([1, 2, 200, 3]))
    rows = ["img0.pgm,benign,train", "ghost.pgm,normal,train", "img1.pgm,malignant,train",
            "broken.pgm,benign,test", "above.pgm,normal,train", "img2.pgm,normal,train",
            "flat.pgm,normal,train", "img3.pgm,benign,test"]
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
    err = runs[2][0][1]
    order = [err.index(name) for name in ("ghost.pgm", "broken.pgm", "above.pgm")]
    assert order == sorted(order)
    assert_reaped(forks)


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
    # img2.pgm (manifest index 5) is the helper's, flat.pgm (index 6) this process's.
    monkeypatch.setattr(cli, "_read_image", raising_read({"img2.pgm", "flat.pgm"}))
    errors = {}
    for n in (1, 2):
        cpus(n)
        with pytest.raises(RuntimeError) as caught:
            main(argv)
        errors[n] = (str(caught.value), capsys.readouterr().err)
    assert errors[2] == errors[1]
    message, err = errors[2]
    assert message == "cannot decode img2.pgm"
    assert all(name in err for name in ("ghost.pgm", "broken.pgm", "above.pgm"))
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
    def fn(j):
        if j % 3 == 0:
            raise ValueError(f"job {j}")
        return j * j

    cpus(2)
    outcomes = pipeline.map_images(fn, range(7))
    assert [value for value, _ in outcomes] == [None, 1, 4, None, 16, 25, None]
    assert [str(exc) if exc else None for _, exc in outcomes] == [
        "job 0", None, None, "job 3", None, None, "job 6"]
    assert len(forks) == 1
    assert_reaped(forks)


@pytest.mark.parametrize("kind", ["feature vectors", "transaction"])
def test_image_outcomes_survive_the_pipe(cpus, forks, kind):
    """The helper pickles each image's FeatureVector list or Transaction back to this process."""
    cfg = PipelineConfig()
    images = [GrayImage(blob_image(i).astype(np.uint8)) for i in range(4)]
    qm = QuantizationModel.fit(fv for img in images for fv in pipeline.image_feature_vectors(img, cfg))
    fn = {"feature vectors": lambda img: pipeline.image_feature_vectors(img, cfg),
          "transaction": lambda img: pipeline.image_transaction(img, cfg, qm, tid="t")}[kind]
    here = [fn(img) for img in images]
    assert all(here) and all(pickle.loads(pickle.dumps(x, pickle.HIGHEST_PROTOCOL)) == x for x in here)
    cpus(2)
    assert pipeline.map_images(fn, images) == [(x, None) for x in here]
    assert len(forks) == 1
    assert_reaped(forks)


def test_a_helper_whose_outcome_does_not_pickle_is_replaced(cpus, forks):
    cpus(2)
    outcomes = pipeline.map_images(lambda j: (lambda: j), range(4))  # a lambda does not pickle
    assert [value() for value, _ in outcomes] == [0, 1, 2, 3]
    assert len(forks) == 1
    assert_reaped(forks)


def test_an_interrupt_in_this_process_kills_and_reaps_the_helper(cpus, forks):
    parent = os.getpid()

    def fn(j):
        if os.getpid() != parent:
            time.sleep(60)  # the helper would outlive the call unless it is killed
        raise KeyboardInterrupt

    cpus(2)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        pipeline.map_images(fn, range(2))
    assert time.monotonic() - t0 < 30
    assert len(forks) == 1
    assert_reaped(forks)


def test_one_job_or_one_cpu_runs_here(cpus, forks):
    cpus(2)
    assert pipeline.map_images(abs, [-3]) == [(3, None)]
    cpus(1)
    assert pipeline.map_images(abs, [-3, 4, -5]) == [(3, None), (4, None), (5, None)]
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
