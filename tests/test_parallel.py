"""Worker processes: ``fit`` and ``infer_tiles`` give the serial bytes at any
process count, report a worker's failure as the serial loop would, and leave
no process or thread behind.

The process count is forced through ``parallel.usable_cores``, the one place
that reads the affinity mask, so 2 and 3 processes run on any machine.
"""

import errno
import os
import signal
import threading
import weakref

import numpy as np
import pytest

from terraseg import ops, parallel
from terraseg.config import OptimizerConfig, TrainSection
from terraseg.errors import DataError, TerrasegError
from terraseg.graph import NetworkGraph
from terraseg.tensor import SeededRng
from terraseg.topologies import TopologySpec, build_topology
from terraseg.training import Sample, fit, infer_tiles

HW = 16
NEVER = 1000  # a patience no run reaches

needs_workers = pytest.mark.skipif(parallel._blas_threads() is None,
                                   reason="the loaded BLAS's thread count cannot be set, "
                                          "so everything runs serially")


@pytest.fixture
def cores(monkeypatch):
    """Sets the usable core count; checks that no child or thread is left,
    and fails a test that waits on a worker for more than a minute."""
    def hung(*_):
        raise TimeoutError("waited over a minute on a worker")

    threads = threading.active_count()
    handler = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield lambda n: monkeypatch.setattr(parallel, "usable_cores", lambda: n)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    nothing_left(threads)


def nothing_left(threads: int) -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


def samples(n: int, seed: int, channels: int = 2, classes: int = 3) -> list[Sample]:
    rng = SeededRng(seed)
    return [Sample(rng.uniform(-1, 1, (channels, HW, HW)).astype(np.float32),
                   rng.integers(0, classes, (HW, HW)).astype(np.uint8),
                   (rng.uniform(0, 1, (HW, HW)) < 0.1).astype(np.uint8))
            for _ in range(n)]


def graph_of(kind: str, base: int = 4) -> NetworkGraph:
    spec = TopologySpec(kind=kind, depth=1, base_channels=base, in_channels=2, num_classes=3)
    graph = build_topology(spec, (HW, HW), seed=3)
    graph.set_dtype(np.float32)
    return graph


def trained(kind, optimizer, batch, ckpt, train_data, val_data):
    """The bytes of everything ``fit`` leaves: parameters, running
    statistics, history and checkpoint."""
    graph = graph_of(kind)
    train = TrainSection(optimizer=optimizer, epochs=2, batch_size=batch, checkpoint=str(ckpt),
                         early_stop_patience=NEVER, plateau_patience=1)
    history = fit(graph, train_data, train, 5, val_data)
    stats = b"".join(a.tobytes() for a in graph.state_arrays().values())
    return graph.flat.tobytes(), stats, history.to_json(), ckpt.read_bytes()


class TestFit:
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("optimizer", [OptimizerConfig("sgd", 0.05),
                                           OptimizerConfig("adam", 0.01)],
                             ids=["sgd", "adam"])
    @pytest.mark.parametrize("kind", ["unet", "segnet", "resunet"])
    def test_every_process_count_gives_the_same_bytes(self, tmp_path, cores, kind,
                                                      optimizer, batch):
        # 7 samples: at batch 3 the last batch holds 1, fewer than the
        # processes; at batch 8 the only batch is short. 40 validation tiles
        # make several blocks, so validation forks too
        train_data, val_data = samples(7, 1), samples(40, 2)
        runs = []
        for procs in (1, 2, 3):
            cores(procs)
            threads = threading.active_count()
            runs.append(trained(kind, optimizer, batch, tmp_path / f"{procs}.ckpt",
                                train_data, val_data))
            nothing_left(threads)
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_one_usable_core_forks_nothing(self, tmp_path, cores, monkeypatch):
        cores(1)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one usable core"))
        trained("segnet", OptimizerConfig("sgd", 0.05), 3, tmp_path / "m.ckpt",
                samples(7, 1), samples(40, 2))

    def test_a_blas_that_cannot_be_pinned_runs_serially(self, tmp_path, cores, monkeypatch):
        cores(2)
        monkeypatch.setattr(parallel, "_blas_threads", lambda: None)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without a BLAS pin"))
        trained("unet", OptimizerConfig("sgd", 0.05), 3, tmp_path / "m.ckpt",
                samples(7, 1), samples(40, 2))

    @needs_workers
    def test_the_blas_thread_count_comes_back(self, tmp_path, cores):
        get, put = parallel._blas_threads()
        before = get()
        put(2)
        try:
            cores(2)
            trained("unet", OptimizerConfig("sgd", 0.05), 4, tmp_path / "m.ckpt",
                    samples(7, 1), samples(40, 2))
            assert get() == 2
        finally:
            put(before)

    @needs_workers
    def test_a_diverging_sample_in_a_worker_gives_the_serial_message(self, tmp_path, cores):
        # sample 5 is in the last share of a batch of 8 at 2 and 3 processes
        train_data = samples(8, 1)
        train_data[5] = Sample(np.full((2, HW, HW), np.inf, np.float32),
                               train_data[5].labels, train_data[5].ignore)
        messages = []
        for procs in (1, 2, 3):
            cores(procs)
            with pytest.raises(DataError) as err:
                trained("unet", OptimizerConfig("sgd", 0.05), 8, tmp_path / "m.ckpt",
                        train_data, samples(4, 2))
            messages.append(str(err.value))
        assert messages == ["training diverged at epoch 0: the loss of training "
                            "sample 5 is not finite"] * 3
        assert not (tmp_path / "m.ckpt").exists()

    @needs_workers
    def test_a_worker_that_dies_ends_fit_with_a_runtime_error(self, tmp_path, cores,
                                                              monkeypatch):
        cores(2)
        main, loss = os.getpid(), ops.categorical_cross_entropy
        monkeypatch.setattr(ops, "categorical_cross_entropy",
                            lambda *a: os._exit(9) if os.getpid() != main else loss(*a))
        with pytest.raises(TerrasegError) as err:
            trained("unet", OptimizerConfig("sgd", 0.05), 4, tmp_path / "m.ckpt",
                    samples(7, 1), samples(4, 2))
        assert err.value.category == "runtime"
        assert "ended with exit code 9 before returning its result" in str(err.value)
        assert not (tmp_path / "m.ckpt").exists()

    @needs_workers
    def test_a_fork_that_fails_is_one_runtime_error_and_leaks_nothing(self, tmp_path, cores,
                                                                      monkeypatch):
        cores(3)
        forks, fork = [], os.fork

        def second_fails():
            if forks:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            forks.append(fork())
            return forks[-1]

        monkeypatch.setattr(os, "fork", second_fails)
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(TerrasegError, match="^cannot fork a worker process: "):
            trained("unet", OptimizerConfig("sgd", 0.05), 3, tmp_path / "m.ckpt",
                    samples(7, 1), samples(4, 2))
        assert sorted(os.listdir("/proc/self/fd")) == fds


class TestInferTiles:
    @pytest.mark.parametrize("kind", ["segnet", "unet"])
    def test_every_process_count_gives_the_same_blocks(self, cores, kind):
        graph = graph_of(kind, base=8)
        for s in samples(3, 4):  # running statistics off 0 and 1, so the fold moves bits
            graph.forward(s.image, training=True)
        tiles = samples(150, 3)
        tiles[7] = Sample(tiles[7].image, tiles[7].labels, np.ones((HW, HW), np.uint8))
        runs = []
        for procs in (1, 2, 3):
            cores(procs)
            threads = threading.active_count()
            blocks = list(infer_tiles(graph, ((i, s.image, s.ignore)
                                              for i, s in enumerate(tiles))))
            nothing_left(threads)
            runs.append(([keys for keys, _ in blocks],
                         b"".join(probs.tobytes() for _, probs in blocks)))
        assert len(runs[0][0]) >= 4 and 7 not in sum(runs[0][0], [])
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("procs", [1, 2])
    def test_a_block_lets_its_images_go_once_taken(self, cores, procs):
        # the first blocks, read ahead to size the workers, once held their
        # week of images to the end of the call: 4 MB more at infer-512's peak
        cores(procs)
        weeks = []

        def tiles():
            for _ in range(3):
                week = SeededRng(len(weeks)).uniform(-1, 1, (64, 2, HW, HW)).astype(np.float32)
                weeks.append(weakref.ref(week))
                yield from ((len(weeks), image, None) for image in week)

        graph = graph_of("segnet", base=8)  # 32 tiles a block, 2 a week
        for i, _ in enumerate(infer_tiles(graph, tiles())):
            if i == 4:  # the first block of the last week
                assert weeks[0]() is None

    @needs_workers
    def test_closing_early_reaps_the_workers(self, cores):
        cores(3)
        threads = threading.active_count()
        blocks = infer_tiles(graph_of("segnet", base=8),
                             ((i, s.image, None) for i, s in enumerate(samples(150, 3))))
        next(blocks)
        blocks.close()
        nothing_left(threads)

    @needs_workers
    def test_a_worker_that_dies_raises_a_runtime_error(self, cores, monkeypatch):
        cores(2)
        main, infer = os.getpid(), NetworkGraph.infer
        monkeypatch.setattr(NetworkGraph, "infer",
                            lambda g, x: os._exit(9) if os.getpid() != main else infer(g, x))
        tiles = ((i, s.image, None) for i, s in enumerate(samples(150, 3)))
        with pytest.raises(TerrasegError, match="exit code 9"):
            for _ in infer_tiles(graph_of("segnet", base=8), tiles):
                pass
