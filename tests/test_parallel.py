"""Worker processes: ``fit`` and ``_infer_tiles`` give the serial bytes at any
process count, fork one pool per call, report a worker's failure as the
serial loop would, and leave no process or thread behind.

The process count is forced through ``parallel.usable_cores``, the one place
that reads the affinity mask, so 2 and 3 processes run on any machine.
"""

import errno
import inspect
import os
import pickle
import threading
import weakref

import numpy as np
import pytest

from terraseg import errors, ops, parallel
from terraseg.config import OptimizerConfig, TrainSection
from terraseg.errors import CheckpointFormatError, DataError, TerrasegError, WktParseError
from terraseg.graph import BatchNorm2d, Conv2d, NetworkGraph, Softmax
from terraseg.tensor import SeededRng
from terraseg.topologies import TopologySpec, build_topology
from terraseg.training import Sample, _infer_tiles, evaluate_samples, fit, tiles_per_block

from conftest import needs_workers, nothing_left

HW = 16
NEVER = 1000  # a patience no run reaches

def samples(n: int, seed: int, channels: int = 2, classes: int = 3) -> list[Sample]:
    rng = SeededRng(seed)
    return [Sample(rng.uniform(-1, 1, (channels, HW, HW)).astype(np.float32),
                   rng.integers(0, classes, (HW, HW)).astype(np.uint8),
                   (rng.uniform(0, 1, (HW, HW)) < 0.1).astype(np.uint8))
            for _ in range(n)]


def graph_of(kind: str, base: int = 4) -> NetworkGraph:
    """A topology, or "norm-input": a batch norm on the input, which the
    batch-norm fold keeps, so that inference reads its running statistics."""
    if kind == "norm-input":
        graph = NetworkGraph((2, HW, HW))
        graph.add("norm", BatchNorm2d(2), ["input"])
        graph.add("conv", Conv2d(2, 3, 3, 1, 1, rng=SeededRng(3)))
        graph.add("probs", Softmax())
    else:
        spec = TopologySpec(kind=kind, depth=1, base_channels=base, in_channels=2,
                            num_classes=3)
        graph = build_topology(spec, (HW, HW), seed=3)
    graph.set_dtype(np.float32)
    return graph


def trained(kind, optimizer, batch, ckpt, train_data, val_data, epochs=2, base=4):
    """The bytes of everything ``fit`` leaves: parameters, running
    statistics, history and checkpoint."""
    graph = graph_of(kind, base)
    train = TrainSection(optimizer=optimizer, epochs=epochs, batch_size=batch,
                         checkpoint=str(ckpt), early_stop_patience=NEVER, plateau_patience=1)
    history = fit(graph, train_data, train, 5, val_data)
    stats = b"".join(a.tobytes() for a in graph.state_arrays().values())
    return graph.flat.tobytes(), stats, history.to_json(), ckpt.read_bytes()


class TestFit:
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("optimizer", [OptimizerConfig("sgd", 0.05),
                                           OptimizerConfig("adam", 0.01)],
                             ids=["sgd", "adam"])
    @pytest.mark.parametrize("kind", ["unet", "segnet", "resunet", "norm-input"])
    def test_every_process_count_gives_the_same_bytes(self, tmp_path, cores, kind,
                                                      optimizer, batch):
        # 7 samples: at batch 3 the last batch holds 1, fewer than the
        # processes; at batch 8 the only batch is short. 40 validation tiles
        # make several blocks, so validation runs on the workers too
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


def counting_forks(monkeypatch) -> list:
    """The pids that ``os.fork`` returns in this process from now on."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


class TestOnePool:
    @needs_workers
    @pytest.mark.parametrize("procs", [2, 3])
    def test_a_call_forks_once_per_worker(self, tmp_path, cores, monkeypatch, procs):
        # 150 validation tiles make several blocks a pass; fit used to fork
        # again for each epoch's validation
        cores(procs)
        forks = counting_forks(monkeypatch)
        val = samples(150, 2)
        for epochs in (1, 4):
            trained("segnet", OptimizerConfig("sgd", 0.05), 3, tmp_path / "m.ckpt",
                    samples(7, 1), val, epochs, base=8)
            assert len(forks) == procs - 1
            forks.clear()
        graph = graph_of("segnet", base=8)
        assert -(-len(val) // tiles_per_block(graph)) >= procs
        evaluate_samples(graph, val)  # as evaluate scores
        assert len(forks) == procs - 1
        forks.clear()
        for _ in _infer_tiles(graph, enumerate(val), "classes"):  # as predict scores
            pass
        assert len(forks) == procs - 1

    @needs_workers
    def test_workers_fork_at_the_first_task(self, cores, monkeypatch):
        # so that what the caller reads for it is not in pages shared copy-on-write
        forks = counting_forks(monkeypatch)
        with parallel.Workers(2, lambda task: task) as pool:
            assert forks == []
            pool.send(1, "a task")
            assert len(forks) == 2 and pool.recv(1) == "a task"

    @pytest.mark.parametrize("procs", [1, 2])
    def test_a_non_finite_val_loss_takes_one_inference_pass(self, tmp_path, cores, monkeypatch,
                                                            procs):
        # the bad tile is in the last block, so the pass scores every block
        # once; finding the tile by a second pass would score them again
        cores(procs)
        calls = os.open(tmp_path / "calls", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        infer = NetworkGraph.infer

        def counted(graph, x):  # in any process
            os.write(calls, b".")
            return infer(graph, x)

        monkeypatch.setattr(NetworkGraph, "infer", counted)
        val = samples(150, 2)
        val[149] = Sample(np.full((2, HW, HW), np.nan, np.float32), val[149].labels,
                          val[149].ignore)
        try:
            with pytest.raises(DataError) as err:
                trained("segnet", OptimizerConfig("sgd", 0.05), 3, tmp_path / "m.ckpt",
                        samples(7, 1), val, base=8)
        finally:
            os.close(calls)
        assert str(err.value) == ("training diverged at epoch 0: the val_loss of validation "
                                  "sample 149 is not finite")
        blocks = -(-len(val) // tiles_per_block(graph_of("segnet", base=8)))
        assert blocks >= 4 and (tmp_path / "calls").stat().st_size == blocks
        assert not (tmp_path / "m.ckpt").exists()


class TestGraphState:
    """``fit`` is the one writer of a graph's state, at any process count."""

    @needs_workers
    def test_flat_stays_the_caller_s_array(self, tmp_path, cores):
        cores(2)
        graph = graph_of("segnet", base=8)
        flat, view = graph.flat, graph.parameters()["enc0_conv.weight"]
        evaluate_samples(graph, samples(40, 2))
        assert graph.flat is flat
        train = TrainSection(optimizer=OptimizerConfig("sgd", 0.05), epochs=1, batch_size=4,
                             checkpoint=str(tmp_path / "m.ckpt"))
        before = flat.copy()
        fit(graph, samples(7, 1), train, 5, samples(4, 2))
        assert graph.flat is flat and not np.array_equal(flat, before)
        assert np.shares_memory(view, graph.flat)
        assert view.tobytes() == graph.parameters()["enc0_conv.weight"].tobytes()

    @pytest.mark.parametrize("kind", ["segnet", "norm-input"])
    def test_running_statistics_fold_each_sample_in_sample_order(self, tmp_path, cores,
                                                                monkeypatch, kind):
        # 7 samples at batch 4 make a full batch and a short one; at 1
        # process a spy on the op sees every training sample's statistics
        train_data = samples(7, 1)
        train = TrainSection(optimizer=OptimizerConfig("sgd", 0.05), epochs=1, batch_size=4,
                             checkpoint=str(tmp_path / "m.ckpt"))
        seen, batch_norm = {}, ops.batch_norm

        def spy(x, gamma, beta, stats, eps=1e-5, training=True):
            y, cache = batch_norm(x, gamma, beta, stats, eps, training)
            if training:
                seen.setdefault(id(stats), []).append((cache["mu"], cache["var"]))
            return y, cache

        cores(1)
        graph = graph_of(kind)
        norms = [node.layer for node in graph.nodes if isinstance(node.layer, BatchNorm2d)]
        with monkeypatch.context() as patch:
            patch.setattr(ops, "batch_norm", spy)
            fit(graph, train_data, train, 5)
        want = []
        for layer in norms:
            folds = seen[id(layer.stats)]
            assert len(folds) == len(train_data)
            m = layer.momentum
            mean, var = np.zeros(layer.channels, np.float32), np.ones(layer.channels, np.float32)
            for mu, v in folds:
                mean = mean * (1.0 - m) + m * mu
                var = var * (1.0 - m) + m * v
            want += [mean.tobytes(), var.tobytes()]
        assert [a.tobytes() for a in graph.state_arrays().values()] == want
        for procs in (2, 3):
            cores(procs)
            graph = graph_of(kind)
            fit(graph, train_data, train, 5)
            assert [a.tobytes() for a in graph.state_arrays().values()] == want


class TestErrors:
    def every_error(self):
        for cls in vars(errors).values():
            if inspect.isclass(cls) and issubclass(cls, TerrasegError):
                offset = "offset" in inspect.signature(cls.__init__).parameters
                yield cls("a message", 17) if offset else cls("a message")

    def test_every_error_pickles_whole(self):
        errs = list(self.every_error())
        assert {WktParseError, CheckpointFormatError} <= {type(e) for e in errs}
        for err in errs:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(err, protocol))
                assert type(back) is type(err) and str(back) == str(err)
                assert back.category == err.category
                assert getattr(back, "offset", None) == getattr(err, "offset", None)

    @needs_workers
    @pytest.mark.parametrize("error", [WktParseError("ring not closed", 12),
                                       CheckpointFormatError("truncated array", 40)],
                             ids=["wkt", "checkpoint"])
    def test_a_worker_error_is_raised_here_as_raised_there(self, cores, error):
        def serve(task):
            raise error

        with parallel.Workers(1, serve) as pool:
            pool.send(0, "a task")
            with pytest.raises(type(error)) as err:
                pool.recv(0)
        assert str(err.value) == str(error) and err.value.offset == error.offset
        assert err.value.category == "data"


class TestInferTiles:
    @pytest.mark.parametrize("kind", ["segnet", "unet"])
    def test_every_process_count_gives_the_same_blocks(self, cores, kind):
        graph = graph_of(kind, base=8)
        # running statistics off 0 and 1, so the fold moves bits
        for i, arr in enumerate(graph.state_arrays().values()):
            arr[...] = SeededRng(i).uniform(0.5, 1.5, arr.shape)
        tiles = samples(150, 3)
        tiles[7] = Sample(tiles[7].image, tiles[7].labels, np.ones((HW, HW), np.uint8))
        half = np.zeros((HW, HW), np.uint8)
        half[:, : HW // 2] = 1
        tiles[8] = Sample(tiles[8].image, tiles[8].labels, half)
        runs = []
        for procs in (1, 2, 3):
            cores(procs)
            threads = threading.active_count()
            run = {}
            for want in ("classes", "counts", "losses"):
                blocks = list(_infer_tiles(graph, enumerate(tiles), want))
                run[want] = ([keys for keys, _ in blocks],
                             b"".join(np.asarray(part).tobytes() for _, scores in blocks
                                      for part in (scores if want == "losses" else [scores])))
            nothing_left(threads)
            runs.append(run)
        keys = runs[0]["classes"][0]
        assert len(keys) >= 4 and 7 not in sum(keys, [])
        # predict's rule: 255 exactly at the ignored pixels (half of tile 8's)
        kept = sum(keys, [])
        planes = np.frombuffer(runs[0]["classes"][1], np.uint8).reshape(len(kept), HW, HW)
        assert 8 in kept
        assert np.array_equal(planes == 255, np.stack([tiles[i].ignore != 0 for i in kept]))
        assert all(run[want][0] == keys for run in runs for want in run)
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
                yield from ((len(weeks), Sample(image, None)) for image in week)

        graph = graph_of("segnet", base=8)  # 32 tiles a block, 2 a week
        for i, _ in enumerate(_infer_tiles(graph, tiles(), "classes")):
            if i == 4:  # the first block of the last week
                assert weeks[0]() is None

    @needs_workers
    def test_closing_early_reaps_the_workers(self, cores):
        cores(3)
        threads = threading.active_count()
        blocks = _infer_tiles(graph_of("segnet", base=8), enumerate(samples(150, 3)), "counts")
        next(blocks)
        blocks.close()
        nothing_left(threads)

    @needs_workers
    def test_a_worker_that_dies_raises_a_runtime_error(self, cores, monkeypatch):
        cores(2)
        main, infer = os.getpid(), NetworkGraph.infer
        monkeypatch.setattr(NetworkGraph, "infer",
                            lambda g, x: os._exit(9) if os.getpid() != main else infer(g, x))
        with pytest.raises(TerrasegError, match="exit code 9"):
            for _ in _infer_tiles(graph_of("segnet", base=8), enumerate(samples(150, 3)),
                                  "classes"):
                pass
