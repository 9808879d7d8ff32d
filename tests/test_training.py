"""Training-loop behavior: determinism, callback scheduling, improvement
semantics. Scenarios use a constant-loss setup (learning rate too small to
move anything) so callback timing is fully scripted by the epoch count."""

import numpy as np
import pytest

import terraseg.training as training_mod
from terraseg import metrics as M
from terraseg import ops, parallel
from terraseg.config import OptimizerConfig, TrainSection
from terraseg.errors import DataError, ParameterError
from terraseg.graph import ActivationLayer, Conv2d, Dropout, NetworkGraph, Softmax
from terraseg.optim import AdamState, SgdState
from terraseg.synth import make_tile
from terraseg.tensor import SeededRng, mix_seed
from terraseg.topologies import TopologySpec, build_topology
from terraseg.training import (
    Sample,
    _improved,
    evaluate_samples,
    fit,
    infer_tiles,
    monitor_mode,
    tiles_per_block,
)

NEVER = 10**6  # a patience no epoch count here reaches, so it never fires


def tiny_sample(seed=3):
    image, labels = make_tile(seed, size=8, channels=2, num_classes=2)
    return Sample(image, labels)


def tiny_graph(seed=1):
    spec = TopologySpec(kind="unet", depth=1, base_channels=4, in_channels=2,
                        num_classes=2)
    return build_topology(spec, input_hw=(8, 8), seed=seed)


def frozen_section(**overrides):
    """Settings with a learning rate too small to change the loss."""
    settings = dict(epochs=6, optimizer=OptimizerConfig(kind="sgd", lr=1e-300),
                    monitor="val_loss", min_delta=0.001,
                    early_stop_patience=NEVER, plateau_patience=NEVER)
    settings.update(overrides)
    return TrainSection(**settings)


def frozen_fit(samples, **overrides):
    graph = tiny_graph()
    history = fit(graph, samples, frozen_section(**overrides), seed=11)
    return graph, history


def fit_keeping_state(monkeypatch, train):
    """fit on one tiny sample, plus the optimizer state fit made."""
    states = []
    real_step = training_mod.apply_step

    def spy(state, params, grads):
        states.append(state)
        return real_step(state, params, grads)

    monkeypatch.setattr(training_mod, "apply_step", spy)
    history = fit(tiny_graph(), [tiny_sample()], train, seed=11)
    assert all(s is states[0] for s in states)
    return history, states[0]


class TestImprovement:
    def test_min_mode_needs_min_delta(self):
        assert _improved(0.998, 1.0, 0.001, "min")
        assert not _improved(0.9995, 1.0, 0.001, "min")
        assert _improved(0.999, 1.0, 0.001, "min")  # delta == min_delta counts

    def test_zero_min_delta_needs_strict_improvement(self):
        assert not _improved(1.0, 1.0, 0.0, "min")
        assert _improved(0.999999, 1.0, 0.0, "min")

    def test_max_mode(self):
        assert _improved(0.95, 0.9, 0.01, "max")
        assert not _improved(0.9, 0.95, 0.01, "max")

    def test_monitor_mode_by_name(self):
        assert monitor_mode("val_loss") == "min"
        assert monitor_mode("train_loss") == "min"
        assert monitor_mode("MIoU") == "max"
        assert monitor_mode("accuracy") == "max"


class TestCallbacks:
    def test_early_stop_after_exact_patience(self):
        _, history = frozen_fit([tiny_sample()], epochs=20, early_stop_patience=4)
        # epoch 0 sets the best; epochs 1..4 fail to improve; stop on the 4th
        assert history.stopped_early
        assert len(history.records) == 5

    def test_no_early_stop_without_patience_budget_spent(self):
        _, history = frozen_fit([tiny_sample()], epochs=4, early_stop_patience=4)
        assert not history.stopped_early
        assert len(history.records) == 4

    def test_plateau_factor_applied_exactly(self, monkeypatch):
        train = frozen_section(epochs=7, plateau_patience=2, plateau_factor=0.2)
        _, opt = fit_keeping_state(monkeypatch, train)
        # reductions fire on epochs 2, 4 and 6: three exact multiplications
        assert opt.lr == 1e-300 * 0.2 * 0.2 * 0.2

    def test_lr_column_records_pre_reduction_value(self):
        _, history = frozen_fit([tiny_sample()], epochs=3, plateau_patience=1,
                                plateau_factor=0.5)
        lrs = [r["lr"] for r in history.records]
        assert lrs == [1e-300, 1e-300, 0.5e-300]

    def test_plateau_runs_before_stop_and_checkpoint_after(self, tmp_path, monkeypatch):
        # each val_loss beats the last by less than min_delta: plateau and
        # early stopping see no improvement, the checkpoint's strict rule does
        losses = iter([1.0, 0.9999, 0.9998, 0.9997, 0.9996])
        monkeypatch.setattr(training_mod, "evaluate_samples",
                            lambda graph, val, metrics: (next(losses), {}, None))
        states, writes = [], []
        real_step, real_save = training_mod.apply_step, training_mod.checkpoint_save

        def step_spy(state, params, grads):
            states.append(state)
            return real_step(state, params, grads)

        def save_spy(graph, path, monitored):
            writes.append((monitored, states[-1].lr))
            real_save(graph, path, monitored)

        monkeypatch.setattr(training_mod, "apply_step", step_spy)
        monkeypatch.setattr(training_mod, "checkpoint_save", save_spy)
        train = frozen_section(epochs=20, early_stop_patience=3, plateau_patience=1,
                               plateau_factor=0.5, checkpoint=str(tmp_path / "model.ckpt"))
        history = fit(tiny_graph(), [tiny_sample()], train, seed=11)
        assert history.stopped_early
        assert len(history.records) == 4
        # every epoch wrote, the stopping one too, each after its plateau step
        assert writes == [(1.0, 1e-300), (0.9999, 1e-300 * 0.5),
                          (0.9998, 1e-300 * 0.5**2), (0.9997, 1e-300 * 0.5**3)]

    def test_checkpoint_only_rewritten_on_improvement(self, tmp_path, monkeypatch):
        writes = []
        real_save = training_mod.checkpoint_save

        def spy(graph, path, monitored):
            writes.append(monitored)
            real_save(graph, path, monitored)

        monkeypatch.setattr(training_mod, "checkpoint_save", spy)
        ckpt = tmp_path / "model.ckpt"
        _, history = frozen_fit([tiny_sample()], epochs=3, checkpoint=str(ckpt))
        # constant loss: only the first epoch writes
        assert writes == [history.records[0]["val_loss"]]
        assert ckpt.exists()


class TestFit:
    def test_deterministic_history_and_params(self):
        def run():
            graph = tiny_graph(seed=5)
            train = TrainSection(epochs=4, early_stop_patience=NEVER,
                                 plateau_patience=NEVER)
            history = fit(graph, [tiny_sample(1), tiny_sample(2)], train, seed=17)
            return history, graph.parameters()

        h1, p1 = run()
        h2, p2 = run()
        assert h1.records == h2.records
        for k in p1:
            assert np.array_equal(p1[k], p2[k])

    def test_loss_decreases_with_real_lr(self):
        graph = tiny_graph(seed=5)
        train = TrainSection(epochs=15, early_stop_patience=NEVER, plateau_patience=NEVER)
        history = fit(graph, [tiny_sample()], train, seed=17)
        losses = [r["train_loss"] for r in history.records]
        assert losses[-1] < losses[0]

    def test_val_defaults_to_train(self):
        _, history = frozen_fit([tiny_sample()], epochs=1)
        rec = history.records[0]
        assert rec["val_loss"] == pytest.approx(rec["train_loss"])

    def test_record_keys(self):
        _, history = frozen_fit([tiny_sample()], epochs=1)
        assert list(history.records[0].keys()) == [
            "epoch", "lr", "train_loss", "val_loss", "accuracy", "MIoU"]

    def test_empty_training_set(self):
        with pytest.raises(ParameterError):
            fit(tiny_graph(), [], TrainSection(), seed=11)

    def test_unknown_optimizer(self):
        with pytest.raises(ParameterError, match="unknown optimizer kind 'rmsprop'"):
            OptimizerConfig(kind="rmsprop")
        with pytest.raises(ParameterError, match="learning rate"):
            OptimizerConfig(lr=0.0)
        with pytest.raises(ParameterError, match="beta1"):
            OptimizerConfig(beta_1=1.5)

    def test_optimizer_state_is_fresh_per_call(self):
        adam = OptimizerConfig(lr=0.01, beta_1=0.8, beta_2=0.99, epsilon=1e-5)
        assert adam.state() == AdamState(lr=0.01, beta1=0.8, beta2=0.99, eps=1e-5)
        assert adam.state() is not adam.state()
        assert OptimizerConfig(kind="sgd", lr=0.5).state() == SgdState(lr=0.5)

    @staticmethod
    def per_name_loop(graph, dtype):
        """``fit``'s result and the result of the loop fit ran before its
        gradients shared one buffer: a fresh gradient dict per sample, summed
        name by name in sample order, divided by a batch of more than one,
        each name stepped on its own, and each sample's dropout masks drawn
        from its own seed; 3 samples in batches of 2 make a full batch and a
        batch of one."""
        samples = [tiny_sample(s) for s in (1, 2, 3)]
        train = TrainSection(epochs=3, batch_size=2,
                             optimizer=OptimizerConfig(kind="sgd", lr=0.1),
                             early_stop_patience=NEVER, plateau_patience=NEVER)
        got, ref = graph(), graph()
        got.set_dtype(dtype)
        ref.set_dtype(dtype)
        fit(got, samples, train, seed=17)
        params, logits = ref.parameters(), ref.logits_name()
        for epoch in range(train.epochs):
            order = SeededRng(mix_seed(17, "epoch", epoch)).permutation(len(samples))
            for batch in (order[:2], order[2:]):
                grads = {}
                for si in batch:
                    s = samples[int(si)]
                    rng = SeededRng(mix_seed(17, "forward", epoch, int(si)))
                    probs, cache = ref.forward(s.image, training=True, rng=rng)
                    _, glogits = ops.categorical_cross_entropy(probs, s.labels, s.ignore)
                    fresh = np.zeros_like(ref.flat)
                    ref.backward(cache, {logits: glogits}, fresh)
                    for name, g in ref.parameters(fresh).items():
                        grads[name] = grads[name] + g if name in grads else g
                for name, g in grads.items():
                    params[name] -= train.optimizer.lr * (g / len(batch) if len(batch) > 1 else g)
        return got, ref

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sgd_fit_gives_the_bytes_of_a_per_name_loop(self, dtype):
        got, ref = self.per_name_loop(lambda: tiny_graph(seed=5), dtype)
        assert got.flat.dtype == dtype and got.flat.tobytes() == ref.flat.tobytes()
        assert not np.array_equal(got.flat, tiny_graph(seed=5).flat.astype(dtype))

    def test_a_dropout_graph_draws_each_sample_s_masks_from_its_seed(self):
        # fit builds a sample's rng only for a graph with a Dropout node
        def graph():
            g = NetworkGraph((2, 8, 8))
            g.add("c1", Conv2d(2, 4, 3, 1, 1, rng=SeededRng(7)), ["input"])
            g.add("drop", Dropout(0.5), ["c1"])
            g.add("head", Conv2d(4, 2, 1, 1, 0, rng=SeededRng(8)), ["drop"])
            g.add("probs", Softmax(), ["head"])
            return g

        got, ref = self.per_name_loop(graph, np.float32)
        assert got.flat.tobytes() == ref.flat.tobytes()
        without = graph()
        without.nodes[2].layer.rate = 0.0
        without.set_dtype(np.float32)
        fit(without, [tiny_sample(s) for s in (1, 2, 3)],
            TrainSection(epochs=3, batch_size=2, optimizer=OptimizerConfig(kind="sgd", lr=0.1),
                         early_stop_patience=NEVER, plateau_patience=NEVER), seed=17)
        assert not np.array_equal(got.flat, without.flat)  # the masks moved the result

    def test_unknown_monitor(self):
        # the monitor must be a key of the epoch record, known before epoch 0
        with pytest.raises(ParameterError, match="monitor 'vibes'"):
            TrainSection(monitor="vibes")
        with pytest.raises(ParameterError, match="monitor 'F1'"):
            TrainSection(monitor="F1", metrics=("accuracy",))
        assert TrainSection(monitor="F1", metrics=("F1",)).monitor == "F1"
        assert TrainSection(monitor="lr").monitor == "lr"

    def test_history_serialization(self):
        _, history = frozen_fit([tiny_sample()], epochs=2)
        table = history.table()
        assert "train_loss" in table.splitlines()[0]
        assert len(table.splitlines()) == 3
        assert '"stopped_early": false' in history.to_json()

    def test_config_validation(self):
        for key, value, why in [
            ("epochs", 0, "epochs must be >= 1"),
            ("batch_size", 0, "batch_size must be >= 1"),
            ("min_delta", -0.1, "min_delta must be >= 0"),
            ("plateau_factor", 1.5, r"plateau_factor must be in \(0, 1\)"),
            ("plateau_factor", 0.0, r"plateau_factor must be in \(0, 1\)"),
            ("early_stop_patience", -1, "early_stop_patience must be >= 0"),
            ("plateau_patience", -1, "plateau_patience must be >= 0"),
            ("metrics", ("accuracy", "mIoU"), "unknown metric 'mIoU'"),
        ]:
            with pytest.raises(ParameterError, match=why):
                TrainSection(**{key: value})

    def test_zero_patience_fires_on_the_first_miss(self):
        _, history = frozen_fit([tiny_sample()], epochs=5, early_stop_patience=0)
        assert history.stopped_early
        assert len(history.records) == 2


class TestEvaluateSamples:
    def test_metrics_keys_and_types(self):
        graph = tiny_graph()
        loss, vals, cm = evaluate_samples(graph, [tiny_sample()],
                                          ("accuracy", "MIoU", "F1"))
        assert set(vals) == {"accuracy", "MIoU", "F1"}
        assert cm.total == 64
        assert loss > 0

    def test_empty_samples(self):
        with pytest.raises(ParameterError):
            evaluate_samples(tiny_graph(), [])

    @pytest.mark.parametrize("kind, base, block", [("segnet", 8, 8), ("resunet", 8, 4),
                                                   ("unet", 8, 4), ("unet", 16, 2)])
    def test_block_size_follows_the_widest_output(self, monkeypatch, kind, base, block):
        # float32 32-px tiles: SegNet's widest output is 32 KiB a tile, the
        # U-Net base 16 concat 128 KiB, so the 256 KiB bound holds 8 and 2;
        # SegNet base 8 and U-Net base 16 are the benchmark workloads' graphs
        spec = TopologySpec(kind=kind, depth=2, base_channels=base, in_channels=4,
                            num_classes=4)
        g = build_topology(spec, (32, 32), seed=1)
        g.set_dtype(np.float32)
        assert tiles_per_block(g) == tiles_per_block(g.folded()) == block
        # on the class, as infer_tiles calls infer on g.folded() (SegNet's is a new graph),
        # and in this process alone, which a worker's calls would not reach
        monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
        sizes, infer = [], NetworkGraph.infer
        monkeypatch.setattr(NetworkGraph, "infer",
                            lambda self, x: sizes.append(len(x)) or infer(self, x))
        images = np.zeros((11, 4, 32, 32), np.float32)
        got = [k for k, _ in infer_tiles(g, ((i, image, None) for i, image in enumerate(images)))]
        assert got == [list(range(i, min(i + block, 11))) for i in range(0, 11, block)]
        assert sizes == [len(keys) for keys in got]

    @pytest.mark.parametrize("kind, base", [("segnet", 8), ("unet", 16)])
    def test_tiles_run_on_the_folded_graph(self, kind, base):
        # SegNet infers on its batch-norm fold, U-Net (no pair) on itself
        spec = TopologySpec(kind=kind, depth=2, base_channels=base, in_channels=4,
                            num_classes=4)
        g = build_topology(spec, (32, 32), seed=2)
        g.set_dtype(np.float32)
        images = SeededRng(3).uniform(-1, 1, (5, 4, 32, 32)).astype(np.float32)
        for image in images:  # running statistics off 0 and 1
            g.forward(image, training=True)
        folded = g.folded()
        assert (folded is g) == (kind == "unet")
        block = tiles_per_block(g)
        want = np.concatenate([folded.infer(images[i : i + block])
                               for i in range(0, len(images), block)])
        got = np.concatenate([p for _, p in infer_tiles(g, ((i, im, None)
                                                            for i, im in enumerate(images)))])
        assert got.tobytes() == want.tobytes()
        for probs, image in zip(got, images):
            ref, _ = g.forward(image)
            assert np.allclose(probs, ref, rtol=0, atol=1e-6)
            assert np.array_equal(probs.argmax(axis=0), ref.argmax(axis=0))

    def test_blocks_give_the_per_tile_loop_bits(self):
        # dyadic operands with short mantissas keep every conv sum exact, so
        # the blocks' probabilities are the per-tile ones whatever order
        # BLAS adds in; the samples make one full block and a partial one
        def dyadic(seed, shape, scale):
            return np.floor(SeededRng(seed).uniform(-4, 4, shape)) / scale

        g = NetworkGraph((2, 8, 8))
        g.add("c1", Conv2d(2, 3, 3, 1, 1), ["input"])
        g.add("act", ActivationLayer(ops.RELU), ["c1"])
        g.add("c2", Conv2d(3, 2, 1, 1, 0), ["act"])
        g.add("probs", Softmax(), ["c2"])
        for i, arr in enumerate(g.parameters().values()):
            arr[...] = dyadic(i, arr.shape, 8)
        block = tiles_per_block(g)
        samples = []
        for i in range(block + 4):
            s = tiny_sample(10 + i)
            ignore = SeededRng(40 + i).uniform(0, 1, (8, 8)) < 0.2
            if i == 5:
                ignore[...] = True  # dropped by both
            samples.append(Sample(dyadic(20 + i, s.image.shape, 4), s.labels, ignore))

        cm = M.ConfusionMatrix.zeros(2)
        total, n = 0.0, 0
        for s in samples:
            if s.ignore.all():
                continue
            probs, _ = g.forward(s.image)
            total += ops.categorical_cross_entropy(probs, s.labels, s.ignore)[0]
            n += 1
            M.confusion_update(cm, probs.argmax(axis=0), s.labels, s.ignore)
        loss, _, got = evaluate_samples(g, samples)
        assert n == block + 3
        assert np.float64(loss).tobytes() == np.float64(total / n).tobytes()
        assert np.array_equal(got.counts, cm.counts)

    def test_unknown_metric(self):
        with pytest.raises(ParameterError):
            evaluate_samples(tiny_graph(), [tiny_sample()], ("sharpe",))


class TestDivergence:
    """A non-finite training loss, batch gradient or val_loss stops fit
    before the optimizer step or checkpoint write that would use it."""

    def nan_sample(self):
        s = tiny_sample()
        image = s.image.copy()
        image[0, 0, 0] = np.nan
        return Sample(image, s.labels, s.ignore)

    def diverge(self, tmp_path, graph, train, val=None):
        before = {k: v.copy() for k, v in graph.parameters().items()}
        settings = TrainSection(epochs=2, batch_size=2, randomise=False,
                                optimizer=OptimizerConfig(kind="sgd", lr=0.1),
                                checkpoint=str(tmp_path / "m.ckpt"))
        with pytest.raises(DataError) as err:
            fit(graph, train, settings, seed=11, val_data=val)
        assert not (tmp_path / "m.ckpt").exists()
        return str(err.value), before

    def test_non_finite_loss(self, tmp_path):
        graph = tiny_graph()
        msg, before = self.diverge(tmp_path, graph, [tiny_sample(), self.nan_sample()])
        assert msg == "training diverged at epoch 0: the loss of training sample 1 is not finite"
        for name, value in graph.parameters().items():
            assert np.array_equal(value, before[name])  # no step was taken

    def test_non_finite_batch_gradient(self, tmp_path):
        graph = tiny_graph()
        backward = graph.backward
        name = sorted(graph.parameters())[0]

        def overflowing(cache, seeds, grads):
            backward(cache, seeds, grads)
            graph.parameters(grads)[name][...] = np.inf

        graph.backward = overflowing
        msg, before = self.diverge(tmp_path, graph, [tiny_sample(), tiny_sample(4)])
        assert msg == (f"training diverged at epoch 0: the {name} gradient of "
                       f"samples [0, 1] is not finite")
        for key, value in graph.parameters().items():
            assert np.array_equal(value, before[key])

    def test_evaluate_samples_rejects_a_non_finite_forward(self):
        with pytest.raises(DataError, match="do not sum to 1"):
            evaluate_samples(tiny_graph(), [tiny_sample(), self.nan_sample()])

    def test_non_finite_val_loss(self, tmp_path):
        msg, _ = self.diverge(tmp_path, tiny_graph(), [tiny_sample()],
                              [tiny_sample(4), self.nan_sample()])
        assert msg == ("training diverged at epoch 0: the val_loss of validation "
                       "sample 1 is not finite")
