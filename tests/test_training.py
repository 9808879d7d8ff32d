"""Training-loop behavior: determinism, callback scheduling, improvement
semantics. Scenarios use a constant-loss setup (learning rate too small to
move anything) so callback timing is fully scripted by the epoch count."""

import numpy as np
import pytest

import terraseg.training as training_mod
from terraseg.errors import DataError, ParameterError
from terraseg.optim import AdamState, SgdState
from terraseg.synth import make_tile
from terraseg.topologies import TopologySpec, build_topology
from terraseg.training import (
    Sample,
    TrainConfig,
    _improved,
    evaluate_samples,
    fit,
    monitor_mode,
)


def tiny_sample(seed=3):
    image, labels = make_tile(seed, size=8, channels=2, num_classes=2)
    return Sample(image, labels)


def tiny_graph(seed=1):
    spec = TopologySpec(kind="unet", depth=1, base_channels=4, in_channels=2,
                        num_classes=2)
    return build_topology(spec, input_hw=(8, 8), seed=seed)


def frozen_fit(samples, **cfg_overrides):
    """Run fit with a learning rate too small to change the loss."""
    graph = tiny_graph()
    cfg = dict(epochs=6, seed=11, monitor="val_loss", min_delta=0.001,
               early_stop_patience=None, plateau_patience=None)
    cfg.update(cfg_overrides)
    config = TrainConfig(**cfg)
    history = fit(graph, samples, config, SgdState(lr=1e-300))
    return graph, history


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

    def test_plateau_factor_applied_exactly(self):
        graph = tiny_graph()
        opt = SgdState(lr=1e-300)
        config = TrainConfig(epochs=7, seed=11, early_stop_patience=None,
                             plateau_patience=2, plateau_factor=0.2)
        fit(graph, [tiny_sample()], config, opt)
        # reductions fire on epochs 2, 4 and 6: three exact multiplications
        assert opt.lr == 1e-300 * 0.2 * 0.2 * 0.2

    def test_lr_column_records_pre_reduction_value(self):
        graph = tiny_graph()
        opt = SgdState(lr=1.0e-300)
        config = TrainConfig(epochs=3, seed=11, early_stop_patience=None,
                             plateau_patience=1, plateau_factor=0.5)
        history = fit(graph, [tiny_sample()], config, opt)
        lrs = [r["lr"] for r in history.records]
        assert lrs == [1e-300, 1e-300, 0.5e-300]

    def test_plateau_runs_before_stop_and_checkpoint_after(self, tmp_path, monkeypatch):
        calls = []
        real_save = training_mod.checkpoint_save

        def spy(graph, path, monitored, mode):
            calls.append(monitored)
            return real_save(graph, path, monitored, mode)

        monkeypatch.setattr(training_mod, "checkpoint_save", spy)
        graph = tiny_graph()
        opt = SgdState(lr=1e-300)
        ckpt = str(tmp_path / "model.ckpt")
        config = TrainConfig(epochs=20, seed=11, early_stop_patience=3,
                             plateau_patience=1, plateau_factor=0.5,
                             checkpoint_path=ckpt)
        history = fit(graph, [tiny_sample()], config, opt)
        assert history.stopped_early
        assert len(history.records) == 4
        # checkpoint hook ran on every epoch, including the stopping one
        assert len(calls) == 4
        # plateau fired on the stopping epoch too (before the break)
        assert opt.lr == 1e-300 * 0.5**3

    def test_checkpoint_only_rewritten_on_improvement(self, tmp_path, monkeypatch):
        outcomes = []
        real_save = training_mod.checkpoint_save

        def spy(graph, path, monitored, mode):
            saved = real_save(graph, path, monitored, mode)
            outcomes.append(saved)
            return saved

        monkeypatch.setattr(training_mod, "checkpoint_save", spy)
        ckpt = tmp_path / "model.ckpt"
        frozen_fit([tiny_sample()], epochs=3, checkpoint_path=str(ckpt))
        # constant loss: only the first epoch wins the monitor comparison
        assert outcomes == [True, False, False]
        assert ckpt.exists()


class TestFit:
    def test_deterministic_history_and_params(self):
        def run():
            graph = tiny_graph(seed=5)
            config = TrainConfig(epochs=4, seed=17, early_stop_patience=None,
                                 plateau_patience=None)
            history = fit(graph, [tiny_sample(1), tiny_sample(2)], config,
                          AdamState())
            return history, graph.parameters()

        h1, p1 = run()
        h2, p2 = run()
        assert h1.records == h2.records
        for k in p1:
            assert np.array_equal(p1[k], p2[k])

    def test_loss_decreases_with_real_lr(self):
        graph = tiny_graph(seed=5)
        config = TrainConfig(epochs=15, seed=17, early_stop_patience=None,
                             plateau_patience=None)
        history = fit(graph, [tiny_sample()], config, AdamState())
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
            fit(tiny_graph(), [], TrainConfig(), SgdState(lr=0.1))

    def test_unknown_optimizer(self):
        with pytest.raises(ParameterError):
            fit(tiny_graph(), [tiny_sample()], TrainConfig(), object())

    def test_unknown_monitor(self):
        with pytest.raises(ParameterError):
            frozen_fit([tiny_sample()], monitor="vibes", epochs=1)

    def test_history_serialization(self):
        _, history = frozen_fit([tiny_sample()], epochs=2)
        table = history.table()
        assert "train_loss" in table.splitlines()[0]
        assert len(table.splitlines()) == 3
        assert '"stopped_early": false' in history.to_json()

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(epochs=0)
        with pytest.raises(ParameterError):
            TrainConfig(min_delta=-0.1)
        with pytest.raises(ParameterError):
            TrainConfig(plateau_factor=1.5)


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
        config = TrainConfig(epochs=2, batch_size=2, seed=11, shuffle=False,
                             checkpoint_path=str(tmp_path / "m.ckpt"))
        with pytest.raises(DataError) as err:
            fit(graph, train, config, SgdState(lr=0.1), val)
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

        def overflowing(cache, seeds):
            grads = backward(cache, seeds)
            grads[name] = np.full_like(grads[name], np.inf)
            return grads

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
