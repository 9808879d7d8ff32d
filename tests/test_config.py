"""YAML config parsing: defaults, dotted-path error reporting, and the
parse/serialize round trip."""

import dataclasses

import pytest

from terraseg.config import (
    EvaluateSection,
    IngestSection,
    OptimizerConfig,
    PipelineConfig,
    PredictSection,
    QuerySection,
    SplitSection,
    TrainSection,
    parse_config,
    serialize_config,
)
from terraseg.errors import ConfigError
from terraseg.ops import ActivationKind
from terraseg.topologies import TopologySpec

MINIMAL = """
seed: 42
store: /data/run1
"""

FULL = """
seed: 7
store: out/store
base_group: experiment-a
ingest:
  image: scene.bin
  labels: labels.wkt
  num_classes: 4
  scl: scl.bin
  weeks: 2
  tile_size: 64
  class_map:
    12: 0
    23: 1
split:
  k: 3
  min_pixels: 10
train:
  topology:
    kind: segnet
    depth: 3
    base_channels: 16
    activation: elu
    alpha: 0.1
  optimizer:
    kind: sgd
    lr: 0.05
  epochs: 12
  batch_size: 2
  monitor: val_loss
  slice_timestamps: [0, 2]
evaluate:
  fold: 0
predict:
  week: 1
  preview: true
query:
  platformname: Sentinel-3
  limit: 50
"""


class TestDefaults:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.seed == 42
        assert cfg.store == "/data/run1"
        assert cfg.base_group == ""
        assert cfg.ingest is None and cfg.train is None

    def test_optimizer_defaults(self):
        cfg = parse_config(MINIMAL + "train: {}\n")
        opt = cfg.train.optimizer
        assert opt == OptimizerConfig(kind="adam", lr=0.001, beta_1=0.9,
                                      beta_2=0.999, epsilon=1e-7)

    def test_train_defaults(self):
        t = parse_config(MINIMAL + "train: {}\n").train
        assert t.epochs == 100
        assert t.metrics == ("accuracy", "MIoU")
        assert t.monitor == "val_loss"
        assert t.slice_timestamps == (0, 1)
        assert t.topology.kind == "unet"
        assert t.topology.depth == 2
        assert t.topology.base_channels == 8
        assert t.topology.activation.name == "relu"

    def test_full_config(self):
        cfg = parse_config(FULL)
        assert cfg.ingest.class_map == ((12, 0), (23, 1))
        assert cfg.ingest.cloud_classes == (3, 8, 9)
        assert cfg.split.k == 3
        assert cfg.train.topology.kind == "segnet"
        assert cfg.train.topology.activation.name == "elu"
        assert cfg.train.optimizer.kind == "sgd"
        assert cfg.train.slice_timestamps == (0, 2)
        assert cfg.predict.preview is True
        assert cfg.query.limit == 50

    def test_query_timestamps_accept_bare_yaml_stamps(self):
        # safe_load turns unquoted ISO stamps into datetime objects
        cfg = parse_config(MINIMAL + (
            "query:\n"
            "  begin: 2018-06-01T00:00:00.000Z\n"
            "  end: 2018-09-01T23:59:59.999Z\n"))
        assert cfg.query.begin == "2018-06-01T00:00:00.000Z"
        assert cfg.query.end == "2018-09-01T23:59:59.999Z"

    def test_query_timestamps_normalize_offsets_and_dates(self):
        cfg = parse_config(MINIMAL + (
            "query:\n"
            "  begin: 2018-06-01 02:30:00+02:00\n"
            "  end: 2018-09-01\n"))
        assert cfg.query.begin == "2018-06-01T00:30:00.000Z"
        assert cfg.query.end == "2018-09-01T00:00:00.000Z"

    def test_query_timestamp_round_trip(self):
        cfg = parse_config(MINIMAL + "query:\n  begin: 2018-06-01T00:00:00Z\n")
        assert parse_config(serialize_config(cfg)) == cfg


class TestErrors:
    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="config.seed"):
            parse_config("store: s\n")

    def test_missing_store(self):
        with pytest.raises(ConfigError, match="config.store"):
            parse_config("seed: 1\n")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="config.stor"):
            parse_config("seed: 1\nstor: typo\n")

    def test_unknown_nested_key_dotted_path(self):
        with pytest.raises(ConfigError, match=r"config\.train\.optimizer\.learning_rate"):
            parse_config(MINIMAL + "train:\n  optimizer:\n    learning_rate: 0.1\n")

    def test_type_mismatch_paths(self):
        with pytest.raises(ConfigError, match="config.seed: expected int"):
            parse_config("seed: high\nstore: s\n")
        with pytest.raises(ConfigError, match=r"config\.train\.epochs: expected int"):
            parse_config(MINIMAL + "train:\n  epochs: ten\n")
        with pytest.raises(ConfigError, match=r"config\.split: expected a mapping"):
            parse_config(MINIMAL + "split: 5\n")

    def test_bool_is_not_int(self):
        with pytest.raises(ConfigError, match="expected int, got bool"):
            parse_config("seed: true\nstore: s\n")

    def test_unknown_topology_and_activation(self):
        with pytest.raises(ConfigError, match=r"topology\.kind"):
            parse_config(MINIMAL + "train:\n  topology:\n    kind: fcn\n")
        with pytest.raises(ConfigError, match=r"topology\.activation"):
            parse_config(MINIMAL + "train:\n  topology:\n    activation: swish\n")

    def test_unsupported_loss(self):
        with pytest.raises(ConfigError, match="loss"):
            parse_config(MINIMAL + "train:\n  loss: mse\n")

    def test_bad_slice_timestamps(self):
        with pytest.raises(ConfigError, match="slice_timestamps"):
            parse_config(MINIMAL + "train:\n  slice_timestamps: [3]\n")
        with pytest.raises(ConfigError, match="start must be < stop"):
            parse_config(MINIMAL + "train:\n  slice_timestamps: [2, 2]\n")

    def test_bad_class_map(self):
        with pytest.raises(ConfigError, match="class_map"):
            parse_config(MINIMAL +
                         "ingest:\n  image: i\n  labels: l\n  num_classes: 2\n"
                         "  class_map:\n    high: 1\n")

    def test_required_ingest_keys(self):
        with pytest.raises(ConfigError, match=r"config\.ingest\.image"):
            parse_config(MINIMAL + "ingest:\n  labels: l\n  num_classes: 2\n")

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config("seed: [unclosed\n")

    def test_non_mapping_document(self):
        with pytest.raises(ConfigError, match="expected a mapping"):
            parse_config("- just\n- a\n- list\n")


class TestNullables:
    def test_explicit_nulls_allowed_where_optional(self):
        cfg = parse_config(MINIMAL + "train:\n  checkpoint: null\n  masks: null\n")
        assert cfg.train.checkpoint is None
        assert cfg.train.masks is None

    def test_null_rejected_where_required_type(self):
        with pytest.raises(ConfigError, match="got null"):
            parse_config(MINIMAL + "train:\n  epochs: null\n")


class TestRoundTrip:
    def test_full_round_trip_equality(self):
        cfg = parse_config(FULL)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_minimal_round_trip(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_serialized_form_is_plain_yaml(self):
        text = serialize_config(parse_config(FULL))
        assert "!!" not in text  # no python-object tags

    def test_every_field_survives_the_round_trip(self):
        train = TrainSection(
            topology=TopologySpec(kind="resunet", depth=3, base_channels=4,
                                  in_channels=2, num_classes=3,
                                  activation=ActivationKind("leaky_relu", 0.3),
                                  padded=False),
            optimizer=OptimizerConfig(kind="sgd", lr=0.5, beta_1=0.8,
                                      beta_2=0.99, epsilon=1e-5),
            metrics=("F1",), epochs=3, batch_size=2, randomise=False,
            monitor="loss", min_delta=0.01, early_stop_patience=4,
            plateau_patience=2, plateau_factor=0.5, checkpoint="m.ckpt",
            history="h", inputs=("a", "b"), masks=None,
            slice_timestamps=(1, 3), validation_fold=1)
        cfg = PipelineConfig(
            seed=3, store="st", base_group="g",
            ingest=IngestSection(image="i", labels="l", num_classes=3, scl="s",
                                 coarse_image="c", weeks=2, tile_size=16,
                                 label_nodata=7, class_map=((4, 1), (5, 2)),
                                 cloud_classes=(1,)),
            split=SplitSection(k=2, min_pixels=3),
            train=train,
            evaluate=EvaluateSection(checkpoint="e.ckpt", fold=1, out="r"),
            predict=PredictSection(checkpoint="p.ckpt", week=2, out="o",
                                   preview=True),
            query=QuerySection(begin="2018-06-01T00:00:00.000Z",
                               end="2018-09-01T00:00:00.000Z",
                               platformname="Sentinel-3", filename="f",
                               producttype="p", instrumentshortname="OLCI",
                               footprint="POLYGON((0 0,1 0,1 1,0 0))",
                               offset=5, limit=10, sortedby="beginposition",
                               order="asc"))
        # a field added later must get a non-default value here too;
        # loss has a single legal value
        for section in (cfg, cfg.ingest, cfg.split, train, train.topology,
                        train.optimizer, cfg.evaluate, cfg.predict, cfg.query):
            for f in dataclasses.fields(section):
                if f.name == "loss":
                    continue
                if f.default is not dataclasses.MISSING:
                    assert getattr(section, f.name) != f.default, f.name
                elif f.default_factory is not dataclasses.MISSING:
                    assert getattr(section, f.name) != f.default_factory(), f.name
        assert parse_config(serialize_config(cfg)) == cfg
