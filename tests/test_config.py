"""YAML config parsing: defaults, the parsed form of every key, and
dotted-path error reporting."""

import pytest
import yaml

from terraseg.catalog import CatalogQuery
from terraseg.config import (
    EvaluateSection,
    IngestSection,
    OptimizerConfig,
    PipelineConfig,
    PredictSection,
    QuerySection,
    SplitSection,
    TrainSection,
    _Loader,
    parse_config,
)
from terraseg.errors import ConfigError, ParameterError
from terraseg.ops import ActivationKind
from terraseg.topologies import TopologySpec
from terraseg.wkt import parse_wkt

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

    @pytest.mark.parametrize("text, value", [("1e-3", 1e-3), ("1.0e6", 1.0e6),
                                             ("3e+2", 300.0), ("-2E-1", -0.2)])
    def test_exponent_floats_without_dot_or_sign(self, text, value):
        # YAML 1.1 reads these as strings; the loader follows YAML 1.2. The
        # loader alone, since no float key of the config takes -0.2
        assert yaml.load(f"lr: {text}", Loader=_Loader) == {"lr": value}
        if value > 0:
            cfg = parse_config(MINIMAL + f"train:\n  optimizer: {{lr: {text}}}\n")
            assert cfg.train.optimizer.lr == value

    def test_quoted_exponent_stays_a_string(self):
        with pytest.raises(ConfigError, match=r"config\.train\.optimizer\.lr: expected float, got str"):
            parse_config(MINIMAL + 'train:\n  optimizer: {lr: "1e-3"}\n')
        cfg = parse_config(MINIMAL.replace("/data/run1", '"1e3"'))
        assert cfg.store == "1e3"

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
        # the rendered stamp, quoted back into a config, parses to itself
        stamps = "query:\n  begin: {}\n  end: {}\n"
        cfg = parse_config(MINIMAL + stamps.format("2018-06-01T00:00:00Z", "2018-06-02"))
        again = parse_config(MINIMAL + stamps.format(f'"{cfg.query.begin}"',
                                                     f'"{cfg.query.end}"'))
        assert again == cfg


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
        # categorical cross-entropy is the only loss, so no key names it
        for loss in ("mse", "categorical_crossentropy"):
            with pytest.raises(ConfigError, match=r"^config\.train\.loss: unknown key$"):
                parse_config(MINIMAL + f"train:\n  loss: {loss}\n")

    def test_bad_slice_timestamps(self):
        with pytest.raises(ConfigError, match=r"config\.train: slice_timestamps .*got \[3\]"):
            parse_config(MINIMAL + "train:\n  slice_timestamps: [3]\n")
        with pytest.raises(ConfigError, match="0 <= start < stop, got \\[2, 2\\]"):
            parse_config(MINIMAL + "train:\n  slice_timestamps: [2, 2]\n")

    @pytest.mark.parametrize("section, values, why", [
        (TrainSection, {"slice_timestamps": (-1, 1)}, r"0 <= start < stop, got \[-1, 1\]"),
        (TrainSection, {"slice_timestamps": (2, 2)}, "0 <= start < stop"),
        (TrainSection, {"slice_timestamps": (0, 1, 2)}, "two ints"),
        (TrainSection, {"slice_timestamps": (0.0, 1)}, "two ints"),
        (TrainSection, {"validation_fold": -1}, "validation_fold must be >= 0, got -1"),
        (EvaluateSection, {"fold": -1}, "fold must be >= 0, got -1"),
        (TrainSection, {"inputs": ()}, r"inputs must name at least one store array, got \[\]"),
    ])
    def test_sections_built_in_python_check_their_values(self, section, values, why):
        with pytest.raises(ParameterError, match=why):
            section(**values)

    def test_query_section_builds_its_catalog_query(self):
        q = QuerySection(begin="2018-06-01T00:00:00.000Z", end="2018-09-01T00:00:00.000Z",
                         platformname="Sentinel-3", filename="f", producttype="p",
                         instrumentshortname="OLCI", footprint="POLYGON((0 0,1 0,1 1,0 0))",
                         offset=5, limit=10, sortedby="beginposition", order="asc")
        assert q.catalog_query() == CatalogQuery(
            begin="2018-06-01T00:00:00.000Z", end="2018-09-01T00:00:00.000Z",
            platform_name="Sentinel-3", filename="f", product_type="p", instrument="OLCI",
            footprint=parse_wkt("POLYGON((0 0,1 0,1 1,0 0))"), offset=5, limit=10,
            sorted_by="beginposition", order="asc")

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

    def test_invalid_yaml_names_its_place_in_one_line(self):
        with pytest.raises(ConfigError) as raised:
            parse_config("seed: 1\nstore: s\ntrain: {epochs: [}\n")
        assert str(raised.value) == ("config is not valid YAML: expected the node "
                                     "content, but found '}' at line 3, column 18")

    @pytest.mark.parametrize("section, body, why", [
        ("ingest", "{image: i, labels: l, num_classes: 2, weeks: 0}", "weeks must be >= 1, got 0"),
        ("ingest", "{image: i, labels: l, num_classes: 2, tile_size: 0}",
         "tile_size must be >= 1, got 0"),
        ("ingest", "{image: i, labels: l, num_classes: 1}", "num_classes must be >= 2, got 1"),
        ("ingest", "{image: i, labels: l, num_classes: 2, label_nodata: -1}",
         r"label_nodata must be in \[0, 255\], got -1"),
        ("split", "{k: 1}", "k must be >= 2, got 1"),
        ("split", "{min_pixels: 0}", "min_pixels must be >= 1, got 0"),
        ("predict", "{week: -1}", "week must be >= 0, got -1"),
        ("train", "{plateau_patience: -1}", "plateau_patience must be >= 0, got -1"),
        ("train", "{optimizer: {epsilon: 0.0}}", "eps must be positive"),
        ("train", "{topology: {kind: resunet, depth: 0}}", "depth must be >= 1, got 0"),
        ("train", "{validation_fold: -1}", "validation_fold must be >= 0, got -1"),
        ("evaluate", "{fold: -1}", "fold must be >= 0, got -1"),
        ("query", "{limit: 0}", "limit must be >= 1, got 0"),
        ("query", "{offset: -1}", "offset must be >= 0, got -1"),
        ("query", "{order: sideways}", "order must be 'asc' or 'desc', got 'sideways'"),
        ("query", "{begin: 2018-06-01}", "begin and end must be given together"),
        ("query", "{begin: 2018-09-01, end: 2018-06-01}", "begin .* is after end"),
        ("query", "{footprint: 'POLYGON((0 0, 1 1))'}",
         "footprint: ring has 2 vertices, need at least 4"),
        ("query", "{footprint: 'POLYGON((0 0, 1 0, 1 1, 0 1))'}", "footprint: ring is not closed"),
    ])
    def test_sections_check_their_values_at_parse(self, section, body, why):
        with pytest.raises(ConfigError, match=rf"^config\.{section}[.:].*{why}"):
            parse_config(MINIMAL + f"{section}: {body}\n")

    def test_label_nodata_must_not_be_a_class_index(self):
        # a nodata value that is a class index would hide that class as "no label"
        body = "ingest: {image: i, labels: l, num_classes: 4, label_nodata: %d}\n"
        with pytest.raises(ConfigError) as raised:
            parse_config(MINIMAL + body % 3)
        assert str(raised.value) == "config.ingest: label_nodata 3 is a class index in [0, 4)"
        assert parse_config(MINIMAL + body % 4).ingest.label_nodata == 4

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


class TestParsedForm:
    def test_full_config_parses_to_its_sections(self):
        # every key FULL sets, and the defaults of the keys it leaves out
        assert parse_config(FULL) == PipelineConfig(
            seed=7, store="out/store", base_group="experiment-a",
            ingest=IngestSection(image="scene.bin", labels="labels.wkt", num_classes=4,
                                 scl="scl.bin", weeks=2, tile_size=64,
                                 class_map=((12, 0), (23, 1))),
            split=SplitSection(k=3, min_pixels=10),
            train=TrainSection(
                topology=TopologySpec(kind="segnet", depth=3, base_channels=16,
                                      activation=ActivationKind("elu", 0.1)),
                optimizer=OptimizerConfig(kind="sgd", lr=0.05),
                epochs=12, batch_size=2, monitor="val_loss", slice_timestamps=(0, 2)),
            evaluate=EvaluateSection(fold=0),
            predict=PredictSection(week=1, preview=True),
            query=QuerySection(platformname="Sentinel-3", limit=50))
