"""YAML pipeline configuration: parsing, validation, defaults.

The grammar is plain YAML maps/lists/scalars, loaded with a yaml.SafeLoader
(so no language-object tags) that also reads YAML 1.2 exponent floats such
as ``1e-3``, which YAML 1.1 leaves as strings. Every key is checked; unknown
keys and type mismatches raise ConfigError carrying the dotted path of the
offending node, e.g. ``train.optimizer.lr``. A top-level ``seed`` is
mandatory: every command derives its randomness from it.

The section dataclasses below are the grammar: the parser reads key names,
types, defaults and nullability from their fields, and keeps per-key code
only for the few keys whose YAML form differs from the field (``_FORMS``)
and for enumerated values (``_CHOICES``). Nothing writes a config back.

Each section checks its own values in ``__post_init__``, so a bad value
fails the parse as a ConfigError at the section's path, and a section built
in Python (``fit`` takes a ``TrainSection``) meets the same rules. Only the
checks that need the store wait for a command.

Sections are optional at parse time; each CLI command demands its own
section when it runs. Keys that must agree with another section (the tile
size with the topology depth, the class counts of ingest and the topology,
the folds with ``split.k``) are checked once every section is parsed.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import yaml

from .catalog import CatalogQuery
from .errors import ConfigError, ParameterError, WktParseError
from .georaster import DEFAULT_CLOUD_CLASSES
from .metrics import REPORT_KEYS
from .ops import RELU, ActivationKind
from .optim import AdamState, SgdState
from .topologies import KINDS, TopologySpec, _check_input
from .wkt import parse_wkt

__all__ = [
    "OptimizerConfig",
    "IngestSection",
    "SplitSection",
    "TrainSection",
    "EvaluateSection",
    "PredictSection",
    "QuerySection",
    "PipelineConfig",
    "parse_config",
]


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    lr: float = 0.001
    beta_1: float = 0.9
    beta_2: float = 0.999
    epsilon: float = 1e-7

    def __post_init__(self):
        self.state()

    def state(self) -> SgdState | AdamState:
        """A fresh optimizer state with these settings."""
        if self.kind == "sgd":
            return SgdState(lr=self.lr)
        if self.kind == "adam":
            return AdamState(lr=self.lr, beta1=self.beta_1, beta2=self.beta_2,
                             eps=self.epsilon)
        raise ParameterError(f"unknown optimizer kind {self.kind!r}")


def _at_least(low: int, **values) -> None:
    """Raise ParameterError naming the first of ``values`` below ``low``."""
    for name, value in values.items():
        if value < low:
            raise ParameterError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class IngestSection:
    image: str
    labels: str
    num_classes: int
    scl: str | None = None
    coarse_image: str | None = None
    weeks: int = 1
    tile_size: int = 32
    label_nodata: int = 255
    class_map: tuple[tuple[int, int], ...] | None = None
    cloud_classes: tuple[int, ...] = DEFAULT_CLOUD_CLASSES

    def __post_init__(self):
        _at_least(1, weeks=self.weeks, tile_size=self.tile_size)
        _at_least(2, num_classes=self.num_classes)
        if not 0 <= self.label_nodata <= 255:  # the label array is u8
            raise ParameterError(f"label_nodata must be in [0, 255], got {self.label_nodata}")
        if self.label_nodata < self.num_classes:  # it would hide that class as "no label"
            raise ParameterError(f"label_nodata {self.label_nodata} is a class index "
                                 f"in [0, {self.num_classes})")


@dataclass(frozen=True)
class SplitSection:
    k: int = 5
    min_pixels: int = 1

    def __post_init__(self):
        _at_least(2, k=self.k)
        _at_least(1, min_pixels=self.min_pixels)


@dataclass(frozen=True)
class TrainSection:
    topology: TopologySpec = field(default_factory=TopologySpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    metrics: tuple[str, ...] = ("accuracy", "MIoU")
    epochs: int = 100
    batch_size: int = 1
    randomise: bool = True
    monitor: str = "val_loss"
    min_delta: float = 0.001
    early_stop_patience: int = 20
    plateau_patience: int = 5
    plateau_factor: float = 0.2
    checkpoint: str | None = None
    history: str | None = None
    inputs: tuple[str, ...] = ("Sentinel-2/MSI/10m",)
    masks: str | None = "Sentinel-2/MSI/ignore_masks"
    slice_timestamps: tuple[int, int] = (0, 1)
    validation_fold: int | None = None

    def __post_init__(self):  # a patience of ``epochs`` or more never fires
        _at_least(1, epochs=self.epochs, batch_size=self.batch_size)
        _at_least(0, early_stop_patience=self.early_stop_patience,
                  plateau_patience=self.plateau_patience, min_delta=self.min_delta)
        if not 0 < self.plateau_factor < 1:
            raise ParameterError(f"plateau_factor must be in (0, 1), got {self.plateau_factor}")
        for name in self.metrics:
            if name not in REPORT_KEYS:
                raise ParameterError(f"unknown metric {name!r} (know {REPORT_KEYS})")
        record = ("epoch", "lr", "train_loss", "val_loss") + self.metrics
        if self.monitor not in record:
            raise ParameterError(f"monitor {self.monitor!r} is not a key of the "
                                 f"epoch record {record}")
        s = self.slice_timestamps  # the store's week count bounds stop later
        if (len(s) != 2 or not all(isinstance(v, int) and not isinstance(v, bool) for v in s)
                or not 0 <= s[0] < s[1]):
            raise ParameterError(f"slice_timestamps must be two ints [start, stop] with "
                                 f"0 <= start < stop, got {list(s)}")
        if self.validation_fold is not None:
            _at_least(0, validation_fold=self.validation_fold)
        if not self.inputs:
            raise ParameterError("inputs must name at least one store array, got []")


@dataclass(frozen=True)
class EvaluateSection:
    checkpoint: str | None = None
    fold: int | None = None
    out: str | None = None

    def __post_init__(self):
        if self.fold is not None:
            _at_least(0, fold=self.fold)


@dataclass(frozen=True)
class PredictSection:
    checkpoint: str | None = None
    week: int = 0
    out: str = "prediction"
    preview: bool = False

    def __post_init__(self):
        _at_least(0, week=self.week)


@dataclass(frozen=True)
class QuerySection:
    begin: str | None = None
    end: str | None = None
    platformname: str | None = None
    filename: str | None = None
    producttype: str | None = None
    instrumentshortname: str | None = None
    footprint: str | None = None
    offset: int = 0
    limit: int = 25
    sortedby: str = "ingestiondate"
    order: str = "desc"

    def __post_init__(self):
        self.catalog_query()

    def catalog_query(self) -> CatalogQuery:
        """The catalog query these keys describe."""
        try:
            footprint = None if self.footprint is None else parse_wkt(self.footprint)
        except WktParseError as exc:
            raise ParameterError(f"footprint: {exc}") from None
        return CatalogQuery(
            begin=self.begin, end=self.end, platform_name=self.platformname,
            filename=self.filename, product_type=self.producttype,
            instrument=self.instrumentshortname, footprint=footprint,
            offset=self.offset, limit=self.limit, sorted_by=self.sortedby,
            order=self.order)


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    store: str
    base_group: str = ""
    ingest: IngestSection | None = None
    split: SplitSection | None = None
    train: TrainSection | None = None
    evaluate: EvaluateSection | None = None
    predict: PredictSection | None = None
    query: QuerySection | None = None


def _type_name(value) -> str:
    return type(value).__name__


def _as_map(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {_type_name(value)}")
    return value


def _check(value, kind: type, path: str):
    """``value`` as a ``kind`` scalar; ints widen to float, bools are not ints."""
    if value is None:
        raise ConfigError(f"{path}: expected {kind.__name__}, got null")
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {_type_name(value)}")
    return value


def _value(raw, hint, path: str):
    """Check one YAML value against a field's type hint.

    ``X | None`` takes null (except for sections, which must be mappings),
    dataclasses are nested mappings, ``tuple[X, ...]`` is a YAML list of X.
    """
    args = get_args(hint)
    if type(None) in args:
        hint = next(a for a in args if a is not type(None))
        if raw is None and not is_dataclass(hint):
            return None
    if is_dataclass(hint):
        return _build(hint, raw, path)
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        if not isinstance(raw, list) or not all(
                isinstance(v, item) and not isinstance(v, bool) for v in raw):
            raise ConfigError(f"{path}: expected a list of {item.__name__}")
        return tuple(raw)
    return _check(raw, hint, path)


def _build(cls, raw, path: str, extra_keys=(), **given):
    """Parse a YAML mapping into dataclass ``cls``.

    Key names, types, required keys and defaults come from the dataclass
    fields; ``given`` holds fields already parsed from ``extra_keys`` or a
    YAML form of their own. Values the dataclass itself rejects become
    ConfigErrors at ``path``.
    """
    m = _as_map(raw, path)
    extra = sorted(set(m) - {f.name for f in fields(cls)} - set(extra_keys))
    if extra:
        raise ConfigError(f"{path}.{extra[0]}: unknown key")
    hints = get_type_hints(cls)
    values = dict(given)
    for f in fields(cls):
        key = f"{path}.{f.name}"
        if f.name in given:
            continue
        if f.name not in m:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{key}: missing required key")
            continue
        parse = _FORMS.get((cls, f.name))
        value = parse(m[f.name], key) if parse else _value(m[f.name], hints[f.name], key)
        choices = _CHOICES.get((cls, f.name))
        if choices is not None and value not in choices:
            raise ConfigError(f"{key}: unknown value {value!r} (know {choices})")
        values[f.name] = value
    try:
        return cls(**values)
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_topology(raw, path: str) -> TopologySpec:
    """The activation is two flat keys, ``activation`` (a name) and ``alpha``."""
    m = _as_map(raw, path)
    name = _check(m.get("activation", RELU.name), str, f"{path}.activation")
    alpha = _check(m.get("alpha", RELU.alpha), float, f"{path}.alpha")
    try:
        act = ActivationKind(name, alpha)
    except ParameterError as exc:
        raise ConfigError(f"{path}.activation: {exc}") from None
    return _build(TopologySpec, m, path, extra_keys=("alpha",), activation=act)


def _parse_class_map(raw, path: str):
    """A YAML mapping of ints, stored as sorted (code, class) pairs."""
    if raw is None:
        return None
    pairs = _as_map(raw, path).items()
    if not all(isinstance(v, int) and not isinstance(v, bool) for pair in pairs for v in pair):
        raise ConfigError(f"{path}: keys and values must be ints")
    return tuple(sorted(pairs))


def _parse_timestamp(raw, path: str) -> str | None:
    """Read a query timestamp, tolerating YAML's implicit datetime tag.

    Bare ISO-8601 stamps like ``2018-06-01T00:00:00.000Z`` parse to datetime
    objects under the SafeLoader; render those back to the catalog's canonical
    millisecond Z form instead of demanding quotes in the config file.
    """
    if isinstance(raw, datetime.datetime):
        offset = raw.utcoffset()
        if offset:
            raw = raw - offset
        millis = raw.microsecond // 1000
        return raw.strftime("%Y-%m-%dT%H:%M:%S.") + f"{millis:03d}Z"
    if isinstance(raw, datetime.date):
        return raw.strftime("%Y-%m-%dT00:00:00.000Z")
    return None if raw is None else _check(raw, str, path)


# fields whose YAML form differs from the dataclass field
_FORMS = {
    (TrainSection, "topology"): _parse_topology,
    (IngestSection, "class_map"): _parse_class_map,
    (QuerySection, "begin"): _parse_timestamp,
    (QuerySection, "end"): _parse_timestamp,
}
_CHOICES = {
    (TopologySpec, "kind"): KINDS,
    (OptimizerConfig, "kind"): ("adam", "sgd"),
}


class _Loader(yaml.SafeLoader):
    """SafeLoader that also resolves YAML 1.2 floats whose exponent has no
    dot or no sign (``1e-3``, ``1.0e6``, ``3e+2``)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def parse_config(text: str) -> PipelineConfig:
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = "" if mark is None else f" at line {mark.line + 1}, column {mark.column + 1}"
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError(f"config is not valid YAML: {problem}{where}") from None
    config = _build(PipelineConfig, {} if doc is None else doc, "config")
    _check_across_sections(config)
    return config


def _check_across_sections(config: PipelineConfig) -> None:
    """Keys that must agree with a key of another section."""
    if config.ingest is not None and config.train is not None:
        size = config.ingest.tile_size
        try:
            _check_input(config.train.topology, (size, size))
        except ParameterError as exc:
            raise ConfigError(f"config.ingest.tile_size: {exc} "
                              f"(config.train.topology.depth)") from None
        classes = config.train.topology.num_classes
        if classes != config.ingest.num_classes:
            raise ConfigError(f"config.train.topology.num_classes: {classes} but "
                              f"config.ingest.num_classes is {config.ingest.num_classes}")
    if config.split is None:
        return
    k = config.split.k
    for section, key in (("train", "validation_fold"), ("evaluate", "fold")):
        fold = getattr(getattr(config, section), key, None)
        if fold is not None and fold >= k:  # the section checks fold >= 0
            raise ConfigError(f"config.{section}.{key}: fold {fold} outside "
                              f"[0, {k}) set by config.split.k")

