"""YAML pipeline configuration: parsing, validation, defaults.

The grammar is plain YAML maps/lists/scalars (loaded with yaml.safe_load, so
no language-object tags). Every key is checked; unknown keys and type
mismatches raise ConfigError carrying the dotted path of the offending node,
e.g. ``train.optimizer.lr``. A top-level ``seed`` is mandatory: every command
derives its randomness from it.

The section dataclasses below are the grammar: the parser and the
serializer read key names, types, defaults and nullability from their
fields, and keep per-key code only for the few keys whose YAML form differs
from the field (``_FORMS`` / ``_DUMPS``) and for enumerated values
(``_CHOICES``).

Sections are optional at parse time; each CLI command demands its own
section when it runs. `serialize_config` inverts `parse_config` so configs
round-trip: parse(serialize(c)) == c.
"""

from __future__ import annotations

import datetime
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError, ParameterError
from .georaster import DEFAULT_CLOUD_CLASSES
from .ops import RELU, ActivationKind
from .topologies import KINDS, TopologySpec

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
    "serialize_config",
]


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    lr: float = 0.001
    beta_1: float = 0.9
    beta_2: float = 0.999
    epsilon: float = 1e-7


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


@dataclass(frozen=True)
class SplitSection:
    k: int = 5
    min_pixels: int = 1


@dataclass(frozen=True)
class TrainSection:
    topology: TopologySpec = field(default_factory=TopologySpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    loss: str = "categorical_crossentropy"
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


@dataclass(frozen=True)
class EvaluateSection:
    checkpoint: str | None = None
    fold: int | None = None
    out: str | None = None


@dataclass(frozen=True)
class PredictSection:
    checkpoint: str | None = None
    week: int = 0
    out: str = "prediction"
    preview: bool = False


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


def _parse_slice(raw, path: str) -> tuple[int, int]:
    if (not isinstance(raw, list) or len(raw) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)):
        raise ConfigError(f"{path}: expected [start, stop] ints")
    if raw[0] >= raw[1]:
        raise ConfigError(f"{path}: start must be < stop")
    return (raw[0], raw[1])


def _parse_timestamp(raw, path: str) -> str | None:
    """Read a query timestamp, tolerating YAML's implicit datetime tag.

    Bare ISO-8601 stamps like ``2018-06-01T00:00:00.000Z`` parse to datetime
    objects under safe_load; render those back to the catalog's canonical
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
    (TrainSection, "slice_timestamps"): _parse_slice,
    (QuerySection, "begin"): _parse_timestamp,
    (QuerySection, "end"): _parse_timestamp,
}
_DUMPS = {
    (TopologySpec, "activation"): lambda a: {"activation": a.name, "alpha": a.alpha},
    (IngestSection, "class_map"): lambda cm: {"class_map": None if cm is None else dict(cm)},
}
_CHOICES = {
    (TopologySpec, "kind"): KINDS,
    (OptimizerConfig, "kind"): ("adam", "sgd"),
    (TrainSection, "loss"): ("categorical_crossentropy",),
}


def parse_config(text: str) -> PipelineConfig:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    return _build(PipelineConfig, {} if doc is None else doc, "config")


def _plain(value):
    """YAML form of a parsed value: dataclasses become maps, tuples lists."""
    if is_dataclass(value):
        doc = {}
        for f in fields(value):
            v = getattr(value, f.name)
            dump = _DUMPS.get((type(value), f.name))
            doc.update(dump(v) if dump else {f.name: _plain(v)})
        return doc
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def serialize_config(config: PipelineConfig) -> str:
    """Inverse of parse_config; optional keys are written as explicit nulls,
    absent sections are left out."""
    doc = {k: v for k, v in _plain(config).items() if v is not None}
    return yaml.safe_dump(doc, sort_keys=True)
