"""Feature-to-DMOS regressor: a 1-hidden-layer sigmoid network.

The model owns everything needed to turn a FeatureVector into a score:
which features it reads and in what order, the z-score statistics to
normalize them with, and the network weights. Hidden nodes are sigmoid,
input and output are linear. The output is a predicted DMOS (difference
mean opinion score): higher means more visible jerkiness, i.e. worse.

A default model ships with the package. Its weights are real, its
normalization statistics are placeholders (zero mean, unit variance):
scores from it are comparable with each other but not calibrated to any
subjective scale until the statistics are refitted on annotated data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import InvalidModel, ModelFormatError, ShapeError
from .features import FEATURE_NAMES, FeatureVector

MODEL_SCHEMA = 1

_DEFAULT_MODEL_RESOURCE = "default_model.json"


def sigmoid(t: np.ndarray | float) -> np.ndarray | float:
    """Logistic function, stable for any argument: exp only sees -|t|."""
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    out = np.where(t >= 0, 1.0, e)
    out /= d  # 1/d where t >= 0, else e/d
    if out.ndim == 0:
        return float(out)
    return out


def forward(hidden: np.ndarray, output: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Network output for one normalized vector (N,) or a batch (n, N).

    `hidden` is (M, N+1) with the bias in the last column; `output` is
    (M+1,) with the bias last. Returns a scalar array () or (n,).
    """
    x = np.asarray(x, dtype=np.float64)
    h = sigmoid(x @ hidden[:, :-1].T + hidden[:, -1])
    return h @ output[:-1] + output[-1]


@dataclass(frozen=True)
class QualityScore:
    dmos_pred: float
    calibrated: bool = True


@dataclass(frozen=True)
class QualityModel:
    selected_features: tuple[str, ...]
    norm_mean: np.ndarray
    norm_std: np.ndarray
    hidden: np.ndarray  # (M, N+1), bias last
    output: np.ndarray  # (M+1,), bias last
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = [f for f in self.selected_features if f not in FEATURE_NAMES]
        if unknown:
            raise InvalidModel(f"unknown feature names: {unknown}")
        if len(set(self.selected_features)) != len(self.selected_features):
            raise InvalidModel("duplicate feature names")
        n = len(self.selected_features)
        if n == 0:
            raise InvalidModel("no features selected")
        for name in ("norm_mean", "norm_std", "hidden", "output"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))
        if self.norm_mean.shape != (n,) or self.norm_std.shape != (n,):
            raise InvalidModel(f"normalization arrays must have shape ({n},)")
        if np.any(self.norm_std <= 0.0):
            raise InvalidModel("norm_std entries must be positive")
        if self.hidden.ndim != 2 or self.hidden.shape[1] != n + 1:
            raise InvalidModel(f"hidden rows must hold {n} weights plus a bias")
        m = self.hidden.shape[0]
        if m == 0:
            raise InvalidModel("need at least one hidden node")
        if self.output.shape != (m + 1,):
            raise InvalidModel(f"output must hold {m} weights plus a bias")
        for name in ("norm_mean", "norm_std", "hidden", "output"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidModel(f"{name} contains non-finite values")
        for arr in (self.norm_mean, self.norm_std, self.hidden, self.output):
            arr.setflags(write=False)

    @property
    def n_features(self) -> int:
        return len(self.selected_features)

    @property
    def n_hidden(self) -> int:
        return self.hidden.shape[0]

    @property
    def param_count(self) -> int:
        return self.hidden.size + self.output.size

    @property
    def calibrated(self) -> bool:
        return self.meta.get("normalization") == "fitted"


def normalize(fv: FeatureVector, model: QualityModel) -> np.ndarray:
    """Z-score the model's selected features, in the model's order."""
    raw = fv.as_array(model.selected_features)
    return (raw - model.norm_mean) / model.norm_std


def predict(x: np.ndarray, model: QualityModel) -> QualityScore:
    """Score one already-normalized feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n_features,):
        raise ShapeError(
            f"expected vector of length {model.n_features}, got shape {x.shape}"
        )
    value = float(forward(model.hidden, model.output, x))
    return QualityScore(dmos_pred=value, calibrated=model.calibrated)


def score_features(fv: FeatureVector, model: QualityModel) -> QualityScore:
    return predict(normalize(fv, model), model)


def save_model(model: QualityModel) -> bytes:
    doc = {
        "schema": MODEL_SCHEMA,
        "features": list(model.selected_features),
        "norm": {
            "mean": model.norm_mean.tolist(),
            "std": model.norm_std.tolist(),
        },
        "hidden": model.hidden.tolist(),
        "output": model.output.tolist(),
        "meta": dict(model.meta),
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _require(doc: dict, key: str, kind: type) -> object:
    if key not in doc:
        raise ModelFormatError(key, "missing")
    value = doc[key]
    if not isinstance(value, kind):
        raise ModelFormatError(key, f"expected {kind.__name__}")
    return value


def _float_list(doc: dict, key: str, values: object) -> list[float]:
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise ModelFormatError(key, "expected a list of numbers")
    try:
        floats = [float(v) for v in values]
    except OverflowError:  # an integer beyond the float range
        raise ModelFormatError(key, "number too large for a float") from None
    if not all(math.isfinite(v) for v in floats):
        raise ModelFormatError(key, "numbers must be finite")
    return floats


def load_model(data: bytes | str) -> QualityModel:
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or too deep
        raise ModelFormatError("document", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("document", "top level must be an object")
    if doc.get("schema") != MODEL_SCHEMA:
        raise ModelFormatError("schema", f"expected {MODEL_SCHEMA}")
    features = _require(doc, "features", list)
    if not all(isinstance(f, str) for f in features):
        raise ModelFormatError("features", "expected a list of names")
    if not set(features) <= set(FEATURE_NAMES):
        raise ModelFormatError("features", "unknown feature name")
    n = len(features)
    norm = _require(doc, "norm", dict)
    mean = _float_list(doc, "norm", norm.get("mean"))
    std = _float_list(doc, "norm", norm.get("std"))
    if len(mean) != n or len(std) != n:
        raise ModelFormatError("norm", f"expected {n} means and stds")
    hidden_rows = _require(doc, "hidden", list)
    hidden = [_float_list(doc, "hidden", row) for row in hidden_rows]
    if not hidden:
        raise ModelFormatError("hidden", "no hidden nodes")
    if any(len(row) != n + 1 for row in hidden):
        raise ModelFormatError("hidden", f"each row needs {n} weights plus a bias")
    output = _float_list(doc, "output", _require(doc, "output", list))
    if len(output) != len(hidden) + 1:
        raise ModelFormatError(
            "output", f"expected {len(hidden)} weights plus a bias"
        )
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ModelFormatError("meta", "expected an object")
    return QualityModel(
        selected_features=tuple(features),
        norm_mean=np.array(mean),
        norm_std=np.array(std),
        hidden=np.array(hidden),
        output=np.array(output),
        meta=meta,
    )


def default_model() -> QualityModel:
    """The bundled model: published weights, placeholder normalization."""
    data = resources.files(__package__).joinpath("data", _DEFAULT_MODEL_RESOURCE)
    return load_model(data.read_bytes())
