"""Feature-to-DMOS regressor: a 1-hidden-layer sigmoid network.

The model owns everything needed to turn a FeatureVector into a score:
which features it reads and in what order, the z-score statistics to
normalize them with, and the network weights. Hidden nodes are sigmoid,
input and output are linear. The output is a predicted DMOS (difference
mean opinion score): higher means more visible jerkiness, i.e. worse.

A default model ships with the package: real weights, placeholder
normalization statistics (zero mean, unit variance). Raw features then
saturate its hidden units, so its scores do not rank clips: three loss
freezes take a clean 64x64 synthetic clip from -1.6331 to -2.5268, a
better score. Train a model on annotated data before comparing clips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ModelFormatError, NumericalFailure, ShapeError
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
        names = self.selected_features
        if any(f not in FEATURE_NAMES for f in names):
            raise ModelFormatError("features", "unknown feature name")
        if len(set(names)) != len(names):
            raise ModelFormatError("features", "duplicate feature names")
        n = len(names)
        if n == 0:
            raise ModelFormatError("features", "no features selected")
        self._floats("norm_mean", "norm", f"expected {n} means and stds", (n,))
        self._floats("norm_std", "norm", f"expected {n} means and stds", (n,))
        if np.any(self.norm_std <= 0.0):
            raise ModelFormatError("norm", "norm_std entries must be positive")
        row_shape = f"each row needs {n} weights plus a bias"
        self._floats("hidden", "hidden", row_shape)
        if self.hidden.shape[:1] == (0,):
            raise ModelFormatError("hidden", "no hidden nodes")
        if self.hidden.ndim != 2 or self.hidden.shape[1] != n + 1:
            raise ModelFormatError("hidden", row_shape)
        m = len(self.hidden)
        self._floats("output", "output", f"expected {m} weights plus a bias", (m + 1,))

    def _floats(self, name: str, key: str, wrong_shape: str, shape=None) -> None:
        """Store field ``name`` as a read-only float64 copy; a fault names ``key``."""
        try:
            arr = np.array(getattr(self, name), dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            raise ModelFormatError(key, "number too large for a float") from None
        except ValueError:  # ragged rows, or an item that is not a number
            raise ModelFormatError(key, wrong_shape) from None
        if not np.all(np.isfinite(arr)):
            raise ModelFormatError(key, "numbers must be finite")
        if shape is not None and arr.shape != shape:
            raise ModelFormatError(key, wrong_shape)
        arr.setflags(write=False)
        object.__setattr__(self, name, arr)

    @property
    def n_features(self) -> int:
        return len(self.selected_features)

    @property
    def n_hidden(self) -> int:
        return self.hidden.shape[0]

    @property
    def calibrated(self) -> bool:
        return self.meta.get("normalization") == "fitted"


def normalize(fv: FeatureVector, model: QualityModel) -> np.ndarray:
    """Z-score the model's selected features, in the model's order."""
    raw = fv.as_array(model.selected_features)
    with np.errstate(all="ignore"):  # an overflow reaches predict as inf
        return (raw - model.norm_mean) / model.norm_std


def predict(x: np.ndarray, model: QualityModel) -> QualityScore:
    """Score one already-normalized feature vector; NumericalFailure if it overflows."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n_features,):
        raise ShapeError(
            f"expected vector of length {model.n_features}, got shape {x.shape}"
        )
    with np.errstate(all="ignore"):
        value = float(forward(model.hidden, model.output, x))
    if not np.isfinite(value):
        raise NumericalFailure(f"the model's output is {value}, not a finite number")
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
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")


def _require(doc: dict, key: str, kind: type) -> object:
    if key not in doc:
        raise ModelFormatError(key, "missing")
    value = doc[key]
    if not isinstance(value, kind):
        raise ModelFormatError(key, f"expected {kind.__name__}")
    return value


def _numbers(key: str, values: object) -> list:
    # A JSON true or false is no number, though numpy would read it as one.
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise ModelFormatError(key, "expected a list of numbers")
    return values


def load_model(data: bytes | str) -> QualityModel:
    """Read a model file; the JSON types are checked here, the values by QualityModel."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or too deep
        raise ModelFormatError("document", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("document", "top level must be an object")
    if type(doc.get("schema")) is not int or doc["schema"] != MODEL_SCHEMA:  # not true or 1.0
        raise ModelFormatError("schema", f"expected {MODEL_SCHEMA}")
    features = _require(doc, "features", list)
    if not all(isinstance(f, str) for f in features):
        raise ModelFormatError("features", "expected a list of names")
    norm = _require(doc, "norm", dict)
    mean = _numbers("norm", norm.get("mean"))
    std = _numbers("norm", norm.get("std"))
    hidden = [_numbers("hidden", row) for row in _require(doc, "hidden", list)]
    output = _numbers("output", _require(doc, "output", list))
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ModelFormatError("meta", "expected an object")
    try:  # json.loads reads NaN and Infinity, which save_model cannot write
        json.dumps(meta, allow_nan=False)
    except ValueError:
        raise ModelFormatError("meta", "NaN and Infinity are not JSON") from None
    return QualityModel(tuple(features), mean, std, hidden, output, meta)


def default_model() -> QualityModel:
    """The bundled model: published weights, placeholder normalization."""
    data = resources.files(__package__).joinpath("data", _DEFAULT_MODEL_RESOURCE)
    return load_model(data.read_bytes())
