"""No-reference temporal jerkiness metric for frame-freeze degraded video.

Pipeline: decode luma -> frame-difference series -> freeze-event
detection -> 13 freeze/motion features -> small sigmoid network ->
predicted DMOS. Includes the training machinery (Levenberg-Marquardt,
cross-validated exhaustive structure search) needed to refit the model
on annotated data, and degradation tooling to build test clips with
exact ground truth.
"""

from .errors import (
    ConfigError,
    DegenerateInput,
    InvalidModel,
    JerkmeterError,
    ModelFormatError,
    NumericalFailure,
    ParseError,
    PlanError,
    ShapeError,
    TooFewFrames,
    TrailingBytes,
    TruncatedFrame,
    UnsupportedFormat,
)
from .video_io import (
    ChromaFormat,
    LumaFrame,
    VideoHeader,
    VideoSequence,
    Y4MReader,
    write_y4m,
)
from .frame_analysis import FrameDiffSeries, compute_series, detect_scene_cuts, frame_diff
from .freeze_detection import (
    DetectionReport,
    DetectorConfig,
    FreezeEvent,
    FreezeTimeline,
    detect_freezes,
    freeze_threshold,
    score_detection,
)
from .features import FEATURE_NAMES, FeatureVector, VideoAnalysis, analyze, extract
from .quality_model import (
    QualityModel,
    QualityScore,
    default_model,
    forward,
    load_model,
    normalize,
    predict,
    save_model,
    score_features,
    sigmoid,
)
from .training import (
    LMConfig,
    SearchConfig,
    SearchResult,
    TrainingSample,
    capacity_ok,
    cross_validate,
    exhaustive_search,
    load_samples_csv,
    train_lm,
)
from .eval_metrics import EvalReport, evaluate, pearson, rank, rrmse, spearman
from .degradation import (
    FreezeKind,
    FreezePlan,
    add_capture_noise,
    gradient_video,
    inject,
)

__version__ = "0.1.0"

__all__ = [
    "ChromaFormat", "ConfigError", "DegenerateInput", "DetectionReport",
    "DetectorConfig", "EvalReport", "FEATURE_NAMES", "FeatureVector",
    "FrameDiffSeries", "FreezeEvent", "FreezeKind", "FreezePlan",
    "FreezeTimeline", "InvalidModel", "JerkmeterError", "LMConfig",
    "LumaFrame", "ModelFormatError", "NumericalFailure", "ParseError",
    "PlanError", "QualityModel", "QualityScore", "SearchConfig",
    "SearchResult", "ShapeError", "TooFewFrames", "TrailingBytes",
    "TrainingSample", "TruncatedFrame", "UnsupportedFormat",
    "VideoAnalysis", "VideoHeader", "VideoSequence", "Y4MReader",
    "add_capture_noise", "analyze", "capacity_ok", "compute_series",
    "cross_validate", "default_model", "detect_freezes",
    "detect_scene_cuts", "evaluate", "exhaustive_search", "extract",
    "forward", "frame_diff", "freeze_threshold", "gradient_video", "inject",
    "load_model", "load_samples_csv", "normalize", "pearson", "predict",
    "rank", "rrmse", "save_model", "score_detection", "score_features",
    "sigmoid", "spearman", "train_lm", "write_y4m",
]
