"""Model fitting: Levenberg-Marquardt, k-fold CV, and subset search.

The network is small enough (a few dozen weights) that second-order
least squares is cheap, so weights are fitted with Levenberg-Marquardt
on an analytic Jacobian. Model structure (which features, how many
hidden nodes) is chosen by exhaustive enumeration under a capacity
bound: the weight count M(N+1)+M+1 must stay strictly below the
training sample count, or the net can memorize the folds.

Everything downstream of the rng seed is deterministic: fold assignment
is derived from the seed alone, each (subset, M) combination gets its
own derived seed, and structures are evaluated in enumeration order.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericalFailure
from .features import FEATURE_NAMES, FeatureVector, analyze
from .quality_model import QualityModel, forward, sigmoid
from .video_io import Y4MReader

# Reserved namespaces for derived seeds, so fold assignment, per-combination
# fitting, and the final retrain never share a random stream.
_NS_FOLDS = 0
_NS_COMBO = 1
_NS_FINAL = 2


@dataclass(frozen=True)
class TrainingSample:
    """One annotated clip; ``features`` may be given as a Mapping of the 13 names."""

    features: FeatureVector
    dmos: float
    source_id: str = ""
    sample_id: str = ""

    def __post_init__(self):
        if not np.isfinite(self.dmos):
            raise ValueError("dmos must be finite")
        if not isinstance(self.features, FeatureVector):
            object.__setattr__(self, "features", FeatureVector(
                **{name: float(self.features[name]) for name in FEATURE_NAMES}))

    def feature(self, name: str) -> float:
        return float(self.features[name])


@dataclass(frozen=True)
class LMConfig:
    lambda_init: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 0.1
    max_iters: int = 500
    tol_grad: float = 1e-8
    tol_step: float = 1e-10
    init_scale: float = 0.5
    restarts: int = 5

    def __post_init__(self):
        if min(self.lambda_init, self.tol_grad, self.tol_step, self.init_scale) <= 0:
            raise ConfigError("LM thresholds and scales must be positive")
        if not (self.lambda_down < 1.0 < self.lambda_up):
            raise ConfigError("need lambda_down < 1 < lambda_up")
        if self.max_iters < 1 or self.restarts < 1:
            raise ConfigError("max_iters and restarts must be at least 1")


@dataclass(frozen=True)
class SearchConfig:
    hidden_range: tuple[int, ...] = (1, 2, 3, 4)
    subset_sizes: tuple[int, ...] = (4, 5, 6, 7)
    folds: int = 10
    sample_count_cap: int = 52
    rng_seed: int = 0
    lm: LMConfig = field(default_factory=LMConfig)
    group_by_source: bool = False

    def __post_init__(self):
        if self.folds < 2:
            raise ConfigError("need at least 2 folds")
        if any(m < 1 for m in self.hidden_range) or not self.hidden_range:
            raise ConfigError("hidden_range must list counts >= 1")
        if any(n < 1 or n > len(FEATURE_NAMES) for n in self.subset_sizes) \
                or not self.subset_sizes:
            raise ConfigError(
                f"subset sizes must be in 1..{len(FEATURE_NAMES)}"
            )
        if self.sample_count_cap < 1:
            raise ConfigError("sample_count_cap must be positive")


def param_count(m: int, n: int) -> int:
    return m * (n + 1) + m + 1


def capacity_ok(m: int, n: int, cap: int) -> bool:
    """True iff an (m hidden, n input) net trains fewer weights than `cap`."""
    return param_count(m, n) < cap


def derived_seed(base: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=base, spawn_key=tuple(path))


# --- design matrix and normalization -----------------------------------

def design_matrix(samples: Sequence[TrainingSample],
                  names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    x = np.array([s.features.as_array(names) for s in samples],
                 dtype=np.float64)
    y = np.array([s.dmos for s in samples], dtype=np.float64)
    return x, y


def fit_normalization(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and population stds; constant columns get std 1."""
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    return mean, std


# --- Levenberg-Marquardt ------------------------------------------------

@dataclass(frozen=True)
class LMFit:
    hidden: np.ndarray
    output: np.ndarray
    mse: float
    history: tuple[float, ...]  # training MSE after init and each accepted step
    iterations: int


def _unpack(w: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    return w[: m * (n + 1)].reshape(m, n + 1), w[m * (n + 1):]


def _jacobian(x1: np.ndarray, h: np.ndarray, v: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """d(prediction)/d(weights) rows, one per sample.

    Column layout matches the packed weight vector: hidden weights row by
    row (bias last in each row), then output weights, then output bias.
    A given `out` must hold ones in its last column; it is filled and returned.
    """
    n_samples, k = x1.shape
    m = h.shape[1]
    if out is None:
        out = np.ones((n_samples, m * k + m + 1))
    s = h * (1.0 - h) * v  # (n_samples, m)
    np.multiply(s[:, :, None], x1[:, None, :],
                out=out[:, : m * k].reshape(n_samples, m, k, copy=False))
    out[:, m * k: -1] = h
    return out

# Damping this large with still no acceptable step means the fit is stuck
# at numerical resolution; treat as converged rather than looping. The floor
# keeps the damped system comfortably non-singular near a minimum.
_LAMBDA_MAX = 1e12
_LAMBDA_MIN = 1e-12


def _lm_single(x: np.ndarray, y: np.ndarray, m: int, cfg: LMConfig,
               rng: np.random.Generator) -> tuple[np.ndarray, float, list[float], int]:
    n_samples, n = x.shape
    p = param_count(m, n)
    w = rng.uniform(-cfg.init_scale, cfg.init_scale, size=p)
    x1 = np.hstack([x, np.ones((n_samples, 1))])
    jac = np.ones((n_samples, p))

    def residuals(wvec):
        hidden, out = _unpack(wvec, m, n)
        h = sigmoid(x1 @ hidden.T)
        pred = h @ out[:-1] + out[-1]
        return pred - y, h, out[:-1]

    r, h, v = residuals(w)
    sse = float(r @ r)
    history = [sse / n_samples]
    lam = cfg.lambda_init
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        _jacobian(x1, h, v, out=jac)
        grad = jac.T @ r
        if abs(grad).max() < cfg.tol_grad:
            break
        jtj = jac.T @ jac
        if not np.isfinite(jtj).all():
            raise NumericalFailure("non-finite normal equations")
        # Damping changes only the diagonal, and solve() does not write to
        # its input, so each trial rewrites the diagonal of jtj in place.
        jtj_diag = jtj.diagonal().copy()
        damped_diag = jtj.reshape(-1, copy=False)[:: p + 1]
        neg_grad = -grad
        accepted = False
        small_step = False
        while lam <= _LAMBDA_MAX:
            np.add(jtj_diag, lam, out=damped_diag)
            try:
                delta = np.linalg.solve(jtj, neg_grad)
                solvable = bool(np.isfinite(delta).all())
            except np.linalg.LinAlgError:
                solvable = False
            if not solvable:
                # More damping makes the system better conditioned; only a
                # failure at the ceiling is a genuine numerical breakdown.
                if lam >= _LAMBDA_MAX:
                    raise NumericalFailure(
                        f"normal equations singular even at lambda={lam:g}")
                lam *= cfg.lambda_up
                continue
            w_try = w + delta
            r_try, h_try, v_try = residuals(w_try)
            sse_try = float(r_try @ r_try)
            if math.isfinite(sse_try) and sse_try < sse:
                w, r, h, v, sse = w_try, r_try, h_try, v_try, sse_try
                history.append(sse / n_samples)
                lam = max(lam * cfg.lambda_down, _LAMBDA_MIN)
                accepted = True
                small_step = math.sqrt(delta @ delta) < cfg.tol_step * (
                    math.sqrt(w @ w) + cfg.tol_step)
                break
            lam *= cfg.lambda_up
        if not accepted or small_step:
            break
    return w, sse / n_samples, history, iters


def train_lm(x: np.ndarray, y: np.ndarray, m: int,
             cfg: LMConfig | None = None,
             seed: int | np.random.SeedSequence = 0) -> LMFit:
    """Best-of-restarts LM fit on an already normalized design matrix.

    `x` is (samples, features) with each column z-scored using training
    statistics; callers own that step so held-out data can never leak
    into it.
    """
    cfg = cfg or LMConfig()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ConfigError("x must be (samples, features) with matching y")
    if x.shape[0] < 1:
        raise ConfigError("need at least one sample")
    if m < 1:
        raise ConfigError("need at least one hidden node")
    if isinstance(seed, np.random.SeedSequence):
        seed_seq = seed
    else:
        seed_seq = np.random.SeedSequence(seed)
    best: tuple[np.ndarray, float, list[float], int] | None = None
    for child in seed_seq.spawn(cfg.restarts):
        result = _lm_single(x, y, m, cfg, np.random.default_rng(child))
        if best is None or result[1] < best[1]:
            best = result
    w, mse, history, iters = best
    hidden, output = _unpack(w, m, x.shape[1])
    return LMFit(hidden=hidden, output=output, mse=mse,
                 history=tuple(history), iterations=iters)


# --- folds and cross-validation ----------------------------------------

def make_folds(n: int, k: int, seed: np.random.SeedSequence,
               groups: Sequence[str] | None = None) -> list[np.ndarray]:
    """Partition sample indices into k near-equal validation folds.

    With `groups`, whole groups are kept together (greedy balance over a
    shuffled group order); useful when several samples derive from the
    same source content and must not straddle a fold boundary.
    """
    if n < k:
        raise ConfigError(f"cannot split {n} samples into {k} folds")
    rng = np.random.default_rng(seed)
    if groups is None:
        perm = rng.permutation(n)
        return [np.sort(chunk) for chunk in np.array_split(perm, k)]
    if len(groups) != n:
        raise ConfigError("need one group label per sample")
    members: dict[str, list[int]] = {}
    for i, g in enumerate(groups):
        members.setdefault(g, []).append(i)
    uniq = list(members)
    if len(uniq) < k:
        raise ConfigError(f"cannot split {len(uniq)} groups into {k} folds")
    folds: list[list[int]] = [[] for _ in range(k)]
    for gi in rng.permutation(len(uniq)):
        target = min(range(k), key=lambda f: (len(folds[f]), f))
        folds[target].extend(members[uniq[gi]])
    return [np.sort(np.array(f, dtype=np.intp)) for f in folds]


def cross_validate(samples: Sequence[TrainingSample],
                   selected_features: Sequence[str], m: int,
                   config: SearchConfig,
                   folds: list[np.ndarray] | None = None,
                   seed: np.random.SeedSequence | None = None) -> float:
    """Mean held-out MSE over k folds.

    Normalization statistics are recomputed from each training portion,
    never from the held-out fold.
    """
    if len(samples) < config.folds:
        raise ConfigError(
            f"{len(samples)} samples cannot fill {config.folds} folds")
    x_raw, y = design_matrix(samples, selected_features)
    if folds is None:
        folds = make_folds(
            len(samples), config.folds,
            derived_seed(config.rng_seed, _NS_FOLDS),
            groups=[s.source_id for s in samples] if config.group_by_source else None,
        )
    if seed is None:
        seed = derived_seed(config.rng_seed, _NS_COMBO, 0)
    fold_seeds = seed.spawn(len(folds))
    errors = []
    for fold_idx, val_idx in enumerate(folds):
        train_idx = np.setdiff1d(np.arange(len(samples)), val_idx)
        mean, std = fit_normalization(x_raw[train_idx])
        fit = train_lm((x_raw[train_idx] - mean) / std, y[train_idx], m,
                       config.lm, seed=fold_seeds[fold_idx])
        pred = forward(fit.hidden, fit.output, (x_raw[val_idx] - mean) / std)
        errors.append(float(np.mean((pred - y[val_idx]) ** 2)))
    return float(np.mean(errors))


# --- exhaustive structure search ----------------------------------------

@dataclass(frozen=True)
class SearchEntry:
    features: tuple[str, ...]
    hidden_nodes: int
    cv_error: float
    param_count: int


@dataclass(frozen=True)
class SearchResult:
    ranking: tuple[SearchEntry, ...]  # best first
    model: QualityModel

    @property
    def best(self) -> SearchEntry:
        return self.ranking[0]

    def ranking_csv(self) -> str:
        """The ranking as CSV text, best first, with a header row."""
        rows = ["rank,features,hidden_nodes,cv_error,param_count\n"]
        rows += [f"{i},{'+'.join(e.features)},{e.hidden_nodes},"
                 f"{e.cv_error!r},{e.param_count}\n"
                 for i, e in enumerate(self.ranking, start=1)]
        return "".join(rows)


def enumerate_combinations(config: SearchConfig,
                           names: Sequence[str] = FEATURE_NAMES
                           ) -> list[tuple[tuple[str, ...], int]]:
    """All (subset, M) pairs passing the capacity bound, in fixed order."""
    combos = []
    for n in sorted(set(config.subset_sizes)):
        for subset in itertools.combinations(names, n):
            for m in sorted(set(config.hidden_range)):
                if capacity_ok(m, n, config.sample_count_cap):
                    combos.append((subset, m))
    return combos


def exhaustive_search(samples: Sequence[TrainingSample],
                      config: SearchConfig) -> SearchResult:
    """Evaluate every admissible structure by CV; retrain the winner on all data."""
    if len(samples) < config.folds:
        raise ConfigError(
            f"{len(samples)} samples cannot fill {config.folds} folds")
    combos = enumerate_combinations(config)
    if not combos:
        raise ConfigError("no (features, hidden nodes) combination passes "
                          "the capacity bound")
    folds = make_folds(
        len(samples), config.folds,
        derived_seed(config.rng_seed, _NS_FOLDS),
        groups=[s.source_id for s in samples] if config.group_by_source else None,
    )
    errors = [cross_validate(samples, subset, m, config, folds=folds,
                             seed=derived_seed(config.rng_seed, _NS_COMBO, i))
              for i, (subset, m) in enumerate(combos)]

    order = sorted(range(len(combos)), key=lambda i: (errors[i], i))
    ranking = tuple(
        SearchEntry(features=combos[i][0], hidden_nodes=combos[i][1],
                    cv_error=errors[i],
                    param_count=param_count(combos[i][1], len(combos[i][0])))
        for i in order
    )
    best = ranking[0]
    x_raw, y = design_matrix(samples, best.features)
    mean, std = fit_normalization(x_raw)
    fit = train_lm((x_raw - mean) / std, y, best.hidden_nodes, config.lm,
                   seed=derived_seed(config.rng_seed, _NS_FINAL))
    model = QualityModel(
        selected_features=best.features,
        norm_mean=mean,
        norm_std=std,
        hidden=fit.hidden,
        output=fit.output,
        meta={
            "normalization": "fitted",
            "cv_error": best.cv_error,
            "train_mse": fit.mse,
            "folds": config.folds,
            "rng_seed": config.rng_seed,
            "samples": len(samples),
        },
    )
    return SearchResult(ranking=ranking, model=model)


# --- dataset ingestion ---------------------------------------------------

_BASE_COLUMNS = ("id", "source_id", "dmos")


def load_samples_csv(path: str | os.PathLike,
                     detector_config=None) -> list[TrainingSample]:
    """Read annotated samples from CSV.

    Each row carries id, source_id, dmos and either a `path` column
    naming a .y4m clip (features are computed here) or all 13 feature
    columns. Relative clip paths resolve against the CSV's directory.
    """
    base_dir = os.path.dirname(os.fspath(path))
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in _BASE_COLUMNS if c not in header]
        if missing:
            raise ConfigError(f"CSV is missing columns: {missing}")
        by_path = "path" in header
        if not by_path:
            absent = [c for c in FEATURE_NAMES if c not in header]
            if absent:
                raise ConfigError(
                    "CSV needs either a path column or all 13 feature "
                    f"columns; missing {absent}")
        samples = []
        for row_num, row in enumerate(reader, start=2):
            try:
                dmos = float(row["dmos"])
            except (TypeError, ValueError):
                raise ConfigError(f"row {row_num}: dmos is not a number")
            if by_path:
                clip = row["path"] or ""
                if not clip.lower().endswith(".y4m"):
                    raise ConfigError(
                        f"row {row_num}: only .y4m paths are supported in CSV")
                full = clip if os.path.isabs(clip) else os.path.join(base_dir, clip)
                with open(full, "rb") as video:
                    features = analyze(Y4MReader(video),
                                       config=detector_config).features
            else:
                try:
                    features = {name: float(row[name]) for name in FEATURE_NAMES}
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"row {row_num}: feature columns must be numbers")
            samples.append(TrainingSample(
                features=features, dmos=dmos,
                source_id=row["source_id"] or "",
                sample_id=row["id"] or "",
            ))
    if not samples:
        raise ConfigError("CSV contains no sample rows")
    return samples
