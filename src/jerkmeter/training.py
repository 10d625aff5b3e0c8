"""Model fitting: Levenberg-Marquardt, k-fold CV, and subset search.

The network is small enough (a few dozen weights) that second-order
least squares is cheap, so weights are fitted with Levenberg-Marquardt
on an analytic Jacobian, every fold and restart of a structure in one
batch. Model structure (which features, how many hidden nodes) is chosen
by exhaustive enumeration under a capacity bound: the weight count
M(N+1)+M+1 must stay strictly below `SearchConfig.sample_count_cap`
(`--cap`, 52 by default), set at or under the training sample count so
that the net cannot memorize the folds.

Fold assignment is derived from the seed alone and each (subset, M)
combination gets its own derived seed. Structures are evaluated by up to
`workers` processes, the calling one and children forked from it, and
their errors are reduced in enumeration order, so the result does not
depend on how many processes ran. The same inputs and seed give the same
bytes on one numpy and BLAS build on one CPU kernel; another kernel
rounds the batched products and solves differently.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, JerkmeterError, NumericalFailure
from .features import FEATURE_NAMES, FeatureVector, analyze
from .pool import _claimed_map
from .quality_model import QualityModel, forward, sigmoid
from .video_io import Y4MReader

# Reserved namespaces for derived seeds, so fold assignment, per-combination
# fitting, and the final retrain never share a random stream.
_NS_FOLDS = 0
_NS_COMBO = 1
_NS_FINAL = 2


@dataclass(frozen=True)
class TrainingSample:
    """One annotated clip; ``features`` may be a Mapping of the feature names."""

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


@dataclass(frozen=True)
class LMConfig:
    max_iters: int = 500
    restarts: int = 5

    def __post_init__(self):
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


def _normalize(x_raw: np.ndarray, train: np.ndarray | slice,
               names: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `train` rows' normalization statistics, and all rows z-scored by them.

    Raises NumericalFailure for the first feature that leaves the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = fit_normalization(x_raw[train])
        z = (x_raw - mean) / std
    bad = ~(np.isfinite(std) & np.isfinite(z).all(axis=0))
    if bad.any():
        raise NumericalFailure(
            f"feature {names[bad.argmax()]} is too large to normalize")
    return mean, std, z


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
    `h` (samples, m) and `v` (m,) may carry the same leading batch axes,
    which the result then has too. A given `out` must hold ones in its
    last column; it is filled and returned.
    """
    k = x1.shape[-1]
    m = h.shape[-1]
    if out is None:
        out = np.ones(h.shape[:-1] + (m * k + m + 1,))
    s = h * (1.0 - h) * v[..., None, :]  # (..., samples, m)
    np.multiply(s[..., None], x1[..., None, :],
                out=out[..., : m * k].reshape(s.shape + (k,), copy=False))
    out[..., m * k: -1] = h
    return out

# Every fit starts from weights uniform in +/-_INIT_SCALE with damping
# _LAMBDA_INIT, which a rejected step multiplies by _LAMBDA_UP and an
# accepted one by _LAMBDA_DOWN. It stops once the gradient is below
# _TOL_GRAD or a step is below _TOL_STEP relative to the weights.
_INIT_SCALE = 0.5
_LAMBDA_INIT = 1e-3
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 0.1
_TOL_GRAD = 1e-8
_TOL_STEP = 1e-10
# Damping this large with still no acceptable step means the fit is stuck
# at numerical resolution; treat as converged rather than looping. The floor
# keeps the damped system comfortably non-singular near a minimum.
_LAMBDA_MAX = 1e12
_LAMBDA_MIN = 1e-12


def _children(seq: np.random.SeedSequence,
              count: int) -> list[np.random.SeedSequence]:
    """The children a first ``seq.spawn(count)`` gives, leaving `seq` unchanged."""
    return [np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (i,),
                                   pool_size=seq.pool_size)
            for i in range(count)]


def _sumsq(a: np.ndarray) -> np.ndarray:
    """Row-wise ``a[i] @ a[i]``; matmul rounds each exactly as the 1-D dot does."""
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]


def _runs(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, stop, label) of each run of equal values in `labels`."""
    cuts = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
    bounds = [0, *cuts, len(labels)]
    return [(lo, hi, int(labels[lo])) for lo, hi in zip(bounds, bounds[1:])
            if hi > lo]


def _solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each ``a[i] @ x[i] = b[i]``; unsolvable rows come back as zeros.

    Also returns which rows were solvable: not singular, finite result.
    """
    try:
        x = np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # some system is singular: find which
        x = np.empty_like(b)
        for i in range(len(b)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                x[i] = np.nan
    solved = np.isfinite(x).all(axis=1)
    x[~solved] = 0.0
    return x, solved


@np.errstate(over="ignore", invalid="ignore")  # an overflowing trial is rejected
def _lm_batch(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray], m: int,
              cfg: LMConfig,
              seeds: Sequence[Sequence[np.random.SeedSequence]]
              ) -> list[list[LMFit]]:
    """Levenberg-Marquardt fits of many independent problems at once.

    Problem (i, j) fits design matrix ``xs[i]`` to ``ys[i]`` from a start
    drawn with ``seeds[i][j]``; every ``xs[i]`` has the same shape. The
    stacked state holds the unfinished problems only. Each round forms
    normal equations for those that have just started or whose last trial
    was accepted, retires every problem that has stopped, by whichever
    rule, with its fit, and makes one damped trial of each one left, so
    numpy is called per round rather than per problem. Each fit is bit for
    bit that of fitting its problem alone, and a NumericalFailure is raised
    for the first failing problem in order, as fitting them one by one would.
    """
    n_samples, n = xs[0].shape
    mk = m * (n + 1)
    p = param_count(m, n)
    x1s = [np.hstack([x, np.ones((n_samples, 1))]) for x in xs]
    y_all = np.stack(ys)
    design = np.repeat(np.arange(len(xs)), [len(group) for group in seeds])
    total = len(design)

    def residuals(w, rows):
        # Rows are grouped by design matrix, and each group's matrix is
        # used in place rather than copied per problem.
        z = np.empty((len(w), n_samples, m))
        hidden = w[:, :mk].reshape(-1, m, n + 1)
        for lo, hi, i in _runs(rows):
            np.matmul(x1s[i], hidden[lo:hi].transpose(0, 2, 1), out=z[lo:hi])
        h = sigmoid(z)
        r = np.matmul(h, w[:, mk:-1, None])[:, :, 0]
        r += w[:, -1:]
        r -= y_all[rows]
        return r, h

    # State of every unfinished problem, one row each, still grouped by
    # design matrix; row i fits problem rows[i].
    rows = np.arange(total)
    w = np.stack([np.random.default_rng(s).uniform(
        -_INIT_SCALE, _INIT_SCALE, size=p)
        for group in seeds for s in group])
    r, h = residuals(w, design)
    sse = _sumsq(r)
    lam = np.full(total, _LAMBDA_INIT)
    history = [[v] for v in (sse / n_samples).tolist()]  # by problem
    iters = np.zeros(total, dtype=int)
    grad = np.empty((total, p))
    jtj = np.empty((total, p, p))
    fits: list[LMFit | None] = [None] * total
    failures: dict[int, str] = {}  # problem -> message
    jac = np.ones((max(len(group) for group in seeds), n_samples, p))
    new, ended = rows, np.zeros(total, dtype=bool)  # every start needs equations
    while True:
        iters[new] += 1
        for lo, hi, i in _runs(design[new]):
            own = new[lo:hi]
            block = _jacobian(x1s[i], h[own], w[own, mk:-1], out=jac[: hi - lo])
            block_t = block.transpose(0, 2, 1)
            grad[own] = np.matmul(block_t, r[own, :, None])[:, :, 0]
            jtj[own] = np.matmul(block_t, block)
        # The one exit. Equations a row kept from an earlier round are
        # neither flat nor broken, or it would have stopped then.
        flat = np.abs(grad).max(axis=1) < _TOL_GRAD
        broken = ~flat & ~np.isfinite(jtj).all(axis=(1, 2))
        stop = ended | flat | broken | (lam > _LAMBDA_MAX)
        if stop.any():
            failures.update(dict.fromkeys(rows[broken].tolist(),
                                          "non-finite normal equations"))
            for i, row in zip(np.flatnonzero(stop).tolist(), rows[stop].tolist()):
                fits[row] = LMFit(*_unpack(w[i], m, n), mse=float(sse[i] / n_samples),
                                  history=tuple(history[row]), iterations=int(iters[i]))
            rows, design, w, r, h, sse, lam, iters, grad, jtj = (a[~stop] for a in (
                rows, design, w, r, h, sse, lam, iters, grad, jtj))
            if not rows.size:
                break
        # One damped trial of every row left.
        damped = jtj.copy()
        damped.reshape(rows.size, p * p)[:, :: p + 1] += lam[:, None]
        delta, solved = _solve(damped, -grad)
        del damped  # gone before the trial's residuals
        w_t = w + delta
        r_t, h_t = residuals(w_t, design)
        sse_t = _sumsq(r_t)
        accepted = solved & np.isfinite(sse_t) & (sse_t < sse)
        # More damping makes the system better conditioned; only a
        # failure at the ceiling is a genuine numerical breakdown.
        stuck = ~solved & (lam >= _LAMBDA_MAX)
        for row, value in zip(rows[stuck].tolist(), lam[stuck].tolist()):
            failures[row] = f"normal equations singular even at lambda={value:g}"
        w[accepted], r[accepted], h[accepted], sse[accepted] = (
            w_t[accepted], r_t[accepted], h_t[accepted], sse_t[accepted])
        for row, v in zip(rows[accepted].tolist(), sse[accepted].tolist()):
            history[row].append(v / n_samples)
        lam = np.where(accepted, np.maximum(lam * _LAMBDA_DOWN, _LAMBDA_MIN),
                       lam * _LAMBDA_UP)
        small = np.sqrt(_sumsq(delta)) < _TOL_STEP * (np.sqrt(_sumsq(w_t)) + _TOL_STEP)
        ended = accepted & (small | (iters == cfg.max_iters))
        new = np.flatnonzero(accepted & ~ended)
        del delta, w_t, r_t, h_t  # not alive through the next compaction
    if failures:
        raise NumericalFailure(failures[min(failures)])

    bounds = np.cumsum([0] + [len(group) for group in seeds]).tolist()
    return [fits[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def train_lm(x: np.ndarray, y: np.ndarray, m: int,
             cfg: LMConfig | None = None,
             seed: int | np.random.SeedSequence = 0) -> LMFit:
    """Best-of-restarts LM fit on an already normalized design matrix.

    `x` is (samples, features) with each column z-scored using training
    statistics; callers own that step so held-out data can never leak
    into it. Among restarts, the first with the smallest MSE wins.
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
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    fits = _lm_batch([x], [y], m, cfg, [_children(seed, cfg.restarts)])[0]
    return min(fits, key=lambda fit: fit.mse)


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
                   seed: np.random.SeedSequence | None = None) -> float:
    """Mean held-out MSE over the k folds of `config`; inf if it overflows.

    The folds depend on the samples and `config` alone, so every structure
    of a search is validated on the same split. Normalization statistics
    are recomputed from each training portion, never from the held-out fold;
    a feature they cannot z-score raises NumericalFailure.
    """
    folds = make_folds(
        len(samples), config.folds, derived_seed(config.rng_seed, _NS_FOLDS),
        groups=[s.source_id for s in samples] if config.group_by_source else None,
    )
    x_raw, y = design_matrix(samples, selected_features)
    if seed is None:
        seed = derived_seed(config.rng_seed, _NS_COMBO, 0)
    fold_seeds = _children(seed, len(folds))
    x_vals, xs, ys = [], [], []
    for val_idx in folds:
        train_idx = np.setdiff1d(np.arange(len(samples)), val_idx)
        z = _normalize(x_raw, train_idx, selected_features)[2]
        x_vals.append(z[val_idx])
        xs.append(z[train_idx])
        ys.append(y[train_idx])
    # One LM batch per training-set size fits every fold x restart problem.
    fits = [None] * len(folds)
    for size in dict.fromkeys(len(v) for v in ys):
        group = [i for i, v in enumerate(ys) if len(v) == size]
        batch = _lm_batch([xs[i] for i in group], [ys[i] for i in group], m,
                          config.lm,
                          [_children(fold_seeds[i], config.lm.restarts)
                           for i in group])
        for i, restarts in zip(group, batch):
            fits[i] = min(restarts, key=lambda fit: fit.mse)
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf
        for val_idx, x_val, fit in zip(folds, x_vals, fits):
            pred = forward(fit.hidden, fit.output, x_val)
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


def enumerate_combinations(config: SearchConfig
                           ) -> list[tuple[tuple[str, ...], int]]:
    """All (subset, M) pairs passing the capacity bound, in fixed order."""
    combos = []
    for n in sorted(set(config.subset_sizes)):
        for subset in itertools.combinations(FEATURE_NAMES, n):
            for m in sorted(set(config.hidden_range)):
                if capacity_ok(m, n, config.sample_count_cap):
                    combos.append((subset, m))
    return combos


def exhaustive_search(samples: Sequence[TrainingSample],
                      config: SearchConfig, workers: int = 1) -> SearchResult:
    """Evaluate every admissible structure by CV; retrain the winner on all data.

    Up to `workers` processes share the structures; the result is the same
    for any count. A best CV error or a final training error that is not
    finite raises NumericalFailure, and so, before any structure is fitted,
    does a DMOS value whose squared deviation from the mean DMOS is not.
    """
    if workers < 1:
        raise ConfigError("need at least one worker")
    if len(samples) < config.folds:
        raise ConfigError(
            f"{len(samples)} samples cannot fill {config.folds} folds")
    combos = enumerate_combinations(config)
    if not combos:
        raise ConfigError("no (features, hidden nodes) combination passes "
                          "the capacity bound")
    y = np.array([sample.dmos for sample in samples])
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.square(y - y.mean())).all():
            raise NumericalFailure("the DMOS values are too large to fit: a squared "
                                   "deviation from their mean is not finite")

    def evaluate(i):
        subset, m = combos[i]
        return cross_validate(samples, subset, m, config,
                              seed=derived_seed(config.rng_seed, _NS_COMBO, i))

    errors = _claimed_map(evaluate, len(combos), workers)

    order = sorted(range(len(combos)), key=lambda i: (errors[i], i))
    ranking = tuple(
        SearchEntry(features=combos[i][0], hidden_nodes=combos[i][1],
                    cv_error=errors[i],
                    param_count=param_count(combos[i][1], len(combos[i][0])))
        for i in order
    )
    best = ranking[0]
    if not math.isfinite(best.cv_error):
        raise NumericalFailure(
            f"the best cross-validation error is {best.cv_error}, not a finite number")
    x_raw, y = design_matrix(samples, best.features)
    mean, std, x = _normalize(x_raw, slice(None), best.features)
    fit = train_lm(x, y, best.hidden_nodes, config.lm,
                   seed=derived_seed(config.rng_seed, _NS_FINAL))
    if not math.isfinite(fit.mse):
        raise NumericalFailure(
            f"the training error is {fit.mse}, not a finite number")
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


def _finite_float(text: str | None) -> float:
    """`text` as a float; TypeError or ValueError unless it is a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def load_samples_csv(path: str | os.PathLike,
                     detector_config=None) -> list[TrainingSample]:
    """Read annotated samples from CSV.

    Each row carries id, source_id, dmos and either a `path` column naming
    a .y4m clip or all the feature columns. Relative clip paths resolve
    against the CSV's directory; an unreadable clip raises JerkmeterError
    naming its row. The file is UTF-8, with or without a byte-order mark.
    """
    base_dir = os.path.dirname(os.fspath(path))
    with open(path, "rb") as handle:
        data = handle.read()
    try:  # decoded whole, so a decoding error knows its line
        reader = csv.DictReader(io.StringIO(data.decode("utf-8-sig"), newline=""))
        header, rows = reader.fieldnames or [], list(reader)
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"CSV line {line} is not UTF-8 text") from None
    except csv.Error as exc:  # DictReader's own line_num lags a failed row
        raise ConfigError(f"CSV line {reader.reader.line_num}: {exc}") from None
    missing = [c for c in _BASE_COLUMNS if c not in header]
    if missing:
        raise ConfigError(f"CSV is missing columns: {missing}")
    by_path = "path" in header
    if not by_path:
        absent = [c for c in FEATURE_NAMES if c not in header]
        if absent:
            raise ConfigError(
                "CSV needs either a path column or all "
                f"{len(FEATURE_NAMES)} feature columns; missing {absent}")
    samples = []
    for row_num, row in enumerate(rows, start=2):
        try:
            dmos = _finite_float(row["dmos"])
        except (TypeError, ValueError):
            raise ConfigError(f"row {row_num}: dmos is not a finite number")
        if by_path:
            clip = row["path"] or ""
            if not clip.lower().endswith(".y4m"):
                raise ConfigError(
                    f"row {row_num}: only .y4m paths are supported in CSV")
            full = clip if os.path.isabs(clip) else os.path.join(base_dir, clip)
            try:
                with open(full, "rb") as video:
                    features = analyze(Y4MReader(video),
                                       config=detector_config).features
            except (JerkmeterError, OSError) as exc:
                raise JerkmeterError(f"row {row_num}: {clip}: {exc}") from exc
        else:
            try:
                features = {name: _finite_float(row[name])
                            for name in FEATURE_NAMES}
            except (TypeError, ValueError):
                raise ConfigError(
                    f"row {row_num}: feature columns must be finite numbers")
        samples.append(TrainingSample(
            features=features, dmos=dmos,
            source_id=row["source_id"] or "",
            sample_id=row["id"] or "",
        ))
    if not samples:
        raise ConfigError("CSV contains no sample rows")
    return samples
