import hashlib
import itertools
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jerkmeter import (
    FEATURE_NAMES,
    ConfigError,
    FeatureVector,
    JerkmeterError,
    LMConfig,
    NumericalFailure,
    SearchConfig,
    SearchResult,
    TrainingSample,
    capacity_ok,
    cross_validate,
    default_model,
    exhaustive_search,
    load_samples_csv,
    save_model,
    train_lm,
)
from jerkmeter import pool, training
from jerkmeter.quality_model import forward, sigmoid
from jerkmeter.training import (
    LMFit,
    SearchEntry,
    design_matrix,
    derived_seed,
    enumerate_combinations,
    fit_normalization,
    make_folds,
    param_count,
)

FAST_LM = LMConfig(max_iters=60, restarts=2)


def reference_lm(x, y, m, cfg, rng, trials=None):
    """One LM fit on its own: the serial loop batched LM must reproduce.

    Returns the packed weights, MSE, history, iteration count and the
    rule that stopped the fit. A given list `trials` gets one entry per
    damped system solved.
    """
    n_samples, n = x.shape
    p = param_count(m, n)
    w = rng.uniform(-training._INIT_SCALE, training._INIT_SCALE, size=p)
    x1 = np.hstack([x, np.ones((n_samples, 1))])
    jac = np.ones((n_samples, p))

    def residuals(wvec):
        hidden, out = training._unpack(wvec, m, n)
        h = sigmoid(x1 @ hidden.T)
        pred = h @ out[:-1] + out[-1]
        return pred - y, h, out[:-1]

    r, h, v = residuals(w)
    sse = float(r @ r)
    history = [sse / n_samples]
    lam = training._LAMBDA_INIT
    iters = 0
    stop = "max_iters"
    for iters in range(1, cfg.max_iters + 1):
        training._jacobian(x1, h, v, out=jac)
        grad = jac.T @ r
        if abs(grad).max() < training._TOL_GRAD:
            stop = "tol_grad"
            break
        jtj = jac.T @ jac
        if not np.isfinite(jtj).all():
            raise NumericalFailure("non-finite normal equations")
        jtj_diag = jtj.diagonal().copy()
        damped_diag = jtj.reshape(-1, copy=False)[:: p + 1]
        neg_grad = -grad
        accepted = False
        small_step = False
        while lam <= training._LAMBDA_MAX:
            np.add(jtj_diag, lam, out=damped_diag)
            if trials is not None:
                trials.append(lam)
            try:
                delta = np.linalg.solve(jtj, neg_grad)
                solvable = bool(np.isfinite(delta).all())
            except np.linalg.LinAlgError:
                solvable = False
            if not solvable:
                if lam >= training._LAMBDA_MAX:
                    raise NumericalFailure(
                        f"normal equations singular even at lambda={lam:g}")
                lam *= training._LAMBDA_UP
                continue
            w_try = w + delta
            r_try, h_try, v_try = residuals(w_try)
            sse_try = float(r_try @ r_try)
            if math.isfinite(sse_try) and sse_try < sse:
                w, r, h, v, sse = w_try, r_try, h_try, v_try, sse_try
                history.append(sse / n_samples)
                lam = max(lam * training._LAMBDA_DOWN, training._LAMBDA_MIN)
                accepted = True
                small_step = math.sqrt(delta @ delta) < training._TOL_STEP * (
                    math.sqrt(w @ w) + training._TOL_STEP)
                break
            lam *= training._LAMBDA_UP
        if not accepted:
            stop = "lambda"
            break
        if small_step:
            stop = "tol_step"
            break
    return w, sse / n_samples, history, iters, stop


def assert_batch_matches_reference(xs, ys, m, cfg, seeds):
    """_lm_batch equals reference_lm bit for bit; returns the stop rules."""
    got = training._lm_batch(xs, ys, m, cfg, seeds)
    assert [len(fits) for fits in got] == [len(group) for group in seeds]
    stops = []
    for x, y, group, fits in zip(xs, ys, seeds, got):
        for seed, fit in zip(group, fits):
            w, mse, history, iters, stop = reference_lm(
                x, y, m, cfg, np.random.default_rng(seed))
            packed = np.concatenate([fit.hidden.ravel(), fit.output])
            assert packed.tobytes() == w.tobytes()
            assert fit.mse == mse
            assert fit.history == tuple(history)
            assert fit.iterations == iters
            stops.append(stop)
    return stops


def make_samples(rng, count, fn, noise=0.0):
    samples = []
    for i in range(count):
        feats = {name: float(rng.uniform(0.0, 3.0)) for name in FEATURE_NAMES}
        dmos = fn(feats) + (rng.normal() * noise if noise else 0.0)
        samples.append(TrainingSample(features=feats, dmos=float(dmos),
                                      source_id=f"src{i % 5}",
                                      sample_id=f"s{i}"))
    return samples


class TestCapacity:
    def test_known_cases(self):
        assert capacity_ok(3, 6, 52)        # 25 weights
        assert not capacity_ok(4, 11, 52)   # 53 weights
        assert capacity_ok(1, 1, 5)         # 4 weights

    def test_matches_formula_exhaustively(self):
        for m in range(1, 11):
            for n in range(1, 14):
                assert param_count(m, n) == m * (n + 1) + m + 1
                assert capacity_ok(m, n, 52) == (m * (n + 1) + m + 1 < 52)


class TestConfigs:
    def test_lm_rejects_bad_schedule(self):
        with pytest.raises(ConfigError):
            LMConfig(max_iters=0)

    def test_search_rejects_bad_folds(self):
        with pytest.raises(ConfigError):
            SearchConfig(folds=1)

    def test_search_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            SearchConfig(subset_sizes=(0,))
        with pytest.raises(ConfigError):
            SearchConfig(subset_sizes=(14,))

    def test_sample_dmos_must_be_finite(self):
        with pytest.raises(ValueError):
            TrainingSample(features={}, dmos=float("nan"))

    def test_sample_features_become_a_feature_vector(self):
        values = {name: float(i) for i, name in enumerate(FEATURE_NAMES)}
        sample = TrainingSample(features=values, dmos=1.0)
        assert sample.features == FeatureVector(**values)


class TestTrainLm:
    def test_constant_targets_reach_zero_mse(self, rng):
        x = rng.normal(size=(20, 2))
        y = np.full(20, 3.7)
        fit = train_lm(x, y, m=1, cfg=FAST_LM, seed=0)
        assert fit.mse < 1e-10

    def test_planted_network_recovery(self, rng):
        cfg = LMConfig(max_iters=200, restarts=5)
        for plant in range(3):
            seed = np.random.SeedSequence([plant, 77])
            prng = np.random.default_rng(seed)
            hidden = prng.uniform(-1.0, 1.0, size=(2, 3))
            output = prng.uniform(-1.0, 1.0, size=3)
            x = prng.normal(size=(40, 2))
            y = np.asarray(forward(hidden, output, x))
            fit = train_lm(x, y, m=2, cfg=cfg, seed=plant)
            assert fit.mse <= 1e-6

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        a = train_lm(x, y, m=2, cfg=FAST_LM, seed=42)
        b = train_lm(x, y, m=2, cfg=FAST_LM, seed=42)
        assert np.array_equal(a.hidden, b.hidden)
        assert np.array_equal(a.output, b.output)
        assert a.history == b.history

    def test_accepted_history_is_monotone(self, rng):
        x = rng.normal(size=(25, 3))
        y = np.sin(x[:, 0]) + x[:, 1] * 0.5
        fit = train_lm(x, y, m=2, cfg=FAST_LM, seed=1)
        diffs = np.diff(fit.history)
        assert np.all(diffs <= 0)
        assert fit.mse == fit.history[-1]

    def test_analytic_jacobian_matches_finite_differences(self, rng):
        n_samples, n, m = 7, 3, 2
        x = rng.normal(size=(n_samples, n))
        x1 = np.hstack([x, np.ones((n_samples, 1))])
        w = rng.normal(size=param_count(m, n)) * 0.7

        def predictions(wvec):
            hidden = wvec[: m * (n + 1)].reshape(m, n + 1)
            out = wvec[m * (n + 1):]
            return np.asarray(forward(hidden, out, x))

        hidden = w[: m * (n + 1)].reshape(m, n + 1)
        h = sigmoid(x1 @ hidden.T)
        v = w[m * (n + 1): -1]
        # The buffer LM fills in place: bias column preset, the rest stale.
        buf = np.full((n_samples, w.size), np.nan)
        buf[:, -1] = 1.0
        jac = training._jacobian(x1, h, v, out=buf)
        assert jac is buf
        assert np.array_equal(jac, training._jacobian(x1, h, v))
        step = 1e-6
        for p in range(w.size):
            bump = np.zeros_like(w)
            bump[p] = step
            numeric = (predictions(w + bump) - predictions(w - bump)) / (2 * step)
            denom = np.maximum(np.abs(numeric), 1.0)
            assert np.max(np.abs(jac[:, p] - numeric) / denom) < 1e-5

    def test_non_finite_design_row_raises(self, rng):
        x = rng.normal(size=(12, 2))
        x[5, 1] = np.inf
        y = rng.normal(size=12)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalFailure):
            train_lm(x, y, m=1, cfg=FAST_LM, seed=0)

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            train_lm(np.zeros((4, 2)), np.zeros(5), m=1)
        with pytest.raises(ConfigError):
            train_lm(np.zeros((0, 2)), np.zeros(0), m=1)


    def test_reused_seed_sequence_gives_the_same_fit(self, rng):
        x = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        seed = np.random.SeedSequence(42)
        a = train_lm(x, y, m=2, cfg=FAST_LM, seed=seed)
        b = train_lm(x, y, m=2, cfg=FAST_LM, seed=seed)
        c = train_lm(x, y, m=2, cfg=FAST_LM, seed=42)
        assert a.history == b.history == c.history
        assert np.array_equal(a.hidden, b.hidden)
        assert seed.n_children_spawned == 0


class TestLmBatch:
    """_lm_batch against reference_lm, the serial loop it replaced."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_serial_for_each_hidden_count(self, m):
        rng = np.random.default_rng(m)
        xs = [rng.normal(size=(30, 3)) for _ in range(3)]
        ys = [np.tanh(x[:, 0] - 0.5 * x[:, 1]) + 0.1 * rng.normal(size=30)
              for x in xs]
        seeds = [training._children(derived_seed(m, i), 4) for i in range(3)]
        stops = assert_batch_matches_reference(xs, ys, m, LMConfig(max_iters=60),
                                               seeds)
        assert len(stops) == 12

    @pytest.mark.parametrize("grouped", [False, True])
    def test_matches_serial_on_cross_validation_folds(self, grouped):
        samples = make_samples(np.random.default_rng(3), 23,
                               lambda f: np.tanh(f["NumFz"] - 1.5) + f["rFD"])
        x_raw, y = design_matrix(samples, ("NumFz", "rFD", "AvgFzDur"))
        groups = [s.source_id for s in samples] if grouped else None
        folds = make_folds(23, 5, derived_seed(0, 0), groups=groups)
        by_size: dict[int, list] = {}
        for val_idx in folds:
            train_idx = np.setdiff1d(np.arange(23), val_idx)
            mean, std = fit_normalization(x_raw[train_idx])
            by_size.setdefault(len(train_idx), []).append(
                ((x_raw[train_idx] - mean) / std, y[train_idx]))
        assert len(by_size) > 1  # unequal training-set sizes
        for i, problems in enumerate(by_size.values()):
            xs, ys = zip(*problems)
            seeds = [training._children(derived_seed(1, i, j), 3)
                     for j in range(len(xs))]
            assert_batch_matches_reference(list(xs), list(ys), 2,
                                           LMConfig(max_iters=40), seeds)

    # Each case is an LMConfig and the module's LM constants to override.
    STOP_CASES = pytest.mark.parametrize("cfg,stop", [
        ((LMConfig(), {"_TOL_GRAD": 1e3}), "tol_grad"),
        ((LMConfig(max_iters=300), {"_TOL_GRAD": 1e-20, "_TOL_STEP": 1e-20}),
         "lambda"),
        ((LMConfig(), {"_LAMBDA_INIT": 1e13}), "lambda"),
        ((LMConfig(max_iters=3), {}), "max_iters"),
        ((LMConfig(max_iters=300), {"_TOL_GRAD": 1e-300}), "tol_step"),
    ])

    @staticmethod
    def stop_case(monkeypatch, cfg):
        """The stop-rule problems (xs, ys, seeds) under `cfg`'s constants."""
        cfg, constants = cfg
        for name, value in constants.items():
            monkeypatch.setattr(training, name, value)
        rng = np.random.default_rng(11)
        xs = [rng.normal(size=(30, 3)) for _ in range(2)]
        ys = [np.tanh(x[:, 0] - 0.5 * x[:, 1]) for x in xs]
        seeds = [training._children(derived_seed(2, i), 3) for i in range(2)]
        return cfg, xs, ys, seeds

    @STOP_CASES
    def test_matches_serial_whatever_stops_the_fit(self, monkeypatch, cfg, stop):
        cfg, xs, ys, seeds = self.stop_case(monkeypatch, cfg)
        stops = assert_batch_matches_reference(xs, ys, 1, cfg, seeds)
        assert stop in stops
        if training._TOL_GRAD > 1.0:
            assert set(stops) == {"tol_grad"}
            fit = training._lm_batch(xs, ys, 1, cfg, seeds)[0][0]
            assert fit.iterations == 1 and len(fit.history) == 1

    @STOP_CASES
    def test_solves_as_many_systems_as_serial(self, monkeypatch, cfg, stop):
        # One damped trial per problem per round: no system is solved that
        # the serial loop would not solve.
        cfg, xs, ys, seeds = self.stop_case(monkeypatch, cfg)
        rows, solve = [], training._solve
        monkeypatch.setattr(training, "_solve",
                            lambda a, b: rows.append(len(b)) or solve(a, b))
        training._lm_batch(xs, ys, 1, cfg, seeds)
        trials = [[] for group in seeds for _ in group]
        problems = [(x, y, seed) for x, y, group in zip(xs, ys, seeds)
                    for seed in group]
        for (x, y, seed), tried in zip(problems, trials):
            reference_lm(x, y, 1, cfg, np.random.default_rng(seed), tried)
        assert sum(rows) == sum(len(tried) for tried in trials)
        # A round per trial of the problem that tries most.
        assert len(rows) == max(len(tried) for tried in trials)

    def test_problem_alone_equals_problem_in_a_batch_of_50(self):
        rng = np.random.default_rng(12)
        xs = [rng.normal(size=(36, 4)) for _ in range(10)]
        ys = [np.tanh(x @ rng.normal(size=4)) for x in xs]
        seeds = [training._children(derived_seed(3, i), 5) for i in range(10)]
        cfg = LMConfig(max_iters=80)
        batch = training._lm_batch(xs, ys, 2, cfg, seeds)
        assert sum(len(fits) for fits in batch) == 50
        for i, j in [(0, 0), (3, 2), (9, 4)]:
            alone = training._lm_batch([xs[i]], [ys[i]], 2, cfg,
                                       [[seeds[i][j]]])[0][0]
            assert alone.hidden.tobytes() == batch[i][j].hidden.tobytes()
            assert alone.output.tobytes() == batch[i][j].output.tobytes()
            assert alone.history == batch[i][j].history
            assert alone.iterations == batch[i][j].iterations

    def test_failure_is_that_of_the_first_failing_problem(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        x_inf = x.copy()
        x_inf[5, 1] = np.inf
        y_nan = y.copy()
        y_nan[3] = np.nan
        seeds = [[derived_seed(4, 0)], [derived_seed(4, 1)], [derived_seed(4, 2)]]
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalFailure) as serial:
                reference_lm(x, y_nan, 1, FAST_LM,
                             np.random.default_rng(seeds[1][0]))
            with pytest.raises(NumericalFailure, match="singular") as batched:
                training._lm_batch([x, x, x_inf], [y, y_nan, y], 1, FAST_LM,
                                   seeds)
            assert str(batched.value) == str(serial.value)
            with pytest.raises(NumericalFailure, match="non-finite"):
                training._lm_batch([x, x_inf, x], [y, y, y_nan], 1, FAST_LM,
                                   seeds)

    def test_solve_flags_singular_rows(self, rng):
        a = rng.normal(size=(3, 4, 4))
        a[1] = 0.0
        b = rng.normal(size=(3, 4))
        x, solved = training._solve(a, b)
        assert solved.tolist() == [True, False, True]
        assert not x[1].any()
        for i in (0, 2):
            assert x[i].tobytes() == np.linalg.solve(a[i], b[i]).tobytes()


class TestFolds:
    def test_partition_properties(self):
        folds = make_folds(23, 10, derived_seed(0, 0))
        sizes = [len(f) for f in folds]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1
        assert sorted(np.concatenate(folds).tolist()) == list(range(23))

    def test_deterministic(self):
        a = make_folds(30, 10, derived_seed(5, 0))
        b = make_folds(30, 10, derived_seed(5, 0))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_seed_changes_assignment(self):
        a = make_folds(30, 10, derived_seed(5, 0))
        b = make_folds(30, 10, derived_seed(6, 0))
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            make_folds(5, 10, derived_seed(0, 0))

    def test_grouped_folds_keep_groups_together(self):
        groups = [f"g{i % 7}" for i in range(28)]
        folds = make_folds(28, 4, derived_seed(1, 0), groups=groups)
        assert sorted(np.concatenate(folds).tolist()) == list(range(28))
        for fold in folds:
            fold_groups = {groups[i] for i in fold}
            for g in fold_groups:
                members = [i for i, gg in enumerate(groups) if gg == g]
                assert all(i in fold for i in members)

    def test_grouped_needs_enough_groups(self):
        with pytest.raises(ConfigError):
            make_folds(10, 5, derived_seed(0, 0), groups=["a", "b"] * 5)


class TestCrossValidate:
    def config(self, folds=4, seed=0):
        return SearchConfig(hidden_range=(1,), subset_sizes=(2,), folds=folds,
                            rng_seed=seed, lm=FAST_LM)

    def test_determinism(self, rng):
        samples = make_samples(rng, 16, lambda f: f["NumFz"])
        cfg = self.config()
        a = cross_validate(samples, ("NumFz", "rFD"), 1, cfg)
        b = cross_validate(samples, ("NumFz", "rFD"), 1, cfg)
        assert a == b

    def test_too_few_samples(self, rng):
        samples = make_samples(rng, 3, lambda f: 1.0)
        with pytest.raises(ConfigError):
            cross_validate(samples, ("NumFz",), 1, self.config(folds=4))

    def test_learnable_relation_scores_well(self, rng):
        samples = make_samples(rng, 24, lambda f: 2.0 * f["NumFz"] - 1.0)
        err = cross_validate(samples, ("NumFz", "rFD"), 1, self.config())
        assert err < 0.05

    def test_normalization_never_sees_heldout_rows(self, rng, monkeypatch):
        samples = make_samples(rng, 12, lambda f: f["rFD"])
        seen_row_counts = []
        original = training.fit_normalization

        def spy(x):
            seen_row_counts.append(x.shape[0])
            return original(x)

        monkeypatch.setattr(training, "fit_normalization", spy)
        cross_validate(samples, ("NumFz", "rFD"), 1, self.config(folds=3))
        assert seen_row_counts == [8, 8, 8]  # always n minus the held-out 4

    def test_hand_traced_fold_error(self, rng, monkeypatch):
        # Pin the trained model to "predict the training mean" so the
        # held-out error is hand-computable from the fold split alone.
        samples = [TrainingSample(features={n: 0.0 for n in FEATURE_NAMES},
                                  dmos=float(v)) for v in (1.0, 2.0, 3.0, 5.0)]

        def fake_batch(xs, ys, m, cfg, seeds):
            return [[LMFit(hidden=np.zeros((1, x.shape[1] + 1)),
                           output=np.array([0.0, float(np.mean(y))]),
                           mse=0.0, history=(0.0,), iterations=0)
                     for _ in group] for x, y, group in zip(xs, ys, seeds)]

        monkeypatch.setattr(training, "_lm_batch", fake_batch)
        cfg = SearchConfig(hidden_range=(1,), subset_sizes=(1,), folds=2,
                           rng_seed=0, lm=FAST_LM)
        folds = make_folds(4, 2, derived_seed(0, 0))  # the config's own split
        got = cross_validate(samples, ("NumFz",), 1, cfg)
        y = np.array([1.0, 2.0, 3.0, 5.0])
        expected = []
        for val_idx in folds:
            train_idx = np.setdiff1d(np.arange(4), val_idx)
            c = y[train_idx].mean()
            expected.append(np.mean((y[val_idx] - c) ** 2))
        assert got == pytest.approx(np.mean(expected), abs=1e-15)

    @pytest.mark.parametrize("grouped", [False, True])
    def test_grouped_folds_come_from_the_config(self, monkeypatch, grouped):
        # dmos numbers the samples, so each training portion names its rows.
        samples = [TrainingSample(features={n: 0.0 for n in FEATURE_NAMES},
                                  dmos=float(i), source_id=f"src{i % 5}")
                   for i in range(20)]
        portions = []

        def fake_batch(xs, ys, m, cfg, seeds):
            portions.extend({int(v) for v in y} for y in ys)
            return [[LMFit(hidden=np.zeros((1, x.shape[1] + 1)),
                           output=np.zeros(2), mse=0.0, history=(0.0,),
                           iterations=0)
                     for _ in group] for x, group in zip(xs, seeds)]

        monkeypatch.setattr(training, "_lm_batch", fake_batch)
        cfg = SearchConfig(hidden_range=(1,), subset_sizes=(1,), folds=4,
                           group_by_source=grouped, lm=FAST_LM)
        cross_validate(samples, ("NumFz",), 1, cfg)
        assert len(portions) == 4
        split = [src for src in range(5) for rows in portions
                 if 0 < len(rows & set(range(src, 20, 5))) < 4]
        # Grouped, no source straddles a training portion and its held-out
        # fold; the same seed ungrouped does split sources.
        assert (split == []) == grouped

    def test_reused_seed_sequence_gives_the_same_error(self, rng):
        samples = make_samples(rng, 16, lambda f: f["NumFz"])
        seed = derived_seed(0, 1, 5)
        a = cross_validate(samples, ("NumFz", "rFD"), 1, self.config(), seed=seed)
        b = cross_validate(samples, ("NumFz", "rFD"), 1, self.config(), seed=seed)
        assert a == b == cross_validate(samples, ("NumFz", "rFD"), 1,
                                        self.config(), seed=derived_seed(0, 1, 5))
        assert seed.n_children_spawned == 0

    def test_duplicated_samples_validate_like_training(self, rng):
        base = make_samples(rng, 8, lambda f: 3.0 * f["rFD"] + 1.0)
        samples = base + base  # every held-out row also appears in training
        cfg = self.config(folds=4)
        err = cross_validate(samples, ("rFD", "NumFz"), 1, cfg)
        assert err < 0.05


class TestExhaustiveSearch:
    def test_enumeration_count(self):
        cfg = SearchConfig(hidden_range=(1, 2), subset_sizes=(2,), folds=2,
                           sample_count_cap=52, lm=FAST_LM)
        combos = enumerate_combinations(cfg)
        assert len(combos) == math.comb(13, 2) * 2

    def test_capacity_prunes(self):
        cfg = SearchConfig(hidden_range=(1, 2, 3, 4), subset_sizes=(11,),
                           folds=2, sample_count_cap=52, lm=FAST_LM)
        combos = enumerate_combinations(cfg)
        # M=4, N=11 needs 53 weights and must be absent; 1-3 survive.
        assert all(m != 4 for _, m in combos)
        assert len(combos) == math.comb(13, 11) * 3

    def test_empty_admissible_set(self, rng):
        samples = make_samples(rng, 8, lambda f: 1.0)
        cfg = SearchConfig(hidden_range=(3,), subset_sizes=(6,), folds=2,
                           sample_count_cap=10, lm=FAST_LM)
        with pytest.raises(ConfigError):
            exhaustive_search(samples, cfg)

    def test_planted_pair_wins(self, rng):
        samples = make_samples(
            rng, 30, lambda f: 1.5 * f["AvgFzDur"] - 2.0 * f["MaxFzFD"] + 0.5)
        cfg = SearchConfig(hidden_range=(1,), subset_sizes=(2,), folds=3,
                           rng_seed=11, lm=LMConfig(max_iters=40, restarts=1))
        result = exhaustive_search(samples, cfg)
        assert set(result.best.features) == {"AvgFzDur", "MaxFzFD"}
        assert result.model.selected_features == result.best.features
        assert result.model.calibrated
        assert len(result.ranking) == math.comb(13, 2)

    def test_ranking_sorted_and_deterministic(self, rng):
        samples = make_samples(rng, 14, lambda f: f["NumFz"] + 0.2 * f["rFD"])
        cfg = SearchConfig(hidden_range=(1,), subset_sizes=(1,), folds=2,
                           rng_seed=3, lm=LMConfig(max_iters=25, restarts=1))
        first = exhaustive_search(samples, cfg)
        second = exhaustive_search(samples, cfg)
        assert first.ranking == second.ranking
        assert save_model(first.model) == save_model(second.model)
        errors = [e.cv_error for e in first.ranking]
        assert errors == sorted(errors)

    def test_final_fit_beyond_the_float_range_is_a_numerical_failure(
            self, rng, monkeypatch):
        # The CV errors are finite; only the retrain on every row overflows.
        samples = make_samples(rng, 14, lambda f: f["NumFz"])
        cfg = SearchConfig(hidden_range=(1,), subset_sizes=(1,), folds=2,
                           lm=LMConfig(max_iters=5, restarts=1))
        fit = train_lm(np.zeros((3, 1)), np.zeros(3), 1, cfg.lm)
        monkeypatch.setattr(training, "train_lm", lambda *args, **kwargs:
                            LMFit(fit.hidden, fit.output, math.inf, (), 0))
        with pytest.raises(NumericalFailure,
                           match="^the training error is inf, not a finite number$"):
            exhaustive_search(samples, cfg)

    def test_golden_bytes(self):
        """A fixed search's model and ranking bytes, pinned for LM rewrites.

        Any change to the LM arithmetic moves these hashes. They were taken
        with numpy 2.4.6 on x86-64; a BLAS that rounds differently moves
        them too.
        """
        samples = make_samples(
            np.random.default_rng(20140), 40,
            lambda f: np.tanh(f["NumFz"] - 1.5) + 0.3 * f["rFD"], noise=0.05)
        cfg = SearchConfig(hidden_range=(1, 2), subset_sizes=(1, 12), folds=4,
                           rng_seed=7, lm=LMConfig(max_iters=20, restarts=2))
        result = exhaustive_search(samples, cfg)
        assert len(result.ranking) == 2 * (13 + 13)
        assert hashlib.sha256(save_model(result.model)).hexdigest() == (
            "c4a05ac6b6e16f9cf2deec428ccd41309c265d940596632c8880ead44f613915")
        assert hashlib.sha256(result.ranking_csv().encode()).hexdigest() == (
            "ebe604ba6be8b3bf4456403e8734b70b85e56860b2871667fd96a03afe3e499a")

    def test_model_meta_records_fit(self, rng):
        samples = make_samples(rng, 10, lambda f: f["rLenFz"])
        cfg = SearchConfig(hidden_range=(1,), subset_sizes=(1,), folds=2,
                           rng_seed=0, lm=LMConfig(max_iters=20, restarts=1))
        result = exhaustive_search(samples, cfg)
        assert result.model.meta["normalization"] == "fitted"
        assert result.model.meta["samples"] == 10
        assert result.model.meta["cv_error"] == result.best.cv_error

    def test_ranking_csv_text(self):
        result = SearchResult(ranking=(
            SearchEntry(("NumFz", "rFD"), 2, 0.125, 9),
            SearchEntry(("AvgFzDur",), 1, 0.1 + 0.2, 4),
        ), model=default_model())
        assert result.ranking_csv() == (
            "rank,features,hidden_nodes,cv_error,param_count\n"
            "1,NumFz+rFD,2,0.125,9\n"
            "2,AvgFzDur,1,0.30000000000000004,4\n")


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the search may use, whatever this machine has."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    return use


def structure_index(seed):
    """The enumeration index `exhaustive_search` derived a CV seed from."""
    return seed.spawn_key[-1]


class TestWorkers:
    """The search split over processes gives what one process gives."""

    @pytest.mark.parametrize("grouped", [False, True])
    def test_two_workers_give_the_same_bytes(self, cpus, grouped):
        cpus(2)
        samples = make_samples(
            np.random.default_rng(77), 24,
            lambda f: np.tanh(f["NumFz"] - 1.5) + 0.3 * f["rFD"], noise=0.05)
        # Mixed hidden counts, so structures differ in cost.
        cfg = SearchConfig(hidden_range=(1, 2, 3), subset_sizes=(1, 2),
                           folds=4, rng_seed=9, group_by_source=grouped,
                           lm=LMConfig(max_iters=15, restarts=2))
        one = exhaustive_search(samples, cfg, workers=1)
        two = exhaustive_search(samples, cfg, workers=2)
        assert two.ranking_csv() == one.ranking_csv()
        assert save_model(two.model) == save_model(one.model)

    def test_lowest_failing_structure_wins(self, cpus, monkeypatch, rng):
        cpus(2)

        def fake(samples, features, m, config, seed=None):
            i = structure_index(seed)
            if i == 3:
                time.sleep(0.3)  # let structure 5 fail first
                raise NumericalFailure("structure 3")
            if i == 5:
                raise NumericalFailure("structure 5")
            return float(i)

        monkeypatch.setattr(training, "cross_validate", fake)
        samples = make_samples(rng, 10, lambda f: 0.0)
        cfg = SearchConfig(hidden_range=(1,), subset_sizes=(1,), folds=2)
        for workers in (1, 2):
            with pytest.raises(NumericalFailure, match="^structure 3$"):
                exhaustive_search(samples, cfg, workers=workers)

    def test_worker_dying_without_a_result_is_an_error(
            self, cpus, monkeypatch, rng, tmp_path):
        cpus(2)
        caller = os.getpid()
        marker = tmp_path / "claimed"

        def fake(samples, features, m, config, seed=None):
            if os.getpid() != caller:
                marker.touch()
                os._exit(1)
            # Hold the first structure until the child has claimed one.
            deadline = time.monotonic() + 30
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return 1.0

        def too_slow(signum, frame):
            raise TimeoutError("the search hung on a dead worker")

        monkeypatch.setattr(training, "cross_validate", fake)
        samples = make_samples(rng, 10, lambda f: 0.0)
        cfg = SearchConfig(hidden_range=(1,), subset_sizes=(1,), folds=2)
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(60)
        try:
            with pytest.raises(JerkmeterError, match="exited with code 1"):
                exhaustive_search(samples, cfg, workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert marker.exists()

    def test_more_workers_than_cores_evaluate_each_index_once(self, cpus):
        cpus(4)

        def evaluate(i):
            time.sleep(0.002)
            return i, os.getpid()

        got = pool._claimed_map(evaluate, 300, 4)
        assert [i for i, _ in got] == list(range(300))
        assert len({pid for _, pid in got}) > 1

    def test_no_index_is_claimed_after_an_error(self, cpus, tmp_path):
        cpus(2)

        def evaluate(i):
            (tmp_path / str(i)).touch()
            if i == 0:
                raise NumericalFailure("structure 0")
            time.sleep(0.05)
            return i

        with pytest.raises(NumericalFailure, match="^structure 0$"):
            pool._claimed_map(evaluate, 200, 2)
        # Index 0 fails at once, while the child has claimed one index or none.
        assert len(list(tmp_path.iterdir())) < 10

    def test_a_busy_child_is_killed_when_this_process_fails(self, cpus, tmp_path):
        cpus(2)
        caller = os.getpid()
        claimed = tmp_path / "claimed"

        def evaluate(i):
            if os.getpid() != caller:
                claimed.touch()
                time.sleep(30)
                return i
            deadline = time.monotonic() + 30
            while not claimed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise RuntimeError("not a JerkmeterError")

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^not a JerkmeterError$"):
            pool._claimed_map(evaluate, 2, 2)
        assert claimed.exists() and time.monotonic() - start < 20
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_count_is_capped_without_starting_processes(self, cpus):
        cpus(2)
        assert pool._worker_count(10**6, 14) == 2
        assert pool._worker_count(10**6, 1) == 1
        assert pool._worker_count(1, 14) == 1
        cpus(64)
        assert pool._worker_count(10**6, 14) == 14

    def test_no_workers_is_a_config_error(self, rng):
        samples = make_samples(rng, 10, lambda f: 0.0)
        cfg = SearchConfig(hidden_range=(1,), subset_sizes=(1,), folds=2)
        with pytest.raises(ConfigError):
            exhaustive_search(samples, cfg, workers=0)


def test_one_worker_starts_no_multiprocessing():
    # A fresh interpreter, since this one may have run a multi-worker search.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from jerkmeter import (FEATURE_NAMES, LMConfig, SearchConfig,\n"
        "                       TrainingSample, exhaustive_search)\n"
        "rng = np.random.default_rng(3)\n"
        "samples = [TrainingSample(\n"
        "    features={n: float(rng.uniform(0, 3)) for n in FEATURE_NAMES},\n"
        "    dmos=float(rng.normal()), source_id='a', sample_id=f's{i}')\n"
        "    for i in range(10)]\n"
        "cfg = SearchConfig(hidden_range=(1,), subset_sizes=(1,), folds=2,\n"
        "                   lm=LMConfig(max_iters=3, restarts=1))\n"
        "exhaustive_search(samples, cfg, workers=1)\n"
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(training.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestNormalizationHelpers:
    def test_fit_normalization(self, rng):
        x = rng.normal(size=(30, 3)) * np.array([1.0, 5.0, 0.1]) + 7.0
        mean, std = fit_normalization(x)
        z = (x - mean) / std
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_gets_unit_std(self):
        x = np.ones((5, 2))
        _, std = fit_normalization(x)
        assert std.tolist() == [1.0, 1.0]

    def test_design_matrix_order(self, rng):
        samples = make_samples(rng, 4, lambda f: 0.0)
        x, y = design_matrix(samples, ("rFD", "NumFz"))
        assert x.shape == (4, 2)
        assert x[0, 0] == samples[0].features["rFD"]
        assert x[0, 1] == samples[0].features["NumFz"]


class TestCsvIngestion:
    def test_feature_columns(self, tmp_path):
        path = tmp_path / "samples.csv"
        header = "id,source_id,dmos," + ",".join(FEATURE_NAMES)
        row = "a,srcA,3.5," + ",".join(str(float(i)) for i in range(13))
        path.write_text(header + "\n" + row + "\n")
        samples = load_samples_csv(path)
        assert len(samples) == 1
        assert samples[0].dmos == 3.5
        assert samples[0].features["NumFz"] == 0.0
        assert samples[0].features["rFD"] == 12.0
        assert samples[0].source_id == "srcA"

    def test_path_column(self, tmp_path):
        from jerkmeter import FreezeKind, FreezePlan, gradient_video, inject, write_y4m
        src = gradient_video(40, 64, 8)
        degraded, _ = inject(src, FreezePlan(FreezeKind.LOSS, [(10, 4)]))
        with open(tmp_path / "clip.y4m", "wb") as handle:
            write_y4m(degraded, handle)
        (tmp_path / "samples.csv").write_text(
            "id,source_id,dmos,path\nc1,s1,2.5,clip.y4m\n")
        samples = load_samples_csv(tmp_path / "samples.csv")
        assert samples[0].features["NumFz"] == 1.0
        assert samples[0].dmos == 2.5

    def test_missing_base_column(self, tmp_path):
        (tmp_path / "x.csv").write_text("id,dmos\na,1\n")
        with pytest.raises(ConfigError):
            load_samples_csv(tmp_path / "x.csv")

    def test_missing_feature_columns(self, tmp_path):
        (tmp_path / "x.csv").write_text("id,source_id,dmos,NumFz\na,s,1,2\n")
        with pytest.raises(ConfigError):
            load_samples_csv(tmp_path / "x.csv")

    def test_bad_dmos(self, tmp_path):
        header = "id,source_id,dmos," + ",".join(FEATURE_NAMES)
        row = "a,s,not_a_number," + ",".join(["0"] * 13)
        (tmp_path / "x.csv").write_text(header + "\n" + row + "\n")
        with pytest.raises(ConfigError):
            load_samples_csv(tmp_path / "x.csv")

    @pytest.mark.parametrize("column", ["dmos", "NumFz", "rFD"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_its_row(self, tmp_path, column, value):
        header = ["id", "source_id", "dmos", *FEATURE_NAMES]
        good = ["a", "s", "1.5"] + ["0.5"] * 13
        bad = list(good)
        bad[header.index(column)] = value
        (tmp_path / "x.csv").write_text(
            "\n".join(",".join(row) for row in (header, good, bad)) + "\n")
        with pytest.raises(ConfigError, match="row 3: .* finite number"):
            load_samples_csv(tmp_path / "x.csv")

    def test_non_y4m_path_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text(
            "id,source_id,dmos,path\na,s,1,clip.avi\n")
        with pytest.raises(ConfigError):
            load_samples_csv(tmp_path / "x.csv")

    def test_empty_csv(self, tmp_path):
        header = "id,source_id,dmos," + ",".join(FEATURE_NAMES)
        (tmp_path / "x.csv").write_text(header + "\n")
        with pytest.raises(ConfigError):
            load_samples_csv(tmp_path / "x.csv")


class TestSeedDerivation:
    def test_distinct_paths_give_distinct_streams(self):
        a = np.random.default_rng(derived_seed(0, 1, 2)).integers(0, 2**31, 4)
        b = np.random.default_rng(derived_seed(0, 1, 3)).integers(0, 2**31, 4)
        c = np.random.default_rng(derived_seed(0, 1, 2)).integers(0, 2**31, 4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 100), st.integers(0, 100))
    def test_reproducible(self, base, a, b):
        x = np.random.default_rng(derived_seed(base, a, b)).random()
        y = np.random.default_rng(derived_seed(base, a, b)).random()
        assert x == y
