"""Acceptance gate: one test per published criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (written past pytest's
capture so it always reaches the terminal) and then asserts, so a red run
still shows exactly which guarantees broke.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from jerkmeter import (
    FEATURE_NAMES,
    FreezeEvent,
    FreezeKind,
    FreezePlan,
    FreezeTimeline,
    LMConfig,
    SearchConfig,
    TrainingSample,
    add_capture_noise,
    analyze,
    capacity_ok,
    compute_series,
    default_model,
    detect_freezes,
    detect_scene_cuts,
    exhaustive_search,
    extract,
    forward,
    frame_diff,
    gradient_video,
    inject,
    pearson,
    rank,
    rrmse,
    score_detection,
    sigmoid,
    spearman,
    train_lm,
)
from jerkmeter import training as training_mod
from jerkmeter.cli import run

from conftest import frame, record_criterion
from test_features import brute_force_features, make_series, random_case


def report(num: int, text: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    record_criterion(line)
    print(line, flush=True)
    assert ok, f"criterion {num}: {text}"


def brute_fd(a, b) -> float:
    total = 0
    for row_a, row_b in zip(a.tolist(), b.tolist()):
        for pa, pb in zip(row_a, row_b):
            total += (pa - pb) * (pa - pb)
    return total / (a.shape[0] * a.shape[1])


def test_c01_frame_diff_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        h = int(rng.integers(1, 33))
        w = int(rng.integers(1, 33))
        a = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        b = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        if frame_diff(frame(a), frame(b)) != brute_fd(a, b):
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(1, f"frame_diff integer-exact vs per-pixel oracle on 1000 pairs "
              f"({elapsed:.2f}s)", ok)


SCENE_CUT_TABLE = [
    # (values, expected flagged indices)
    ([1, 1, 1, 1, 1, 5], []),                 # equality is not a cut
    ([1, 1, 1, 1, 1, 5.001], [5]),            # strictly above is
    ([100, 100, 100, 100, 100], []),          # warm-up never flags
    ([500, 1, 1, 1, 1, 1], []),               # ...even a huge first value
    ([0, 0, 0, 0, 0, 1], [5]),                # any rise over a zero floor
    ([0, 0, 0, 0, 0, 0], []),                 # zero over zero is not
    ([10, 10, 0, 0, 0, 11], []),              # freeze zeros stay in history
    ([10, 10, 0, 0, 0, 21], [5]),
    ([1, 1, 1, 1, 1, 1, 100], [6]),           # window slides forward
    ([1, 1, 1, 1, 1, 10, 10], [5]),           # cut value joins the history
    ([1, 1, 1, 1, 1, 6, 1, 1, 1, 1, 11], [5, 10]),
]


def test_c02_scene_cut_rule():
    ok = True
    for values, expected in SCENE_CUT_TABLE:
        flags = detect_scene_cuts(np.asarray(values, dtype=np.float64))
        if list(np.flatnonzero(flags)) != expected:
            ok = False
            break
    report(2, f"scene-cut rule on {len(SCENE_CUT_TABLE)} scripted boundary "
              f"cases", ok)


def random_plan(rng, frame_count):
    """Events valid for both kinds (delay shift bounded inside the clip)."""
    events = []
    cursor = int(rng.integers(2, 30))
    shift = 0
    while len(events) < 3 and rng.random() < 0.85:
        duration = int(rng.integers(2, 31))
        if cursor + shift + duration > frame_count - 10:
            break
        events.append((cursor, duration))
        shift += duration
        cursor += duration + int(rng.integers(3, 25))
    if not events:
        events = [(10, int(rng.integers(2, 31)))]
    return events


def test_c03_detection_on_synthetic_truth():
    rng = np.random.default_rng(103)
    base = gradient_video(frame_count=300, width=64, height=32)
    start = time.perf_counter()
    clean_perfect = 0
    noisy_true = 0
    noisy_hit = 0
    runs = 200
    for i in range(runs):
        kind = FreezeKind.LOSS if i % 2 == 0 else FreezeKind.DELAY
        plan = FreezePlan(kind=kind, events=random_plan(rng, base.frame_count))
        degraded, truth = inject(base, plan)
        found = detect_freezes_from(degraded)
        rep = score_detection(found, truth)
        if rep.detection_rate == 1.0 and rep.false_alarm_rate == 0.0:
            clean_perfect += 1
        noisy = add_capture_noise(degraded, 0.01, seed=i)
        noisy_rep = score_detection(detect_freezes_from(noisy), truth)
        noisy_true += noisy_rep.total_true
        noisy_hit += noisy_rep.correctly_detected
    elapsed = time.perf_counter() - start
    aggregate = noisy_hit / noisy_true
    ok = clean_perfect == runs and aggregate >= 0.99 and elapsed < 60.0
    report(3, f"synthetic truth: {clean_perfect}/{runs} noiseless plans "
              f"perfect, noisy detection {aggregate:.4f} ({elapsed:.1f}s)", ok)


def detect_freezes_from(seq):
    return detect_freezes(compute_series(seq))


def test_c04_published_detection_rates():
    truth = FreezeTimeline(
        [FreezeEvent(10 + 20 * k, 8) for k in range(140)],
        frame_count=10 + 20 * 140 + 10)
    found_events = [FreezeEvent(10 + 20 * k, 8) for k in range(131)]
    # Eleven detections that touch no true event: one in each inter-event
    # gap after the matched range, plus two in the tail padding.
    found_events += [FreezeEvent(10 + 20 * (131 + k) + 10, 2)
                     for k in range(9)]
    found_events += [FreezeEvent(10 + 20 * 139 + 14, 2),
                     FreezeEvent(10 + 20 * 139 + 17, 2)]
    found = FreezeTimeline(sorted(found_events), frame_count=truth.frame_count)
    rep = score_detection(found, truth)
    detection = round(rep.detection_rate * 100, 2)
    alarms = round(rep.false_alarm_rate * 100, 2)
    ok = (rep.total_true, rep.correctly_detected) == (140, 131) \
        and len(found.events) == 142 \
        and detection == 93.57 and alarms == 7.75
    report(4, f"140 true / 131 matched / 142 found -> {detection}% "
              f"detection, {alarms}% false alarms", ok)


def features_match(got, oracle) -> bool:
    return all(
        math.isclose(got[name], oracle[name], rel_tol=1e-12, abs_tol=1e-12)
        for name in FEATURE_NAMES
    )


def test_c05_feature_brute_force_equivalence():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(500):
        values, cuts, events, n = random_case(rng)
        timeline = FreezeTimeline([FreezeEvent(s, d) for s, d in events],
                                  frame_count=n)
        got = extract(make_series(values, cuts), timeline)
        if not features_match(got, brute_force_features(values, cuts, events, n)):
            ok = False
            break
    # Documented degenerate cases.
    degenerate = [
        ([], 50),                      # no events: nine pattern features zero
        ([(10, 6)], 50),               # one event: distance to clip length
        ([(5, 4), (44, 6)], 50),       # second event ends at the last frame
    ]
    for events, n in degenerate:
        values = np.linspace(1, 40, n - 1)
        timeline = FreezeTimeline([FreezeEvent(s, d) for s, d in events],
                                  frame_count=n)
        got = extract(make_series(values, []), timeline)
        if not features_match(got, brute_force_features(values, set(), events, n)):
            ok = False
    zero = extract(make_series(np.linspace(1, 40, 49), []),
                   FreezeTimeline([], frame_count=50))
    ok = ok and all(zero[name] == 0.0 for name in FEATURE_NAMES[:9])
    report(5, "500 random timelines + degenerate cases match direct "
              "recomputation (1e-12)", ok)


def rfd_of(seq) -> float:
    return analyze(seq).features["rFD"]


def test_c06_rfd_discriminates_freeze_kinds():
    rng = np.random.default_rng(106)
    loss_hits = 0
    delay_hits = 0
    for i in range(100):
        n = int(rng.integers(150, 301))
        base = gradient_video(frame_count=n, width=64, height=16)
        plan = FreezePlan(kind=FreezeKind.LOSS, events=random_plan(rng, n))
        degraded, _ = inject(base, plan)
        if rfd_of(degraded) > 1.0:
            loss_hits += 1
    for i in range(100):
        n = int(rng.integers(150, 301))
        base = gradient_video(frame_count=n, width=64, height=16,
                              velocity=int(rng.integers(1, 4)))
        plan = FreezePlan(kind=FreezeKind.DELAY, events=random_plan(rng, n))
        degraded, _ = inject(base, plan)
        if 0.5 <= rfd_of(degraded) <= 2.0:
            delay_hits += 1
    ok = loss_hits == 100 and delay_hits >= 95
    report(6, f"rFD separates kinds: loss>1 on {loss_hits}/100, delay in "
              f"[0.5,2] on {delay_hits}/100", ok)


def oracle_predict(model, x) -> float:
    acc = model.output[-1]
    for m in range(model.n_hidden):
        z = model.hidden[m][-1]
        for j, xj in enumerate(x):
            z += model.hidden[m][j] * xj
        if z >= 0:
            h = 1.0 / (1.0 + math.exp(-z))
        else:
            e = math.exp(z)
            h = e / (1.0 + e)
        acc += model.output[m] * h
    return acc


def test_c07_network_math():
    model = default_model()
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(0.0, 1.5, size=model.n_features)
        got = forward(model.hidden, model.output, x)
        worst = max(worst, abs(got - oracle_predict(model, x)))
    with np.errstate(over="raise", invalid="raise"):
        lo = sigmoid(-500.0)
        hi = sigmoid(500.0)
    ok = (worst < 1e-9 and 0.0 <= lo <= 1e-100
          and 0.0 <= 1.0 - hi <= 1e-100)
    report(7, f"Predictions match matrix oracle (worst {worst:.2e}); sigmoid "
              f"stable at |t|=500", ok)


def test_c08_capacity_predicate():
    ok = capacity_ok(3, 6, 52) and not capacity_ok(4, 11, 52)
    for m in range(1, 11):
        for n in range(1, 14):
            if capacity_ok(m, n, 52) != (m * (n + 1) + m + 1 < 52):
                ok = False
    report(8, "capacity predicate matches weight-count formula for "
              "M<=10, N<=13", ok)


def test_c09_lm_recovery_and_jacobian():
    rng = np.random.default_rng(109)
    cfg = LMConfig(max_iters=200, restarts=5)
    start = time.perf_counter()
    recovered = 0
    for plant in range(20):
        hidden = rng.normal(0.0, 1.0, size=(2, 3))
        output = rng.normal(0.0, 1.0, size=3)
        x = rng.normal(0.0, 1.0, size=(40, 2))
        y = forward(hidden, output, x)
        fit = train_lm(x, y, 2, cfg, seed=plant)
        if fit.mse <= 1e-6:
            recovered += 1
    elapsed = time.perf_counter() - start

    # Analytic Jacobian of the prediction vs central differences.
    x = rng.normal(0.0, 1.0, size=(15, 3))
    x1 = np.hstack([x, np.ones((15, 1))])
    w = rng.normal(0.0, 0.8, size=2 * 4 + 2 + 1)

    def predict_at(weights):
        hidden, output = training_mod._unpack(weights, 2, 3)
        return forward(hidden, output, x)

    h_act = sigmoid(x1 @ training_mod._unpack(w, 2, 3)[0].T)
    analytic = training_mod._jacobian(x1, h_act, w[2 * 4:-1])
    step = 1e-6
    worst = 0.0
    for j in range(w.size):
        bumped = w.copy()
        bumped[j] += step
        plus = predict_at(bumped)
        bumped[j] -= 2 * step
        minus = predict_at(bumped)
        numeric = (plus - minus) / (2 * step)
        scale = np.maximum(np.abs(numeric), 1.0)
        worst = max(worst, float(np.max(np.abs(analytic[:, j] - numeric) / scale)))

    ok = recovered == 20 and worst < 1e-5 and elapsed < 120.0
    report(9, f"LM recovers {recovered}/20 planted nets to MSE<=1e-6 "
              f"({elapsed:.1f}s); Jacobian vs FD {worst:.2e}", ok)


def planted_samples(rng, count=30):
    samples = []
    for i in range(count):
        feats = {name: float(rng.uniform(0, 3)) for name in FEATURE_NAMES}
        dmos = 1.0 + 1.2 * feats["AvgFzDur"] - 0.8 * feats["MaxFzFD"]
        samples.append(TrainingSample(features=feats, dmos=dmos,
                                      sample_id=f"s{i}",
                                      source_id=f"src{i % 5}"))
    return samples


def test_c10_search_finds_planted_pair():
    planted = {"AvgFzDur", "MaxFzFD"}
    expected_count = math.comb(13, 2)
    wins = 0
    counts_ok = True
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        config = SearchConfig(hidden_range=(1,), subset_sizes=(2,), folds=3,
                              rng_seed=seed,
                              lm=LMConfig(max_iters=30, restarts=1))
        result = exhaustive_search(planted_samples(rng), config)
        counts_ok = counts_ok and len(result.ranking) == expected_count
        if set(result.best.features) == planted:
            wins += 1
    ok = wins >= 19 and counts_ok
    report(10, f"planted feature pair wins {wins}/20 seeded searches; "
               f"enumeration = C(13,2)", ok)


def test_c11_correlation_metric_oracles():
    rng = np.random.default_rng(111)
    ok = True
    for _ in range(100):
        n = int(rng.integers(5, 60))
        x = rng.normal(0, 3, size=n)
        y = rng.normal(0, 3, size=n) + 0.5 * x
        mx, my = x.mean(), y.mean()
        pcc_oracle = (np.sum((x - mx) * (y - my))
                      / math.sqrt(np.sum((x - mx) ** 2) * np.sum((y - my) ** 2)))
        rx, ry = rank(x), rank(y)
        srocc_oracle = pearson(rx, ry)
        rrmse_oracle = 100.0 * math.sqrt(np.mean((x - y) ** 2)) / np.ptp(y)
        if not (math.isclose(pearson(x, y), pcc_oracle, rel_tol=1e-12,
                             abs_tol=1e-12)
                and math.isclose(spearman(x, y), srocc_oracle, rel_tol=1e-12,
                                 abs_tol=1e-12)
                and math.isclose(rrmse(x, y), rrmse_oracle, rel_tol=1e-12,
                                 abs_tol=1e-12)):
            ok = False
            break
    x = rng.normal(0, 1, size=40)
    y = rng.normal(0, 1, size=40) + x
    ok = ok and abs(pearson(2.5 * x + 7.0, y) - pearson(x, y)) <= 1e-12
    ok = ok and spearman(np.exp(x), y) == spearman(x, y)
    report(11, "PCC/SROCC/rRMSE match direct formulas (1e-12); "
               "affine/monotone invariance holds", ok)


def score_json(tmp_path, capsys, tag: str) -> str:
    src = tmp_path / f"{tag}-src.y4m"
    deg = tmp_path / f"{tag}-deg.y4m"
    assert run(["synth", "--frames", "80", "--size", "48x16",
                "--out", str(src)]) == 0
    assert run(["degrade", str(src), "--kind", "loss", "--events",
                "12:5,40:9", "--out", str(deg)]) == 0
    capsys.readouterr()
    assert run(["score", str(deg), "--json"]) == 0
    return capsys.readouterr().out


def train_once(tmp_path, csv_path, threads: int, capsys):
    model_path = tmp_path / "model.json"
    capsys.readouterr()
    assert run(["train", "--data", str(csv_path), "--subset-sizes", "2",
                "--hidden", "1", "--folds", "3", "--seed", "7",
                "--lm-max-iters", "20", "--lm-restarts", "1",
                "--threads", str(threads), "--json",
                "--out", str(model_path)]) == 0
    return capsys.readouterr().out, model_path.read_bytes()


def test_c12_end_to_end_determinism(tmp_path, capsys):
    first = score_json(tmp_path, capsys, "a")
    second = score_json(tmp_path, capsys, "b")
    score_same = first == second and json.loads(first)["schema"] == 1

    rng = np.random.default_rng(112)
    csv_path = tmp_path / "table.csv"
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write("id,source_id,dmos," + ",".join(FEATURE_NAMES) + "\n")
        for i in range(60):
            feats = {n: float(rng.uniform(0, 3)) for n in FEATURE_NAMES}
            dmos = 1.0 + feats["NumFz"] + 0.5 * feats["rFD"]
            handle.write(f"r{i},src{i % 6},{dmos!r},"
                         + ",".join(repr(feats[n]) for n in FEATURE_NAMES)
                         + "\n")
    out_a, model_a = train_once(tmp_path, csv_path, threads=1, capsys=capsys)
    out_b, model_b = train_once(tmp_path, csv_path, threads=1, capsys=capsys)
    out_c, model_c = train_once(tmp_path, csv_path, threads=8, capsys=capsys)
    train_same = out_a == out_b == out_c and model_a == model_b == model_c
    ok = score_same and train_same
    report(12, "pipeline JSON and trained model byte-identical across runs "
               "and --threads 1 vs 8", ok)


def test_c13_external_dataset_path(tmp_path, capsys):
    csv_path = os.environ.get("JERKMETER_EVAL_CSV")
    if not csv_path:
        record_criterion("[SKIP] criterion 13: set JERKMETER_EVAL_CSV to an "
                         "annotated sample table to exercise the evaluation "
                         "path")
        pytest.skip("JERKMETER_EVAL_CSV not set")
    argv = ["eval", "--data", csv_path, "--json"]
    model_path = os.environ.get("JERKMETER_EVAL_MODEL")
    if model_path:
        argv += ["--model", model_path]
    capsys.readouterr()
    code = run(argv)
    out = capsys.readouterr().out
    doc = json.loads(out) if code == 0 else {}
    ok = code == 0 and all(
        np.isfinite(doc.get(k, np.nan)) for k in ("pcc", "srocc", "rrmse"))
    report(13, f"external dataset evaluated: {out.strip()}", ok)
