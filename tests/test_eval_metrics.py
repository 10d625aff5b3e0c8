import dataclasses
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from jerkmeter import DegenerateInput, ShapeError, evaluate, pearson, rrmse, spearman
from jerkmeter.eval_metrics import rank

finite_vec = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40)


def textbook_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
    return num / den


class TestPearson:
    def test_affine_identity(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert pearson(x, [2 * v + 3 for v in x]) == pytest.approx(1.0, abs=1e-15)

    def test_negation(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_textbook_formula(self, rng):
        for _ in range(30):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert pearson(x, y) == pytest.approx(
                textbook_pearson(list(x), list(y)), abs=1e-12)

    def test_matches_scipy(self, rng):
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        assert pearson(x, y) == pytest.approx(
            scipy.stats.pearsonr(x, y).statistic, abs=1e-12)

    def test_constant_input(self):
        with pytest.raises(DegenerateInput):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(DegenerateInput):
            pearson([1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_positive_affine_invariance(self, rng):
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        base = pearson(x, y)
        assert pearson(3.5 * x + 11.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.25 * y - 4.0) == pytest.approx(base, abs=1e-12)


class TestRank:
    def test_tie_handling(self):
        assert rank([1, 2, 2, 3]).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_all_tied(self):
        assert rank([7, 7, 7]).tolist() == [2.0, 2.0, 2.0]

    @settings(max_examples=50)
    @given(finite_vec)
    def test_matches_scipy_rankdata(self, values):
        assert rank(values).tolist() == scipy.stats.rankdata(values).tolist()


class TestSpearman:
    def test_strictly_monotone_map_is_one(self):
        x = [0.1, 1.0, 2.0, 4.0, 9.0]
        y = [math.exp(v) for v in x]
        assert spearman(x, y) == 1.0

    def test_reversed_is_minus_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, list(reversed(x))) == -1.0

    def test_equals_pearson_of_ranks(self, rng):
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        assert spearman(x, y) == pearson(rank(x), rank(y))

    def test_matches_scipy_with_ties(self, rng):
        x = rng.integers(0, 5, size=30).astype(float)
        y = rng.integers(0, 5, size=30).astype(float)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            pytest.skip("degenerate draw")
        assert spearman(x, y) == pytest.approx(
            scipy.stats.spearmanr(x, y).statistic, abs=1e-12)

    def test_monotone_transform_invariance_exact(self, rng):
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        assert spearman(np.exp(x), y) == spearman(x, y)

    def test_constant_input(self):
        with pytest.raises(DegenerateInput):
            spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestRrmse:
    def test_identity_is_zero(self):
        assert rrmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_offset(self):
        dmos = [1.0, 2.0, 5.0]  # range 4
        pred = [v + 0.5 for v in dmos]
        assert rrmse(pred, dmos) == pytest.approx(100 * 0.5 / 4.0, abs=1e-12)

    def test_explicit_range(self):
        assert rrmse([2.0, 2.0], [1.0, 1.0], scale_range=10.0) == \
            pytest.approx(10.0, abs=1e-12)

    def test_formula_oracle(self, rng):
        pred = rng.normal(size=12)
        dmos = rng.normal(size=12)
        expected = 100 * math.sqrt(
            sum((p - d) ** 2 for p, d in zip(pred, dmos)) / 12
        ) / (max(dmos) - min(dmos))
        assert rrmse(pred, dmos) == pytest.approx(expected, abs=1e-12)

    def test_zero_range(self):
        with pytest.raises(DegenerateInput):
            rrmse([1.0, 2.0], [3.0, 3.0])

    def test_empty(self):
        with pytest.raises(DegenerateInput) as exc:
            rrmse([], [])
        assert str(exc.value) == "need at least 1 point"


class TestEvaluate:
    def test_report_fields(self, rng):
        pred = rng.normal(size=15)
        dmos = rng.normal(size=15)
        report = evaluate(pred, dmos)
        assert report.n == 15
        assert -1.0 <= report.pcc <= 1.0
        assert -1.0 <= report.srocc <= 1.0
        assert report.rrmse >= 0.0
        assert report.pcc == pearson(pred, dmos)
        assert report.srocc == spearman(pred, dmos)
        assert report.rrmse == rrmse(pred, dmos)

    def test_as_dict(self):
        report = evaluate([1.0, 2.0, 4.0], [1.1, 2.2, 3.9])
        d = dataclasses.asdict(report)
        assert set(d) == {"pcc", "srocc", "rrmse", "n"}
