import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jerkmeter import (
    FEATURE_NAMES,
    FeatureVector,
    InvalidModel,
    ModelFormatError,
    NumericalFailure,
    QualityModel,
    ShapeError,
    default_model,
    load_model,
    normalize,
    predict,
    save_model,
    score_features,
)
from jerkmeter.quality_model import forward, sigmoid
from jerkmeter.training import param_count


def small_model(n=2, m=1, hidden=None, output=None, mean=None, std=None, meta=None):
    return QualityModel(
        selected_features=tuple(FEATURE_NAMES[:n]),
        norm_mean=np.zeros(n) if mean is None else np.asarray(mean, float),
        norm_std=np.ones(n) if std is None else np.asarray(std, float),
        hidden=np.zeros((m, n + 1)) if hidden is None else np.asarray(hidden, float),
        output=np.zeros(m + 1) if output is None else np.asarray(output, float),
        meta=meta or {},
    )


def oracle_predict(hidden, output, x):
    """Pure-python reimplementation used as an independent check."""
    total = output[-1]
    for m, row in enumerate(hidden):
        z = row[-1] + sum(w * v for w, v in zip(row[:-1], x))
        total += output[m] / (1.0 + math.exp(-z)) if z >= 0 else \
            output[m] * math.exp(z) / (1.0 + math.exp(z))
    return total


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_extremes_do_not_overflow(self):
        with np.errstate(over="raise"):
            lo = sigmoid(-500.0)
            hi = sigmoid(500.0)
        assert 0.0 <= lo < 1e-100
        assert 0.0 <= 1.0 - hi < 1e-100

    @settings(max_examples=100)
    @given(st.floats(-500, 500))
    def test_complement_identity(self, t):
        assert abs(sigmoid(t) + sigmoid(-t) - 1.0) <= 1e-12

    def test_vectorized(self):
        out = sigmoid(np.array([0.0, 500.0, -500.0]))
        assert out[0] == 0.5 and out.shape == (3,)

    @staticmethod
    def piecewise(t):
        """Reference: the two formulas applied through boolean masks."""
        t = np.asarray(t, dtype=np.float64)
        out = np.empty_like(t)
        pos = t >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
        et = np.exp(t[~pos])
        out[~pos] = et / (1.0 + et)
        return out

    def test_matches_piecewise_formulas_bit_for_bit(self):
        mags = [0.0, 1e-300, 1.0, 700.0, 1e3, 1e308, np.inf]
        t = np.array(mags + [-v for v in mags])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = sigmoid(t)
        assert got.tobytes() == self.piecewise(t).tobytes()
        for v in t:
            assert np.float64(sigmoid(v)).tobytes() == self.piecewise(v).tobytes()

    def test_nan_stays_nan(self):
        assert math.isnan(sigmoid(float("nan")))
        out = sigmoid(np.array([np.nan, 1.0]))
        assert np.isnan(out[0]) and out[1] == self.piecewise(1.0)

    def test_zero_d_input_gives_float(self):
        assert type(sigmoid(2.0)) is float
        assert type(sigmoid(np.float64(-2.0))) is float
        assert type(sigmoid(np.array(0.5))) is float


class TestPredict:
    def test_zero_output_weights_give_bias(self):
        model = small_model(output=[0.0, 7.25])
        for x in (np.zeros(2), np.ones(2), np.array([-3.0, 9.0])):
            assert predict(x, model).dmos_pred == 7.25

    def test_single_zeroed_node_gives_half(self):
        model = small_model(m=1, output=[1.0, 0.0])
        assert predict(np.zeros(2), model).dmos_pred == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            predict(np.zeros(3), small_model(n=2))

    # Finite numbers whose output leaves the float range: 1e308 + 1e308 is
    # inf; an input of 1e308 over a std of 1e-10 overflows in normalize and
    # meets a zero weight, 0 * inf = nan.
    @pytest.mark.parametrize("hidden,output,x,std", [
        ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [1e308] * 3, [0.0, 0.0], None),
        ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 1.0, 0.0], [1e308, 0.0], [1e-10, 1.0]),
    ], ids=["inf", "nan"])
    def test_overflow_raises_numerical_failure(self, hidden, output, x, std):
        model = small_model(m=2, hidden=hidden, output=output, std=std)
        features = FeatureVector(**dict.fromkeys(FEATURE_NAMES, 0.0)).as_array()
        features[:2] = x
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning
            with pytest.raises(NumericalFailure, match="not a finite number"):
                score_features(FeatureVector(*features), model)

    def test_monotone_in_output_weight(self):
        base = small_model(hidden=[[0.3, -0.2, 0.1]], output=[1.0, 0.0])
        bumped = small_model(hidden=[[0.3, -0.2, 0.1]], output=[1.5, 0.0])
        x = np.array([0.4, -1.2])
        assert predict(x, bumped).dmos_pred > predict(x, base).dmos_pred

    def test_matches_pure_python_oracle(self, rng):
        for _ in range(50):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            hidden = rng.normal(size=(m, n + 1))
            output = rng.normal(size=m + 1)
            model = small_model(n=n, m=m, hidden=hidden, output=output)
            x = rng.normal(size=n)
            assert predict(x, model).dmos_pred == pytest.approx(
                oracle_predict(hidden, output, x), abs=1e-9)

    def test_batch_forward_matches_single(self, rng):
        hidden = rng.normal(size=(3, 5))
        output = rng.normal(size=4)
        batch = rng.normal(size=(6, 4))
        batched = forward(hidden, output, batch)
        for i in range(6):
            assert batched[i] == pytest.approx(
                float(forward(hidden, output, batch[i])), abs=1e-12)


class TestNormalize:
    def fv(self, values):
        return FeatureVector(**{k: values.get(k, 0.0) for k in FEATURE_NAMES})

    def test_means_map_to_zero(self):
        model = small_model(mean=[3.0, 5.0], std=[2.0, 4.0])
        fv = self.fv({"NumFz": 3.0, "AvgFzDur": 5.0})
        assert normalize(fv, model).tolist() == [0.0, 0.0]

    def test_mean_plus_std_maps_to_one(self):
        model = small_model(mean=[3.0, 5.0], std=[2.0, 4.0])
        fv = self.fv({"NumFz": 5.0, "AvgFzDur": 9.0})
        assert normalize(fv, model).tolist() == [1.0, 1.0]

    def test_random_zscore_oracle(self, rng):
        mean = rng.normal(size=2)
        std = rng.uniform(0.5, 2.0, size=2)
        model = small_model(mean=mean, std=std)
        fv = self.fv({"NumFz": 1.7, "AvgFzDur": -0.3})
        got = normalize(fv, model)
        assert got[0] == (1.7 - mean[0]) / std[0]
        assert got[1] == (-0.3 - mean[1]) / std[1]

    def test_rescaled_feature_leaves_score_unchanged(self, rng):
        # Scaling a stored feature and its statistics consistently is a
        # no-op on the normalized vector, hence on the prediction.
        hidden = rng.normal(size=(2, 3))
        output = rng.normal(size=3)
        mean = np.array([1.0, 2.0])
        std = np.array([0.5, 1.5])
        a, b = 3.0, -7.0
        raw = {"NumFz": 4.0, "AvgFzDur": 2.5}
        base = small_model(hidden=hidden, output=output, mean=mean, std=std)
        scaled = small_model(
            hidden=hidden, output=output,
            mean=[a * mean[0] + b, mean[1]], std=[a * std[0], std[1]])
        fv_base = self.fv(raw)
        fv_scaled = self.fv({"NumFz": a * raw["NumFz"] + b,
                             "AvgFzDur": raw["AvgFzDur"]})
        assert score_features(fv_base, base).dmos_pred == \
            score_features(fv_scaled, scaled).dmos_pred


class TestModelValidation:
    def test_param_count(self):
        model = small_model(n=2, m=3, hidden=np.zeros((3, 3)), output=np.zeros(4))
        assert param_count(model.n_hidden, model.n_features) == \
            model.hidden.size + model.output.size == 3 * (2 + 1) + 3 + 1

    def test_unknown_feature(self):
        with pytest.raises(InvalidModel) as exc:
            QualityModel(("Bogus",), np.zeros(1), np.ones(1),
                         np.zeros((1, 2)), np.zeros(2))
        assert exc.value.field == "features"

    def test_duplicate_feature(self):
        with pytest.raises(InvalidModel) as exc:
            QualityModel(("NumFz", "NumFz"), np.zeros(2), np.ones(2),
                         np.zeros((1, 3)), np.zeros(2))
        assert exc.value.field == "features"

    def test_nonpositive_std(self):
        with pytest.raises(InvalidModel) as exc:
            small_model(std=[1.0, 0.0])
        assert exc.value.field == "norm"

    def test_wrong_hidden_arity(self):
        with pytest.raises(InvalidModel) as exc:
            small_model(hidden=np.zeros((1, 5)))
        assert exc.value.field == "hidden"

    def test_wrong_output_arity(self):
        with pytest.raises(InvalidModel) as exc:
            small_model(m=1, output=np.zeros(5))
        assert exc.value.field == "output"

    def test_non_finite(self):
        with pytest.raises(InvalidModel) as exc:
            small_model(hidden=[[np.nan, 0.0, 0.0]])
        assert exc.value.field == "hidden"

    def test_ragged_hidden(self):
        with pytest.raises(InvalidModel) as exc:
            QualityModel(("NumFz",), [0.0], [1.0], [[0.0, 0.0], [0.0]], [0.0, 0.0, 0.0])
        assert (exc.value.field, exc.value.reason) == (
            "hidden", "each row needs 1 weights plus a bias")

    def test_integer_beyond_the_float_range(self):
        with pytest.raises(InvalidModel) as exc:
            QualityModel(("NumFz",), [10**400], [1.0], [[0.0, 0.0]], [0.0, 0.0])
        assert (exc.value.field, exc.value.reason) == (
            "norm", "number too large for a float")

    def test_format_error_is_an_invalid_model(self):
        # One rule book: a file's faults and a constructor's are caught alike.
        assert issubclass(ModelFormatError, InvalidModel)

    def test_arrays_frozen(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.hidden[0, 0] = 1.0


class TestSerialization:
    def test_round_trip_default_model(self):
        model = default_model()
        again = load_model(save_model(model))
        assert again.selected_features == model.selected_features
        assert np.array_equal(again.norm_mean, model.norm_mean)
        assert np.array_equal(again.norm_std, model.norm_std)
        assert np.array_equal(again.hidden, model.hidden)
        assert np.array_equal(again.output, model.output)
        assert again.meta == model.meta

    def test_full_precision_round_trip(self, rng):
        model = small_model(hidden=rng.normal(size=(1, 3)) / 3.0,
                            output=rng.normal(size=2) * math.pi)
        again = load_model(save_model(model))
        assert np.array_equal(again.hidden, model.hidden)
        assert np.array_equal(again.output, model.output)

    def test_non_finite_meta_is_refused_not_written(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_model(small_model(meta={"loss": math.nan}))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_meta_is_refused_on_load(self, literal):
        # json.loads reads these literals, which no model file may hold:
        # save_model could not write the model back.
        text = save_model(default_model()).decode().replace(
            '"normalization": "placeholder"', f'"normalization": {literal}')
        assert literal in text
        with pytest.raises(ModelFormatError) as exc:
            load_model(text)
        assert (exc.value.field, exc.value.reason) == ("meta", "NaN and Infinity are not JSON")

    def test_wrong_output_arity_names_field(self):
        doc = json.loads(save_model(default_model()).decode())
        doc["output"] = [0.1] * 5
        with pytest.raises(ModelFormatError) as exc:
            load_model(json.dumps(doc))
        assert exc.value.field == "output"

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d.pop("features"), "features"),
        (lambda d: d.pop("norm"), "norm"),
        (lambda d: d.pop("hidden"), "hidden"),
        (lambda d: d.update(schema=99), "schema"),
        (lambda d: d.update(features=["NumFz", "Nope"]), "features"),
        (lambda d: d["norm"].update(mean=[0.0]), "norm"),
        (lambda d: d.update(hidden=[[0.1, "x"]]), "hidden"),
        (lambda d: d.update(meta=[1, 2]), "meta"),
        (lambda d: d.update(hidden=[]), "hidden"),
        pytest.param(lambda d: d.update(schema=True), "schema", id="schema-true"),
        pytest.param(lambda d: d.update(schema=1.0), "schema", id="schema-float"),
        pytest.param(lambda d: d.update(schema="1"), "schema", id="schema-string"),
        pytest.param(lambda d: d["hidden"].__setitem__(1, [0.1]), "hidden",
                     id="hidden-ragged"),
    ])
    def test_schema_violations(self, mutate, field):
        doc = json.loads(save_model(default_model()).decode())
        mutate(doc)
        with pytest.raises(ModelFormatError) as exc:
            load_model(json.dumps(doc))
        assert exc.value.field == field

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d["hidden"][0].__setitem__(0, 10**400), "hidden"),
        (lambda d: d["norm"]["mean"].__setitem__(1, -10**400), "norm"),
        (lambda d: d["output"].__setitem__(0, float("nan")), "output"),
        (lambda d: d["output"].__setitem__(0, float("inf")), "output"),
        (lambda d: d["norm"]["std"].__setitem__(0, float("-inf")), "norm"),
    ])
    def test_numbers_a_float_cannot_hold(self, mutate, field):
        doc = json.loads(save_model(default_model()).decode())
        mutate(doc)
        with pytest.raises(ModelFormatError) as exc:
            load_model(json.dumps(doc))
        assert exc.value.field == field

    def test_nonpositive_std_is_invalid_model(self):
        doc = json.loads(save_model(default_model()).decode())
        doc["norm"]["std"][2] = -1.0
        with pytest.raises(InvalidModel):
            load_model(json.dumps(doc))

    def test_empty_feature_list_is_invalid_model(self):
        doc = json.loads(save_model(default_model()).decode())
        doc.update(features=[], norm={"mean": [], "std": []},
                   hidden=[[row[-1]] for row in doc["hidden"]])
        with pytest.raises(InvalidModel, match="no features selected"):
            load_model(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ModelFormatError):
            load_model(b"\x00\x01not json")

    def test_top_level_array(self):
        with pytest.raises(ModelFormatError):
            load_model(b"[1, 2, 3]")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 4))
    def test_random_models_round_trip(self, seed, n, m):
        rng = np.random.default_rng(seed)
        model = QualityModel(
            selected_features=tuple(FEATURE_NAMES[:n]),
            norm_mean=rng.normal(size=n),
            norm_std=rng.uniform(0.1, 5.0, size=n),
            hidden=rng.normal(size=(m, n + 1)),
            output=rng.normal(size=m + 1),
            meta={"normalization": "fitted"},
        )
        again = load_model(save_model(model))
        assert np.array_equal(again.hidden, model.hidden)
        assert np.array_equal(again.norm_mean, model.norm_mean)
        assert again.calibrated


class TestDefaultModel:
    def test_structure(self):
        model = default_model()
        assert model.selected_features == (
            "AvgFzDist", "NumFz", "rDurDist", "rFD", "StdFzDist", "rLenFz",
        )
        assert model.n_hidden == 3
        assert param_count(model.n_hidden, model.n_features) == \
            model.hidden.size + model.output.size == 25
        assert not model.calibrated
        assert np.array_equal(model.norm_mean, np.zeros(6))
        assert np.array_equal(model.norm_std, np.ones(6))

    def test_prediction_at_origin_matches_hand_evaluation(self):
        # With identity normalization and a zero input, only the biases
        # act; the whole network reduces to three scalar sigmoids.
        model = default_model()
        expected = oracle_predict(model.hidden.tolist(), model.output.tolist(),
                                  [0.0] * 6)
        got = predict(np.zeros(6), model)
        assert got.dmos_pred == pytest.approx(expected, abs=1e-12)
        assert not got.calibrated

    def test_random_vectors_match_oracle(self, rng):
        model = default_model()
        for _ in range(20):
            x = rng.normal(size=6)
            assert predict(x, model).dmos_pred == pytest.approx(
                oracle_predict(model.hidden.tolist(), model.output.tolist(), x),
                abs=1e-9)
