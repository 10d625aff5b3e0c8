"""The three text inputs, fuzzed: model JSON, sample CSV and truth JSON.

Every input must give a result or a JerkmeterError, which the CLI maps to
exit code 1 or 2; nothing may escape as another exception. Inputs are
mutations of a valid document, arbitrary JSON values in the document's
shape, or arbitrary bytes; model inputs also include the bundled model
with finite numbers of any size, and every model that loads is run
through `score` and `eval`, which must print finite numbers or exit 2.
The cases first found by hand are pinned as explicit examples.
"""

import contextlib
import io
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from jerkmeter import (
    FEATURE_NAMES,
    ConfigError,
    JerkmeterError,
    ModelFormatError,
    default_model,
    load_model,
    load_samples_csv,
    save_model,
)
from jerkmeter.cli import _timeline_from_doc, run
from jerkmeter.freeze_detection import FreezeTimeline

from conftest import make_sequence, y4m_bytes

DEEP = "[" * 200000 + "]" * 200000
HUGE_FIELD = "x" * 131073  # one more character than csv's field limit

VALID_MODEL = save_model(default_model()).decode("utf-8")
RAGGED_MODEL = json.dumps({**json.loads(VALID_MODEL), "hidden": [[0.5] * 7, [0.5]]})
VALID_TRUTH = json.dumps({"schema": 1, "frame_count": 60, "fps": 25.0, "events": [
    {"start_frame": 10, "duration": 4}, {"start_frame": 30, "duration": 6}]})
VALID_CSV = "id,source_id,dmos," + ",".join(FEATURE_NAMES) + "\n" + "".join(
    f"s{i},src{i % 2},{1.5 + i}," + ",".join(str(0.25 * (i + k)) for k in range(13))
    + "\n" for i in range(3))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


def mutated(valid: str):
    """`valid` with one slice replaced by arbitrary text, or cut short."""
    def mutate(args):
        lo, hi, text = args
        lo, hi = sorted((lo % (len(valid) + 1), hi % (len(valid) + 1)))
        return valid[:lo] + text + valid[hi:]

    return st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                     st.text(max_size=6)).map(mutate)


def texts(valid: str, shaped):
    """Text or bytes inputs for a parser whose valid input is `valid`."""
    return (mutated(valid) | shaped.map(json.dumps) | st.text(max_size=40)
            | st.binary(max_size=40))


model_docs = st.fixed_dictionaries({}, optional={
    "schema": json_values | st.just(1),
    "features": json_values | st.lists(st.sampled_from(FEATURE_NAMES), max_size=3),
    "norm": json_values | st.fixed_dictionaries(
        {"mean": json_values, "std": json_values}),
    "hidden": json_values, "output": json_values, "meta": json_values})
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e308, -1e308, 1e154, 5e-324])


@st.composite
def extreme_models(draw):
    """The bundled model with one key's numbers replaced by finite floats of any size."""
    doc = json.loads(VALID_MODEL)
    key = draw(st.sampled_from(["mean", "std", "hidden", "output"]))
    numbers = lambda n: draw(st.lists(finite, min_size=n, max_size=n))
    if key == "hidden":
        doc["hidden"] = [numbers(len(row)) for row in doc["hidden"]]
    elif key == "output":
        doc["output"] = numbers(len(doc["output"]))
    else:
        doc["norm"][key] = numbers(len(doc["norm"][key]))
    return json.dumps(doc)


truth_docs = st.fixed_dictionaries({}, optional={
    "frame_count": json_values, "fps": json_values,
    "events": json_values | st.lists(st.fixed_dictionaries({}, optional={
        "start_frame": json_values, "duration": json_values}), max_size=3)})


def as_bytes(data) -> bytes:
    return data if isinstance(data, bytes) else data.encode("utf-8")


@pytest.fixture(scope="module")
def scoring_inputs(tmp_path_factory):
    """(clip, sample table, model path) for the CLI runs of the model fuzz."""
    work = tmp_path_factory.mktemp("scoring")
    clip = work / "clip.y4m"
    clip.write_bytes(y4m_bytes(make_sequence(np.random.default_rng(5), count=30)))
    table = work / "samples.csv"
    table.write_text(VALID_CSV)
    return str(clip), str(table), work / "model.json"


def refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


class TestFuzz:
    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(data=texts(VALID_MODEL, model_docs) | extreme_models())
    @example(data=b"\xff")
    @example(data=DEEP)
    @example(data="1" * 5000)
    @example(data=VALID_MODEL.replace('"schema": 1', '"schema": true'))
    @example(data=RAGGED_MODEL)
    @example(data=json.dumps({**json.loads(VALID_MODEL), "output": [1e308] * 4}))
    def test_model_json(self, scoring_inputs, data):
        try:
            load_model(data)
        except JerkmeterError:
            return
        # A model that loads scores a clip and a table either with exit 0 and
        # finite numbers (strict JSON, nothing on stderr, with --json), or
        # with exit 2 and one error line; never with a numpy warning.
        clip, table, model = scoring_inputs
        model.write_bytes(as_bytes(data))
        for argv, mode in itertools.product(
                (["score", clip], ["eval", "--data", table]), ([], ["--json"])):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = run(argv + ["--model", str(model)] + mode)
            if code == 0 and mode:
                json.loads(out.getvalue(), parse_constant=refuse_constant)
                assert err.getvalue() == ""
            elif code == 0:
                assert "inf" not in out.getvalue() and "nan" not in out.getvalue()
            else:
                assert code == 2 and out.getvalue() == ""
                assert err.getvalue().startswith("jerkmeter: error: ")
                assert err.getvalue().count("\n") == 1

    @seed(20261018)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=mutated(VALID_CSV) | st.binary(max_size=40)
           | st.lists(st.text(max_size=6), max_size=16).map(",".join))
    @example(data="id,source_id,dmos\n" + HUGE_FIELD + ",a,1\n")
    @example(data=b"id,source_id,dmos\nx,\xff,1\n")
    @example(data="\ufeff" + VALID_CSV)
    def test_sample_csv(self, tmp_path, data):
        path = tmp_path / "samples.csv"  # rewritten for every input
        path.write_bytes(as_bytes(data))
        try:
            load_samples_csv(path)
        except JerkmeterError:
            pass

    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(data=texts(VALID_TRUTH, truth_docs))
    @example(data='{"frame_count": 1e999, "events": []}')
    @example(data=DEEP)
    @example(data="{")
    @example(data=b'{"frame_count": 3, "events": [], "fps": "\xff"}')
    @example(data='{"frame_count": 40, "events": [{"start_frame": 10.9, "duration": 4}]}')
    @example(data='{"frame_count": 40.5, "events": []}')
    @example(data='{"frame_count": 40, "events": [], "fps": "nan"}')
    @example(data='{"frame_count": 40, "events": [], "fps": NaN}')
    @example(data='{"frame_count": "40", "events": []}')
    @example(data='{"frame_count": 40, "events": [{"start_frame": 10, "duration": true}]}')
    def test_truth_json(self, data):
        handle = io.TextIOWrapper(io.BytesIO(as_bytes(data)), encoding="utf-8")
        try:
            timeline = _timeline_from_doc(handle)
        except ConfigError:
            return
        assert isinstance(timeline, FreezeTimeline)
        # A timeline only for exactly what the document states: frame numbers
        # that are JSON integers, a finite JSON number for fps; nothing rounded.
        doc = json.loads(as_bytes(data).decode("utf-8"))
        stated = [doc["frame_count"]] + [
            ev[key] for ev in doc["events"] for key in ("start_frame", "duration")]
        parsed = [timeline.frame_count] + [
            n for ev in timeline.events for n in (ev.start_frame, ev.duration)]
        assert all(type(n) is int for n in stated) and parsed == stated
        fps = doc.get("fps", 0.0)
        assert type(fps) in (int, float) and timeline.fps == fps


class TestHandFoundCases:
    @pytest.mark.parametrize("data", [b"\xff{}", DEEP.encode()],
                             ids=["not-utf8", "deep"])
    def test_model_document_errors(self, data):
        with pytest.raises(ModelFormatError) as exc:
            load_model(data)
        assert exc.value.field == "document"

    @pytest.mark.parametrize("data,message", [
        ("id,source_id,dmos\nx,y,1\n" + HUGE_FIELD + ",a,1\n",
         "CSV line 3: field larger than field limit"),
        (b"id,source_id,dmos\nx,y,1\nx,\xff,1\n", "CSV line 3 is not UTF-8"),
    ], ids=["huge-field", "not-utf8"])
    def test_csv_errors_name_the_line(self, tmp_path, data, message):
        path = tmp_path / "samples.csv"
        path.write_bytes(as_bytes(data))
        with pytest.raises(ConfigError, match=message):
            load_samples_csv(path)

    def test_csv_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_bytes(("\ufeff" + VALID_CSV).encode("utf-8"))
        samples = load_samples_csv(path)
        assert [s.sample_id for s in samples] == ["s0", "s1", "s2"]


@pytest.fixture
def clip(tmp_path, rng):
    path = tmp_path / "clip.y4m"
    path.write_bytes(y4m_bytes(make_sequence(rng, count=6, width=8, height=8)))
    return path


class TestCli:
    """Malformed files through `cli.run`: exit 1 or 2, never a traceback."""

    @pytest.mark.parametrize("command,data,code", [
        ("score", b"\xff", 2),
        ("score", DEEP, 2),
        ("detect", '{"frame_count": 1e999, "events": []}', 1),
        ("detect", DEEP, 1),
        ("detect", '{"frame_count": 6, ', 1),
        ("detect", '{"frame_count": 6.5, "events": []}', 1),
        ("detect", '{"frame_count": 6, "events": [], "fps": "nan"}', 1),
        ("eval", "id,source_id,dmos\n" + HUGE_FIELD + ",a,1\n", 1),
        ("eval", b"id,source_id,dmos\n\xff,a,1\n", 1),
    ], ids=["model-not-utf8", "model-deep", "truth-overflow", "truth-deep",
            "truth-syntax", "truth-fractional-count", "truth-fps-string",
            "csv-huge-field", "csv-not-utf8"])
    def test_malformed_file(self, clip, tmp_path, capsys, command, data, code):
        path = tmp_path / "input"
        path.write_bytes(as_bytes(data))
        argv = {"score": ["score", str(clip), "--model", str(path)],
                "detect": ["detect", str(clip), "--truth", str(path)],
                "eval": ["eval", "--data", str(path)]}[command]
        capsys.readouterr()
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("jerkmeter: error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_model_output_beyond_the_float_range(self, clip, tmp_path, capsys, mode):
        # Every number is finite, but the score is 1e308 * (h1 + h2 + h3) = inf.
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**json.loads(VALID_MODEL), "output": [1e308] * 4}))
        capsys.readouterr()
        assert run(["score", str(clip), "--model", str(path)] + mode) == 2
        assert capsys.readouterr() == (
            "", "jerkmeter: error: the model's output is inf, not a finite number\n")

    def test_model_meta_nan_is_refused(self, clip, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(VALID_MODEL.replace('"placeholder"', "NaN"))
        capsys.readouterr()
        assert run(["score", str(clip), "--model", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "jerkmeter: error: bad model field 'meta': NaN and Infinity are not JSON\n")

    @pytest.mark.parametrize("column,dmos,message", [
        ("rFD", 1.0, "feature rFD is too large to normalize"),
        (None, 1e300, "the DMOS values are too large to fit: a squared deviation "
                      "from their mean is not finite"),
    ], ids=["feature", "dmos"])
    def test_train_table_beyond_the_float_range(self, tmp_path, column, dmos, message):
        # Finite cells whose sums of squares overflow: one error line, exit 2,
        # no numpy warning.
        rows = [{name: 0.1 * ((i * (k + 3)) % 7) for k, name in enumerate(FEATURE_NAMES)}
                for i in range(20)]
        for i, row in enumerate(rows):
            row["dmos"] = dmos * (-1) ** i
            if column:
                row[column] = 1e308 * (-1) ** i
        table = tmp_path / "samples.csv"
        table.write_text("id,source_id,dmos," + ",".join(FEATURE_NAMES) + "\n" + "".join(
            f"s{i},src{i % 5},{row['dmos']!r},"
            + ",".join(repr(row[name]) for name in FEATURE_NAMES) + "\n"
            for i, row in enumerate(rows)))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = run(["train", "--data", str(table), "--out", str(tmp_path / "m.json"),
                        "--subset-sizes", "1,2", "--hidden", "1", "--folds", "4",
                        "--lm-max-iters", "10", "--lm-restarts", "1", "--threads", "1"])
        assert (code, out.getvalue(), err.getvalue()) == (
            2, "", f"jerkmeter: error: {message}\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("schema", ["true", "1.0"])
    def test_model_schema_is_the_json_integer_1(self, clip, tmp_path, capsys, schema):
        path = tmp_path / "model.json"
        path.write_text(VALID_MODEL.replace('"schema": 1', f'"schema": {schema}'))
        capsys.readouterr()
        assert run(["score", str(clip), "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "jerkmeter: error: bad model field 'schema': expected 1\n"
