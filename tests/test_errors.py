import inspect
import pickle

import pytest

from jerkmeter import errors

# Constructor arguments of the classes that take more than a message.
ARGS = {
    errors.ParseError: (17, "bad tag"),
    errors.TruncatedFrame: (3,),
    errors.TrailingBytes: (5,),
    errors.ModelFormatError: ("hidden", "wrong shape"),
}

CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
           if issubclass(c, errors.JerkmeterError)]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_round_trips_through_pickle(cls):
    exc = cls(*ARGS.get(cls, ("something went wrong",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_model_format_error_without_reason():
    exc = pickle.loads(pickle.dumps(errors.ModelFormatError("bias")))
    assert str(exc) == "bad model field 'bias'"
