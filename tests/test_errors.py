import copy
import inspect
import pickle

import pytest

from hpflow import errors

# constructor arguments of the errors that take more than a message
ARGS = {
    errors.NonlocalityError: ("blk", 1.0, 2.0, 1e-8),
    errors.BlowUpError: (0.5,),
}
CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception) and cls.__module__ == errors.__name__
]


def test_every_error_class_is_covered():
    assert set(ARGS) <= set(CLASSES) and len(CLASSES) == 6


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize(
    "roundtrip",
    [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_errors_survive_pickle_and_copy(cls, roundtrip):
    exc = cls(*ARGS.get(cls, ("a typed error",)))
    exc.hierarchy_level = 2  # set after construction, as hierarchy_flows does
    out = roundtrip(exc)
    assert type(out) is cls
    assert str(out) == str(exc) and out.args == exc.args
    assert vars(out) == vars(exc) and out.hierarchy_level == 2
