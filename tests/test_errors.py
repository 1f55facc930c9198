"""The error taxonomy: every package error survives a pickle round trip,
which is how an error raised in a forked verify worker reaches the parent."""

import copy
import pickle
from fractions import Fraction

import pytest

from cscbif import errors
from cscbif.errors import CscbifError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# classes whose constructor words the message from other arguments; every
# other class takes its message alone
EXAMPLES = {
    errors.NondiscreteDegeneracyError: lambda: errors.NondiscreteDegeneracyError(
        (Fraction(2), Fraction(2))),
    errors.ConfigurationError: lambda: errors.ConfigurationError(
        "must be positive, got 0", path="continuation.ds"),
    errors.NoConvergenceError: lambda: errors.NoConvergenceError(
        "line search stalled", positivity_boundary=True),
}

CLASSES = sorted({CscbifError, *_subclasses(CscbifError)}, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("trip", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy],
                         ids=["pickle", "copy"])
def test_every_package_error_round_trips_with_its_text_and_attributes(cls, trip):
    error = EXAMPLES.get(cls, lambda: cls("the operation failed"))()
    back = trip(error)
    assert type(back) is cls
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)


def test_the_examples_name_package_classes():
    assert set(EXAMPLES) <= set(CLASSES)
    assert all(cls.__module__ == errors.__name__ for cls in CLASSES)
