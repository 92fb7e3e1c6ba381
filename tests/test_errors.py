import inspect
import pickle

import pytest

from zslkit import errors

# One instance of every ZslError subclass; the two with extra attributes
# are built through their own constructors.
SUBCLASSES = sorted((cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                     if issubclass(cls, errors.ZslError)), key=lambda cls: cls.__name__)
BUILT = {errors.ParseError: lambda: errors.ParseError("data/f.txt", 3, "bad"),
         errors.OutOfVocabularyError: lambda: errors.OutOfVocabularyError(
             "no vector for 'a b'", ["a", "b"])}


@pytest.mark.parametrize("cls", SUBCLASSES, ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    """A forked child sends the error it raised through a pipe: the copy has
    the type, the message and the attributes of the original."""
    error = BUILT.get(cls, lambda: cls("something is wrong"))()
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy) == vars(error)


def test_extra_attributes_kept():
    parse = pickle.loads(pickle.dumps(BUILT[errors.ParseError]()))
    assert (str(parse), parse.path, parse.line) == ("data/f.txt:3: bad", "data/f.txt", 3)
    oov = pickle.loads(pickle.dumps(BUILT[errors.OutOfVocabularyError]()))
    assert oov.missing == ("a", "b")
