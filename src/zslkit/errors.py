"""Exception hierarchy. Everything derives from ValueError so callers that
do not care about the distinction can catch broadly."""


class ZslError(ValueError):
    """Base class for all errors raised by zslkit."""


def refuse(error: type[ZslError], violations: list[str]) -> None:
    """Raise the first of a rule's `violations`, if any, as `error`."""
    if violations:
        raise error(violations[0])


class ShapeMismatchError(ZslError):
    """Array dimensions disagree with the model or with each other."""


class EmptyClassSetError(ZslError):
    """An operation needing candidate classes received none."""


class UnseenLabelError(ZslError):
    """A training label refers to a class outside the training class set."""


class SchemaMismatchError(ZslError):
    """An attribute assignment names an attribute or value the schema lacks."""


class IncompleteAssignmentError(ZslError):
    """A schema attribute has no chosen value in an assignment."""


class MissingNodeError(ZslError):
    """A taxonomy node id does not exist in the tree."""


class NonLeafError(ZslError):
    """A taxonomy encoding was requested for an internal node."""


class OutOfVocabularyError(ZslError):
    """No usable word vector for a name; carries the missing tokens."""

    def __init__(self, message, missing=()):
        super().__init__(message)
        self.missing = tuple(missing)


class IncompleteCoverageError(ZslError):
    """A class is absent from a required source or embedding set."""


class SplitViolationError(ZslError):
    """Class splits overlap or an instance label falls outside every split."""


class DegenerateFeatureError(ZslError):
    """A zero feature vector cannot be length-normalized."""


class AlignmentError(ZslError):
    """Paired sequences (predictions vs labels) differ in length or are empty."""


class ParseError(ZslError):
    """A data file is malformed; carries the path and 1-based line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line
        self.message = message

    def __reduce__(self):
        return type(self), (self.path, self.line, self.message)


class DivergenceError(ZslError):
    """Training produced a non-finite loss or parameters; the message names
    the iteration."""


class ConfigError(ZslError):
    """An experiment config contains unknown keys or unparseable values."""
