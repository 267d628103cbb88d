"""Exception hierarchy.  Every error carries a stable machine-readable code,
used by the CLI to pick exit statuses."""


class UargError(Exception):
    code = "ERROR"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ParseError(UargError):
    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UndeclaredArgumentError(UargError):
    code = "UNDECLARED_ARGUMENT"


class MemberNotInAFError(UargError):
    code = "MEMBER_NOT_IN_AF"


class UncertaintyBoundExceededError(UargError):
    code = "UNCERTAINTY_BOUND_EXCEEDED"


class TargetNotSubsetError(UargError):
    code = "TARGET_NOT_SUBSET"


class TargetNotRepresentableError(UargError):
    # Degenerate corner: an empty target over a framework without uncertain
    # arguments cannot be cut out by any dependency set.
    code = "TARGET_NOT_REPRESENTABLE"


class InvalidTheoryError(UargError):
    code = "INVALID_THEORY"


class GenerationLimitExceededError(UargError):
    code = "GENERATION_LIMIT_EXCEEDED"


class ArgumentNotOfTheoryError(UargError):
    code = "ARGUMENT_NOT_OF_THEORY"


class PreferenceUnknownArgumentError(UargError):
    code = "PREFERENCE_REFERS_TO_UNKNOWN_ARGUMENT"


class MixedUncertaintyError(UargError):
    code = "MIXED_UNCERTAINTY"


class DomainMismatchError(UargError):
    code = "DOMAIN_MISMATCH"


class SearchBoundExceededError(UargError):
    code = "SEARCH_BOUND_EXCEEDED"


class UnsupportedDirectionError(UargError):
    code = "UNSUPPORTED_DIRECTION"


class InputError(UargError):
    # An input file that cannot be read, an unknown fixture name, or an
    # input of the wrong framework kind.
    code = "INPUT_ERROR"


class InvalidLimitError(UargError):
    code = "INVALID_LIMIT"


#: Errors that signal a blown resource bound rather than bad input.
RESOURCE_ERRORS = (
    UncertaintyBoundExceededError,
    GenerationLimitExceededError,
    SearchBoundExceededError,
)
