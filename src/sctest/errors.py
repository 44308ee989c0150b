"""Exception types shared across the package."""


class SctestError(Exception):
    """Base class for all package-specific errors."""


# -- bytecode ---------------------------------------------------------------

class DecodeError(SctestError):
    pass


class TruncatedImmediate(DecodeError):
    """A PUSH immediate runs past the end of the bytecode."""

    def __init__(self, offset: int, want: int, have: int):
        super().__init__(
            f"PUSH at offset {offset} needs {want} immediate bytes, {have} left"
        )
        self.offset = offset
        self.want = want
        self.have = have


class SchemaError(SctestError):
    """Malformed abi.json or world.json; `path` is a JSON-path-ish
    location string within the file."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class MissingBodyRange(SctestError):
    """A function has no body range and none could be inferred."""

    def __init__(self, function: str):
        super().__init__(f"function {function} has no body range")
        self.function = function


# -- abi value encoding -----------------------------------------------------

class AbiEncodeError(SctestError):
    pass


class ArityMismatch(AbiEncodeError):
    pass


class TypeMismatch(AbiEncodeError):
    pass


class ValueOutOfRange(AbiEncodeError):
    pass


# -- evm --------------------------------------------------------------------

class EvmError(SctestError):
    pass


class DuplicateAddress(EvmError):
    pass


class AddressInUse(EvmError):
    pass


class UnknownDestination(EvmError):
    pass


class MalformedCalldata(EvmError):
    """Calldata shorter than a 4-byte selector."""


class InsufficientBalance(EvmError):
    pass


# -- fuzzing ----------------------------------------------------------------

class EmptyAbi(SctestError):
    pass
