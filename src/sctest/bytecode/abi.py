"""ABI manifest parsing, canonical types, and call-data argument encoding.

Supported types: uintN (N in {8,16,32,64,128,256}), address, bool, bytes,
and one-dimensional uintN arrays.
"""

from dataclasses import dataclass
from functools import cached_property

from ..errors import ArityMismatch, SchemaError, TypeMismatch, ValueOutOfRange
from .hashing import selector as _selector

_UINT_BITS = (8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class AbiType:
    kind: str  # "uint" | "address" | "bool" | "bytes" | "array"
    bits: int = 256  # uint width, or element width for arrays

    @staticmethod
    def parse(text: str) -> "AbiType":
        t = text.strip()
        if t.endswith("[]"):
            elem = AbiType.parse(t[:-2])
            if elem.kind != "uint":
                raise ValueError(f"unsupported array element type {t!r}")
            return AbiType("array", elem.bits)
        if t == "address":
            return AbiType("address", 160)
        if t == "bool":
            return AbiType("bool", 8)
        if t == "bytes":
            return AbiType("bytes", 8)
        if t.startswith("uint"):
            try:
                bits = int(t[4:])
            except ValueError:
                raise ValueError(f"unknown type {t!r}") from None
            if bits not in _UINT_BITS:
                raise ValueError(f"unsupported uint width {t!r}")
            return AbiType("uint", bits)
        raise ValueError(f"unknown type {t!r}")

    def canonical(self) -> str:
        if self.kind == "uint":
            return f"uint{self.bits}"
        if self.kind == "array":
            return f"uint{self.bits}[]"
        return self.kind

    @property
    def is_dynamic(self) -> bool:
        return self.kind in ("bytes", "array")

    @property
    def word_bits(self) -> int:
        """Value width of a static argument's word (a bool is 0 or 1)."""
        return 1 if self.kind == "bool" else self.bits

    def default(self):
        return {"uint": 0, "address": 0, "bool": False, "bytes": b"", "array": ()}[
            self.kind
        ]

    def validate(self, value) -> None:
        """Raise TypeMismatch/ValueOutOfRange unless value fits this type."""
        k = self.kind
        if k == "uint" or k == "address":
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeMismatch(f"{self.canonical()} needs an integer")
            limit = 1 << (160 if k == "address" else self.bits)
            if not 0 <= value < limit:
                raise ValueOutOfRange(f"{value} out of range for {self.canonical()}")
        elif k == "bool":
            if not isinstance(value, int) or value not in (0, 1):
                raise TypeMismatch("bool needs true/false")
        elif k == "bytes":
            if not isinstance(value, (bytes, bytearray)):
                raise TypeMismatch("bytes needs a byte-string")
        elif k == "array":
            if not isinstance(value, (list, tuple)):
                raise TypeMismatch(f"{self.canonical()} needs a list")
            limit = 1 << self.bits
            for v in value:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise TypeMismatch(f"uint{self.bits} needs an integer")
                if not 0 <= v < limit:
                    raise ValueOutOfRange(f"{v} out of range for uint{self.bits}")
        else:  # pragma: no cover
            raise TypeMismatch(f"unhandled kind {k}")


@dataclass(frozen=True)
class FunctionSig:
    name: str
    params: tuple[AbiType, ...]
    entry_offset: int | None = None
    body_range: tuple[int, int] | None = None
    is_property: bool = False
    param_names: tuple[str, ...] = ()

    def __post_init__(self):
        # accept type names as strings for convenience
        coerced = tuple(
            AbiType.parse(p) if isinstance(p, str) else p for p in self.params
        )
        object.__setattr__(self, "params", coerced)
        if not self.param_names:
            names = tuple(f"arg{i}" for i in range(len(coerced)))
            object.__setattr__(self, "param_names", names)
        elif len(self.param_names) != len(coerced):
            raise ValueError(
                f"{self.name}: {len(self.param_names)} names for "
                f"{len(coerced)} params"
            )
        else:  # arguments are keyed by name (ArgLayout, symexpr)
            for k, n in enumerate(self.param_names):
                if n in self.param_names[:k]:
                    raise ValueError(f"{self.name}: parameter name {n!r} repeats")

    @cached_property
    def signature(self) -> str:
        return f"{self.name}({','.join(p.canonical() for p in self.params)})"

    @cached_property
    def selector(self) -> bytes:
        return _selector(self.signature)


def parse_abi(manifest: dict) -> list[FunctionSig]:
    """Parse an abi.json document; SchemaError carries a JSON-path location."""
    if not isinstance(manifest, dict) or "functions" not in manifest:
        raise SchemaError("$", "expected an object with a 'functions' list")
    entries = manifest["functions"]
    if not isinstance(entries, list):
        raise SchemaError("$.functions", "expected a list")
    sigs: list[FunctionSig] = []
    seen: set[str] = set()
    for i, entry in enumerate(entries):
        path = f"$.functions[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{path}.name", "missing or empty")
        raw_params = entry.get("params", [])
        if not isinstance(raw_params, list):
            raise SchemaError(f"{path}.params", "expected a list")
        params = []
        for j, p in enumerate(raw_params):
            try:
                params.append(AbiType.parse(p))
            except (ValueError, AttributeError, TypeError):
                raise SchemaError(f"{path}.params[{j}]", f"unknown type {p!r}") from None
        entry_offset = entry.get("entry_offset")
        if entry_offset is not None and (
            not isinstance(entry_offset, int) or entry_offset < 0
        ):
            raise SchemaError(f"{path}.entry_offset", "expected a non-negative int")
        body_range = entry.get("body_range")
        if body_range is not None:
            ok = (
                isinstance(body_range, list)
                and len(body_range) == 2
                and all(isinstance(x, int) and x >= 0 for x in body_range)
                and body_range[0] <= body_range[1]
            )
            if not ok:
                raise SchemaError(f"{path}.body_range", "expected [start, end]")
            body_range = (body_range[0], body_range[1])
        is_property = entry.get("is_property")
        if is_property is None:
            is_property = name.startswith("prop_")
        elif not isinstance(is_property, bool):
            raise SchemaError(f"{path}.is_property", "expected a bool")
        param_names = entry.get("param_names", [])
        if not isinstance(param_names, list) or not all(
            isinstance(n, str) and n for n in param_names
        ):
            raise SchemaError(f"{path}.param_names", "expected a list of names")
        try:
            sig = FunctionSig(
                name,
                tuple(params),
                entry_offset,
                body_range,
                is_property,
                tuple(param_names),
            )
        except ValueError as e:  # a name count or a repeated name
            raise SchemaError(f"{path}.param_names", str(e)) from None
        if sig.signature in seen:
            raise SchemaError(path, f"duplicate function {sig.signature}")
        seen.add(sig.signature)
        sigs.append(sig)
    return sigs


def _word(v: int) -> bytes:
    return v.to_bytes(32, "big")


def encode_args(params: tuple[AbiType, ...], args) -> bytes:
    """Standard head/tail ABI encoding of args (selector not included).

    Every argument is validated before its word is built.  Static
    arguments are their own head word; a dynamic one's head is the byte
    offset of its tail, counted from the start of the heads.  With no
    dynamic argument the encoding is just the joined head words."""
    args = tuple(args)
    if len(args) != len(params):
        raise ArityMismatch(f"expected {len(params)} args, got {len(args)}")
    words: list[bytes] = []
    tails: list[bytes] = []
    offset = 32 * len(params)
    for t, v in zip(params, args):
        t.validate(v)
        kind = t.kind
        if kind == "bytes":
            payload = bytes(v)
            tail = _word(len(payload)) + payload.ljust(
                (len(payload) + 31) // 32 * 32, b"\x00"
            )
        elif kind == "array":
            tail = _word(len(v)) + b"".join([_word(int(x)) for x in v])
        else:
            if kind == "bool":
                v = 1 if v else 0
            words.append(v.to_bytes(32, "big"))
            continue
        words.append(_word(offset))
        tails.append(tail)
        offset += len(tail)
    return b"".join(words + tails)


def encode_call(sig: FunctionSig, args) -> bytes:
    return sig.selector + encode_args(sig.params, args)
