"""The fuzz-target DSL: parsing, validation, and the initial seed target.

A target file (.ft) is line oriented:

    target <ident>
    alias <ident> = <0x-address>
    setup:
        call <fn>(<args>) [from <alias>] [value <u256>] [delay <u64>]
    fuzz:
        call <fn>(<args>) ...
    order fixed|shuffle

'#' starts a comment.  Arguments are decimal or hex integers, true/false,
declared aliases, [v1,v2,...] arrays, or 0x byte-strings.  Inside fuzz
calls an argument may be written `?<name>:<type>=<seed>` to mark that
parameter mutable.

Validation reports every error it can find, each with a stable code:
E000 syntax, E001 unknown function, E002 arity mismatch, E003 type
mismatch, E004 unknown alias, E005 value out of range.
"""

import re

from ..bytecode.abi import AbiType, FunctionSig
from ..errors import EmptyAbi
from ..evm.types import normalize_args
from ..record import Record, setfield

_U256 = (1 << 256) - 1
_U64 = (1 << 64) - 1

_IDENT = r"[A-Za-z_]\w*"
_CALL_RE = re.compile(rf"call\s+({_IDENT})\s*\((.*)\)\s*(.*)$")
_ALIAS_RE = re.compile(rf"alias\s+({_IDENT})\s*=\s*(\S+)\s*$")
_TARGET_RE = re.compile(rf"target\s+({_IDENT})\s*$")
_ORDER_RE = re.compile(r"order\s+(\S+)\s*$")
_MUTABLE_RE = re.compile(rf"\?({_IDENT}):([A-Za-z0-9\[\]]+)=(.+)$", re.S)
_TAIL_RE = re.compile(r"(from|value|delay)\s+(\S+)")


class CompileError(Record):
    _fields = ("code", "line", "col", "message")

    def __init__(self, code: str, line: int, col: int, message: str):
        setfield(self, "code", code)  # E000..E005
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "message", message)

    def render(self) -> str:
        return f"{self.code} line {self.line} col {self.col}: {self.message}"


class ConcreteCall(Record):
    """One call of a target; its args pass normalize_args."""

    _fields = ("function", "args", "sender", "value", "delay")

    def __init__(
        self,
        function: str,
        args: tuple,
        sender: str | None = None,  # alias; resolved at execution time
        value: int = 0,
        delay: int = 0,
    ):
        setfield(self, "function", function)
        setfield(self, "args", normalize_args(args, function))
        setfield(self, "sender", sender)
        setfield(self, "value", value)
        setfield(self, "delay", delay)


class FuzzCall(ConcreteCall):
    _fields = ConcreteCall._fields + ("mutable_params",)

    def __init__(
        self,
        function: str,
        args: tuple,
        sender: str | None = None,
        value: int = 0,
        delay: int = 0,
        mutable_params: tuple[str, ...] = (),
    ):
        super().__init__(function, args, sender, value, delay)
        setfield(self, "mutable_params", mutable_params)


class FuzzTarget(Record):
    _fields = ("name", "address_aliases", "setup", "fuzz", "order_mode")

    def __init__(
        self,
        name: str,
        address_aliases: dict[str, int] | None = None,
        setup: tuple[ConcreteCall, ...] = (),
        fuzz: tuple[FuzzCall, ...] = (),
        order_mode: str = "fixed",  # "fixed" | "shuffle"
    ):
        setfield(self, "name", name)
        setfield(
            self, "address_aliases", {} if address_aliases is None else address_aliases
        )
        setfield(self, "setup", setup)
        setfield(self, "fuzz", fuzz)
        setfield(self, "order_mode", order_mode)


def _split_args(text: str) -> list[tuple[str, int]]:
    """Comma-split at bracket depth zero; returns (token, column offset)."""
    out = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append((text[start:i], start))
            start = i + 1
    tail = text[start:]
    if tail.strip() or out:
        out.append((tail, start))
    return [(tok.strip(), off + len(tok) - len(tok.lstrip())) for tok, off in out]


class _LineParser:
    """Parses one target document, accumulating every error it finds."""

    def __init__(self, text: str, abi: list[FunctionSig]):
        self.text = text
        self.by_name = {s.name: s for s in abi}
        self.errors: list[CompileError] = []
        self.aliases: dict[str, int] = {}
        self.name: str | None = None
        self.order: str | None = None
        self.setup: list[ConcreteCall] = []
        self.fuzz: list[FuzzCall] = []
        self.section: str | None = None

    def error(self, code: str, line: int, col: int, message: str) -> None:
        self.errors.append(CompileError(code, line, col, message))

    # -- literal parsing ------------------------------------------------

    def _parse_int(self, token: str) -> int | None:
        try:
            return int(token, 0)
        except ValueError:
            return None

    def _parse_value(self, token: str, ty: AbiType, line: int, col: int):
        """One argument against one declared type; None on reported error."""
        kind = ty.kind
        if kind in ("uint", "address"):
            if token in self.aliases:
                if kind != "address":
                    self.error(
                        "E003", line, col,
                        f"alias {token} where {ty.canonical()} expected",
                    )
                    return None
                return self.aliases[token]
            if re.fullmatch(_IDENT, token) and token not in ("true", "false"):
                self.error("E004", line, col, f"unknown alias {token}")
                return None
            v = self._parse_int(token)
            if v is None:
                self.error(
                    "E003", line, col, f"{token!r} is not a {ty.canonical()}"
                )
                return None
            limit = 1 << (160 if kind == "address" else ty.bits)
            if not 0 <= v < limit:
                self.error(
                    "E005", line, col, f"{v} out of range for {ty.canonical()}"
                )
                return None
            return v
        if kind == "bool":
            if token == "true":
                return True
            if token == "false":
                return False
            self.error("E003", line, col, f"{token!r} is not a bool")
            return None
        if kind == "bytes":
            if re.fullmatch(r"0x(?:[0-9a-fA-F]{2})*", token):
                return bytes.fromhex(token[2:])
            self.error("E003", line, col, f"{token!r} is not a byte-string")
            return None
        if kind == "array":
            if not (token.startswith("[") and token.endswith("]")):
                self.error("E003", line, col, f"{token!r} is not an array")
                return None
            inner = token[1:-1].strip()
            elems = []
            elem_ty = AbiType("uint", ty.bits)
            if inner:
                for part, off in _split_args(inner):
                    v = self._parse_value(part, elem_ty, line, col + 1 + off)
                    if v is None:
                        return None
                    elems.append(v)
            return tuple(elems)
        self.error("E003", line, col, f"unsupported type {ty.canonical()}")
        return None

    # -- call lines ------------------------------------------------------

    def _parse_tail(self, tail: str, line: int, base_col: int):
        sender, value, delay = None, 0, 0
        for m in _TAIL_RE.finditer(tail):
            word, tok = m.group(1), m.group(2)
            col = base_col + m.start(2) + 1
            if word == "from":
                if tok not in self.aliases:
                    self.error("E004", line, col, f"unknown alias {tok}")
                else:
                    sender = tok
            else:
                v = self._parse_int(tok)
                if v is None:
                    self.error("E000", line, col, f"bad {word} amount {tok!r}")
                    continue
                limit = _U256 if word == "value" else _U64
                if not 0 <= v <= limit:
                    self.error("E005", line, col, f"{word} {v} out of range")
                    continue
                if word == "value":
                    value = v
                else:
                    delay = v
        leftover = _TAIL_RE.sub("", tail).strip()  # what no clause matched
        if leftover:
            self.error(
                "E000", line, base_col + 1, f"unexpected trailing text {leftover!r}"
            )
        return sender, value, delay

    def _parse_call(self, stripped: str, line: int, indent: int) -> None:
        m = _CALL_RE.match(stripped)
        if not m:
            self.error("E000", line, indent + 1, "malformed call line")
            return
        fn_name, arg_text, tail = m.group(1), m.group(2), m.group(3)
        sig = self.by_name.get(fn_name)
        if sig is None:
            self.error(
                "E001", line, indent + m.start(1) + 1,
                f"unknown function {fn_name}",
            )
            return

        tokens = _split_args(arg_text)
        if len(tokens) != len(sig.params):
            self.error(
                "E002", line, indent + m.start(2) + 1,
                f"{fn_name} takes {len(sig.params)} args, got {len(tokens)}",
            )
            return

        args = []
        mutable: list[str] = []
        ok = True
        args_col = indent + m.start(2) + 1
        for i, (token, off) in enumerate(tokens):
            col = args_col + off
            ty = sig.params[i]
            if token.startswith("?"):
                if self.section != "fuzz":
                    self.error(
                        "E000", line, col,
                        "mutable parameters only belong in fuzz calls",
                    )
                    ok = False
                    continue
                mm = _MUTABLE_RE.match(token)
                if not mm:
                    self.error("E000", line, col, f"malformed marker {token!r}")
                    ok = False
                    continue
                pname, tname, seed_tok = mm.group(1), mm.group(2), mm.group(3)
                try:
                    marker_ty = AbiType.parse(tname)
                except ValueError:
                    self.error("E000", line, col, f"unknown type {tname!r}")
                    ok = False
                    continue
                if marker_ty.canonical() != ty.canonical():
                    self.error(
                        "E003", line, col,
                        f"parameter {i + 1} of {fn_name} is {ty.canonical()},"
                        f" marker says {marker_ty.canonical()}",
                    )
                    ok = False
                    continue
                if pname != sig.param_names[i]:
                    self.error(
                        "E003", line, col,
                        f"parameter {i + 1} of {fn_name} is named"
                        f" {sig.param_names[i]!r}, marker says {pname!r}",
                    )
                    ok = False
                    continue
                seed = self._parse_value(
                    seed_tok.strip(), ty, line, col + len(token) - len(seed_tok)
                )
                if seed is None:
                    ok = False
                    continue
                mutable.append(pname)
                args.append(seed)
            else:
                v = self._parse_value(token, ty, line, col)
                if v is None:
                    ok = False
                    continue
                args.append(v)

        sender, value, delay = self._parse_tail(
            tail, line, indent + m.start(3)
        )
        if not ok:
            return
        if self.section == "fuzz":
            self.fuzz.append(
                FuzzCall(fn_name, tuple(args), sender, value, delay, tuple(mutable))
            )
        else:
            self.setup.append(
                ConcreteCall(fn_name, tuple(args), sender, value, delay)
            )

    # -- directives -------------------------------------------------------

    def _parse_directive(self, stripped: str, line: int) -> None:
        word = stripped.split(None, 1)[0]
        if word == "target":
            m = _TARGET_RE.match(stripped)
            if not m:
                self.error("E000", line, 1, "malformed target line")
            elif self.name is not None:
                self.error("E000", line, 1, "duplicate target line")
            else:
                self.name = m.group(1)
        elif word == "alias":
            m = _ALIAS_RE.match(stripped)
            if not m:
                self.error("E000", line, 1, "malformed alias line")
                return
            addr = self._parse_int(m.group(2))
            if addr is None or not m.group(2).startswith("0x"):
                self.error(
                    "E000", line, stripped.find(m.group(2)) + 1,
                    "alias needs a 0x-address",
                )
            elif not 0 <= addr < (1 << 160):
                self.error(
                    "E005", line, stripped.find(m.group(2)) + 1,
                    f"{m.group(2)} out of address range",
                )
            else:
                self.aliases[m.group(1)] = addr
        elif word in ("setup:", "fuzz:"):
            self.section = word[:-1]
        elif word == "order":
            m = _ORDER_RE.match(stripped)
            if not m or m.group(1) not in ("fixed", "shuffle"):
                self.error("E000", line, 1, "order must be fixed or shuffle")
            elif self.order is not None:
                self.error("E000", line, 1, "duplicate order line")
            else:
                self.order = m.group(1)
        else:
            self.error("E000", line, 1, f"unknown directive {word!r}")

    # -- document ---------------------------------------------------------

    def parse(self) -> "FuzzTarget | list[CompileError]":
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            indented = line[0] in " \t"
            stripped = line.strip()
            if indented or stripped.startswith("call"):
                if self.section is None:
                    self.error(
                        "E000", lineno, 1, "call outside setup:/fuzz: section"
                    )
                    continue
                self._parse_call(stripped, lineno, len(line) - len(stripped))
            else:
                self.section = None
                self._parse_directive(stripped, lineno)

        if self.name is None:
            self.error("E000", 1, 1, "missing target line")
        if self.errors:
            return sorted(self.errors, key=lambda e: (e.line, e.col, e.code))
        return FuzzTarget(
            self.name,
            dict(self.aliases),
            tuple(self.setup),
            tuple(self.fuzz),
            self.order or "fixed",
        )


def parse_target(
    text: str, abi: list[FunctionSig]
) -> "FuzzTarget | list[CompileError]":
    """Parse and validate a .ft document against an ABI.

    Returns the target when clean, otherwise every CompileError found,
    ordered by position.
    """
    return _LineParser(text, abi).parse()


def seed_initial_target(abi: list[FunctionSig]) -> FuzzTarget:
    """The signature-derived starting point: one fuzz call per non-property
    function, every parameter mutable with its type default, shuffled order."""
    actions = [s for s in abi if not s.is_property]
    if not actions:
        raise EmptyAbi("no callable functions to fuzz")
    calls = []
    for sig in actions:
        seeds = tuple(t.default() for t in sig.params)
        calls.append(FuzzCall(sig.name, seeds, None, 0, 0, sig.param_names))
    return FuzzTarget("seed", {}, (), tuple(calls), "shuffle")


def render_target(target: FuzzTarget, abi: list[FunctionSig]) -> str:
    """FuzzTarget back to canonical .ft text (round-trips through
    parse_target for any valid target)."""
    by_name = {s.name: s for s in abi}
    lines = [f"target {target.name}"]
    for alias, addr in sorted(target.address_aliases.items()):
        lines.append(f"alias {alias} = 0x{addr:040x}")

    def fmt(v, ty: AbiType) -> str:
        if ty.kind == "bool":
            return "true" if v else "false"
        if ty.kind == "bytes":
            return "0x" + v.hex()
        if ty.kind == "array":
            return "[" + ", ".join(str(x) for x in v) + "]"
        if ty.kind == "address" and v:
            return f"0x{v:040x}"
        return str(v)

    def call_line(c: ConcreteCall) -> str:
        sig = by_name[c.function]
        parts = []
        mutable = getattr(c, "mutable_params", ())
        for i, (v, ty) in enumerate(zip(c.args, sig.params)):
            if sig.param_names[i] in mutable:
                parts.append(
                    f"?{sig.param_names[i]}:{ty.canonical()}={fmt(v, ty)}"
                )
            else:
                parts.append(fmt(v, ty))
        text = f"    call {c.function}({', '.join(parts)})"
        if c.sender:
            text += f" from {c.sender}"
        if c.value:
            text += f" value {c.value}"
        if c.delay:
            text += f" delay {c.delay}"
        return text

    if target.setup:
        lines.append("setup:")
        lines.extend(call_line(c) for c in target.setup)
    lines.append("fuzz:")
    lines.extend(call_line(c) for c in target.fuzz)
    lines.append(f"order {target.order_mode}")
    return "\n".join(lines) + "\n"
