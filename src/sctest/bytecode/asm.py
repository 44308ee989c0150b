"""Tiny two-pass assembler for hand-built test contracts.

Labels assemble as fixed-width PUSH2 so offsets stabilize after one
layout pass.  Function markers record entry offsets and body ranges for
abi.json, and per-instruction source lines accumulate into a linemap.
"""

from .opcodes import by_name


class AsmResult:
    def __init__(
        self,
        bytecode: bytes,
        linemap: dict[int, int],  # instruction offset -> source line
        # name -> (entry, (lo, hi))
        functions: dict[str, tuple[int, tuple[int, int]]],
        labels: dict[str, int],
    ):
        self.bytecode = bytecode
        self.linemap = linemap
        self.functions = functions
        self.labels = labels


class Asm:
    def __init__(self):
        self._items: list[tuple] = []  # ("op",code,line) ("push",val,width,line)
        #  ("pushl",label,line) ("label",name) ("func",name) ("endf",name)

    # -- emitting -----------------------------------------------------------

    def op(self, mnemonic: str, line: int | None = None) -> "Asm":
        self._items.append(("op", by_name(mnemonic).code, line))
        return self

    def push(self, value: int, line: int | None = None, width: int | None = None) -> "Asm":
        if width is None:
            width = max(1, (value.bit_length() + 7) // 8)
        if not 1 <= width <= 32 or value >= 1 << (8 * width):
            raise ValueError(f"push value {value} does not fit width {width}")
        self._items.append(("push", value, width, line))
        return self

    def push_label(self, label: str, line: int | None = None) -> "Asm":
        self._items.append(("pushl", label, line))
        return self

    def jump(self, label: str, line: int | None = None) -> "Asm":
        return self.push_label(label, line).op("JUMP", line)

    def jumpi(self, label: str, line: int | None = None) -> "Asm":
        return self.push_label(label, line).op("JUMPI", line)

    def label(self, name: str) -> "Asm":
        self._items.append(("label", name))
        return self

    def func(self, name: str) -> "Asm":
        """Start a function body; also defines a label of the same name."""
        self._items.append(("func", name))
        return self

    def end_func(self, name: str) -> "Asm":
        self._items.append(("endf", name))
        return self

    def raw(self, data: bytes) -> "Asm":
        self._items.append(("raw", data))
        return self

    # -- assembly -----------------------------------------------------------

    def assemble(self) -> AsmResult:
        # pass 1: layout
        labels: dict[str, int] = {}
        starts: dict[str, int] = {}
        ends: dict[str, int] = {}
        off = 0
        for item in self._items:
            tag = item[0]
            if tag == "op":
                off += 1
            elif tag == "push":
                off += 1 + item[2]
            elif tag == "pushl":
                off += 3  # PUSH2 + 2 bytes
            elif tag == "label":
                labels[item[1]] = off
            elif tag == "func":
                labels[item[1]] = off
                starts[item[1]] = off
            elif tag == "endf":
                ends[item[1]] = off
            elif tag == "raw":
                off += len(item[1])

        # pass 2: emit
        out = bytearray()
        linemap: dict[int, int] = {}
        for item in self._items:
            tag = item[0]
            here = len(out)
            if tag == "op":
                out.append(item[1])
                if item[2] is not None:
                    linemap[here] = item[2]
            elif tag == "push":
                _, value, width, line = item
                out.append(0x5F + width)
                out.extend(value.to_bytes(width, "big"))
                if line is not None:
                    linemap[here] = line
            elif tag == "pushl":
                _, label, line = item
                if label not in labels:
                    raise ValueError(f"undefined label {label!r}")
                out.append(0x61)  # PUSH2
                out.extend(labels[label].to_bytes(2, "big"))
                if line is not None:
                    linemap[here] = line
            elif tag == "raw":
                out.extend(item[1])

        functions = {
            name: (starts[name], (starts[name], ends.get(name, len(out))))
            for name in starts
        }
        return AsmResult(bytes(out), linemap, functions, labels)


def dispatcher(asm: Asm, selectors: list[tuple[bytes, str]], fallback: str | None = None, line: int | None = None) -> Asm:
    """Standard dispatcher prologue: route by selector, then either jump
    to a fallback label or STOP (empty success) on no match."""
    asm.push(0, line).op("CALLDATALOAD", line).push(0xE0, line).op("SHR", line)
    for sel, label in selectors:
        asm.op("DUP1", line)
        asm.push(int.from_bytes(sel, "big"), line, width=4)
        asm.op("EQ", line)
        asm.jumpi(label, line)
    asm.op("POP", line)
    if fallback is not None:
        asm.jump(fallback, line)
    else:
        asm.op("STOP", line)
    return asm
