"""Pure-Python bytecode frame interpreter.

Executes one call frame over a CodeImage (sctest.evm.image) until it
halts or reaches a CALL-class instruction, at which point it pauses and
returns control to the driver (sctest.evm.engine), which resolves the
callee and resumes the frame, so the kernel never touches the world.
SHA3 calls the compiled keccak256 (sctest._kernels.keccak) through this
module's own binding.

The frame runs a straight-line run at a time.  The image's run table
gives, for each instruction offset, the run from there to the next
jump, halt, pause, SHA3 or GAS, with its summed static gas and the stack
depth it needs and rises by (folded from the gas, pops and pushes in
sctest.bytecode.opcodes.OPCODES).  When the gas left covers the run and
the stack depth is within its bounds, the kernel charges the run's gas
and records its offsets in the trace once, and the handlers run with no
gas, trace or stack code of their own.  Otherwise it steps the one
instruction at pc: it charges that instruction's gas, records it and
checks the stack against the table, and tries the next run from the
next offset.  So the gas used, the trace and the halt are those of a
one-instruction-at-a-time interpreter: a halt in the middle of a run
(a static-context write or the memory cap) gives back the gas charged
for the rest of the run and cuts the rest from the trace.

Conventions:
- all arithmetic is modulo 2^256; DIV/MOD by zero yield 0
- gas is a flat per-instruction schedule, read from the image's tables
  (Opcode.gas in sctest.bytecode.opcodes); SHA3 adds 6 per word
- memory is a flat bytearray capped at 1 MiB; exceeding the cap is
  treated as resource exhaustion (out_of_gas halt)
- stack underflow, stack overflow past 1024 words, bad jump targets,
  unknown opcodes, and writes under a static context all halt with
  kind "invalid"
- LOG0..4, CREATE/CREATE2 and SELFDESTRUCT keep their gas, stack effect
  and halts but leave no record: a LOG emits nothing, a CREATE deploys
  nothing and pushes the zero address, and SELFDESTRUCT sends nothing

Return value is a tagged tuple:
  ("halt", kind, data, gas_left)           kind: stop return revert invalid
                                                 out_of_gas selfdestruct
  ("call", kind, to, value, argdata, gas_left, state)
                                           kind: call delegatecall staticcall
To resume after a pause, pass the opaque `state` back together with
callret=(success_word, return_data).
"""

from .keccak import keccak256

MASK256 = (1 << 256) - 1
ADDR_MASK = (1 << 160) - 1
MEM_LIMIT = 1 << 20
STACK_LIMIT = 1024


def _ensure(memory: bytearray, end: int) -> bool:
    if end > MEM_LIMIT:
        return False
    if len(memory) < end:
        memory.extend(bytes(end - len(memory)))
    return True


def _unspent(image, pc: int, offs: tuple, trace: list) -> int:
    """The gas the current run `offs` charged for its instructions after
    pc, which a halt at pc never tries; they are cut from the trace."""
    if pc == offs[-1]:
        return 0
    rest = image.runs[image.nxt[pc]]  # the same run, from the next instruction on
    del trace[-len(rest[0]) :]
    return rest[1]


def run_frame(
    image,
    calldata: bytes,
    storage: dict,
    balances: dict,
    self_addr: int,
    caller: int,
    callvalue: int,
    timestamp: int,
    number: int,
    gas: int,
    static: bool,
    trace: list,
    sha_seen: list,
    state=None,
    callret=None,
):
    ops = image.code
    imm = image.imm
    nxt = image.nxt
    is_jumpdest = image.is_jumpdest
    runs = image.runs
    code_len = len(ops)
    if state is None:
        stack: list = []
        memory = bytearray()
        pc = 0
    else:
        # resume after a paused call, or seed an entry pc (callret=None)
        stack, memory, pc, out_off, out_size = state
        if callret is not None:
            success, ret = callret
            if out_size and ret:
                n = min(out_size, len(ret))
                if not _ensure(memory, out_off + n):
                    return ("halt", "out_of_gas", b"", gas)
                memory[out_off : out_off + n] = ret[:n]
            stack.append(success)

    push = stack.append
    pop = stack.pop
    record = trace.extend

    while True:
        if pc >= code_len:
            return ("halt", "stop", b"", gas)  # implicit stop off the end
        offs, cost, need, rise = runs[pc]
        depth = len(stack)
        if gas >= cost and need <= depth <= STACK_LIMIT - rise:
            gas -= cost
            record(offs)
        else:  # step the one instruction at pc, checked exactly
            cost, need, rise = image.steps[ops[pc]]
            offs = (pc,)
            gas -= cost
            if gas < 0:
                return ("halt", "out_of_gas", b"", 0)
            trace.append(pc)
            if not need <= depth <= STACK_LIMIT - rise:
                return ("halt", "invalid", b"", gas)

        # Dispatch order is execution frequency on the benchmark
        # workloads, PUSH/DUP/SWAP first (three range tests).  The tests
        # are disjoint, so the order changes speed only.  A taken jump
        # breaks out with dest set; otherwise the run falls through to
        # the offset after its last instruction.
        for pc in offs:
            op = ops[pc]
            if 0x60 <= op <= 0x7F:  # PUSH1..32
                push(imm[pc])
                continue
            if 0x80 <= op <= 0x8F:  # DUP1..16
                push(stack[0x7F - op])
                continue
            if 0x90 <= op <= 0x9F:  # SWAP1..16
                n = op - 0x8F
                stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
                continue

            if op == 0x35:  # CALLDATALOAD
                i = stack[-1]
                if i >= len(calldata):
                    stack[-1] = 0
                else:
                    chunk = calldata[i : i + 32]
                    stack[-1] = int.from_bytes(chunk.ljust(32, b"\x00"), "big")
            elif op == 0x57:  # JUMPI
                dest = pop()
                cond = pop()
                if cond:
                    if dest >= code_len or not is_jumpdest[dest]:
                        return ("halt", "invalid", b"", gas)
                    break
            elif op == 0x5B:  # JUMPDEST
                pass
            elif op == 0x01:  # ADD
                a = pop()
                stack[-1] = (a + stack[-1]) & MASK256
            elif op == 0x14:  # EQ
                a = pop()
                stack[-1] = 1 if a == stack[-1] else 0
            elif op == 0x02:  # MUL
                a = pop()
                stack[-1] = (a * stack[-1]) & MASK256
            elif op == 0x50:  # POP
                pop()
            elif op == 0x10:  # LT
                a = pop()
                stack[-1] = 1 if a < stack[-1] else 0
            elif op == 0x15:  # ISZERO
                stack[-1] = 1 if stack[-1] == 0 else 0
            elif op == 0x1C:  # SHR
                sh = pop()
                stack[-1] = stack[-1] >> sh if sh < 256 else 0
            elif op == 0x00:  # STOP
                return ("halt", "stop", b"", gas)
            elif op == 0x54:  # SLOAD
                stack[-1] = storage.get(stack[-1], 0)
            elif op == 0x56:  # JUMP
                dest = pop()
                if dest >= code_len or not is_jumpdest[dest]:
                    return ("halt", "invalid", b"", gas)
                break
            elif op == 0x16:  # AND
                a = pop()
                stack[-1] = a & stack[-1]
            elif op == 0x55:  # SSTORE
                if static:
                    return ("halt", "invalid", b"", gas + _unspent(image, pc, offs, trace))
                slot = pop()
                val = pop()
                if val:
                    storage[slot] = val
                else:
                    storage.pop(slot, None)  # zero means absent
            elif op == 0x42:  # TIMESTAMP
                push(timestamp)
            elif op == 0x52:  # MSTORE
                off = pop()
                val = pop()
                if not _ensure(memory, off + 32):
                    return ("halt", "out_of_gas", b"", gas + _unspent(image, pc, offs, trace))
                memory[off : off + 32] = val.to_bytes(32, "big")
            elif op == 0x04:  # DIV
                a = pop()
                b = stack[-1]
                stack[-1] = a // b if b else 0
            elif op == 0x20:  # SHA3, last in its run: charge the words here
                off = pop()
                size = pop()
                gas -= 6 * ((size + 31) // 32)
                if gas < 0:
                    trace.pop()  # out of gas before it ran: not traced
                    return ("halt", "out_of_gas", b"", 0)
                if size:
                    if not _ensure(memory, off + size):
                        return ("halt", "out_of_gas", b"", gas)
                    buf = bytes(memory[off : off + size])
                else:
                    buf = b""
                digest = keccak256(buf)
                sha_seen.append((buf, digest))
                push(int.from_bytes(digest, "big"))
            elif op == 0x03:  # SUB
                a = pop()
                stack[-1] = (a - stack[-1]) & MASK256
            elif op == 0xF3 or op == 0xFD:  # RETURN / REVERT
                off = pop()
                size = pop()
                if size:
                    if not _ensure(memory, off + size):
                        return ("halt", "out_of_gas", b"", gas)
                    data = bytes(memory[off : off + size])
                else:
                    data = b""
                return ("halt", "return" if op == 0xF3 else "revert", data, gas)
            elif op == 0x33:  # CALLER
                push(caller)
            elif op == 0x06:  # MOD
                a = pop()
                b = stack[-1]
                stack[-1] = a % b if b else 0
            elif op == 0x0A:  # EXP
                a = pop()
                stack[-1] = pow(a, stack[-1], 1 << 256)
            elif op == 0x11:  # GT
                a = pop()
                stack[-1] = 1 if a > stack[-1] else 0
            elif op == 0x17:  # OR
                a = pop()
                stack[-1] = a | stack[-1]
            elif op == 0x18:  # XOR
                a = pop()
                stack[-1] = a ^ stack[-1]
            elif op == 0x19:  # NOT
                stack[-1] = stack[-1] ^ MASK256
            elif op == 0x1B:  # SHL: top is shift, next is value
                sh = pop()
                stack[-1] = (stack[-1] << sh) & MASK256 if sh < 256 else 0
            elif op == 0x30:  # ADDRESS
                push(self_addr)
            elif op == 0x31:  # BALANCE
                stack[-1] = balances.get(stack[-1] & ADDR_MASK, 0)
            elif op == 0x34:  # CALLVALUE
                push(callvalue)
            elif op == 0x36:  # CALLDATASIZE
                push(len(calldata))
            elif op == 0x37:  # CALLDATACOPY
                dst = pop()
                src = pop()
                size = pop()
                if size:
                    if not _ensure(memory, dst + size):
                        return ("halt", "out_of_gas", b"", gas + _unspent(image, pc, offs, trace))
                    chunk = calldata[src : src + size] if src < len(calldata) else b""
                    chunk = chunk.ljust(size, b"\x00")
                    memory[dst : dst + size] = chunk
            elif op == 0x43:  # NUMBER
                push(number)
            elif op == 0x51:  # MLOAD
                off = stack[-1]
                if not _ensure(memory, off + 32):
                    return ("halt", "out_of_gas", b"", gas + _unspent(image, pc, offs, trace))
                stack[-1] = int.from_bytes(memory[off : off + 32], "big")
            elif op == 0x53:  # MSTORE8
                off = pop()
                val = pop()
                if not _ensure(memory, off + 1):
                    return ("halt", "out_of_gas", b"", gas + _unspent(image, pc, offs, trace))
                memory[off] = val & 0xFF
            elif op == 0x58:  # PC
                push(pc)
            elif op == 0x5A:  # GAS (remaining after this instruction's cost)
                push(gas)
            elif 0xA0 <= op <= 0xA4:  # LOG0..4: pops its offset, size and topics
                if static:
                    return ("halt", "invalid", b"", gas + _unspent(image, pc, offs, trace))
                off = pop()
                size = pop()
                del stack[len(stack) - (op - 0xA0) :]
                if size and not _ensure(memory, off + size):
                    return ("halt", "out_of_gas", b"", gas + _unspent(image, pc, offs, trace))
            elif op == 0xF0 or op == 0xF5:  # CREATE / CREATE2: deploys nothing
                if static:
                    return ("halt", "invalid", b"", gas + _unspent(image, pc, offs, trace))
                pop()  # value
                off = pop()
                size = pop()
                if op == 0xF5:
                    pop()  # salt
                if size and not _ensure(memory, off + size):
                    return ("halt", "out_of_gas", b"", gas + _unspent(image, pc, offs, trace))
                push(0)  # the zero address
            elif op == 0xF1:  # CALL
                pop()  # gas argument ignored: single shared meter
                to = pop() & ADDR_MASK
                value = pop()
                in_off = pop()
                in_size = pop()
                out_off = pop()
                out_size = pop()
                if static and value:
                    return ("halt", "invalid", b"", gas)
                if in_size:
                    if not _ensure(memory, in_off + in_size):
                        return ("halt", "out_of_gas", b"", gas)
                    arg = bytes(memory[in_off : in_off + in_size])
                else:
                    arg = b""
                return (
                    "call", "call", to, value, arg, gas,
                    (stack, memory, nxt[pc], out_off, out_size),
                )
            elif op == 0xF4 or op == 0xFA:  # DELEGATECALL / STATICCALL
                pop()  # gas argument ignored
                to = pop() & ADDR_MASK
                in_off = pop()
                in_size = pop()
                out_off = pop()
                out_size = pop()
                if in_size:
                    if not _ensure(memory, in_off + in_size):
                        return ("halt", "out_of_gas", b"", gas)
                    arg = bytes(memory[in_off : in_off + in_size])
                else:
                    arg = b""
                kind = "delegatecall" if op == 0xF4 else "staticcall"
                return (
                    "call", kind, to, callvalue if op == 0xF4 else 0, arg, gas,
                    (stack, memory, nxt[pc], out_off, out_size),
                )
            elif op == 0xFF:  # SELFDESTRUCT: a clean halt, sending nothing
                if static:
                    return ("halt", "invalid", b"", gas)
                return ("halt", "selfdestruct", b"", gas)
            else:  # INVALID and any unknown byte
                return ("halt", "invalid", b"", gas)
        else:
            pc = nxt[pc]
            continue
        pc = dest
