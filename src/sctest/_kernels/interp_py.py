"""Pure-Python bytecode frame interpreter.

Executes one call frame over preprocessed code arrays until it halts or
reaches a CALL-class instruction, at which point it pauses and returns
control to the driver (sctest.evm.engine), which resolves the callee and
resumes the frame, so the kernel never touches the world.  SHA3 calls
the compiled keccak256 (sctest._kernels.keccak) through this module's
own binding.

Conventions:
- all arithmetic is modulo 2^256; DIV/MOD by zero yield 0
- gas is a flat per-instruction table (see _GAS); SHA3 adds 6 per word
- memory is a flat bytearray capped at 1 MiB; exceeding the cap is
  treated as resource exhaustion (out_of_gas halt)
- stack underflow, bad jump targets, unknown opcodes, and writes under a
  static context all halt with kind "invalid"

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

# flat gas schedule: 3 default, 20 memory, 100 SLOAD, 200 SSTORE,
# 30 (+6/word) SHA3, 500 call-class
_GAS = [3] * 256
for _c in (0x51, 0x52, 0x53, 0x37):
    _GAS[_c] = 20
_GAS[0x54] = 100
_GAS[0x55] = 200
_GAS[0x20] = 30
for _c in (0xF0, 0xF1, 0xF4, 0xF5, 0xFA, 0xFF):
    _GAS[_c] = 500


def _ensure(memory: bytearray, end: int) -> bool:
    if end > MEM_LIMIT:
        return False
    if len(memory) < end:
        memory.extend(bytes(end - len(memory)))
    return True


def run_frame(
    ops: bytes,
    imm: list,
    nxt: list,
    is_jumpdest: bytes,
    code_len: int,
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
    logs: list,
    ext: list,
    sha_seen: list,
    state=None,
    callret=None,
):
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

    while True:
        if pc >= code_len:
            return ("halt", "stop", b"", gas)  # implicit stop off the end
        op = ops[pc]
        cost = _GAS[op]
        if op == 0x20 and len(stack) >= 2:
            cost += 6 * ((stack[-2] + 31) // 32)
        gas -= cost
        if gas < 0:
            return ("halt", "out_of_gas", b"", 0)
        trace.append(pc)

        # Dispatch order is execution frequency.  Of the 1.33 M
        # instructions the three benchmark workloads run at seeds 42 and
        # 77 together, PUSH/DUP/SWAP are 601k (three range tests); then
        # CALLDATALOAD 109k, JUMPI 97k, JUMPDEST 87k, ADD 66k, EQ 64k,
        # MUL 46k, POP 43k, LT 38k, ISZERO 36k, SHR 29k, STOP 23k,
        # SLOAD 20k, JUMP 15k, AND 14k, SSTORE 11k, TIMESTAMP 9k, MSTORE
        # 8k, DIV 6k, SHA3 4k, SUB 4k, RETURN/REVERT 2k, INVALID 0.5k
        # (the final else), CALLER 0.3k, and the rest never.  The tests
        # are disjoint, so the order changes speed only.
        if 0x60 <= op <= 0x7F:  # PUSH1..32
            if len(stack) >= STACK_LIMIT:
                return ("halt", "invalid", b"", gas)
            push(imm[pc])
            pc = nxt[pc]
            continue

        if 0x80 <= op <= 0x8F:  # DUP1..16
            n = op - 0x7F
            if len(stack) < n:
                return ("halt", "invalid", b"", gas)
            if len(stack) >= STACK_LIMIT:
                return ("halt", "invalid", b"", gas)
            push(stack[-n])
            pc = nxt[pc]
            continue

        if 0x90 <= op <= 0x9F:  # SWAP1..16
            n = op - 0x8F
            if len(stack) < n + 1:
                return ("halt", "invalid", b"", gas)
            stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
            pc = nxt[pc]
            continue

        if op == 0x35:  # CALLDATALOAD
            if not stack:
                return ("halt", "invalid", b"", gas)
            i = stack[-1]
            if i >= len(calldata):
                stack[-1] = 0
            else:
                chunk = calldata[i : i + 32]
                stack[-1] = int.from_bytes(chunk.ljust(32, b"\x00"), "big")
        elif op == 0x57:  # JUMPI
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            dest = pop()
            cond = pop()
            if cond:
                if dest >= code_len or not is_jumpdest[dest]:
                    return ("halt", "invalid", b"", gas)
                pc = dest
                continue
        elif op == 0x5B:  # JUMPDEST
            pass
        elif op == 0x01:  # ADD
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            a = pop()
            stack[-1] = (a + stack[-1]) & MASK256
        elif op == 0x14:  # EQ
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            a = pop()
            stack[-1] = 1 if a == stack[-1] else 0
        elif op == 0x02:  # MUL
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            a = pop()
            stack[-1] = (a * stack[-1]) & MASK256
        elif op == 0x50:  # POP
            if not stack:
                return ("halt", "invalid", b"", gas)
            pop()
        elif op == 0x10:  # LT
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            a = pop()
            stack[-1] = 1 if a < stack[-1] else 0
        elif op == 0x15:  # ISZERO
            if not stack:
                return ("halt", "invalid", b"", gas)
            stack[-1] = 1 if stack[-1] == 0 else 0
        elif op == 0x1C:  # SHR
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            sh = pop()
            stack[-1] = stack[-1] >> sh if sh < 256 else 0
        elif op == 0x00:  # STOP
            return ("halt", "stop", b"", gas)
        elif op == 0x54:  # SLOAD
            if not stack:
                return ("halt", "invalid", b"", gas)
            stack[-1] = storage.get(stack[-1], 0)
        elif op == 0x56:  # JUMP
            if not stack:
                return ("halt", "invalid", b"", gas)
            dest = pop()
            if dest >= code_len or not is_jumpdest[dest]:
                return ("halt", "invalid", b"", gas)
            pc = dest
            continue
        elif op == 0x16:  # AND
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            a = pop()
            stack[-1] = a & stack[-1]
        elif op == 0x55:  # SSTORE
            if static:
                return ("halt", "invalid", b"", gas)
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            slot = pop()
            val = pop()
            if val:
                storage[slot] = val
            else:
                storage.pop(slot, None)  # zero means absent
        elif op == 0x42:  # TIMESTAMP
            if len(stack) >= STACK_LIMIT:
                return ("halt", "invalid", b"", gas)
            push(timestamp)
        elif op == 0x52:  # MSTORE
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            off = pop()
            val = pop()
            if not _ensure(memory, off + 32):
                return ("halt", "out_of_gas", b"", gas)
            memory[off : off + 32] = val.to_bytes(32, "big")
        elif op == 0x04:  # DIV
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            a = pop()
            b = stack[-1]
            stack[-1] = a // b if b else 0
        elif op == 0x20:  # SHA3
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            off = pop()
            size = pop()
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
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            a = pop()
            stack[-1] = (a - stack[-1]) & MASK256
        elif op == 0xF3 or op == 0xFD:  # RETURN / REVERT
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
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
            if len(stack) >= STACK_LIMIT:
                return ("halt", "invalid", b"", gas)
            push(caller)
        elif op == 0x06:  # MOD
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            a = pop()
            b = stack[-1]
            stack[-1] = a % b if b else 0
        elif op == 0x0A:  # EXP
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            a = pop()
            stack[-1] = pow(a, stack[-1], 1 << 256)
        elif op == 0x11:  # GT
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            a = pop()
            stack[-1] = 1 if a > stack[-1] else 0
        elif op == 0x17:  # OR
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            a = pop()
            stack[-1] = a | stack[-1]
        elif op == 0x18:  # XOR
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            a = pop()
            stack[-1] = a ^ stack[-1]
        elif op == 0x19:  # NOT
            if not stack:
                return ("halt", "invalid", b"", gas)
            stack[-1] = stack[-1] ^ MASK256
        elif op == 0x1B:  # SHL: top is shift, next is value
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            sh = pop()
            stack[-1] = (stack[-1] << sh) & MASK256 if sh < 256 else 0
        elif op == 0x30:  # ADDRESS
            if len(stack) >= STACK_LIMIT:
                return ("halt", "invalid", b"", gas)
            push(self_addr)
        elif op == 0x31:  # BALANCE
            if not stack:
                return ("halt", "invalid", b"", gas)
            stack[-1] = balances.get(stack[-1] & ADDR_MASK, 0)
        elif op == 0x34:  # CALLVALUE
            if len(stack) >= STACK_LIMIT:
                return ("halt", "invalid", b"", gas)
            push(callvalue)
        elif op == 0x36:  # CALLDATASIZE
            if len(stack) >= STACK_LIMIT:
                return ("halt", "invalid", b"", gas)
            push(len(calldata))
        elif op == 0x37:  # CALLDATACOPY
            if len(stack) < 3:
                return ("halt", "invalid", b"", gas)
            dst = pop()
            src = pop()
            size = pop()
            if size:
                if not _ensure(memory, dst + size):
                    return ("halt", "out_of_gas", b"", gas)
                chunk = calldata[src : src + size] if src < len(calldata) else b""
                chunk = chunk.ljust(size, b"\x00")
                memory[dst : dst + size] = chunk
        elif op == 0x43:  # NUMBER
            if len(stack) >= STACK_LIMIT:
                return ("halt", "invalid", b"", gas)
            push(number)
        elif op == 0x51:  # MLOAD
            if not stack:
                return ("halt", "invalid", b"", gas)
            off = stack[-1]
            if not _ensure(memory, off + 32):
                return ("halt", "out_of_gas", b"", gas)
            stack[-1] = int.from_bytes(memory[off : off + 32], "big")
        elif op == 0x53:  # MSTORE8
            if len(stack) < 2:
                return ("halt", "invalid", b"", gas)
            off = pop()
            val = pop()
            if not _ensure(memory, off + 1):
                return ("halt", "out_of_gas", b"", gas)
            memory[off] = val & 0xFF
        elif op == 0x58:  # PC
            if len(stack) >= STACK_LIMIT:
                return ("halt", "invalid", b"", gas)
            push(pc)
        elif op == 0x5A:  # GAS (remaining after this instruction's cost)
            if len(stack) >= STACK_LIMIT:
                return ("halt", "invalid", b"", gas)
            push(gas)
        elif 0xA0 <= op <= 0xA4:  # LOG0..4
            if static:
                return ("halt", "invalid", b"", gas)
            n = op - 0xA0
            if len(stack) < 2 + n:
                return ("halt", "invalid", b"", gas)
            off = pop()
            size = pop()
            topics = tuple(pop() for _ in range(n))
            if size:
                if not _ensure(memory, off + size):
                    return ("halt", "out_of_gas", b"", gas)
                data = bytes(memory[off : off + size])
            else:
                data = b""
            logs.append((pc, topics, data))
        elif op == 0xF0 or op == 0xF5:  # CREATE / CREATE2
            if static:
                return ("halt", "invalid", b"", gas)
            need = 3 if op == 0xF0 else 4
            if len(stack) < need:
                return ("halt", "invalid", b"", gas)
            value = pop()
            off = pop()
            size = pop()
            salt = pop() if op == 0xF5 else None
            if size:
                if not _ensure(memory, off + size):
                    return ("halt", "out_of_gas", b"", gas)
                init = bytes(memory[off : off + size])
            else:
                init = b""
            rec = {
                "kind": "create2" if op == 0xF5 else "create",
                "from": self_addr,
                "value": value,
                "init": init,
            }
            if salt is not None:
                rec["salt"] = salt
            ext.append(rec)
            if len(stack) >= STACK_LIMIT:
                return ("halt", "invalid", b"", gas)
            push(0)  # no real deployment: zero address
        elif op == 0xF1:  # CALL
            if len(stack) < 7:
                return ("halt", "invalid", b"", gas)
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
            if len(stack) < 6:
                return ("halt", "invalid", b"", gas)
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
        elif op == 0xFF:  # SELFDESTRUCT
            if static:
                return ("halt", "invalid", b"", gas)
            if not stack:
                return ("halt", "invalid", b"", gas)
            beneficiary = pop() & ADDR_MASK
            ext.append(
                {"kind": "selfdestruct", "from": self_addr, "to": beneficiary}
            )
            return ("halt", "selfdestruct", b"", gas)
        else:  # INVALID and any unknown byte
            return ("halt", "invalid", b"", gas)

        pc = nxt[pc]
