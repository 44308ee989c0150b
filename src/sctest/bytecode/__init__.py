from .abi import AbiType, FunctionSig, encode_args, parse_abi
from .cfg import Cfg, build_cfg
from .decode import Instr, decode, encode
from .hashing import keccak256, selector
from .opcodes import OPCODES, Opcode, by_name

__all__ = [
    "AbiType",
    "FunctionSig",
    "encode_args",
    "parse_abi",
    "Cfg",
    "build_cfg",
    "Instr",
    "decode",
    "encode",
    "keccak256",
    "selector",
    "OPCODES",
    "Opcode",
    "by_name",
]
