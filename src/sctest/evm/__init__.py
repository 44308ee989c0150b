"""World model and transaction execution.

An EvmWorld is a value: accounts map address to balance (an int), the
block is a BlockCtx named tuple, and the per-contract storage maps, its
only mutable leaves, are shared between worlds and never written into.
execute_tx and deploy return new worlds and leave their input as it
was, so a world can be kept and run from again (SnapshotCache)."""

from .bundle import ContractBundle, genesis_config, load_bundle
from .engine import execute_sequence, execute_tx
from .image import CodeImage
from .snapshots import SnapshotCache, prefix_key
from .types import (
    DEFAULT_GAS,
    DEFAULT_TIMESTAMP,
    BlockCtx,
    ExecResult,
    Transaction,
    parse_addr,
)
from .world import EvmWorld, deploy, make_world, new_world

__all__ = [
    "BlockCtx",
    "CodeImage",
    "ContractBundle",
    "DEFAULT_GAS",
    "DEFAULT_TIMESTAMP",
    "EvmWorld",
    "ExecResult",
    "SnapshotCache",
    "Transaction",
    "deploy",
    "execute_sequence",
    "execute_tx",
    "genesis_config",
    "load_bundle",
    "make_world",
    "new_world",
    "parse_addr",
    "prefix_key",
]
