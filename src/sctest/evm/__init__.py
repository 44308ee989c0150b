"""World model and transaction execution."""

from .bundle import ContractBundle, genesis_config, load_bundle
from .engine import execute_sequence, execute_tx
from .image import CodeImage
from .snapshots import SnapshotCache, prefix_key
from .types import (
    DEFAULT_GAS,
    DEFAULT_TIMESTAMP,
    Account,
    BlockCtx,
    ExecResult,
    Transaction,
    parse_addr,
)
from .world import EvmWorld, deploy, make_world, new_world

__all__ = [
    "Account",
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
