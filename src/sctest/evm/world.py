"""The modeled execution context: accounts, deployed contracts, storage
and block metadata."""

from dataclasses import dataclass, field

from ..errors import AddressInUse, DuplicateAddress
from .bundle import ContractBundle, genesis_config
from .types import DEFAULT_TIMESTAMP, Account, BlockCtx


@dataclass
class EvmWorld:
    """A world is a value.  execute_tx and deploy return a new world and
    leave their input as it was, and execute_tx shares with its input
    every storage map and Account the transaction did not change, the
    accounts dict itself when no value changed hands, and the BlockCtx
    when the transaction has no delay.  So never mutate a world's maps,
    accounts or block in place: take copy(), a deep copy that shares only
    the immutable bundles, and edit that."""

    accounts: dict[int, Account] = field(default_factory=dict)
    deployed: dict[int, ContractBundle] = field(default_factory=dict)
    storage: dict[int, dict[int, int]] = field(default_factory=dict)
    block: BlockCtx = field(default_factory=BlockCtx)

    def copy(self) -> "EvmWorld":
        return EvmWorld(
            accounts={a: Account(acc.address, acc.balance) for a, acc in self.accounts.items()},
            deployed=dict(self.deployed),  # bundles are immutable, share refs
            storage={a: dict(slots) for a, slots in self.storage.items()},
            block=BlockCtx(self.block.timestamp, self.block.number),
        )

    def balance(self, address: int) -> int:
        acc = self.accounts.get(address)
        return acc.balance if acc else 0

    def storage_view(self) -> dict[int, dict[int, int]]:
        """Storage restricted to live (nonempty) contract maps, for
        equality checks."""
        return {a: dict(s) for a, s in sorted(self.storage.items()) if s}


def new_world(
    accounts: list[Account] | list[tuple[int, int]],
    timestamp: int = DEFAULT_TIMESTAMP,
    number: int = 1,
) -> EvmWorld:
    if not accounts:
        raise ValueError("genesis needs at least one account")
    world = EvmWorld(block=BlockCtx(timestamp, number))
    for entry in accounts:
        acc = entry if isinstance(entry, Account) else Account(entry[0], entry[1])
        if acc.address in world.accounts:
            raise DuplicateAddress(f"account 0x{acc.address:040x} listed twice")
        world.accounts[acc.address] = Account(acc.address, acc.balance)
    return world


def deploy(world: EvmWorld, contract: ContractBundle, at: int) -> EvmWorld:
    if at in world.deployed:
        raise AddressInUse(f"0x{at:040x} already has code")
    w = world.copy()
    w.deployed[at] = contract
    w.storage[at] = {}
    if at not in w.accounts:
        w.accounts[at] = Account(at, 0)
    return w


def make_world(bundle: ContractBundle) -> tuple[EvmWorld, int]:
    """Genesis world for a bundle per its world.json (or defaults);
    returns (world, contract address)."""
    cfg = genesis_config(bundle)
    world = new_world(
        cfg["accounts"],
        timestamp=cfg.get("timestamp", DEFAULT_TIMESTAMP),
        number=cfg.get("number", 1),
    )
    world = deploy(world, bundle, cfg["deploy_at"])
    return world, cfg["deploy_at"]
