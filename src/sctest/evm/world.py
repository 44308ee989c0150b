"""The modeled execution context: accounts, deployed contracts, storage
and block metadata."""

from ..errors import AddressInUse, DuplicateAddress, SctestError
from .bundle import ContractBundle, genesis_config
from .types import DEFAULT_TIMESTAMP, BlockCtx


class EvmWorld:
    """A world is a value: no one writes into it once it is built.
    Balances are ints and the block is a BlockCtx named tuple, so the
    per-contract storage maps are its only mutable leaves, and no one
    writes into one either.  execute_tx and deploy leave their input as
    it was and return a world that shares every map, bundle and block
    they did not change; to change a world, build new dicts around the
    parts that stay (as deploy does)."""

    def __init__(
        self,
        accounts: dict[int, int] | None = None,  # address -> balance
        deployed: dict[int, ContractBundle] | None = None,
        storage: dict[int, dict[int, int]] | None = None,
        block: BlockCtx = BlockCtx(),
    ):
        self.accounts = {} if accounts is None else accounts
        self.deployed = {} if deployed is None else deployed
        self.storage = {} if storage is None else storage
        self.block = block

    def balance(self, address: int) -> int:
        return self.accounts.get(address, 0)

    def storage_view(self) -> dict[int, dict[int, int]]:
        """Storage restricted to live (nonempty) contract maps, for
        equality checks."""
        return {a: dict(s) for a, s in sorted(self.storage.items()) if s}


def new_world(
    accounts: list[tuple[int, int]],
    timestamp: int = DEFAULT_TIMESTAMP,
    number: int = 1,
) -> EvmWorld:
    """Genesis world holding the (address, balance) accounts, in order
    (the first is every harness's default sender), and no code."""
    if not accounts:
        raise ValueError("genesis needs at least one account")
    world = EvmWorld(block=BlockCtx(timestamp, number))
    for address, balance in accounts:
        if address in world.accounts:
            raise DuplicateAddress(f"account 0x{address:040x} listed twice")
        world.accounts[address] = balance
    return world


def deploy(world: EvmWorld, contract: ContractBundle, at: int) -> EvmWorld:
    """A new world with contract deployed at `at` on empty storage, and
    an account there with balance 0 unless one exists (appended, so the
    first account stays first).  The input world stays as it was; the
    result shares its block, its bundles and its other storage maps."""
    if at in world.deployed:
        raise AddressInUse(f"0x{at:040x} already has code")
    accounts = dict(world.accounts)
    accounts.setdefault(at, 0)
    return EvmWorld(
        accounts,
        {**world.deployed, at: contract},
        {**world.storage, at: {}},
        world.block,
    )


def contract_under_test(world: EvmWorld) -> int:
    """The address of the world's one deployed contract, the contract a
    campaign fuzzes and replay probes; raises SctestError when the world
    holds none or several."""
    if len(world.deployed) != 1:
        raise SctestError(
            f"need a single deployed contract, found {len(world.deployed)}"
        )
    (address,) = world.deployed
    return address


def make_world(bundle: ContractBundle) -> tuple[EvmWorld, int]:
    """Genesis world for a bundle per its world.json (or defaults);
    returns (world, contract address)."""
    cfg = genesis_config(bundle)
    world = new_world(cfg["accounts"], cfg["timestamp"], cfg["number"])
    world = deploy(world, bundle, cfg["deploy_at"])
    return world, cfg["deploy_at"]
