"""Contract bundle loading: bytecode + ABI manifest + optional source,
linemap, and genesis config."""

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from ..bytecode.abi import FunctionSig, parse_abi
from ..bytecode.cfg import Cfg, build_cfg, resolve_entries
from ..errors import SchemaError
from .image import CodeImage
from .types import DEFAULT_TIMESTAMP, parse_addr


@dataclass
class ContractBundle:
    name: str
    bytecode: bytes
    abi: list[FunctionSig]
    source: str | None = None
    linemap: dict[int, int] | None = None
    world_config: dict | None = None

    @cached_property
    def image(self) -> CodeImage:
        return CodeImage.from_bytecode(self.bytecode)

    @cached_property
    def cfg(self) -> Cfg:
        return build_cfg(self.bytecode)

    @cached_property
    def resolved_abi(self) -> list[FunctionSig]:
        """ABI with entry offsets and body ranges filled in."""
        return resolve_entries(self.cfg, self.abi)

    @cached_property
    def by_name(self) -> dict[str, FunctionSig]:
        return {s.name: s for s in self.resolved_abi}

    @cached_property
    def by_selector(self) -> dict[bytes, FunctionSig]:
        return {s.selector: s for s in self.resolved_abi}

    @property
    def fallback_entry(self) -> int | None:
        sig = self.by_name.get("fallback")
        return sig.entry_offset if sig else None

    def function_at(self, offset: int) -> FunctionSig | None:
        """The function whose body range holds offset, or None."""
        for sig in self.resolved_abi:
            if sig.body_range and sig.body_range[0] <= offset < sig.body_range[1]:
                return sig
        return None


def load_bundle(path: str | Path) -> ContractBundle:
    """Load a bundle directory: contract.hex + abi.json
    (+ source.sol, linemap.json, world.json)."""
    p = Path(path)
    hex_text = (p / "contract.hex").read_text().strip()
    if hex_text.startswith(("0x", "0X")):
        hex_text = hex_text[2:]
    bytecode = bytes.fromhex("".join(hex_text.split()))

    try:
        manifest = json.loads((p / "abi.json").read_text())
    except json.JSONDecodeError as e:
        raise SchemaError("$", f"abi.json is not valid JSON: {e}") from None
    abi = parse_abi(manifest)

    source = None
    src_path = p / "source.sol"
    if src_path.exists():
        source = src_path.read_text()

    linemap = None
    lm_path = p / "linemap.json"
    if lm_path.exists():
        raw = json.loads(lm_path.read_text())
        linemap = {int(k): int(v) for k, v in raw.items()}

    world_config = None
    wc_path = p / "world.json"
    if wc_path.exists():
        try:
            world_config = json.loads(wc_path.read_text())
        except json.JSONDecodeError as e:
            raise SchemaError("$", f"world.json is not valid JSON: {e}") from None

    bundle = ContractBundle(p.name, bytecode, abi, source, linemap, world_config)
    genesis_config(bundle)  # a malformed world.json fails here, as abi.json does
    return bundle


DEFAULT_ACCOUNTS = [(0x1001, 10**18), (0x1002, 10**18)]
DEFAULT_DEPLOY_AT = 0xC0DE


def genesis_config(bundle: ContractBundle) -> dict:
    """Normalized genesis parameters for a bundle (world.json or
    defaults): accounts, deploy_at, timestamp and number.  A malformed
    world.json raises SchemaError naming the field."""
    cfg = bundle.world_config or {}
    if not isinstance(cfg, dict):
        raise SchemaError("$", "expected an object")
    listed = cfg.get("accounts") or []
    if not isinstance(listed, list):
        raise SchemaError("$.accounts", "expected a list")
    accounts = []
    for i, a in enumerate(listed):
        path = f"$.accounts[{i}]"
        if not isinstance(a, dict):
            raise SchemaError(path, "expected an object")
        address = _read(a, path, "address", parse_addr)
        accounts.append((address, _read(a, path, "balance", int)))
    return {
        "accounts": accounts or list(DEFAULT_ACCOUNTS),
        "deploy_at": _read(cfg, "$", "deploy_at", parse_addr, DEFAULT_DEPLOY_AT),
        "timestamp": _read(cfg, "$", "timestamp", int, DEFAULT_TIMESTAMP),
        "number": _read(cfg, "$", "number", int, 1),
    }


def _read(obj: dict, path: str, key: str, parse, default: int | None = None) -> int:
    """parse(obj[key]), or default when key is absent and default is not
    None; SchemaError at path.key otherwise."""
    if key not in obj:
        if default is None:
            raise SchemaError(f"{path}.{key}", "missing")
        return default
    try:
        return parse(obj[key])
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{path}.{key}", f"cannot read {obj[key]!r}") from None
