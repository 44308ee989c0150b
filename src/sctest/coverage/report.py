"""The '*'-annotated coverage report and its .cov text format.

The first line is "COVERAGE v1 <covered>/<total>"; every following line
is one source line (when the bundle ships source.sol plus linemap.json)
or one disassembly line, prefixed "* " when covered.
"""

from dataclasses import dataclass

from ..evm.bundle import ContractBundle, genesis_config
from .covmap import CoverageMap


@dataclass(frozen=True)
class CoverageReport:
    text: str  # full .cov content, header line included
    summary: dict


def disassembly_lines(bundle: ContractBundle) -> list[tuple[int, str]]:
    """One line per instruction: (offset, rendered text)."""
    out = []
    for ins in bundle.cfg.instrs:
        if ins.imm_len:
            text = f"{ins.offset:#06x} {ins.name} {ins.imm:#x}"
        else:
            text = f"{ins.offset:#06x} {ins.name}"
        out.append((ins.offset, text))
    return out


def render_report(bundle: ContractBundle, map_: CoverageMap) -> CoverageReport:
    address = genesis_config(bundle)["deploy_at"]
    bits = map_.bits.get(address, 0)
    covered = bits.bit_count()
    total = len(bundle.cfg.instrs)

    lines: list[str] = [f"COVERAGE v1 {covered}/{total}"]
    if bundle.source is not None and bundle.linemap:
        covered_lines = {
            line
            for off, line in bundle.linemap.items()
            if bits >> off & 1
        }
        for i, text in enumerate(bundle.source.splitlines(), start=1):
            lines.append(f"* {text}" if i in covered_lines else text)
    else:
        for off, text in disassembly_lines(bundle):
            lines.append(f"* {text}" if bits >> off & 1 else text)

    summary = {
        "instructions_covered": covered,
        "instructions_total": total,
        "paths_seen": len(map_.path_set),
    }
    return CoverageReport("\n".join(lines) + "\n", summary)
