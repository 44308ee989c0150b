"""Keccak-256 and function selectors.

keccak256 is the package's one compiled sponge (sctest._kernels.keccak);
there is no other implementation to select.
"""

from .._kernels import keccak256

__all__ = ["keccak256", "selector"]


def selector(signature: str) -> bytes:
    """First 4 bytes of keccak256 of a canonical signature string."""
    return keccak256(signature.encode("ascii"))[:4]
