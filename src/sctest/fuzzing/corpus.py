"""Test cases, corpora, and bug reports.

A TestCase is the replayable unit: the full transaction list (setup
included) that reproduces a behavior from the genesis world.  A Corpus
remembers, for each kept entry, how much coverage it bought at insertion
time.  Findings point back at the test case that produced them.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from ..bytecode.hashing import keccak256
from ..evm.types import Transaction


def _tx_doc(tx: Transaction) -> dict:
    args = []
    for a in tx.args or ():
        if isinstance(a, bytes):
            args.append("0x" + a.hex())
        elif isinstance(a, tuple):
            args.append(list(a))
        elif isinstance(a, bool):
            args.append(a)
        else:
            args.append(int(a))
    return {
        "function": tx.function_call,
        "args": args,
        "sender": f"0x{tx.source:040x}",
        "value": tx.value,
        "delay": tx.delay,
    }


def _tx_from_doc(doc: dict, destination: int) -> Transaction:
    args = []
    for a in doc["args"]:
        if isinstance(a, str) and a.startswith("0x"):
            args.append(bytes.fromhex(a[2:]))
        elif isinstance(a, list):
            args.append(tuple(int(x) for x in a))
        else:
            args.append(a)
    return Transaction(
        function_call=doc["function"],
        args=tuple(args),
        source=int(doc["sender"], 16),
        destination=destination,
        value=int(doc.get("value", 0)),
        delay=int(doc.get("delay", 0)),
    )


@dataclass(frozen=True)
class TestCase:
    """An ordered transaction list, identified by its canonical digest.

    The id is computed once per instance: txs is an immutable tuple of
    frozen transactions, so the digest cannot go stale.
    """

    txs: tuple[Transaction, ...]

    @cached_property
    def id(self) -> str:
        doc = json.dumps([_tx_doc(t) for t in self.txs], sort_keys=True)
        return keccak256(doc.encode()).hex()[:32]

    def to_doc(self) -> dict:
        return {"id": self.id, "txs": [_tx_doc(t) for t in self.txs]}

    @staticmethod
    def from_doc(doc: dict, destination: int) -> "TestCase":
        return TestCase(tuple(_tx_from_doc(t, destination) for t in doc["txs"]))


@dataclass(frozen=True)
class Finding:
    kind: str  # "assert_failure" | "property_violation"
    pc: int
    function: str
    testcase_id: str
    message: str

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "pc": self.pc,
            "function": self.function,
            "testcase_id": self.testcase_id,
            "message": self.message,
        }


@dataclass
class BugReport:
    findings: list[Finding] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {"findings": [f.to_doc() for f in self.findings]}

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"


@dataclass
class Corpus:
    entries: list[TestCase] = field(default_factory=list)
    # per entry, the coverage bought at insertion:
    # {"new_instructions": int, "new_paths": int}
    deltas: list[dict] = field(default_factory=list)

    def add(self, tc: TestCase, delta: dict) -> None:
        self.entries.append(tc)
        self.deltas.append(delta)

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, directory: str | Path) -> None:
        """One JSON file per entry, named by id; stable across runs."""
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        for i, (tc, delta) in enumerate(zip(self.entries, self.deltas)):
            doc = tc.to_doc()
            doc["coverage_delta"] = delta
            path = d / f"{i:04d}_{tc.id}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    @staticmethod
    def load(directory: str | Path, destination: int) -> "Corpus":
        corpus = Corpus()
        for path in sorted(Path(directory).glob("*.json")):
            doc = json.loads(path.read_text())
            corpus.add(
                TestCase.from_doc(doc, destination),
                doc.get(
                    "coverage_delta", {"new_instructions": 0, "new_paths": 0}
                ),
            )
        return corpus
