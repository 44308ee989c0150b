"""Test cases, corpora, and bug reports.

A TestCase is the replayable unit: the full transaction list (setup
included) that reproduces a behavior from the genesis world.  A Corpus
remembers, for each kept entry, how much coverage it bought at insertion
time.  Findings point back at the test case that produced them.
"""

import json
import re
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

from ..bytecode.hashing import keccak256
from ..evm.types import DEFAULT_GAS, Transaction, parse_addr, tx_doc


def _tx_from_doc(doc: dict, destination: int) -> Transaction:
    """The transaction tx_doc wrote, sent to `destination` unless the
    document names its own.  Transaction turns array lists to tuples."""
    args = [bytes.fromhex(a[2:]) if isinstance(a, str) else a for a in doc["args"]]
    call_data = doc.get("call_data")
    if call_data is not None:
        call_data = bytes.fromhex(call_data[2:])
    return Transaction(
        function_call=doc["function"],
        # raw calldata drives encoding; its args were written as []
        args=None if call_data is not None and not args else args,
        call_data=call_data,
        gas=int(doc.get("gas", DEFAULT_GAS)),
        source=int(doc["sender"], 16),
        destination=parse_addr(doc.get("destination", destination)),
        value=int(doc.get("value", 0)),
        delay=int(doc.get("delay", 0)),
    )


@dataclass(frozen=True)
class TestCase:
    """An ordered transaction list, identified by its canonical digest.

    The id is a Keccak digest of each transaction's tx_doc, which
    implies the case's first destination: it covers function, args,
    sender, value, delay, raw calldata, gas, and the destination of
    every transaction that goes elsewhere than the first.  So a case
    moved as a whole to another contract keeps its id, and any other
    change makes a new one.  The id is computed once per instance: txs
    is an immutable tuple of frozen transactions, so the digest cannot
    go stale.
    """

    txs: tuple[Transaction, ...]

    def _tx_docs(self) -> list[dict]:
        first = self.txs[0].destination if self.txs else None
        return [tx_doc(t, first) for t in self.txs]

    @cached_property
    def id(self) -> str:
        doc = json.dumps(self._tx_docs(), sort_keys=True)
        return keccak256(doc.encode()).hex()[:32]

    def to_doc(self) -> dict:
        """{"id", "txs"}, plus "destination" (the first transaction's,
        which the tx documents imply) when the case has transactions."""
        doc = {"id": self.id, "txs": self._tx_docs()}
        if self.txs:
            doc["destination"] = f"0x{self.txs[0].destination:040x}"
        return doc

    @staticmethod
    def from_doc(doc: dict, destination: int) -> "TestCase":
        """The case to_doc wrote; `destination` stands in for a document
        that records none."""
        destination = doc.get("destination", destination)
        return TestCase(tuple(_tx_from_doc(t, destination) for t in doc["txs"]))


@dataclass(frozen=True)
class Finding:
    kind: str  # "assert_failure" | "property_violation"
    pc: int
    function: str
    testcase_id: str
    message: str

    def to_doc(self) -> dict:
        return asdict(self)


@dataclass
class BugReport:
    findings: list[Finding] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {"findings": [f.to_doc() for f in self.findings]}

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"


# the name Corpus.save gives an entry's file: <index>_<id>.json
_ENTRY_NAME = re.compile(r"(\d+)_[0-9a-f]+\.json")


def _entry_files(directory: Path) -> list[tuple[int, Path]]:
    """(index, path) of each entry file Corpus.save wrote in directory."""
    return [
        (int(m[1]), path)
        for path in directory.iterdir()
        if (m := _ENTRY_NAME.fullmatch(path.name))
    ]


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
        """One JSON file per entry, named <index>_<id>.json; stable
        across runs.  A file holds the case's to_doc ("id", "txs" and
        "destination") and its "coverage_delta".  The entry files of an
        earlier save into the same directory are deleted first; other
        files are left alone."""
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        for _, path in _entry_files(d):
            path.unlink()
        for i, (tc, delta) in enumerate(zip(self.entries, self.deltas)):
            doc = tc.to_doc()
            doc["coverage_delta"] = delta
            path = d / f"{i:04d}_{tc.id}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    @staticmethod
    def load(directory: str | Path, destination: int) -> "Corpus":
        """The corpus save wrote: its <index>_<id>.json files in index
        order, other files ignored.  Each case goes to the destination
        its file records; `destination` is for files that record none."""
        corpus = Corpus()
        for _, path in sorted(_entry_files(Path(directory))):
            doc = json.loads(path.read_text())
            corpus.add(
                TestCase.from_doc(doc, destination),
                doc.get(
                    "coverage_delta", {"new_instructions": 0, "new_paths": 0}
                ),
            )
        return corpus
