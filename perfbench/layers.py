"""Where the traced round wraps sctest, and the per-layer figures it yields.

Each entry of BINDINGS names a calling module, the name under which that
module binds a function of another layer, the span the call is recorded
as, and the binding site.  Wrapping at the binding (not at the defining
module) is what lets one function be counted per caller, e.g. Keccak
calls from the interpreter apart from Keccak calls for test-case ids.
"""

import importlib
from collections import Counter

# binding module (short site name -> module) for every keccak256 caller
KECCAK_SITES = {
    "interp_py": "sctest._kernels.interp_py",
    "hashing": "sctest.bytecode.hashing",
    "corpus": "sctest.fuzzing.corpus",
    "snapshots": "sctest.evm.snapshots",
    "shadow": "sctest.concolic.shadow",
    "solve": "sctest.concolic.solve",
    "symexpr": "sctest.concolic.symexpr",
}

# (calling module, bound name, span name, site)
BINDINGS = [
    *((mod, "keccak256", "kernels.keccak", site) for site, mod in KECCAK_SITES.items()),
    ("sctest.evm.engine", "run_frame", "kernels.run_frame", "engine"),
    ("sctest.evm.engine", "encode_call", "bytecode.encode_call", "engine"),
    ("sctest.concolic.shadow", "encode_call", "bytecode.encode_call", "shadow"),
    ("sctest.evm.bundle", "build_cfg", "bytecode.build_cfg", "bundle"),
    ("sctest.evm.engine", "execute_tx", "evm.execute_tx", "engine"),
    ("sctest.fuzzing.campaign", "execute_tx", "evm.execute_tx", "campaign"),
    ("sctest.fuzzing.campaign", "execute_sequence", "evm.execute_sequence", "campaign"),
    ("sctest.concolic.drive", "execute_sequence", "evm.execute_sequence", "drive"),
    ("sctest.concolic.shadow", "execute_sequence", "evm.execute_sequence", "shadow"),
    ("sctest.fuzzing.campaign", "merge_result", "coverage.merge_result", "campaign"),
    ("sctest.concolic.drive", "merge_result", "coverage.merge_result", "drive"),
    ("sctest.fuzzing.campaign", "mutate", "fuzzing.mutate", "campaign"),
    ("sctest.fuzzing.campaign", "minimize_corpus", "fuzzing.minimize", "campaign"),
    ("sctest.fuzzing.campaign", "replay", "fuzzing.replay", "campaign"),
    ("sctest.concolic.drive", "shadow_run", "concolic.shadow_run", "drive"),
    ("sctest.concolic.drive", "solve", "concolic.solve", "drive"),
]


class LayerProbe:
    """Installs the wrappers on a Tracer and keeps the counts that need
    a look at arguments or results (inputs hashed, instructions run,
    solver verdicts, corpus sizes around minimisation)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.reset()
        tracer.observers.update(
            {
                "kernels.keccak": self._keccak,
                "evm.execute_tx": self._execute_tx,
                "concolic.solve": self._solve,
                "fuzzing.minimize": self._minimize,
            }
        )
        for module, attr, name, site in BINDINGS:
            tracer.wrap(importlib.import_module(module), attr, name, site)
        from sctest.fuzzing.campaign import Campaign

        tracer.wrap(Campaign, "run", "fuzzing.run", "campaign")

    def reset(self) -> None:
        """Drop what set-up hashed and ran, so the counts cover the
        workload alone, as the span summaries do."""
        self.keccak_inputs: set[bytes] = set()
        self.instructions = 0
        self.verdicts: Counter = Counter()
        self.corpus_in = 0
        self.corpus_out = 0

    def _keccak(self, args, kwargs, out):
        self.keccak_inputs.add(bytes(args[0]))

    def _execute_tx(self, args, kwargs, out):
        self.instructions += sum(len(seg) for _, seg in out[1].trace)

    def _solve(self, args, kwargs, out):
        self.verdicts[type(out).__name__] += 1

    def _minimize(self, args, kwargs, out):
        self.corpus_in += len(args[1])
        self.corpus_out += len(out)

    def metrics(
        self,
        setup_root: int,
        workload_root: int,
        wall_s: float,
        executions: int,
        inserts: int,
        emitted: int,
        snapshot_hits: int,
        snapshot_misses: int,
    ) -> dict:
        tr = self.tracer
        work = tr.summary(workload_root)
        names, sites = work["names"], work["sites"]
        setup = tr.summary(setup_root)["names"]

        def get(name, key):
            return names.get(name, {}).get(key, 0)

        solves = get("concolic.solve", "calls")
        run_frame_self = get("kernels.run_frame", "self_s")
        return {
            "kernels.keccak.calls": get("kernels.keccak", "calls"),
            **{
                f"kernels.keccak.calls.{site}": sites.get(("kernels.keccak", site), 0)
                for site in KECCAK_SITES
            },
            "kernels.keccak.distinct_inputs": len(self.keccak_inputs),
            "kernels.keccak.self_s": get("kernels.keccak", "self_s"),
            "kernels.keccak.share": get("kernels.keccak", "self_s") / wall_s,
            "kernels.run_frame.calls": get("kernels.run_frame", "calls"),
            "kernels.run_frame.self_s": run_frame_self,
            "kernels.instr_per_s": (
                self.instructions / run_frame_self if run_frame_self else 0.0
            ),
            "bytecode.encode_call.self_s": get("bytecode.encode_call", "self_s"),
            "bytecode.build_cfg.s": setup.get("bytecode.build_cfg", {}).get("s", 0.0),
            "evm.execute_tx.calls": get("evm.execute_tx", "calls"),
            "evm.execute_tx.self_s": get("evm.execute_tx", "self_s"),
            "evm.txs_per_exec": (
                tr.count_within("evm.execute_tx", None, "fuzzing.run") / executions
            ),
            "evm.probe_txs": sites.get(("evm.execute_tx", "campaign"), 0),
            "coverage.merge_result.calls": get("coverage.merge_result", "calls"),
            "coverage.merge_result.self_s": get("coverage.merge_result", "self_s"),
            "coverage.extract_bottlenecks.s": get("coverage.extract_bottlenecks", "s"),
            "fuzzing.run.self_s": get("fuzzing.run", "self_s"),
            "fuzzing.mutate.self_s": get("fuzzing.mutate", "self_s"),
            "fuzzing.insert_ratio": inserts / executions,
            "fuzzing.minimize.s": get("fuzzing.minimize", "s"),
            "fuzzing.minimize.replays": tr.count_within(
                "fuzzing.replay", None, "fuzzing.minimize"
            ),
            "fuzzing.minimize.sequences": tr.count_within(
                "evm.execute_sequence", "campaign", "fuzzing.minimize"
            ),
            "fuzzing.corpus_in": self.corpus_in,
            "fuzzing.corpus_out": self.corpus_out,
            "concolic.drive.s": get("concolic.drive", "s"),
            "concolic.shadow_run.calls": get("concolic.shadow_run", "calls"),
            "concolic.shadow_run.self_s": get("concolic.shadow_run", "self_s"),
            "concolic.solve.calls": solves,
            "concolic.solve.s": get("concolic.solve", "s"),
            "concolic.solve.sat": self.verdicts["Sat"],
            "concolic.solve.unsat": self.verdicts["Unsat"],
            "concolic.solve.unknown": self.verdicts["Unknown"],
            "concolic.sat_ratio": self.verdicts["Sat"] / solves if solves else 0.0,
            "concolic.emitted": emitted,
            "concolic.engine_seq.calls": sites.get(("evm.execute_sequence", "drive"), 0)
            + sites.get(("evm.execute_sequence", "shadow"), 0),
            "concolic.snapshot.hits": snapshot_hits,
            "concolic.snapshot.misses": snapshot_misses,
            "bench.self_s": get("bench.workload", "self_s"),
        }

    def shares(self, workload_root: int, wall_s: float) -> dict:
        """Share of the workload's wall time each span name spent in
        itself; the shares of a consistent trace add up to one."""
        names = self.tracer.summary(workload_root)["names"]
        return {name: rec["self_s"] / wall_s for name, rec in names.items()}
