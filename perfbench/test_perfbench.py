"""Tests of the benchmark itself: metrics, output checks, determinism.

Run with: python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run
import tracer as tracer_mod
import workloads
from sctest.fuzzing import BugReport, Corpus, Finding
from sctest.fuzzing import TestCase as FuzzCase
from sctest.evm import Transaction

SPEC = json.loads(run.SPEC.read_text())
TINY = 20  # campaign executions per fixture in the tiny rounds

END_TO_END = {
    "setup_s", "wall_s", "execs_per_s", "instr_covered", "paths_covered",
    "corpus_entries", "peak_rss_mb",
}
PER_LAYER = {
    "kernels.keccak.calls",
    *(f"kernels.keccak.calls.{site}" for site in (
        "interp_py", "hashing", "corpus", "snapshots", "shadow", "solve", "symexpr"
    )),
    "kernels.keccak.distinct_inputs", "kernels.keccak.self_s", "kernels.keccak.share",
    "kernels.run_frame.calls", "kernels.run_frame.self_s", "kernels.instr_per_s",
    "bytecode.encode_call.self_s", "bytecode.build_cfg.s",
    "evm.execute_tx.calls", "evm.execute_tx.self_s", "evm.txs_per_exec", "evm.probe_txs",
    "coverage.merge_result.calls", "coverage.merge_result.self_s",
    "coverage.extract_bottlenecks.s",
    "fuzzing.run.self_s", "fuzzing.mutate.self_s", "fuzzing.insert_ratio",
    "fuzzing.minimize.s", "fuzzing.minimize.replays", "fuzzing.minimize.sequences",
    "fuzzing.corpus_in", "fuzzing.corpus_out",
    "concolic.drive.s", "concolic.shadow_run.calls", "concolic.shadow_run.self_s",
    "concolic.solve.calls", "concolic.solve.s", "concolic.solve.sat",
    "concolic.solve.unsat", "concolic.solve.unknown", "concolic.sat_ratio",
    "concolic.emitted", "concolic.engine_seq.calls",
    "concolic.snapshot.hits", "concolic.snapshot.misses",
    "bugs_found", "execs_to_bug", "trace.overhead",
}


@pytest.fixture(scope="module")
def tiny_rounds():
    """One untraced and one traced tiny round of every workload."""
    return {
        name: [
            workloads.run_round(name, 1, traced=False, execs=TINY),
            workloads.run_round(name, 1, traced=True, execs=TINY),
        ]
        for name in workloads.WORKLOADS
    }


def test_spec_names_every_metric_and_workload():
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert PER_LAYER <= {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_unit(tiny_rounds, name, trace):
    result, info = run.summarize(tiny_rounds[name], trace)
    specs = SPEC["per_layer" if trace else "end_to_end"]
    metrics = run.select_metrics(result["metrics"], specs)
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in specs}
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(workloads.WORKLOADS[name].fixtures)
    assert info["host"]["backend"] == "python" and info["seed"] == 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_keeps_outputs_and_accounts_for_wall_time(tiny_rounds, name):
    plain, traced = tiny_rounds[name]
    assert traced["digest"] == plain["digest"]
    assert traced["outcomes"] == plain["outcomes"]
    assert sum(traced["shares"].values()) == pytest.approx(1, abs=run.ACCOUNTED_TOLERANCE)


def test_same_seed_same_digest():
    one = workloads.run_round("hybrid", 3, execs=TINY)
    two = workloads.run_round("hybrid", 3, execs=TINY)
    assert one["digest"] == two["digest"] and one["outcomes"] == two["outcomes"]
    assert one["failed"] == 0 and one["errors"] == []


def test_mismatched_round_counts_as_failed(tiny_rounds):
    plain, traced = tiny_rounds["fuzz-loops"]
    odd = dict(plain, digest="0" * 64)
    result, info = run.summarize([plain, odd], False)
    assert not result["correct"]
    assert result["failed"] == odd["attempted"]
    assert any("differ" in e for e in info["errors"])


def test_hybrid_runs_concolic_and_minimize(tiny_rounds):
    layers = tiny_rounds["hybrid"][1]["layers"]
    assert layers["concolic.shadow_run.calls"] > 0
    assert layers["concolic.solve.calls"] > 0
    assert layers["fuzzing.corpus_in"] > layers["fuzzing.corpus_out"] > 0
    assert tiny_rounds["hybrid"][0]["outcomes"]["bugs_found"] >= 3


def test_keccak_share_by_workload():
    """Full budget: Keccak leads fuzz-hashed and is near zero on fuzz-loops."""
    hashed = workloads.run_round("fuzz-hashed", 1, traced=True)["shares"]
    assert max(hashed, key=hashed.get) == "kernels.keccak"
    loops = workloads.run_round("fuzz-loops", 1, traced=True)["layers"]
    assert loops["kernels.keccak.share"] < 0.02


# -- output checks ------------------------------------------------------------


@pytest.fixture(scope="module")
def bytekey_run():
    fx = workloads.fixture_run("bytekey", 1)
    workloads.fuzz(fx, 3000)
    assert fx.report.findings, "seed 1 finds the bytekey assert within 3000 execs"
    assert workloads.check_run(fx, hybrid=False) == []
    return fx


def test_checks_fail_on_corrupted_corpus(bytekey_run):
    fx = bytekey_run
    errors = workloads.check_replay(fx.world, Corpus(), fx.coverage, fx.report)
    assert any("coverage bits" in e for e in errors)
    assert any("findings" in e for e in errors)
    errors = workloads.check_findings(
        fx.world, Corpus(), fx.report, fx.bundle.resolved_abi, fx.dest
    )
    assert errors and all("missing from the corpus" in e for e in errors)


def test_checks_fail_on_finding_that_does_not_reproduce(bytekey_run):
    fx = bytekey_run
    cited = {f.testcase_id for f in fx.report.findings}
    other = next(tc for tc in fx.corpus.entries if tc.id not in cited)
    f = fx.report.findings[0]
    wrong = BugReport([Finding(f.kind, f.pc, f.function, other.id, f.message)])
    errors = workloads.check_findings(
        fx.world, fx.corpus, wrong, fx.bundle.resolved_abi, fx.dest
    )
    assert len(errors) == 1 and "does not reproduce" in errors[0]


def test_checks_fail_on_case_that_raises(bytekey_run):
    fx = bytekey_run
    bad = FuzzCase((Transaction("no_such_function", args=(), destination=fx.dest),))
    assert workloads.check_replayable(fx.world, list(fx.corpus.entries)) == []
    errors = workloads.check_replayable(fx.world, [bad])
    assert len(errors) == 1 and "raised" in errors[0]


# -- tracer -------------------------------------------------------------------


def test_tracer_self_time_is_span_minus_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer_mod, "_clock", lambda: next(ticks))
    ns = SimpleNamespace(inner=lambda x: x + 1)
    ns.outer = lambda x: ns.inner(ns.inner(x))
    original_inner = ns.inner
    tr = tracer_mod.Tracer()
    tr.wrap(ns, "inner", "inner", "ns")
    tr.wrap(ns, "outer", "outer", "bench")
    assert ns.outer(1) == 3
    names = tr.summary(0)["names"]
    # clock reads: outer 0..5, inner 1..2 and 3..4
    assert names["outer"] == {"calls": 1, "s": 5, "self_s": 3}
    assert names["inner"] == {"calls": 2, "s": 2, "self_s": 2}
    assert tr.count_within("inner", "ns", "outer") == 2
    tr.unpatch()
    assert ns.inner is original_inner


# -- command line -------------------------------------------------------------


def _bench(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "1", "--trace", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_cli_prints_result_as_last_line():
    proc = _bench(run.ROOT, "--workload", "fuzz-loops", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    *_, info_line, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert json.loads(info_line)["info"]["rounds"] >= run.MIN_ROUNDS


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "fuzz-loops", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
