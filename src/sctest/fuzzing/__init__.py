"""Coverage-guided fuzzing: target DSL, mutation, campaign, corpus."""

from .campaign import (
    ASSERT_FAILURE,
    CHUNK,
    PROPERTY_VIOLATION,
    Campaign,
    ChunkStats,
    detect_bugs,
    minimize_corpus,
    replay,
    run_campaign,
)
from .corpus import BugReport, Corpus, Finding, TestCase
from .mutate import (
    Candidate,
    MutationPlan,
    initial_candidate,
    mutate,
    mutate_value,
    mutation_plan,
)
from .target import (
    CompileError,
    ConcreteCall,
    EmptyAbi,
    FuzzCall,
    FuzzTarget,
    parse_target,
    render_target,
    seed_initial_target,
)

__all__ = [
    "ASSERT_FAILURE",
    "CHUNK",
    "PROPERTY_VIOLATION",
    "BugReport",
    "Campaign",
    "Candidate",
    "ChunkStats",
    "CompileError",
    "ConcreteCall",
    "Corpus",
    "EmptyAbi",
    "Finding",
    "FuzzCall",
    "FuzzTarget",
    "MutationPlan",
    "TestCase",
    "detect_bugs",
    "initial_candidate",
    "minimize_corpus",
    "mutate",
    "mutate_value",
    "mutation_plan",
    "parse_target",
    "render_target",
    "replay",
    "run_campaign",
    "seed_initial_target",
]
