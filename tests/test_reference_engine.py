"""cvplan's engines against the frozen reference in reference_engine.py, on
the 20 desk-ladder instances at seeds 0 and 1: run_search in both modes
with each sampler makes the same run and grows the same tree bit for bit,
and run_mcts makes the same trials."""

import struct
from itertools import chain

import pytest

import reference_engine as reference
from cvplan import MctsConfig, SearchConfig, default_ladder, generate, run_mcts, run_search
from cvplan.sampling import SAMPLER_KINDS

LADDER = [generate(spec) for spec in default_ladder()]
SEEDS = (0, 1)


def bits(values) -> bytes:
    values = tuple(values)
    return struct.pack(f"<{len(values)}d", *values)


def decision_bits(decision):
    """A decision as its action, control names and each value's bits."""
    return None if decision is None else (
        decision.action, tuple(decision.controls), bits(decision.controls.values()))


def plan_bits(plan):
    return None if plan is None else [decision_bits(decision) for decision in plan]


@pytest.mark.parametrize("sampler", SAMPLER_KINDS)
@pytest.mark.parametrize("mode", ("sg", "sa"))
def test_run_search_matches_the_reference(mode, sampler):
    """Outcome, plan, expansions, re-expansions and peak open, then every
    column of the tree: parent, g, n and trials by value, h and f by their
    bits, and each node's state (its booleans as the True or False
    objects) and decision by their bits."""
    outcomes = set()
    for problem in LADDER:
        for seed in SEEDS:
            cfg = SearchConfig(mode=mode, sampler=sampler, seed=seed, expansion_limit=100)
            got, want = run_search(problem, cfg), reference.run_search(problem, cfg)
            where = f"{problem.name} at seed {seed}"
            assert ((got.outcome, plan_bits(got.plan), got.expansions, got.reexpansions,
                     got.peak_open)
                    == (want.outcome, plan_bits(want.plan), want.expansions, want.reexpansions,
                        want.peak_open)), where
            tree = got.root.tree
            for name in ("parent", "g", "n", "trials"):
                assert [*chain.from_iterable(getattr(tree, name))] == getattr(want, name), (
                    f"{name} of {where}")
            for name in ("h", "f"):
                assert b"".join(getattr(tree, name)) == bits(getattr(want, name)), (
                    f"{name} of {where}")
            for uid, (state, decision) in enumerate(zip(want.states, want.decisions)):
                node = tree.state(uid)
                assert ((repr(node.bool_values), bits(node.num_values))
                        == (repr(state.bool_values), bits(state.num_values))), (
                    f"state of node {uid} of {where}")
                assert decision_bits(tree.decision(uid)) == decision_bits(decision), (
                    f"decision of node {uid} of {where}")
            outcomes.add(got.outcome)
    # the grid reaches goals as well as the cap, so plans are compared too
    assert {"solved", "budget"} <= outcomes


def test_run_mcts_matches_the_reference():
    """Outcome, plan and trials, at 50 trials a run."""
    outcomes = set()
    for problem in LADDER:
        for seed in SEEDS:
            cfg = MctsConfig(seed=seed, trial_limit=50)
            got = run_mcts(problem, cfg)
            outcome, plan, trials = reference.run_mcts(problem, cfg)
            assert ((got.outcome, plan_bits(got.plan), got.expansions)
                    == (outcome, plan_bits(plan), trials)), f"{problem.name} at seed {seed}"
            outcomes.add(outcome)
    assert {"solved", "budget"} <= outcomes
