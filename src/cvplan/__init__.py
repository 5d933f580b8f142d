"""Planning for numeric domains with continuous control variables.

The pieces fit together like this: `model` defines problems and their exact
semantics, `codegen` compiles them to the Python functions that evaluate
them, `dsl` reads and writes them as s-expressions, `domains` generates
benchmark families, `search` runs the sampling-based best-first planner and
a Monte Carlo baseline, `sampling` and `heuristics` supply their plug-in
points, and `harness` batches runs into CSV experiment suites. The `plan`
console script fronts all of it.
"""

from .domains import (
    InstanceSpec,
    default_ladder,
    generate,
    make_blockgrouping,
    make_counters,
    make_drone,
    make_sailing,
)
from .dsl import parse_problem, serialize_plan, serialize_problem, validate
from .harness import AlgoSpec, RunRecord, SuiteConfig, load_suite, run_suite
from .heuristics import make_heuristic
from .model import (
    Action,
    ControlValuation,
    ControlVarSpec,
    Decision,
    Problem,
    State,
    goal_test,
    replay_plan,
    try_apply,
)
from .sampling import make_sampler
from .search import (
    MctsConfig,
    SearchConfig,
    SearchResult,
    TraceCheck,
    run_mcts,
    run_search,
    solution_cost_within_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AlgoSpec",
    "ControlValuation",
    "ControlVarSpec",
    "Decision",
    "InstanceSpec",
    "MctsConfig",
    "Problem",
    "RunRecord",
    "SearchConfig",
    "SearchResult",
    "State",
    "SuiteConfig",
    "TraceCheck",
    "default_ladder",
    "generate",
    "goal_test",
    "load_suite",
    "make_blockgrouping",
    "make_counters",
    "make_drone",
    "make_heuristic",
    "make_sailing",
    "make_sampler",
    "parse_problem",
    "replay_plan",
    "run_mcts",
    "run_search",
    "run_suite",
    "serialize_plan",
    "serialize_problem",
    "solution_cost_within_bound",
    "try_apply",
    "validate",
    "__version__",
]
