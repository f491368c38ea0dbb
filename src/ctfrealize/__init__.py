"""ctfrealize: counterfactual realizability and experiment simulation.

Given a causal diagram and the physical actions an experimenter can
take, decide whether an arbitrary counterfactual joint distribution can
be sampled from directly, produce the data-collection plan when it can,
and simulate the physical procedure (unit selection, randomization,
input randomization, reads) against hidden structural causal models.
Ships exact evaluation of counterfactual queries on finite models, a
causal bandit harness, and a counterfactual fairness experiment.
"""

from .errors import (
    ActionError,
    ContainmentViolation,
    CtfRealizeError,
    EstimationError,
    FCEViolation,
    GraphError,
    MediatorStructureError,
    ModelError,
    QueryError,
    QuerySyntaxError,
)
from .graphs import CausalDiagram
from .models import Mechanism, ScmModel, independent_exogenous, validate_scm
from .queries import (
    CtfQuery,
    PotentialResponse,
    RegimeEntry,
    counterfactual_ancestors,
    parse_query,
    query,
    response,
)
from .engine import (
    ExactDistribution,
    exact_distribution,
    exact_l3_probabilities,
    exact_l3_probability,
    interventional_distribution,
    nde,
)
from .realizability import (
    Action,
    ActionSet,
    Conflict,
    NotRealizable,
    RealizabilityChecker,
    RealizationPlan,
    ctf_rand_action,
    ctf_realize,
    maximal_action_set,
    parse_action_set,
    rand_action,
    read_action,
    realizable_by_criterion,
    select,
)
from .mediators import (
    ExpandedDiagram,
    MediatorNode,
    ctf_procedures,
)
from .simulate import (
    Experiment,
    SampleBatch,
    Unit,
    draw_plan_batch,
    estimate,
    sample_interventional,
    sample_observational,
)
from .bandits import (
    ExactTables,
    MabProblem,
    RunMetrics,
    Strategy,
    StrategyForm,
    TIERS,
    best_strategy,
    evaluate_strategy_exact,
    example3_problem,
    run_epochs,
)
from .fairness import (
    CanonicalScm,
    FairnessReport,
    example2_scm,
    mu_ctf,
    mu_int,
    sample_constrained_scms,
    violation_fraction,
)
from . import fixtures

__version__ = "0.1.0"
