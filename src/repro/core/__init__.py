"""BEAS core: bounded plans, chase, chAT, executor, approximation schemes, framework."""

from .beas_agg import plan_aggregate
from .beas_ra import plan_ra, refine_bound_with_induced
from .beas_spc import plan_spc
from .bounded import alpha_exact, exact_plan, is_boundedly_evaluable
from .chase import ChaseResult, ChaseStep, Chaser, Mark, chase
from .chat import choose_access_templates
from .executor import PlanExecutor
from .fetch_plan import atom_constants, fetch_plan_from_chase, needed_attributes
from .framework import Beas, QueryResult
from .lower_bound import distance_bounds, lower_bound
from .plan import Accessor, BoundedPlan, FetchPlan, FetchSource, FetchStep
from .planner import generate_plan

__all__ = [
    "Accessor",
    "Beas",
    "BoundedPlan",
    "ChaseResult",
    "ChaseStep",
    "Chaser",
    "FetchPlan",
    "FetchSource",
    "FetchStep",
    "Mark",
    "PlanExecutor",
    "QueryResult",
    "alpha_exact",
    "atom_constants",
    "chase",
    "choose_access_templates",
    "distance_bounds",
    "exact_plan",
    "fetch_plan_from_chase",
    "generate_plan",
    "is_boundedly_evaluable",
    "lower_bound",
    "needed_attributes",
    "plan_aggregate",
    "plan_ra",
    "plan_spc",
    "refine_bound_with_induced",
]
