"""Query algebra: AST, predicates, SQL parser, evaluator, tableau, relaxation."""

from .aggregates import AggregateFunction
from .ast import (
    Difference,
    GroupBy,
    Product,
    Project,
    QueryNode,
    Rename,
    Scan,
    Select,
    Union,
    canonical_form,
    condition_on,
    query_fingerprint,
    resolve_attribute,
)
from .evaluator import (
    DatabaseProvider,
    Evaluator,
    Frame,
    MappingProvider,
    RelationProvider,
    evaluate_exact,
)
from .predicates import (
    AttrRef,
    CompareOp,
    Comparison,
    Conjunction,
    Const,
    MaskProgram,
)
from .relax import RelaxationOracle, relaxed_query, split_condition
from .spc import SPCQuery, classify, max_spc_subqueries, maximal_induced_query, to_spc
from .sql import parse_query
from .tableau import Constant, Tableau, TupleTemplate, Variable, build_tableau

__all__ = [
    "AggregateFunction",
    "AttrRef",
    "CompareOp",
    "Comparison",
    "Conjunction",
    "MaskProgram",
    "Const",
    "Constant",
    "DatabaseProvider",
    "Difference",
    "Evaluator",
    "Frame",
    "GroupBy",
    "MappingProvider",
    "Product",
    "Project",
    "QueryNode",
    "RelationProvider",
    "RelaxationOracle",
    "Rename",
    "SPCQuery",
    "Scan",
    "Select",
    "Tableau",
    "TupleTemplate",
    "Union",
    "Variable",
    "build_tableau",
    "canonical_form",
    "classify",
    "condition_on",
    "evaluate_exact",
    "max_spc_subqueries",
    "maximal_induced_query",
    "parse_query",
    "query_fingerprint",
    "relaxed_query",
    "resolve_attribute",
    "split_condition",
    "to_spc",
]
