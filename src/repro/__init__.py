"""repro — a reproduction of "Data Driven Approximation with Bounded Resources".

BEAS (Boundedly EvAluable Sql, Cao & Fan, VLDB 2017) answers relational
queries over a dataset ``D`` while accessing at most ``α·|D|`` tuples, for a
user-chosen resource ratio ``α``, and returns a deterministic accuracy lower
bound under the RC (relevance/coverage) measure.

Quickstart::

    from repro import Beas, Database, Relation, build_schema, NUMERIC

    db = Database.from_relations([...])
    beas = Beas(db)                              # declares A_t; builds no template index
    result = beas.answer("select ... from ...", alpha=5e-4)  # builds the indexes its plan binds
    result.rows, result.eta, result.tuples_accessed
"""

from .access import AccessSchema, AccessSchemaBuilder, ConstraintSpec, FamilySpec, TemplateSpec
from .accuracy import f_measure, mac_accuracy, rc_accuracy
from .algebra import (
    AggregateFunction,
    AttrRef,
    CompareOp,
    Comparison,
    Conjunction,
    Const,
    Difference,
    GroupBy,
    Product,
    Project,
    QueryNode,
    Scan,
    Select,
    Union,
    evaluate_exact,
    parse_query,
    query_fingerprint,
)
from .config import Config, configure
from .config import current as current_config
from .core import Beas, BoundedPlan, QueryResult
from .errors import (
    AccessSchemaError,
    BudgetExceededError,
    ParseError,
    PlanError,
    QueryError,
    ReproError,
    SchemaError,
    ServingError,
)
from .relational import (
    AccessMeter,
    Attribute,
    CATEGORICAL,
    ColumnStore,
    Database,
    DatabaseSchema,
    DistanceFunction,
    NUMERIC,
    Relation,
    RelationSchema,
    STRING_PREFIX,
    ShardedStore,
    Store,
    TRIVIAL,
    build_schema,
    key_attribute,
    list_backends,
    numeric_attribute,
    numeric_scaled,
    register_backend,
)
from .serving import (
    AdmissionController,
    CacheBackend,
    LRUTTLCache,
    QueryServer,
    ServingEnvelope,
    ServingStats,
)

__version__ = "0.3.0"

__all__ = [
    "AccessMeter",
    "AccessSchema",
    "AccessSchemaBuilder",
    "AccessSchemaError",
    "AdmissionController",
    "AggregateFunction",
    "AttrRef",
    "Attribute",
    "Beas",
    "BoundedPlan",
    "BudgetExceededError",
    "CATEGORICAL",
    "CacheBackend",
    "ColumnStore",
    "Config",
    "CompareOp",
    "Comparison",
    "Conjunction",
    "Const",
    "ConstraintSpec",
    "Database",
    "DatabaseSchema",
    "Difference",
    "DistanceFunction",
    "FamilySpec",
    "GroupBy",
    "LRUTTLCache",
    "NUMERIC",
    "ParseError",
    "PlanError",
    "Product",
    "Project",
    "QueryError",
    "QueryNode",
    "QueryResult",
    "QueryServer",
    "Relation",
    "RelationSchema",
    "ReproError",
    "ShardedStore",
    "STRING_PREFIX",
    "Scan",
    "SchemaError",
    "Select",
    "ServingEnvelope",
    "ServingError",
    "ServingStats",
    "Store",
    "TRIVIAL",
    "TemplateSpec",
    "Union",
    "build_schema",
    "configure",
    "current_config",
    "evaluate_exact",
    "f_measure",
    "key_attribute",
    "list_backends",
    "mac_accuracy",
    "numeric_attribute",
    "numeric_scaled",
    "parse_query",
    "query_fingerprint",
    "rc_accuracy",
    "register_backend",
]
