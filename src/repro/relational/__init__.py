"""Relational substrate: schemas, relations, databases, distance kernels."""

from .. import config
from .database import AccessMeter, Database
from .distance import (
    CATEGORICAL,
    DistanceFunction,
    INFINITY,
    NUMERIC,
    STRING_PREFIX,
    TRIVIAL,
    numeric_scaled,
    tuple_distance,
)
from .kernels import (
    NearestNeighbors,
    RadiusMatcher,
    naive_min_distance,
    naive_radius_matches,
)
from .mmapstore import (  # registers the "mmap" / "mmap-sharded" backends
    MmapShardedStore,
    MmapStore,
    cleanup_store_dir,
    get_store_dir,
    open_database,
    save_database,
)
from .parallel import probe_process_executor
from .relation import Relation, Row
from .schema import (
    Attribute,
    DatabaseSchema,
    RelationSchema,
    build_schema,
    key_attribute,
    numeric_attribute,
)
from .store import (
    ColumnStore,
    EXECUTOR_MODES,
    RowStore,
    ShardedStore,
    Store,
    backend_class,
    gather_columns,
    gather_pairs,
    list_backends,
    make_store,
    preferred_output_class,
    register_backend,
    vstack_gather,
)

__all__ = [
    "AccessMeter",
    "CATEGORICAL",
    "Attribute",
    "ColumnStore",
    "Database",
    "DatabaseSchema",
    "DistanceFunction",
    "INFINITY",
    "MmapShardedStore",
    "MmapStore",
    "NearestNeighbors",
    "NUMERIC",
    "RadiusMatcher",
    "naive_min_distance",
    "naive_radius_matches",
    "Relation",
    "RelationSchema",
    "Row",
    "RowStore",
    "ShardedStore",
    "Store",
    "STRING_PREFIX",
    "TRIVIAL",
    "EXECUTOR_MODES",
    "backend_class",
    "build_schema",
    "cleanup_store_dir",
    "gather_columns",
    "gather_pairs",
    "get_store_dir",
    "key_attribute",
    "list_backends",
    "make_store",
    "numeric_attribute",
    "numeric_scaled",
    "open_database",
    "preferred_output_class",
    "probe_process_executor",
    "register_backend",
    "save_database",
    "tuple_distance",
    "vstack_gather",
]

# REPRO_DEFAULT_BACKEND is the one variable repro.config could not check
# when it parsed the environment: the registry was empty then.  Every
# in-tree backend (including the mmap tier above) is registered now.
try:
    backend_class(config.current().default_backend)
except ValueError as exc:
    raise ValueError(f"REPRO_DEFAULT_BACKEND: {exc}") from None
