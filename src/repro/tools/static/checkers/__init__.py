"""The built-in invariant checkers.

Importing this package registers every built-in rule with the framework
registry (mirroring how the storage backends register at import time); the
modules are tiny and dependency-free, so the cost is negligible.  Each rule
lives in its own module named after its id.
"""

from . import det001, exc001, knob001, reg001, ship001, state001

__all__ = ["det001", "exc001", "knob001", "reg001", "ship001", "state001"]
