"""KNOB001 good fixture: settings go through configure(); no REPRO_* reads here."""

import os

from repro import config

_HOME = os.environ.get("HOME")  # not a REPRO_* variable: not a setting of this package
_pool = None


def set_workers(count):
    """A named delegate: validation and the swap are configure()'s."""
    return config.configure(shard_workers=count).shard_workers


def set_pool(pool):
    """A set_* that changes an object it was handed, not a module global."""
    pool.width = config.current().worker_count
    return pool


def _on_configure(previous, new):
    """Module state sized by a setting is refreshed by a subscriber, not a setter."""
    global _pool
    if previous.shard_workers != new.shard_workers:
        _pool = None


config.subscribe(_on_configure)
