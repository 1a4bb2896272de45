"""KNOB001 bad fixture: a private copy of a setting, and REPRO_* reads outside config."""

import os

_checksum_mode = os.environ.get("REPRO_CHECKSUM", "header")  # a second parser of a table row
_SECRET = os.getenv("REPRO_SECRET_KNOB")  # a variable the table does not know
_STRICT = os.environ["REPRO_STRICT"]  # subscript reads count too
_policy = "queue"


def _env(name):
    return os.environ.get(name)  # a computed name: nothing can audit what this reads


def set_serving_policy(policy):
    global _policy
    _policy = policy  # unvalidated, unseen by workers, not restored by configure(previous)


def set_store_dir(path):
    global _store_dir
    if not isinstance(path, str):
        raise TypeError(path)
    _store_dir = path  # validating does not make a second copy right
