"""KNOB001 bad fixture: an unvalidated setter and an undocumented env knob."""

import os

_chunk_rows = 4096
_UNDOCUMENTED = os.environ.get("REPRO_SECRET_KNOB")
# A serving knob that is *not* in the documented allowlist either.
_SERVING_UNDOCUMENTED = os.environ.get("REPRO_SERVING_SECRET_TIER")
# Nor is this storage-tier knob (REPRO_STORE_DIR is documented; this is not).
_STORE_UNDOCUMENTED = os.environ.get("REPRO_STORE_SCRATCH_DIR")
# REPRO_SHARD_EXECUTOR is documented; this start-method sibling is not.
_EXECUTOR_UNDOCUMENTED = os.environ.get("REPRO_SHARD_EXECUTOR_START_METHOD")
_policy = "queue"
_store_dir = None
_executor = "thread"


def set_chunk_rows(count):
    global _chunk_rows
    _chunk_rows = count  # accepts 0, -7, "many", ... without complaint


def set_admission_policy(policy):
    global _policy
    _policy = policy  # accepts "yolo" without complaint


def set_store_dir(path):
    global _store_dir
    _store_dir = path  # accepts 0, b"", ... without complaint


def set_executor(mode):
    global _executor
    _executor = mode  # accepts "threads", 42, ... without complaint


# A resilience-flavoured knob that is *not* in the documented allowlist
# (REPRO_FAULT_PLAN is; this injection sibling is not).
_UNDOCUMENTED_FAULT_KNOB = os.environ.get("REPRO_FAULT_KILL_RATE")


def set_fault_plan(spec):
    global _fault_plan
    _fault_plan = spec  # accepts 17, b"", object() ... without complaint
