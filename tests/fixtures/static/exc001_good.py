"""EXC001 good fixture: dispatch-path handlers that always reach a verdict."""


def reset_process_pool():
    pass


def _pool_failed():
    pass


def _breaker_exit(token, success):
    pass


def _submit_per_shard(pool, fn, tasks):
    token = "closed"
    try:
        return [pool.submit(fn, task) for task in tasks]
    except RuntimeError:
        # Feeding the breaker counts as a verdict.
        _breaker_exit(token, False)
        return None


def _dispatch(pool, fn, tasks):
    try:
        return [pool.submit(fn, task) for task in tasks]
    except OSError:
        reset_process_pool()  # infrastructure verdict: the caller falls back
        return None


def publish_segment(registry, name, segment):
    try:
        registry[name] = segment
    except MemoryError:
        segment.close()
        raise  # re-raising is a verdict


def _release_segments(names):
    for name in names:
        try:
            name.unlink()
        # repro: ignore[EXC001] releasing an already-released segment is
        # idempotent by design; the registry sweep retries at exit.
        except OSError:
            pass


def _worker_gather(handle):
    try:
        return handle.resolve()
    except FileNotFoundError:
        raise  # the parent classifies this as fatal


def helper_outside_the_scope():
    # Not a dispatch/publication function: swallows are someone else's
    # code-review problem, not this rule's.
    try:
        return int("nope")
    except ValueError:
        return None
