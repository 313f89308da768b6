"""Thread-pool width for the per-point numpy layers.

The CLI sets it with `threads(n)` for the length of one run, n the CPUs
the process may use, at most 2; everywhere else it is 1 and `map_chunks`
is a plain serial map. The layers that use it (window.invert_map and
weight, circle._exp_sums, and repcount.self_convolution, whose two
half-length rffts, and then two irffts, are one map of two tasks) hand it
chunk functions that spend their time in numpy loops or pocketfft
transforms, which release the GIL, and that each write only their own
slice of a preallocated output. The same chunk function runs at every
width, so no output bit depends on it.

The width lives in a context variable. Threads start in an empty context,
so the pool's own threads, and a library caller's, see width 1, and a
chunk function never maps on a pool. Each map_chunks of two or more items
at a width above 1 runs on its own executor, closed before it returns;
concurrent.futures is imported only then.
"""
from __future__ import annotations

import contextlib
import contextvars

WIDTH = contextvars.ContextVar("tanprimes_width", default=1)


@contextlib.contextmanager
def threads(n: int):
    """Run map_chunks on up to n threads inside the block (n = 1: serially)."""
    token = WIDTH.set(n)
    try:
        yield
    finally:
        WIDTH.reset(token)


def map_chunks(fn, items) -> list:
    """[fn(x) for x in items] for a sequence of items, on up to WIDTH threads.

    Raises what fn raises, once every thread has stopped.
    """
    n = min(WIDTH.get(), len(items))
    if n < 2:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(n, thread_name_prefix="tanprimes") as executor:
        return list(executor.map(fn, items))
