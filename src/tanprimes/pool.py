"""Thread-pool width for the per-point numpy layers.

The CLI sets it with `threads(n)` for the length of one run, n the CPUs
the process may use, at most 2; everywhere else it is 1 and `map_chunks`
is a plain serial map. The layers that use it (window.invert_map and
weight, circle._exp_sums, and repcount.self_convolution, whose block
transforms are one map and whose even and odd shifts are one map each)
hand it chunk functions that spend their time in numpy loops or pocketfft
transforms, which release the GIL, and that each write only their own
slice of a preallocated output. The same chunk function runs at every
width, so no output bit depends on it.

The width lives in a context variable. Threads start in an empty context,
so the pool's own threads, and a library caller's, see width 1, and a
chunk function never maps on a pool. Each map_chunks of two or more items
at a width above 1 starts its own threads, tanprimes_0, tanprimes_1, ...,
which take the items in order, and joins them before it returns.
"""
from __future__ import annotations

import contextlib
import contextvars
import threading

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

    Raises what fn raises, once every thread has stopped: of several
    failures, that of the first item. No item is started after a failure.
    """
    n = min(WIDTH.get(), len(items))
    if n < 2:
        return [fn(x) for x in items]
    results = [None] * len(items)
    failed = {}
    todo = iter(range(len(items)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = None if failed else next(todo, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    failed[i] = exc

    workers = [threading.Thread(target=work, name=f"tanprimes_{t}") for t in range(n)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    if failed:
        raise failed[min(failed)]
    return results
