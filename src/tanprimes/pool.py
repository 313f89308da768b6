"""One small thread pool for the per-point numpy layers.

The CLI opens it with `threads(n)` for the length of one run, n from
--threads or TANPRIMES_THREADS; everywhere else the width is 1 and
`map_chunks` is a plain serial map. The layers that use it
(window.invert_map and weight, circle._exp_sums) hand it chunk functions
that spend their time in numpy loops, which release the GIL, and that
each write only their own slice of a preallocated output. The same chunk
function runs at every width, so no output bit depends on it.

The pool lives in a context variable: threads started by the pool, or by
a library caller, see width 1, so a chunk function never waits on the
pool it runs in. The threads, and the import of concurrent.futures, come
only with the first map_chunks of a run whose width is above 1.
"""
from __future__ import annotations

import contextlib
import contextvars
import threading

_POOL = contextvars.ContextVar("tanprimes_pool", default=None)


class _Pool:
    """A width above 1 and, once a map needs it, an executor of that width."""

    def __init__(self, width: int):
        self.width = width
        self._lock = threading.Lock()
        self._executor = None

    def executor(self):
        with self._lock:
            if self._executor is None:
                from concurrent.futures import ThreadPoolExecutor

                self._executor = ThreadPoolExecutor(
                    max_workers=self.width, thread_name_prefix="tanprimes")
            return self._executor

    def close(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(cancel_futures=True)


def width() -> int:
    """Number of threads that map_chunks uses here; 1 outside threads()."""
    p = _POOL.get()
    return 1 if p is None else p.width


@contextlib.contextmanager
def threads(n: int):
    """Run map_chunks on n threads inside the block (n = 1: serially)."""
    p = _Pool(n) if n > 1 else None
    token = _POOL.set(p)
    try:
        yield
    finally:
        _POOL.reset(token)
        if p is not None:
            p.close()


def map_chunks(fn, items) -> list:
    """[fn(x) for x in items], on the pool when one is open; raises what fn raises."""
    p = _POOL.get()
    if p is None:
        return [fn(x) for x in items]
    return list(p.executor().map(fn, items))
