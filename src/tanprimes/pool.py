"""Thread-pool width for the per-point numpy layers.

The CLI sets it with `threads(n)` for the length of one run, n the CPUs
the process may use, at most 2; everywhere else it is 1 and `map_chunks`
runs every item on the calling thread. The window, circle and repcount
layers hand it chunk functions that spend their time in numpy loops or
pocketfft transforms, which release the GIL, and that each write only
their own slice of a preallocated output; where outputs overlap, the
chunk function computes and a `then` step writes them, in item order.
The same chunk function runs at every width, so no output bit depends on
it.

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


def map_chunks(fn, items, then=None) -> list:
    """[fn(x) for x in items] for a sequence of items, on up to WIDTH threads.

    With then, then(x, fn(x)) runs for each item, in item order, on the
    thread that ran fn(x), before that thread takes another item. Raises
    what fn or then raises, once every thread has stopped: of several
    failures, that of the first item. After a failure no item is started
    and no then runs.
    """
    results = [None] * len(items)
    failed = {}
    todo = iter(range(len(items)))
    done = 0   # the items whose then has run
    turn = threading.Condition()

    def work():
        nonlocal done
        while True:
            with turn:
                i = None if failed else next(todo, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
                if then is not None:
                    with turn:
                        turn.wait_for(lambda: done == i or failed)
                        if failed:
                            return
                        then(items[i], results[i])
                        done += 1
                        turn.notify_all()
            except BaseException as exc:
                with turn:
                    failed[i] = exc
                    turn.notify_all()

    n = min(WIDTH.get(), len(items))
    if n < 2:
        work()
    else:
        workers = [threading.Thread(target=work, name=f"tanprimes_{t}") for t in range(n)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
    if failed:
        raise failed[min(failed)]
    return results
