"""Ternary and binary representation counts of targets by window primes.

The workhorse is meet-in-the-middle: tabulate the multiset of ordered
pair sums f(p_i)+f(p_j) once (dense count and weight arrays from one FFT),
then meet a band of consecutive targets transposed: for a block of targets
each p_3 reads one contiguous window of the table, and the windows are
summed down the p_3. Since every f(p_3) >= min f, a band ending at N_hi
reads only pair sums up to N_hi - min f, and the table is built only that
far. A loop over every ordered pair, looking the third floor up, serves as
the independent oracle. Ordered triples are counted, diagonals included.

The weighted sum over p_3 of each target is exact until one final rounding:
every product is cut without error into integer slices on units fixed once
per band from the magnitudes of the logs and the weights (_slice_units),
52 - rows.bit_length() bits wide for the rows that can meet a target (26
bits at the 2^25 bound, 42 for the 992 primes of k = 3), each slice is
summed exactly in float64, and the slice sums are joined: one add for two
slices (the correctly rounded sum of two exact floats), math.fsum for
more. The result is the correctly rounded sum, the same bits as math.fsum
of the products, whatever the order or the blocking, for any finite
weights whose products stay below 2^970. A band comes back as one BandScan
of columns; report(i) is one target's row.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from . import pool
from .errors import BandTooWide, InvalidParameter, TooLarge
from .primesieve import sieve_segment
from .seqeval import ValueTable, certified_floor, log_weights
from .window import WindowParams

_NAIVE_GUARD = 10 ** 4
_CLASSICAL_GUARD = 10 ** 5
_PAIR_SPAN_GUARD = 1 << 26   # dense pair arrays beyond this would eat memory
_BLOCKS_FROM = 1 << 18      # self_convolution squares an x this long or longer from _BLOCKS blocks
_BLOCKS = 32
_BAND_GUARD = 10 ** 6
_MEET_CHUNK = 1 << 16      # products the band meet gathers at once (at least one row)
_MEET_TARGETS = 1 << 12    # targets of one block of the band meet
_SCAN_CHUNK = 1 << 16      # magnitudes _slice_units scans at once


@dataclass(frozen=True)
class RepReport:
    target: int
    count: int
    weighted: float
    method: str                       # "mitm" or "naive"
    window: Optional[WindowParams] = None


@dataclass(frozen=True)
class BandScan:
    """Columnar counts of consecutive targets: row i is target N[i]."""

    N: np.ndarray          # int64
    count: np.ndarray      # int64
    weighted: np.ndarray   # float64
    window: Optional[WindowParams] = None

    def __len__(self) -> int:
        return len(self.N)

    def report(self, i: int) -> RepReport:
        return RepReport(int(self.N[i]), int(self.count[i]), float(self.weighted[i]),
                         "mitm", self.window)


@dataclass(frozen=True)
class PairMap:
    """Dense ordered-pair-sum tables: counts[s - s_min], weights[s - s_min].

    Counts are int32. The floors strictly increase (_pair_tables checks it),
    so each p_i meets at most one p_j at a sum: a pair sum has at most
    n_primes ordered pairs, and under the 2^26 span guard at most 2^25
    primes reach the table.
    """

    s_min: int
    counts: np.ndarray   # int32
    weights: np.ndarray  # float64, sum of log p_i log p_j per pair sum
    n_primes: int

    @property
    def s_max(self) -> int:
        return self.s_min + len(self.counts) - 1


def check_pair_span(span: int) -> None:
    """Refuse pair tables longer than 2^26 sums or self-convolutions, before they are built.

    span is max(n_out, 2*width - 1) (see _pair_tables): the longer of the
    table and the self-convolution of its width-long multiplicity vector,
    which for a full table is the number of pair sums, 2*(max f - min f) + 1;
    or an upper bound for it such as pair_span_bound(w, N_hi) when no table
    exists yet. The transforms that build the table are about 2*width/P
    long, P the block count of _blocks.
    """
    if span > _PAIR_SPAN_GUARD:
        raise TooLarge(f"pair-sum span {span} exceeds the dense-array guard")


def pair_span_bound(w: WindowParams, N_hi: int) -> int:
    """Upper bound on the span check_pair_span judges for the table a band ending at N_hi reads.

    t is increasing on the window, so every f(p) lies in [floor(n1), n_star]:
    the full span is at most 2*(n_star - floor(n1)) + 1, and the band reads at
    most n_out = N_hi - 3*floor(n1) + 1 sums from at most as many floors,
    whose self-convolution is at most 2*n_out - 1 long.
    """
    return min(2 * (w.n_star - math.floor(w.n1)) + 1, 2 * (N_hi - 3 * math.floor(w.n1) + 1) - 1)


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c at least n."""
    odd = (3 ** b * 5 ** c for b in range(n.bit_length()) for c in range(n.bit_length()))
    return min(m << (-(-n // m) - 1).bit_length() for m in odd if m < 2 * n)


def _blocks(L: int) -> tuple[int, int]:
    """Block length a and transform length nfft for squaring an L-long x.

    x is cut into P blocks of a = ceil(L / P): P = 2 below _BLOCKS_FROM,
    under which every k <= 3 table and singular-integral grid falls at
    (c, theta) = (1.02, 1.5) and (1.05, 2.0) (the longest is 208 649), and
    _BLOCKS from there on (transforms of 48 000 for the k = 4 band table).
    Each block product fits one transform of the 5-smooth length
    nfft >= 2a - 1 without wrapping around.
    """
    a = -(-L // (2 if L < _BLOCKS_FROM else _BLOCKS))
    return a, _fft_length(2 * a - 1)


def _fft_workspace(width: int, n_out: int, margin: int = 0) -> list:
    """The one allocation in which self_convolution squares a width-long x into n_out sums.

    With a and nfft from _blocks(width), the P = ceil(width / a) block
    spectra, nfft // 2 + 1 complex each, are the rows at the bottom of one
    float64 allocation, and the table, the n_out sums with margin floats on
    both sides, is its top. The shifts run from the highest down
    (self_convolution): shift s writes from sum s a on, and the shifts
    below it read only the first min(s, P) rows. So the allocation is the
    shortest that holds the spectra and the table and keeps every shift's
    writes above those rows. When n_out <= P a, as on every band table,
    that is the spectra alone, 16 bytes a sum: 12.3 MB for the k = 4 band
    table. A full table of 2 width - 1 sums takes about 12 bytes a sum
    (7.3e6 floats at k = 4). Nothing is zeroed: self_convolution writes
    every float of the table. Returns [width, table, spectra], which
    _to_front gives up for the table alone.
    """
    a, nfft = _blocks(width)
    half = nfft // 2 + 1
    blocks = -(-width // a)
    shifts = min(2 * blocks - 1, -(-n_out // a))
    top = n_out + margin   # the table's floats from its first sum up
    floats = max([2 * half * blocks, top + margin]
                 + [2 * half * min(s, blocks) + top - s * a for s in range(1, shifts)])
    mem = np.empty(floats)
    spec = mem[:2 * half * blocks].view(np.complex128).reshape(blocks, half)
    return [width, mem[floats - top - margin:], spec]


def _to_front(work: list) -> np.ndarray:
    """The table of a workspace moved to the front of its allocation, cut to it in place.

    The workspace is emptied, and no other view of the allocation may be
    left, since what lies past the table is freed. That is checked by
    reference count here: numpy's own check in resize also counts the bound
    method a profiler or tracer makes of mem.resize, and so fails under one.
    """
    n = len(work[1])
    mem = work[1].base
    work.clear()
    mem[:n] = mem[len(mem) - n:]   # forward and one-dimensional: a memmove
    if sys.getrefcount(mem) > 2:   # this name and getrefcount's argument
        raise ValueError("a view of the pair-table allocation outlives its table")
    mem.resize(n, refcheck=False)
    return mem


def self_convolution(x, n_out: int, work: Optional[list] = None) -> np.ndarray:
    """First n_out entries of the linear convolution x * x, from blocks of x[:n_out].

    Only x[:n_out] is read. With L its length and a, nfft from _blocks(L),
    each block q_i = x[i a:(i + 1) a] is transformed once, on the pool.
    Shift s of x * x, at offset s a, is the sum of q_i * q_j over
    i + j = s: its spectrum is the sum of the cross products Q_i Q_j,
    i < j, doubled, plus Q_(s/2)^2 when s is even, and one inverse
    transform gives it. A cross product is taken lower block first when
    the output runs past 2a and higher first otherwise: complex products
    round differently in the two orders, and these are the orders of the
    two-block squares whose bits the tests pin. With two blocks, below
    _BLOCKS_FROM, the odd shift has one product, and its factor 2 is
    applied after the inverse; with more, an even shift doubles its cross
    products before the inverse, as exactly.

    A shift reaches at most 2a - 1 entries, so every entry is the sum of
    at most two shifts, s and s + 1, and is at most one rounded add of
    two inverse outputs, fl(even + 2 odd). The shifts are one pool map from
    the highest down, and each commits as the map's then step, so in that
    order: shift s assigns its first a entries and adds its next a onto
    those shift s + 1 assigned. An even shift counts as 0.0 past its reach
    and an odd one as nothing, so entries past a shift's reach (all past
    2L - 2) are exactly 0.0 and the bits are those of writing the even
    shifts first and adding the odd ones. The same products and transforms
    run at every pool width, so no bit depends on it.

    Both maps run on T threads, T the pool width but at most one for two
    of the S shifts, each with a pair of complex buffers made here: a
    thread's pair takes its blocks' input, and shift s works in pair
    (S - 1 - s) % T, since at most T consecutive shifts await their commit.

    The transforms run in one allocation (_fft_workspace): the spectra at
    its bottom, the sums at its top, where shift s writes only above the
    spectra the shifts below it read. Without work the sums are moved to
    the front of the allocation, which is cut to them in place (_to_front):
    the result holds no spectra. With work from _fft_workspace(L, n_out,
    margin), the result is the n_out sums in the middle of the workspace's
    table, whose margins are zeroed, and x may also be the pair (positions,
    values) of the nonzero entries of an L-long vector, positions strictly
    increasing (values may be one scalar): each block's input is then
    filled from it in the thread's buffer.
    """
    if work is None:
        x = x[:n_out]
        work = _fft_workspace(len(x), n_out)
        self_convolution(x, n_out, work)
        return _to_front(work)
    L, table, spec = work
    a, nfft = _blocks(L)
    P = len(spec)
    size = [min(a, L - i * a) for i in range(P)]
    margin = (len(table) - n_out) // 2
    out = table[margin:margin + n_out]

    if isinstance(x, tuple):
        pos, vals = x
        cut = np.searchsorted(pos, np.arange(P + 1) * a).tolist()

        def block(i, buf):
            q = buf[:size[i]]
            q[:] = 0.0
            q[pos[cut[i]:cut[i + 1]] - i * a] = vals[cut[i]:cut[i + 1]] if np.ndim(vals) else vals
            return q
    else:
        def block(i, buf):
            return x[i * a:i * a + size[i]]

    S = min(2 * P - 1, -(-n_out // a))
    lo_first = n_out > 2 * a
    T = min(pool.WIDTH.get(), -(-S // 2))   # at most one thread and buffer pair for two shifts
    bufs = [np.empty((2, spec.shape[1]), dtype=np.complex128) for _ in range(T)]

    def forward(t):
        for i in range(t, P, T):
            np.fft.rfft(block(i, bufs[t][1].view(np.float64)), nfft, out=spec[i])

    def shift(s):
        acc, tmp = bufs[(S - 1 - s) % T]
        pairs = [(s - j, j) if lo_first else (j, s - j)
                 for j in range(min(s, P - 1), s // 2, -1)]
        if s % 2 == 0:
            pairs.append((s // 2, s // 2))
        for n, (u, v) in enumerate(pairs):
            if n and u == v:
                acc += acc    # the cross products count twice
            np.multiply(spec[u], spec[v], out=tmp if n else acc)
            if n:
                acc += tmp
        np.fft.irfft(acc, nfft, out=tmp.view(np.float64)[:nfft])
        return tmp.view(np.float64)[:2 * a]

    def commit(s, r):
        o = s * a
        e = min(2 * a, n_out - o)
        # the shift's most even pair reaches furthest
        k = min(e, size[s // 2] + size[-(-s // 2)] - 1)
        if s % 2:
            r[:k] *= 2.0
        else:
            r[k:] = 0.0
            k = e
        if s == S - 1:
            out[o:o + e] = r[:e]
        else:
            out[o:o + min(a, e)] = r[:min(a, e)]
            out[o + a:o + k] += r[a:k]

    with pool.threads(T):   # at most T shifts between their products and their commit
        pool.map_chunks(forward, range(T))
        pool.map_chunks(shift, range(S - 1, -1, -1), then=commit)
    out[(S + 1) * a:] = 0.0
    table[:margin] = 0.0
    table[margin + n_out:] = 0.0
    return out


def _pair_tables(f: np.ndarray, logs: np.ndarray, n_out: Optional[int], margin: int,
                 use_counts: Callable[[int, np.ndarray], Any]) -> tuple[int, Any, np.ndarray]:
    """Pair sums from 2 min f on: all of them, or only the first n_out.

    Both tables are built in one float64 table with margin zeros on both
    sides of its n_out sums. First the counts: use_counts(2 min f, table)
    is called with them rounded in place, exact integers, and must copy
    what it keeps of them, since the table then takes the weights. Of the
    counts the build keeps only a packed nonzero mask, an eighth of a byte
    a sum, and the weights of the sums no pair reaches are zeroed by it.
    Returns 2 min f, what use_counts returned, and the weight table.

    Only the floors below min f + n_out can reach those sums, so the
    multiplicity vectors hold just the first width = min(max f - min f + 1,
    n_out) of them, the entries self_convolution reads, and they are handed
    over as the positions and values of their nonzero entries. The span
    guard judges max(n_out, 2*width - 1); for a full table that is the
    full span. The transforms are those of the P blocks of _blocks, about
    2*width/P long, and they run on the pool.

    Both self-convolutions run in one workspace (_fft_workspace): the table
    is the top of the allocation that holds the block spectra, and at the
    end it is moved to the front and the allocation cut to it in place, so
    the result holds no spectra. On a band table the allocation is the
    spectra alone, so the peak is the spectra and the mask, with the thread
    buffers of a square or what use_counts holds beside them: about 2.26
    times 8 bytes a sum for the k = 4 band table that _meet builds and
    meets in place, 2.02 of them the spectra, and 2.71 for
    build_pair_map's, which copies the counts out as int32.
    """
    fmin = int(f.min())
    fmax = int(f.max())
    span = 2 * (fmax - fmin) + 1
    n_out = span if n_out is None else min(span, n_out)
    width = min(fmax - fmin + 1, n_out)
    check_pair_span(max(n_out, 2 * width - 1))
    rel = (f - fmin).astype(np.int64)
    keep = rel < width
    rel, logs = rel[keep], logs[keep]
    # rint is exact: t' > 1 on every window (and (p^c)' > 1 in the classical
    # variant), so f is strictly increasing, the multiplicity vector is 0/1 and
    # its norm2 = |x|^2 <= width <= 2^25 under the 2^26 guard on 2*width - 1.
    # Percival's bound (Math. Comp. 72, 2003) on the error of an FFT product
    # q_i*q_j is |q_i| |q_j| e, e its factor at the block transform length
    # (2^21 for the P = 32 blocks of 2^20 at the guard), so all the block
    # products err by at most e (sum |q_i|)^2 <= P norm2 e, about 3.2e-5,
    # well below 1/4; test_percival_bound_at_span_guard evaluates it.
    # The increase is checked here, so each index below is written once.
    bad = np.flatnonzero(np.diff(rel) <= 0)
    if len(bad):
        i = int(bad[0])
        raise InvalidParameter(
            f"pair tables need strictly increasing floors: {fmin + int(rel[i + 1])} "
            f"follows {fmin + int(rel[i])}"
        )
    work = _fft_workspace(width, n_out, margin)
    table = work[1]
    sums = self_convolution((rel, 1.0), n_out, work=work)
    np.rint(sums, out=sums)
    step = 8 * _blocks(width)[0]   # eight blocks a chunk: each but the last packs whole bytes
    mask = np.concatenate([np.packbits(sums[i:i + step] != 0) for i in range(0, n_out, step)])
    kept = use_counts(2 * fmin, table)
    sums = self_convolution((rel, logs), n_out, work=work)
    for i in range(0, n_out, step):
        hit = np.unpackbits(mask[i // 8:(i + step) // 8], count=min(step, n_out - i))
        sums[i:i + step][hit == 0] = 0.0
    del table, sums
    return 2 * fmin, kept, _to_front(work)


def _by_floor(f: np.ndarray, *cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """f sorted, stably, and each of cols in the same order: the rows as the meets read them."""
    order = np.argsort(f, kind="stable")
    return (f[order], *(c[order] for c in cols))


def _pair_map_from_arrays(f: np.ndarray, logs: np.ndarray, n_out: Optional[int] = None) -> PairMap:
    """Pair sums from 2 min f on, rows in any order: all, or only the first n_out (see _pair_tables)."""
    if len(f) == 0:
        return PairMap(0, np.zeros(1, dtype=np.int32), np.zeros(1), 0)
    f, logs = _by_floor(f, logs)
    return PairMap(*_pair_tables(f, logs, n_out, 0, lambda s_min, counts: counts.astype(np.int32)),
                   len(f))


def build_pair_map(values: ValueTable, logs: np.ndarray) -> PairMap:
    return _pair_map_from_arrays(values.f, log_weights(values, logs))


def _slice_units(rows: int, *factors) -> Optional[range]:
    """Exponents u, highest first, of the 2^u units of the exact-sum slices, or None.

    The values to be cut are the float64 products of one entry of each
    factor (with one factor, its entries), of any sign, and a column of
    them summed at once has at most rows >= 1 of them. Rounding is
    monotone, so the product of the factors' largest magnitudes, top,
    bounds every value, and that of their smallest nonzero ones, small,
    every nonzero value from below; the magnitudes are scanned _SCAN_CHUNK
    at a time. None unless top is finite and below 2^970. Slices are
    w = 52 - rows.bit_length() bits wide (26 at 2^25 rows), so that rows
    parts of at most 2^w units sum below 2^52 units. With top = 0 every
    value is 0 and one slice holds them. The lowest unit 2^lo is the ulp of
    small, or 2^-1074 if small underflows, so it divides every value; the
    highest is at least top's exponent - w.
    """
    width = 52 - rows.bit_length()
    top, small = 1.0, 1.0
    for x in factors:
        x = np.ravel(x)
        hi, lo = 0.0, math.inf
        for i in range(0, len(x), _SCAN_CHUNK):
            a = np.abs(x[i:i + _SCAN_CHUNK])
            hi = float(np.max((hi, a.max())))   # np.max keeps a NaN
            lo = min(lo, float(np.min(a, where=a > 0, initial=np.inf)))
        top *= hi
        small *= lo
    if not top < 2.0 ** 970:
        return None
    if top == 0.0:
        return range(0, -1, -width)
    lo = max(math.frexp(small)[1] - 53, -1074) if small else -1074
    return range(lo + (math.frexp(top)[1] - lo - 1) // width * width, lo - 1, -width)


def _cut_slices(x: np.ndarray, units: range):
    """Yield the slices of x on units, highest first: each is a buffer to read before the next.

    x is overwritten, and the last slice is x itself. Every x is cut
    without error: with C = 1.5*2^(u+52) the ulp of rest + C is 2^u, so
    (rest + C) - C is rest rounded to a multiple of 2^u, and it and
    rest - part are exact (Sterbenz). With w the slice width of units (at
    most 51), a part is at most 2^w units of 2^u in the top slice
    (|x| <= 2^(u+w)) and 2^(w-1) below it (|rest| is at most half the unit
    above); the last slice is the rest itself, a multiple of 2^lo. So
    while a sum gathers at most the rows that _slice_units was given,
    every partial sum of slice j is an integer below 2^52 units of
    2^units[j], and float64 adds it exactly, in any order and any blocking.
    """
    part = np.empty_like(x)
    for u in units[:-1]:
        np.add(x, math.ldexp(1.5, u + 52), out=part)
        part -= math.ldexp(1.5, u + 52)
        x -= part
        yield part
    yield x


def _add_slices(x: np.ndarray, units: range, acc: np.ndarray) -> None:
    """Cut the rows-by-columns x on units (_cut_slices); add slice j's column sums to acc[j]."""
    for j, part in enumerate(_cut_slices(x, units)):
        acc[j] += part.sum(axis=0)


def _join_slices(acc: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each column of acc, whose slice sums _add_slices keeps exact.

    One slice is its own sum, and two join in one add: the float sum of two
    exact floats is their real sum, correctly rounded, as math.fsum gives
    it. Three or more go through math.fsum.
    """
    if len(acc) <= 2:
        return acc.sum(axis=0)
    return np.array([math.fsum(col) for col in acc.T.tolist()])


def _meet(f: np.ndarray, logs: np.ndarray, Ns: np.ndarray,
          pm: Optional[PairMap]) -> tuple[np.ndarray, np.ndarray]:
    """Counts and weighted sums of the consecutive targets Ns, exact until one rounding.

    Without pm the table stops at the largest pair sum the band reads,
    max Ns - min f, and none is built when no triple reaches the band.
    The rows may come in any order. Sorted by floor (_by_floor), p_3 number
    i meets target N at table index N - s_min - f_i, so for a block of up to
    _MEET_TARGETS consecutive targets each p_3 reads one contiguous window
    of the table; zero margins a block wide let every window stay in the
    arrays. The p_3 that reach a block are a run of
    rows, whose windows are gathered about _MEET_CHUNK products at a time.

    Two loops go over the same blocks. The first sums the count windows
    down the rows, in the float64 counts _pair_tables hands over before it
    builds the weights in the same buffer (or pm's int32 counts). That sum
    is exact: an entry is at most 2^25 (PairMap) and a target meets at most
    2^25 rows, so every partial sum is an integer below 2^50 < 2^53. The
    second cuts the products of log p_3 and the table's weight into slices
    whose units are fixed once per band (_slice_units of the len(f) rows
    that can meet a target, logs and the weight table) and sums them down
    the rows per target. So the slice sums are exact and the result is
    math.fsum's, whatever the blocks, for any finite weights, of any sign,
    whose products stay below 2^970; other weights raise InvalidParameter.
    Both read the tables in place, so a band's peak is the workspace of
    _pair_tables and its mask: about 2.26 times 8 bytes a sum for
    compare --k 4 --band -100:100, whose peak RSS is 47.5 MiB.
    """
    counts = np.zeros(len(Ns), dtype=np.int64)
    weighted = np.zeros(len(Ns))
    if not (len(f) and Ns[-1] >= 3 * int(f.min()) and Ns[0] <= 3 * int(f.max())):
        return counts, weighted
    f, logs = _by_floor(f, logs)
    tb = min(len(Ns), _MEET_TARGETS)
    rows = max(1, _MEET_CHUNK // tb)

    def blocks(s_min: int, table: np.ndarray):
        # each block of targets some p_3 meets, as (targets, windows of the
        # margined table, the runs of rows and their window starts)
        s_max = s_min + len(table) - 2 * tb - 1
        for t in range(0, len(Ns), tb):
            N0, width = int(Ns[t]), min(tb, len(Ns) - t)
            a = int(np.searchsorted(f, N0 - s_max, side="left"))
            b = int(np.searchsorted(f, N0 + width - 1 - s_min, side="right"))
            if a < b:
                runs = [slice(r, min(r + rows, b)) for r in range(a, b, rows)]
                yield (slice(t, t + width), np.lib.stride_tricks.sliding_window_view(table, width),
                       [(i, N0 - s_min + tb - f[i]) for i in runs])

    def meet_counts(s_min: int, pc: np.ndarray) -> None:
        for targets, cv, runs in blocks(s_min, pc):
            for _, starts in runs:
                counts[targets] += cv[starts].sum(axis=0).astype(np.int64, copy=False)

    if pm is None:
        s_min, _, pw = _pair_tables(f, logs, int(Ns[-1]) - 3 * int(f[0]) + 1, tb, meet_counts)
    else:
        s_min = pm.s_min
        meet_counts(s_min, np.pad(pm.counts, tb))
        pw = np.pad(pm.weights, tb)
    units = _slice_units(len(f), logs, pw)
    if units is None:
        raise InvalidParameter("weighted products must be finite and below 2^970")
    for targets, wv, runs in blocks(s_min, pw):
        acc = np.zeros((len(units), targets.stop - targets.start))
        for i, starts in runs:
            x = wv[starts]
            x *= logs[i, None]
            _add_slices(x, units, acc)
        weighted[targets] = _join_slices(acc)
    return counts, weighted


def count_ternary_mitm(
    values: ValueTable,
    logs: np.ndarray,
    N: int,
    pair_map: Optional[PairMap] = None,
    w: Optional[WindowParams] = None,
) -> RepReport:
    """Weighted and unweighted ordered-triple counts for one target."""
    return scan_band(values, logs, N, N, pair_map, w).report(0)


def count_ternary_naive(
    values: ValueTable,
    logs: np.ndarray,
    N: int,
    w: Optional[WindowParams] = None,
) -> RepReport:
    """Independent oracle: a loop over every ordered pair, no pair tables.

    The third floor N - f_i - f_j is looked up in a dict from floor to
    indices, built once per call, so the terms are the triple loop's
    products in its order, in O(n^2) steps.
    """
    logs = log_weights(values, logs)
    n = len(values)
    if n > _NAIVE_GUARD:
        raise TooLarge(f"naive loop over {n} primes refused (guard {_NAIVE_GUARD})")
    f = [int(v) for v in values.f]
    lg = [float(v) for v in logs]
    by_floor: dict[int, list[int]] = {}
    for l, fl in enumerate(f):
        by_floor.setdefault(fl, []).append(l)
    terms = []
    for i in range(n):
        for j in range(n):
            for l in by_floor.get(N - f[i] - f[j], ()):
                terms.append(lg[i] * lg[j] * lg[l])
    return RepReport(int(N), len(terms), math.fsum(terms), "naive", w)


def scan_band(
    values: ValueTable,
    logs: np.ndarray,
    N_lo: int,
    N_hi: int,
    pair_map: Optional[PairMap] = None,
    w: Optional[WindowParams] = None,
) -> BandScan:
    """count_ternary_mitm for every N in [N_lo, N_hi], as columns.

    Without pair_map, builds one pair table holding only the sums up to
    N_hi - min f, and none when no triple reaches the band. The rows of
    values may come in any order. Each weighted count is math.fsum of the
    products of log p_3 and the pair table's weight of N - f(p_3), for any
    finite logs whose products stay below 2^970; other logs raise
    InvalidParameter (see _meet).
    """
    logs = log_weights(values, logs)
    N_lo, N_hi = int(N_lo), int(N_hi)
    if N_lo > N_hi:
        raise InvalidParameter(f"band bounds inverted: {N_lo} > {N_hi}")
    if N_hi - N_lo + 1 > _BAND_GUARD:
        raise BandTooWide(f"band width {N_hi - N_lo + 1} exceeds {_BAND_GUARD}")
    Ns = np.arange(N_lo, N_hi + 1, dtype=np.int64)
    return BandScan(Ns, *_meet(values.f, logs, Ns, pair_map), w)


def find_binary(values: ValueTable, N: int) -> Optional[tuple[int, int]]:
    """Lexicographically smallest ordered pair (p1, p2) with f(p1)+f(p2) = N.

    The rows may come in any order: sorted by floor (_by_floor), the pair
    with the smallest f(p1) is found first, which is the smallest p1
    wherever f increases with p, as it does on every window.
    """
    f, ns = _by_floor(values.f, values.n)
    for i in range(len(f)):
        need = N - int(f[i])
        if need < int(f[0]):
            break  # f ascending, need only shrinks from here
        j = int(np.searchsorted(f, need, side="left"))
        if j < len(f) and int(f[j]) == need:
            return int(ns[i]), int(ns[j])
    return None


def _exact_power(p: int, c: float):
    import mpmath as mp

    return mp.mpf(p) ** c


def _classical_floor(p: int, c: float) -> int:
    # seqeval's two-tier floor, applied to the plain power p^c
    return certified_floor(p ** c, _exact_power, p, c)[0]


def count_classical(c: float, N: int) -> RepReport:
    """Ordered-triple count for N = [p1^c]+[p2^c]+[p3^c], primes 2..N^(1/c)."""
    if not 1.0 < c < math.inf:
        raise InvalidParameter(f"classical variant needs finite c > 1, got {c}")
    if N < 0:
        raise InvalidParameter(f"target must be nonnegative, got {N}")
    if N > _CLASSICAL_GUARD:
        raise TooLarge(f"N={N} exceeds the classical guard {_CLASSICAL_GUARD}")
    bmax = int(N ** (1.0 / c)) + 2  # slack is harmless: extra primes never match
    block = sieve_segment(1, bmax)
    # p^c >= N + 1 when log p >= log(N + 1) / c; such primes go unfloored (2^c
    # can overflow), the margin covering the rounding. f <= N judges the rest.
    small = block.logs < math.log1p(N) * (1.0 + 1e-12) / c
    f = np.array([_classical_floor(p, c) for p in block.primes[small].tolist()], dtype=np.int64)
    keep = f <= N
    Ns = np.array([N], dtype=np.int64)
    return BandScan(Ns, *_meet(f[keep], block.logs[small][keep], Ns, None)).report(0)
