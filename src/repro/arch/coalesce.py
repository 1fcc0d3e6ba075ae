"""Global-memory coalescing rules.

GT200 (compute 1.x, the paper's GTX280): each *half-warp* independently
coalesces into aligned segments; the hardware shrinks the transaction to
64B or 32B when the touched bytes fit in an aligned sub-segment —
mirroring the compute-1.2/1.3 coalescer.  Fermi (GTX480): the full
warp's accesses resolve into the set of distinct 128-byte cache lines.

The returned segment bases feed the cache models; the byte total feeds
the DRAM bandwidth bound; the segment count is the classic
"transactions per request" metric.  :func:`row_segments` applies the
same rules to every warp row of a memory instruction in one vectorized
pass (the simulator's hot path); the per-warp functions are its
reference.
"""
from __future__ import annotations

import numpy as np

from .specs import DeviceSpec

__all__ = [
    "coalesce",
    "compact_rows",
    "row_distinct",
    "row_lines",
    "row_segments",
    "segments_gt200",
    "segments_lines",
]

#: sort key of a masked-off lane or piece: sorts after every real key
_SENT = np.int64(np.iinfo(np.int64).max)


def segments_lines(
    addrs: np.ndarray, sizes: np.ndarray, line: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct cache lines touched by the active lanes (Fermi rule).

    Returns ``(line_bases, widths)`` with every width equal to ``line``.
    """
    if addrs.size == 0:
        return addrs.astype(np.int64), addrs.astype(np.int64)
    first = addrs // line
    last = (addrs + np.maximum(sizes, 1) - 1) // line
    counts = last - first + 1
    if int(counts.max()) == 1:
        lines = np.unique(first)
    else:
        # an access may span three or more lines: enumerate the whole
        # first..last range per lane, not just its end points
        total = int(counts.sum())
        starts = np.repeat(first, counts)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        lines = np.unique(starts + offs)
    bases = lines * line
    return bases, np.full(bases.shape, line, dtype=np.int64)


def segments_gt200(
    addrs: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """GT200 half-warp segment rule with segment-size reduction.

    Returns ``(segment_bases, segment_widths)``; each half-warp issues
    its own transactions even when they overlap another half-warp's.
    Scalar Python on purpose: half-warps are at most 16 elements and
    numpy per-call overhead dominates at that size.
    """
    bases: list[int] = []
    widths: list[int] = []
    al = addrs.tolist()
    sl = sizes.tolist()
    n = len(al)
    for lo in range(0, n, 16):
        a = al[lo : lo + 16]
        ends = [
            x + (s if s > 1 else 1) for x, s in zip(a, sl[lo : lo + 16])
        ]
        # an access that straddles a 128B boundary touches every segment
        # in its first..last range; clip it into per-segment pieces so
        # the trailing bytes are not dropped
        touched: set = set()
        for x, e in zip(a, ends):
            f, l = x >> 7, (e - 1) >> 7
            if l - f > 1:  # huge accesses (> 128B) span interior segments
                touched.update(range(f, l + 1))
            else:
                touched.add(f)
                touched.add(l)
        for seg in sorted(touched):
            base = seg << 7
            top = base + 128
            first = top
            last = base
            for x, e in zip(a, ends):
                if x < top and e > base:
                    if x < first:
                        first = x
                    if e > last:
                        last = e
            if first < base:
                first = base
            if last > top:
                last = top
            width = 128
            start = base
            for smaller in (64, 32):
                fit = (first // smaller) * smaller
                if last > fit + smaller:
                    break
                width, start = smaller, fit
            bases.append(start)
            widths.append(width)
    return (
        np.asarray(bases, dtype=np.int64),
        np.asarray(widths, dtype=np.int64),
    )


def coalesce(
    spec: DeviceSpec, addrs: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve one warp's global access into ``(segment_bases, widths)``."""
    if spec.architecture == "gt200":
        return segments_gt200(addrs, sizes)
    return segments_lines(addrs, sizes, spec.line_bytes)


def compact_rows(
    addrs: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack each row's active lanes to its front, in lane order.

    Returns ``(packed, valid)``: row ``r`` of ``packed`` starts with the
    compacted list ``addrs[r][active[r]]`` (zeros after it), and
    ``valid`` marks those leading slots.  GT200 chunks this compacted
    list into half-warps, not the raw lane positions.
    """
    valid = np.arange(addrs.shape[1]) < active.sum(axis=1)[:, None]
    packed = np.zeros_like(addrs)
    # row-major boolean indexing visits both masks row by row with the
    # same count per row, so the k-th active lane lands in slot k
    packed[valid] = addrs[active]
    return packed, valid


def _first_of_runs(srt: np.ndarray) -> np.ndarray:
    """Per row of sorted keys: True where a new value starts."""
    new = np.empty(srt.shape, dtype=bool)
    new[:, :1] = True
    np.not_equal(srt[:, 1:], srt[:, :-1], out=new[:, 1:])
    return new


def _spread(first, last, *per_lane):
    """Expand every lane to the units ``first..last`` it touches.

    Returns ``(unit, inside, *per_lane)`` with one column per (lane,
    unit) pair; ``inside`` is None when no lane touches more than one
    unit (then the arrays come back unchanged).  None entries of
    ``per_lane`` pass through as None.
    """
    kmax = int((last - first).max()) + 1 if first.size else 1
    if kmax == 1:
        return (first, None) + per_lane
    step = np.arange(kmax, dtype=np.int64)
    unit = first[..., None] + step
    inside = unit <= last[..., None]
    rows = first.shape[0]
    out = [unit.reshape(rows, -1), inside.reshape(rows, -1)]
    for a in per_lane:
        out.append(None if a is None else np.repeat(a, kmax, axis=1))
    return tuple(out)


def row_segments(
    spec: DeviceSpec, addrs: np.ndarray, active: np.ndarray | None, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coalesce many warp rows at once.

    ``addrs`` is ``(rows, warp_width)`` int64 lane addresses, ``active``
    the lane mask (None: every lane) and ``size`` the access width in
    bytes.  Returns ``(row, bases, widths)`` with one entry per
    transaction: rows ascending, and each row's transactions exactly as
    :func:`coalesce` lists them for ``addrs[r][active[r]]``.
    """
    if spec.architecture == "gt200":
        return _rows_gt200(addrs, active, size)
    line = spec.line_bytes
    row, bases = row_lines(addrs, active, size, line)
    return row, bases, np.full(bases.size, line, dtype=np.int64)


def row_distinct(
    keys: np.ndarray, live: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Every row's distinct ``live`` keys, ascending: ``(row, keys)``."""
    if live is not None:
        keys = np.where(live, keys, _SENT)
    srt = np.sort(keys, axis=1)
    keep = _first_of_runs(srt)
    if live is not None:
        keep &= srt != _SENT
    return np.nonzero(keep)[0], srt[keep]


def row_lines(
    addrs: np.ndarray, active: np.ndarray | None, size: int, line: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`segments_lines` for many warp rows: ``(row, line_bases)``."""
    first = addrs // line
    last = (addrs + (max(size, 1) - 1)) // line
    keys, inside, live = _spread(first, last, active)
    if inside is not None:
        live = inside if live is None else live & inside
    row, lines = row_distinct(keys, live)
    return row, lines * line


def _rows_gt200(addrs, active, size):
    half = 16
    per_row = addrs.shape[1] // half
    valid = None
    if active is not None:
        addrs, valid = compact_rows(addrs, active)
        valid = valid.reshape(-1, half)
    x = addrs.reshape(-1, half)
    e = x + max(size, 1)
    # an access straddling a 128B boundary is clipped into one piece
    # per segment it touches (segments_gt200's first/last clipping)
    seg, inside, lo, hi, valid = _spread(x >> 7, (e - 1) >> 7, x, e, valid)
    if inside is not None:
        lo = np.maximum(lo, seg << 7)
        hi = np.minimum(hi, (seg + 1) << 7)
        valid = inside if valid is None else valid & inside
    if valid is not None:
        lo = np.where(valid, lo, _SENT)
        hi = np.where(valid, hi, _SENT)
    # a piece's start and end lie in one segment, so sorting the starts
    # and the ends of a half-warp separately yields the same segment
    # runs in the same order: each run's first start and last end are
    # the byte span that drives the 128 -> 64 -> 32 shrink rule
    lo = np.sort(lo, axis=1)
    hi = np.sort(hi, axis=1)
    runs = _first_of_runs(lo >> 7)
    ends = np.empty(hi.shape, dtype=bool)
    ends[:, -1:] = True
    hseg = (hi - 1) >> 7
    np.not_equal(hseg[:, 1:], hseg[:, :-1], out=ends[:, :-1])
    if valid is not None:
        runs &= lo != _SENT
        ends &= hi != _SENT
    grp = np.nonzero(runs)[0]
    first = lo[runs]
    last = hi[ends]
    fit64 = (first >> 6) << 6
    ok64 = last <= fit64 + 64
    fit32 = (first >> 5) << 5
    ok32 = ok64 & (last <= fit32 + 32)
    bases = np.where(ok32, fit32, np.where(ok64, fit64, (first >> 7) << 7))
    widths = np.where(ok32, 32, np.where(ok64, 64, 128))
    return grp // per_row, bases, widths
