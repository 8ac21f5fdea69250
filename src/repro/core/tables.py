"""Alias tables over chunks of recursion levels.

The linear-work R-MAT construction of Hübschle-Schneider & Sanders
(PAPERS.md): table whole chunks of the recursion and sample each in
O(1).  :func:`_padded_tables` builds the padded Vose rows both samplers use —
:class:`repro.models.rmat.PathSampler` over quadrant paths (WES)
and :class:`ScopeSampler` here, its conditional form for AVS —
:func:`_slices` is the stream rule by which both draw one call a slice
at a time, and :func:`_draw_slice` is the one loop that draws a slice.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = ["ScopeSampler"]

#: Destination bits one table covers.  Whole scale-18 sweep (seed 7, fresh
#: processes; the per-bit Bernoulli loop took 0.79-0.89 s), sweep seconds /
#: table-build ms, on the issue's prototype and again on this kernel:
#: 5 bits 0.52 / 2 and 0.49 / 2, 6 bits 0.47 / 4 and 0.45 / 5, 7 bits
#: (chunks 7/7/4) 0.37-0.42 / 7-9 and 0.47 / 11, 8 bits 0.56 / 33 and
#: 0.47 / 40, 9 bits 0.56-0.70 / 130 and 0.54 / 140 (two chunks lose to
#: 6 MB of tables).  6 to 8 are three chunks each at scale 18 and within
#: run-to-run spread of each other; 7 stays at three up to scale 21.
_CHUNK_BITS = 7

#: Keys :meth:`ScopeSampler.keys` draws per pass.  The uniforms, slots
#: and gathers of one slice are about 2 MiB, so a hub block's draw costs
#: its key array plus that, and not four block-sized arrays.
_SLICE_KEYS = 1 << 16


def _slices(count: int, size: int, rng: np.random.Generator,
            batch: int | None = None
            ) -> Iterator[tuple[int, int, Callable[[int], None]]]:
    """The slices ``[first, stop)`` of a call that draws ``count`` keys
    from one uniform per key and chunk, ``size`` keys at a time and none
    across a multiple of ``batch``, each with ``seek(chunk)``, which
    positions ``rng`` for that chunk's draw of the slice.

    The slice rule: in one call, chunk ``c`` of key ``i`` is stream
    position ``c * count + i`` (a double is one PCG64 step), so ``seek``
    rewinds the stream and advances it there.  The last slice's last
    chunk ends where the one call's does, and a call of at most one
    slice never seeks: it draws exactly as one call.
    """
    batch = batch or count
    if count <= min(size, batch):
        if count:
            yield 0, count, lambda chunk: None
        return
    start = rng.bit_generator.state
    for lo in range(0, count, batch):
        hi = min(lo + batch, count)
        for first in range(lo, hi, size):
            def seek(chunk: int, first: int = first) -> None:
                rng.bit_generator.state = start
                rng.bit_generator.advance(chunk * count + first)
            yield first, min(first + size, hi), seek


def _draw_slice(part: np.ndarray, chunks: list[tuple[float, np.ndarray,
                                                        np.ndarray]],
                seek: Callable[[int], None], rng: np.random.Generator,
                u: np.ndarray, slot: np.ndarray,
                row_slots: Callable[[int], np.ndarray | int] | None = None
                ) -> None:
    """The one draw loop of both samplers: add each chunk's lookup to the
    keys ``part`` of one slice, chunks in order, each from one
    ``rng.random(out=u)`` after ``seek(chunk)``.

    A chunk's table is ``(slots, threshold, contrib)``: the uniform's
    high bits pick one of ``slots`` (a power of two, so ``u * slots`` is
    exact) — offset by ``row_slots(chunk)``, the first slot of each
    key's row, where the table has rows — and the remaining fraction
    decides between the slot's own entry and its alias, interleaved in
    ``contrib`` as ``[alias's, own]``.  ``u`` and ``slot`` are scratch
    as long as ``part``; the gathers are the only other temporaries.
    """
    for chunk, (slots, threshold, contrib) in enumerate(chunks):
        seek(chunk)
        rng.random(out=u)
        u *= slots
        np.copyto(slot, u, casting="unsafe")     # u >= 0: the floor
        u -= slot
        if row_slots is not None:
            slot += row_slots(chunk)
        own = u < threshold[slot]
        slot <<= 1
        slot += own
        part += contrib[slot]


def _slice_rows(offsets: np.ndarray, first: int, stop: int
                ) -> tuple[int, int, np.ndarray]:
    """The rows ``[lo, hi)`` whose items meet ``[first, stop)``, of rows
    whose items are ``[offsets[j], offsets[j + 1])``, and how many of
    each one's fall inside it (0 for an empty row between two others)."""
    lo = int(np.searchsorted(offsets, first, "right")) - 1
    hi = int(np.searchsorted(offsets, stop, "left"))
    inside = np.minimum(offsets[lo + 1:hi + 1], stop)
    inside -= np.maximum(offsets[lo:hi], first)
    return lo, hi, inside


def _alias_table(pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's O(K) alias table of ``pmf``: slot ``i`` keeps outcome ``i``
    for a fraction below ``threshold[i]`` and yields ``alias[i]`` above.

    Only a slot holding at least the mean is ever an alias, and a slot
    of probability 0 gets the threshold 0.0 exactly, so under a strict
    ``<`` an impossible outcome is never drawn.
    """
    threshold = (pmf * (pmf.size / pmf.sum())).tolist()
    # Slots the rounding leaves over fall back on the likeliest outcome.
    alias = [int(np.argmax(pmf))] * pmf.size
    small = [i for i, share in enumerate(threshold) if share < 1.0]
    large = [i for i, share in enumerate(threshold) if share >= 1.0]
    while small and large:
        low, high = small.pop(), large[-1]
        alias[low] = high
        threshold[high] -= 1.0 - threshold[low]
        if threshold[high] < 1.0:
            small.append(large.pop())
    for high in large:
        threshold[high] = 1.0
    return np.array(threshold), np.array(alias, dtype=np.int64)


def _padded_tables(pmf: np.ndarray, contrib: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_draw_slice` rows, one per row of the 2-D ``pmf``: each
    padded with impossible slots to a power of two, its thresholds and
    contributions ``[alias's, own]``, rows concatenated.  The padding
    and the gather of contributions are one pass over all rows; only
    Vose's loop runs per row."""
    pad = (0, (1 << (pmf.shape[1] - 1).bit_length()) - pmf.shape[1])
    thresholds, aliases = zip(*map(_alias_table, np.pad(pmf, ((0, 0), pad))))
    alias = np.stack(aliases)
    contrib = np.pad(contrib, pad)
    pairs = np.stack([contrib[alias], np.broadcast_to(contrib, alias.shape)],
                     axis=-1)
    return np.concatenate(thresholds), pairs.ravel()


class ScopeSampler:
    """Destinations of ``P(v | u)``, drawn a chunk of digits at a time.

    Lemma 3 factorises ``P(v | u)`` over digit positions of any radix
    ``r``, so over *chunks* of positions too.  ``matrices[i][s, t]`` is
    ``P(destination digit = t | source digit = s)`` at level ``i`` (0 the
    most significant); a one-row matrix is a level the source does not
    affect.  Chunks ``[lo, lo + k)`` of the most digits with ``r^k <=
    2^_CHUNK_BITS`` are cut from the top.  A chunk's table has a row per
    value of the source's ``k`` digits (one if each level has one): the
    alias table of the destination chunk, padded to a power of two as
    :class:`repro.models.rmat.PathSampler` pads, entries ``t * r^lo``.
    A digit the seed forbids is a threshold-0 slot.

    Determinism key: :meth:`keys` consumes the uniforms of one
    ``rng.random(counts.sum())`` per chunk, chunks in order from the most
    significant digits down; edge ``i`` takes element ``i`` of each.
    It draws them ``_SLICE_KEYS`` keys at a time by :func:`_slices`, so
    the slice size changes no key.  The uniform's high bits pick the
    slot of the source's row and the remaining fraction decides between
    the slot's own value and its alias.
    """

    def __init__(self, matrices: Sequence[np.ndarray]) -> None:
        radix = matrices[0].shape[1]
        width = 1
        while radix ** (width + 1) <= 1 << _CHUNK_BITS:
            width += 1
        #: Per chunk: ``(r^lo, r^k, slots)``, the row of a source being
        #: ``source // r^lo % r^k`` (None: one row), and the
        #: :func:`_draw_slice` table.
        self._rows: list[tuple[int, int, int] | None] = []
        self._tables: list[tuple[float, np.ndarray, np.ndarray]] = []
        hi = len(matrices)
        while hi > 0:
            lo = max(hi - width, 0)
            span = radix ** (hi - lo)
            slots = 1 << (span - 1).bit_length()
            chunk = matrices[::-1][lo:hi]      # least significant first
            source = np.arange(span if any(len(m) > 1 for m in chunk)
                               else 1, dtype=np.int64)
            pmf = np.ones((source.size, 1), dtype=np.float64)
            for d, m in enumerate(chunk):
                # ``% len(m)``: a one-row level serves every source digit.
                given = m[source // radix ** d % radix % len(m)]
                pmf = np.hstack([pmf * given[:, t, None]
                                 for t in range(radix)])
            thresholds, contribs = _padded_tables(
                pmf, np.arange(span, dtype=np.int64) * radix ** lo)
            self._rows.append((radix ** lo, span, slots)
                              if source.size > 1 else None)
            self._tables.append((float(slots), thresholds, contribs))
            hi = lo

    @property
    def uniforms_per_edge(self) -> int:
        return len(self._tables)

    def keys(self, sources: np.ndarray, counts: np.ndarray, shift: int,
             rng: np.random.Generator) -> np.ndarray:
        """``counts[j]`` packed keys ``j << shift | destination`` for each
        source ``j``, rows in order (repeats possible).  The key array is
        the only allocation as long as the call; a row may straddle
        slices."""
        offsets = np.zeros(sources.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        key = np.empty(int(offsets[-1]), dtype=np.int64)
        u = np.empty(min(key.size, _SLICE_KEYS), dtype=np.float64)
        slot = np.empty(u.size, dtype=np.int64)
        for first, stop, seek in _slices(key.size, _SLICE_KEYS, rng):
            lo, hi, repeats = _slice_rows(offsets, first, stop)
            rows = sources[lo:hi]
            part = key[first:stop]
            part[:] = np.repeat(np.arange(lo, hi, dtype=np.int64) << shift,
                                repeats)

            def row_slots(chunk: int) -> np.ndarray | int:
                if self._rows[chunk] is None:
                    return 0
                place, span, slots = self._rows[chunk]
                return np.repeat(rows // place % span * slots, repeats)

            _draw_slice(part, self._tables, seek, rng, u[:part.size],
                        slot[:part.size], row_slots)
        return key
