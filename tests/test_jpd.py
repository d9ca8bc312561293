import concurrent.futures
import contextlib
import dataclasses
import struct
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jpdkit import jpd as jpd_module
from jpdkit.analysis import banded_from_dense, dense_jpd_matrix
from jpdkit.errors import (ConfigurationError, FileFormatError,
                           FrameShapeError, InsufficientDataError,
                           PrecisionError, StateError)
from jpdkit.frames import open_frames, write_frame_chunks, write_frames
from jpdkit.jpd import (MAX_BAND_RADIUS, TILE_WIDTH, Jpd, PartialJpd,
                        accumulate_jpd, accumulate_partial,
                        apply_separation_policy, diagonal_image, finalize_jpd,
                        merge_partials, minus_projection, read_jpd_snapshot,
                        structural_validity, sum_projection,
                        write_jpd_snapshot)
from jpdkit.pipeline import reconstruct
from jpdkit.simulate import EmccdCamera, IdealCamera, SpadCamera

# three 1x2 frames small enough to run the estimator by hand:
#   Gamma(r1, r2) = mean_l [I_l(r1) I_l(r2) - I_l(r1) I_{l+1}(r2)]
TINY = np.array([[[1, 2]], [[4, 3]], [[2, 7]]], dtype=np.uint16)


def test_estimator_matches_hand_computation_near():
    jpd = accumulate_jpd(TINY, mode="near", band_radius=1, symmetrize=False)
    assert jpd.n_frames == 3
    # diagonal: ((1*1-1*4) + (4*4-4*2)) / 2 and ((2*2-2*3) + (3*3-3*7)) / 2
    assert np.array_equal(jpd.plane(0, 0), [[2.5, -7.0]])
    # Gamma((0,0),(0,1)): ((1*2-1*3) + (4*3-4*7)) / 2
    assert jpd.plane(0, 1)[0, 0] == -8.5
    # Gamma((0,1),(0,0)): ((2*1-2*4) + (3*4-3*2)) / 2
    assert jpd.plane(0, -1)[0, 1] == 0.0
    # off-sensor partners are invalid and zeroed
    assert not jpd.plane_valid(0, 1)[0, 1]
    assert jpd.plane(0, 1)[0, 1] == 0.0
    assert not jpd.plane_valid(1, 0).any()


def test_symmetrize_averages_partner_orderings():
    jpd = accumulate_jpd(TINY, mode="near", band_radius=1, symmetrize=True)
    assert jpd.plane(0, 1)[0, 0] == pytest.approx((-8.5 + 0.0) / 2)
    assert jpd.plane(0, -1)[0, 1] == pytest.approx((-8.5 + 0.0) / 2)
    assert np.array_equal(jpd.plane(0, 0), [[2.5, -7.0]])


def test_estimator_matches_hand_computation_far():
    jpd = accumulate_jpd(TINY, mode="far", band_radius=1, symmetrize=False)
    assert jpd.center == (0, 1)
    # plane u holds Gamma(r, c - r + u)
    assert np.array_equal(jpd.plane(0, 0), [[-8.5, 0.0]])
    assert jpd.plane(0, 1)[0, 1] == -7.0   # partner (0,1) itself
    assert jpd.plane(0, -1)[0, 0] == 2.5   # partner (0,0) itself
    assert not jpd.plane_valid(0, 1)[0, 0]
    sym = accumulate_jpd(TINY, mode="far", band_radius=1, symmetrize=True)
    # partner swap reflects within the plane about c + u
    assert np.array_equal(sym.plane(0, 0), [[-4.25, -4.25]])


def test_symmetrized_planes_satisfy_exchange_identity():
    rng = np.random.default_rng(5)
    frames = rng.integers(0, 40, size=(30, 7, 6), dtype=np.uint16)
    jpd = accumulate_jpd(frames, mode="near", band_radius=2)
    h, w = jpd.shape
    for dy, dx, a, b in jpd.displacements():
        pd, pm = jpd.plane(dy, dx), jpd.plane(-dy, -dx)
        for y in range(h):
            for x in range(w):
                if 0 <= y + dy < h and 0 <= x + dx < w:
                    assert pd[y, x] == pytest.approx(pm[y + dy, x + dx])


def test_far_symmetrized_planes_are_point_symmetric():
    rng = np.random.default_rng(6)
    frames = rng.integers(0, 40, size=(30, 5, 5), dtype=np.uint16)
    jpd = accumulate_jpd(frames, mode="far", band_radius=1)
    cy, cx = jpd.center
    h, w = jpd.shape
    for dy, dx, a, b in jpd.displacements():
        plane, valid = jpd.plane(dy, dx), jpd.plane_valid(dy, dx)
        for y in range(h):
            for x in range(w):
                py, px = cy + dy - y, cx + dx - x
                if valid[y, x] and 0 <= py < h and 0 <= px < w:
                    assert plane[y, x] == pytest.approx(plane[py, px])


@st.composite
def partial_sums(draw):
    """Near or far accumulators with 1-5 px sides, K in 0..3 and
    integer-valued sums over 1-50 terms."""
    mode = draw(st.sampled_from(["near", "far"]))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, 3))
    sums = draw(arrays(np.int64, (2 * k + 1, 2 * k + 1, h, w),
                       elements=st.integers(-1000, 1000)))
    return PartialJpd(mode, k, (h, w), sums.astype(np.float64),
                      draw(st.integers(1, 50)))


@settings(max_examples=150, deadline=None)
@given(partial=partial_sums())
def test_finalized_jpd_is_symmetric_under_partner_exchange(partial):
    # Gamma(r, r') == Gamma(r', r) for every valid entry: near field the
    # swapped entry sits in plane -d at r + d, far field in plane u at the
    # point-reflected position c - r + u
    jpd = finalize_jpd(partial)
    cy, cx = jpd.center
    for dy, dx, a, b in jpd.displacements():
        for y, x in zip(*np.nonzero(jpd.valid[a, b])):
            if jpd.mode == "near":
                sy, sx, sa, sb = y + dy, x + dx, -dy, -dx
            else:
                sy, sx, sa, sb = cy - y + dy, cx - x + dx, dy, dx
            assert jpd.plane_valid(sa, sb)[sy, sx]
            assert jpd.plane(sa, sb)[sy, sx] == jpd.planes[a, b, y, x]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_merge_is_associative_on_integer_chunks(data):
    mode = data.draw(st.sampled_from(["near", "far"]), label="mode")
    h = data.draw(st.integers(1, 5), label="h")
    w = data.draw(st.integers(1, 2 * TILE_WIDTH + 1), label="w")
    k = data.draw(st.integers(0, 3), label="band_radius")
    lengths = data.draw(st.lists(st.integers(2, 6), min_size=3, max_size=3),
                        label="lengths")
    chunks = [accumulate_partial(data.draw(arrays(
        np.uint16, (n, h, w), elements=st.integers(0, 65535)), label="chunk"),
        mode, k) for n in lengths]
    p, q, r = chunks
    flat = merge_partials(chunks)
    for merged in (merge_partials([merge_partials([p, q]), r]),
                   merge_partials([p, merge_partials([q, r])])):
        assert merged.sums.tobytes() == flat.sums.tobytes()
        assert merged.n_terms == flat.n_terms == sum(lengths) - 3


def test_result_independent_of_chunking_and_workers():
    rng = np.random.default_rng(7)
    frames = rng.integers(0, 50, size=(41, 6, 6), dtype=np.uint16)
    base = accumulate_jpd(frames, band_radius=2, chunk_size=1000)
    for chunk, workers in [(1, None), (3, None), (7, 4), (40, 2)]:
        other = accumulate_jpd(frames, band_radius=2, chunk_size=chunk,
                               workers=workers)
        assert np.array_equal(base.planes, other.planes)
    # explicit chunk overlap bookkeeping: terms count frame pairs
    parts = [accumulate_partial(frames[:21], band_radius=2),
             accumulate_partial(frames[20:], band_radius=2)]
    merged = finalize_jpd(merge_partials(parts))
    assert merged.n_frames == 41
    assert np.array_equal(base.planes, merged.planes)


def _kernel(frames, mode, k, scratch):
    """The band kernel on *frames* whole, in the dtype the feed gives it."""
    (chunk, dtype), = jpd_module._typed(frames, len(frames))
    h, w = frames.shape[1:]
    sums = np.zeros((2 * k + 1, 2 * k + 1, h, w))
    jpd_module._accumulate_chunk(chunk, dtype, mode, k, scratch, sums, False,
                                 contextlib.nullcontext)
    return PartialJpd(mode, k, (h, w), sums, len(frames) - 1)


def test_reused_kernel_scratch_gives_fresh_buffer_sums():
    # one scratch through chunks whose shape or kernel dtype changes and
    # changes back (a 65535 takes a chunk to float64); 7 columns leave
    # padding in the 8-column tiles, which is never written
    rng = np.random.default_rng(2)
    scratch = {}
    for mode in jpd_module.MODES:
        for n, top in ((9, 50), (9, 50), (4, 50), (9, 65535), (9, 50)):
            chunk = rng.integers(0, 50, size=(n, 6, 7), dtype=np.uint16)
            chunk[1, 2, 3] = top
            reused = _kernel(chunk, mode, 2, scratch)
            assert np.array_equal(reused.sums,
                                  accumulate_partial(chunk, mode, 2).sums)
    assert len(scratch) == 1


def test_thread_pool_bounded_by_chunks_and_processors(monkeypatch):
    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    frames = np.random.default_rng(8).integers(0, 9, (6, 4, 4), dtype=np.uint16)
    base = accumulate_jpd(frames, band_radius=1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    for cpus, expected in ((64, 5), (3, 3)):  # five chunks of one term
        sizes = []
        # the processors this process may use, not the machine's count
        monkeypatch.setattr(jpd_module.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(jpd_module.os, "cpu_count", lambda: 10 ** 3)
        got = accumulate_jpd(frames, band_radius=1, chunk_size=1,
                             workers=10 ** 6)
        assert sizes == [expected]
        assert np.array_equal(got.planes, base.planes)


def test_slow_first_chunk_holds_at_most_one_more_chunk_than_threads(
        monkeypatch):
    # while the first of 12 chunks is held up, the other thread may run
    # ahead by the one span submitted past the thread count, no further
    frames = np.random.default_rng(5).integers(0, 9, (25, 5, 6),
                                               dtype=np.uint16)
    base = accumulate_jpd(frames, band_radius=2, chunk_size=2)
    monkeypatch.setattr(jpd_module, "_usable_cpus", lambda: 2)
    kernel = jpd_module._accumulate_chunk
    started, lock, first_done = [], threading.Lock(), threading.Event()
    ahead = []

    def spy(chunk, *args):
        with lock:
            first = not started
            started.append(chunk)
        if first:
            time.sleep(0.3)
            ahead.append(len(started))
            first_done.set()
        return kernel(chunk, *args)

    monkeypatch.setattr(jpd_module, "_accumulate_chunk", spy)
    got = accumulate_jpd(frames, band_radius=2, chunk_size=2, workers=2)
    assert first_done.is_set() and len(started) == 12
    # at most the first chunk and the next two, submitted before its
    # result is taken
    assert len(ahead) == 1 and ahead[0] <= 3
    assert got.planes.tobytes() == base.planes.tobytes()


@pytest.mark.parametrize("mode", ["near", "far"])
@pytest.mark.parametrize("dtype", [np.uint16, np.bool_, np.float32])
def test_row_bands_equal_one_band(mode, dtype):
    # float32 frames sum inexactly in the float64 kernel, so only the same
    # products in the same order give the same bits
    rng = np.random.default_rng(6)
    gains = rng.gamma(2.0, 50.0, (40, 11, 9))
    frames = (gains * rng.poisson(0.3, gains.shape)).astype(dtype)
    for k in (1, 3):
        whole = _kernel(frames, mode, k, {}).sums
        chunked = accumulate_jpd(frames, mode, k, chunk_size=13)
        # a row of the chunk's kernel buffers takes 8 to 26 kB here: bands
        # of one row, of several and of all 11
        for budget in [1, *np.geomspace(2 ** 12, 2 ** 19, 16).astype(int)]:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(jpd_module, "KERNEL_BYTES", budget)
                scratch = {}
                for _ in range(2):  # fresh and reused buffers
                    banded = _kernel(frames, mode, k, scratch)
                    assert banded.sums.tobytes() == whole.tobytes()
                threaded = accumulate_jpd(frames, mode, k, chunk_size=13,
                                          workers=2)
            assert threaded.planes.tobytes() == chunked.planes.tobytes()


@st.composite
def small_stacks(draw):
    """Stacks with a 1-3 pixel side (so some planes have no partner rows)
    and a long side that spans up to three band-kernel column tiles, whole
    or not, in either orientation; bool or full-range u16 values."""
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 2 * TILE_WIDTH + 3))
    if draw(st.booleans()):
        h, w = w, h
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        return draw(arrays(np.bool_, (n, h, w)))
    return draw(arrays(np.uint16, (n, h, w), elements=st.integers(0, 65535)))


@settings(max_examples=150, deadline=None)
@given(frames=small_stacks(), data=st.data())
def test_banded_equals_dense_on_edge_shapes(frames, data):
    n, h, w = frames.shape
    k = data.draw(st.integers(1, max(h, w) + 1), label="band_radius")
    mode = data.draw(st.sampled_from(["near", "far"]), label="mode")
    symmetrize = data.draw(st.booleans(), label="symmetrize")
    chunk = data.draw(st.integers(1, n), label="chunk_size")
    workers = data.draw(st.sampled_from([None, 2]), label="workers")
    # the default limit lets bool and low-valued chunks run in float32;
    # 0 holds every chunk to float64
    limit = data.draw(st.sampled_from([jpd_module.FLOAT32_SUM_LIMIT, 0]),
                      label="float32_limit")
    # from bands of one row (1 byte) up to one band: 2**22 bytes hold the
    # kernel buffers of any of these stacks in float64 at any radius
    budget = data.draw(st.integers(0, 88).map(lambda e: int(2 ** (e / 4))),
                       label="kernel_bytes")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jpd_module, "FLOAT32_SUM_LIMIT", limit)
        mp.setattr(jpd_module, "KERNEL_BYTES", budget)
        jpd = accumulate_jpd(frames, mode, k, chunk_size=chunk,
                             workers=workers, symmetrize=symmetrize)
    ref = banded_from_dense(dense_jpd_matrix(frames, symmetrize=symmetrize),
                            mode, k, (h, w))
    assert np.array_equal(np.where(jpd.valid, ref, 0.0), jpd.planes)

    parts = [accumulate_partial(frames[i:min(i + chunk + 1, n)], mode, k)
             for i in range(0, n - 1, chunk)]
    first = parts[0].sums.copy()
    from_list = merge_partials(parts)
    from_iter = merge_partials(p for p in parts)
    assert np.array_equal(from_list.sums, from_iter.sums)
    assert from_list.n_terms == from_iter.n_terms == n - 1
    assert np.array_equal(parts[0].sums, first)


def _kernel_dtype(scratch):
    (_, dtype), = scratch
    return np.dtype(dtype)


def test_float32_kernel_only_below_the_limit(monkeypatch):
    # 10 terms, values in [0, 9]: every sum is bounded by 10 * 9 * 9
    frames = np.random.default_rng(3).integers(0, 10, (11, 5, 6),
                                               dtype=np.uint16)
    frames[2, 0, 0], frames[3, 0, 0] = 9, 0
    bound = 10 * 9 * 9
    sums = {}
    for limit, dtype in ((bound, np.float64), (bound + 1, np.float32)):
        monkeypatch.setattr(jpd_module, "FLOAT32_SUM_LIMIT", limit)
        for mode in jpd_module.MODES:
            scratch = {}
            part = _kernel(frames, mode, 3, scratch)
            assert _kernel_dtype(scratch) == dtype
            sums.setdefault(mode, []).append(part.sums.tobytes())
    assert all(wide == narrow for wide, narrow in sums.values())


def _sums_below(frames, limit):
    """Whether every sum of the chunk stays below *limit*, by one reading
    of its min and max."""
    n_terms = frames.shape[0] - 1

    def bound(lo, hi):
        return n_terms * max(-lo, hi) * (hi - lo)

    if frames.dtype == np.bool_:
        lo, hi = 0, 1
    else:
        info = np.iinfo(frames.dtype)
        lo, hi = int(info.min), int(info.max)
    if bound(lo, hi) < limit:
        return True
    return bound(int(frames.min()), int(frames.max())) < limit


class _RangeCounted(np.ndarray):
    """An array that records each call of its ``max`` and ``min``, with
    the array it was called on."""

    reads: list = []

    def max(self, *args, **kwargs):
        self.reads.append(("max", id(self)))
        return super().max(*args, **kwargs)

    def min(self, *args, **kwargs):
        self.reads.append(("min", id(self)))
        return super().min(*args, **kwargs)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_dtype_reads_the_min_only_past_the_max_bound(data):
    dtype = data.draw(st.sampled_from([np.uint8, np.uint16, np.bool_]),
                      label="dtype")
    shape = (data.draw(st.integers(2, 12), label="n"),
             data.draw(st.integers(1, 3), label="h"),
             data.draw(st.integers(1, 3), label="w"))
    frames = data.draw(arrays(dtype, shape), label="frames")
    # limits on both sides of the max bound n max**2 and of the range's
    # own bound n max (max - min)
    n, lo, hi = shape[0] - 1, int(frames.min()), int(frames.max())
    near = [b + d for b in (n * hi * hi, n * hi * (hi - lo), 0)
            for d in (-1, 0, 1)]
    limit = data.draw(st.sampled_from(near), label="limit")
    _RangeCounted.reads = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jpd_module, "FLOAT32_SUM_LIMIT", limit)
        (_, got), = jpd_module._typed(frames.view(_RangeCounted), n)
    assert got == (np.float32 if _sums_below(frames, limit) else np.float64)
    reads = [op for op, _ in _RangeCounted.reads]
    assert reads in ([], ["max"], ["max", "min"])
    if n * hi * hi < limit:
        assert "min" not in reads


@pytest.mark.parametrize("workers", [None, 2])
def test_each_chunk_range_is_read_once(monkeypatch, workers):
    # a u16 stream's chunks have their max and min read once each, for
    # the running exactness bound and the kernel dtype alike; an array's
    # low-valued chunks only their max, for the kernel dtype
    frames = np.random.default_rng(10).integers(0, 9, (23, 2, 3),
                                                dtype=np.uint16)
    chunks, seen = jpd_module._chunks, []

    def counted(source, chunk_size):
        for chunk in chunks(source, chunk_size):
            seen.append(chunk.view(_RangeCounted))
            yield seen[-1]

    monkeypatch.setattr(jpd_module, "_chunks", counted)
    base = accumulate_jpd(frames, band_radius=1, chunk_size=4)
    for source, ops in ((iter(np.split(frames, [1, 9, 9, 20])),
                         ("max", "min")), (frames, ("max",))):
        seen.clear()
        _RangeCounted.reads = []
        got = accumulate_jpd(source, band_radius=1, chunk_size=4,
                             workers=workers)
        assert len(seen) == 6
        assert sorted(_RangeCounted.reads) == sorted(
            (op, id(chunk)) for chunk in seen for op in ops)
        assert got.planes.tobytes() == base.planes.tobytes()


def test_bright_chunk_falls_back_to_float64_with_the_same_bits(monkeypatch):
    frames = np.random.default_rng(11).integers(0, 4, (65, 6, 7),
                                                dtype=np.uint16)
    frames[20, 3, 4], frames[21, 3, 4] = 65535, 0  # in the second chunk
    monkeypatch.setattr(jpd_module, "FLOAT32_SUM_LIMIT", 0)
    wide = accumulate_jpd(frames, band_radius=2, chunk_size=16)
    monkeypatch.undo()
    kernel = jpd_module._accumulate_chunk
    dtypes = []

    def spy(chunk, dtype, mode, k, scratch, *args):
        part = kernel(chunk, dtype, mode, k, scratch, *args)
        dtypes.append(_kernel_dtype(scratch).name)
        return part

    monkeypatch.setattr(jpd_module, "_accumulate_chunk", spy)
    for workers in (None, 2):
        dtypes.clear()
        mixed = accumulate_jpd(frames, band_radius=2, chunk_size=16,
                               workers=workers)
        assert sorted(dtypes) == ["float32"] * 3 + ["float64"]
        assert mixed.planes.tobytes() == wide.planes.tobytes()


def test_accumulate_refuses_integer_sums_beyond_exact_range(monkeypatch):
    # 10 frame pairs reach a limit of 10 * 65535**2 at the u16 dtype bound,
    # so the stack's own range decides
    monkeypatch.setattr(jpd_module, "EXACT_SUM_LIMIT", 10 * 65535 ** 2)
    frames = np.random.default_rng(9).integers(0, 1000, (11, 2, 3),
                                               dtype=np.uint16)
    accumulate_jpd(frames, band_radius=1)
    frames[4, 1, 2], frames[5, 1, 2] = 65535, 0
    # one pair fewer: the dtype bound alone clears the stack
    accumulate_jpd(frames[:10], band_radius=1)
    accumulate_jpd(frames.astype(bool), band_radius=1)
    calls = []
    monkeypatch.setattr(jpd_module, "_accumulate_chunk",
                        lambda *args: calls.append(args))
    with pytest.raises(PrecisionError, match="not exact"):
        accumulate_jpd(frames, band_radius=1)
    # one chunk of the same stack is refused alike
    with pytest.raises(PrecisionError, match="not exact"):
        accumulate_partial(frames, band_radius=1)
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_streamed_accumulation_equals_in_memory(tmp_path_factory, data):
    # packed-bit rows are byte-aligned, so widths off a multiple of 8 read
    # padding bits that must never reach the frames
    dtype = data.draw(st.sampled_from([np.uint16, np.float32, np.bool_]),
                      label="dtype")
    elements = {np.uint16: st.integers(0, 65535),
                np.float32: st.floats(0, 1e3, width=32),
                np.bool_: st.booleans()}[dtype]
    shape = (data.draw(st.integers(2, 40), label="n"),
             data.draw(st.integers(1, 6), label="h"),
             data.draw(st.integers(1, 13), label="w"))
    frames = data.draw(arrays(dtype, shape, elements=elements), label="frames")
    path = tmp_path_factory.mktemp("stream") / "stack.bpsr"
    write_frames(path, frames)
    kwargs = dict(mode=data.draw(st.sampled_from(jpd_module.MODES), label="mode"),
                  band_radius=data.draw(st.integers(0, 2), label="k"),
                  chunk_size=data.draw(st.integers(1, 50), label="chunk"),
                  workers=data.draw(st.sampled_from([1, 2]), label="workers"))
    # an iterator's blocks: one frame each, or cut anywhere, so that
    # blocks may be empty, longer than a chunk, or end off the chunk grid
    cuts = data.draw(st.one_of(
        st.just(list(range(1, shape[0]))),
        st.lists(st.integers(0, shape[0]), max_size=8).map(sorted)),
        label="cuts")
    held = accumulate_jpd(frames, **kwargs)
    for source in (open_frames(path), iter(np.split(frames, cuts))):
        streamed = accumulate_jpd(source, **kwargs)
        assert streamed.planes.tobytes() == held.planes.tobytes()
        assert np.array_equal(streamed.valid, held.valid)
        assert streamed.n_frames == held.n_frames == shape[0]


def test_stream_is_cut_into_the_array_chunks(monkeypatch):
    # the kernel sees the same chunks from a stream as from the array, and
    # every chunk inside one block, but the last, as a view of the block
    frames = np.arange(23 * 2 * 3, dtype=np.uint16).reshape(23, 2, 3)
    kernel = jpd_module._accumulate_chunk
    seen = []

    def spy(chunk, *args):
        seen.append((chunk.tobytes(), chunk.base is not None))
        return kernel(chunk, *args)

    monkeypatch.setattr(jpd_module, "_accumulate_chunk", spy)
    accumulate_jpd(frames, band_radius=1, chunk_size=4)
    whole = [data for data, _ in seen]
    assert len(whole) == 6
    for blocks in ([frames], np.split(frames, [1, 2, 9, 9, 20])):
        seen.clear()
        accumulate_jpd(iter(blocks), band_radius=1, chunk_size=4)
        assert [data for data, _ in seen] == whole
        if len(blocks) == 1:
            assert [view for _, view in seen] == [True] * 5 + [False]
    # one chunk: the whole source, from a stream as from the array
    assert (accumulate_partial(iter(np.split(frames, [1, 9])), "far", 1).sums
            .tobytes() == accumulate_partial(frames, "far", 1).sums.tobytes())


@pytest.mark.parametrize("bad", [
    dict(chunk_size=0), dict(workers=0), dict(mode="sideways"),
    dict(band_radius=-1), dict(threshold=1.5), dict(threshold=-0.1),
    dict(threshold=float("nan"))],
    ids=["chunk", "workers", "mode", "band_radius", "threshold_high",
         "threshold_low", "threshold_nan"])
def test_bad_argument_is_refused_before_a_block_is_read(bad):
    # a block read before the refusal would be lost to a retry on the
    # same iterator
    yielded = []

    def blocks():
        for block in np.split(np.ones((6, 4, 4), np.uint16), 3):
            yielded.append(len(block))
            yield block

    # the plane filter's threshold is reconstruct's alone
    runs = [reconstruct] if "threshold" in bad else [accumulate_jpd,
                                                     reconstruct]
    for run in runs:
        with pytest.raises(ConfigurationError):
            run(blocks(), **{"band_radius": 1, **bad})
    assert yielded == []


@pytest.mark.parametrize("samples", ["<U1", object, "datetime64[s]",
                                     "timedelta64[s]", complex])
def test_non_numeric_stack_is_refused_before_a_block_is_read(
        monkeypatch, tmp_path, samples):
    # the kernel's staging copy would cast strings, objects and dates to
    # float, and drop the imaginary part of complex samples
    stack = np.random.default_rng(0).integers(0, 5, (10, 4, 4)).astype(samples)
    kernel_calls = []
    monkeypatch.setattr(jpd_module, "_accumulate_chunk",
                        lambda *args: kernel_calls.append(args))
    yielded = []

    def blocks():
        for block in np.split(stack, 5):
            yielded.append(len(block))
            yield block

    with pytest.raises(FrameShapeError) as accumulated:
        accumulate_jpd(stack, band_radius=1)
    assert str(accumulated.value).endswith(f"got {stack.dtype}")
    for run in (lambda: accumulate_jpd(blocks(), band_radius=1),
                lambda: accumulate_partial(stack, band_radius=1),
                lambda: reconstruct(stack, band_radius=1)):
        with pytest.raises(FrameShapeError, match="frame samples must be"):
            run()
    with pytest.raises(FrameShapeError) as dense:
        dense_jpd_matrix(stack)
    assert str(dense.value) == str(accumulated.value)
    with pytest.raises(FrameShapeError, match="frame samples must be"):
        write_frames(tmp_path / "stack.bpsr", stack)
    assert not (tmp_path / "stack.bpsr").exists()
    assert kernel_calls == []
    assert yielded == [2]  # the head block, refused as it came


def test_short_or_empty_stream_is_refused_as_the_array_is():
    for blocks in ([], [np.zeros((1, 4, 4), np.uint16)],
                   [np.zeros((0, 4, 4), np.uint16),
                    np.zeros((1, 4, 4), np.uint16)]):
        count = sum(map(len, blocks))
        with pytest.raises(InsufficientDataError) as array:
            accumulate_jpd(np.zeros((count, 4, 4)), band_radius=1)
        with pytest.raises(InsufficientDataError) as stream:
            accumulate_jpd(iter(blocks), band_radius=1)
        assert str(stream.value) == str(array.value)
        assert str(stream.value).endswith(f"got {count}")


@pytest.mark.parametrize("bad", [
    np.zeros((3, 4, 6), np.uint16), np.zeros((3, 4, 5), np.float32),
    np.zeros((4, 5), np.uint16)])
def test_stream_block_of_another_shape_or_dtype_is_refused_as_the_writer_does(
        tmp_path, bad):
    def blocks():
        yield np.ones((3, 4, 5), np.uint16)
        yield bad

    with pytest.raises(FrameShapeError) as written:
        write_frame_chunks(tmp_path / "stack.bpsr", blocks())
    with pytest.raises(FrameShapeError) as streamed:
        accumulate_jpd(blocks(), band_radius=1)
    assert str(streamed.value) == str(written.value)
    assert "in a stack of 4x5 uint16 frames" in str(streamed.value)


@pytest.mark.parametrize("workers", [None, 2])
def test_stream_past_exact_sums_raises_before_the_chunk_that_crosses(
        monkeypatch, workers):
    # chunks of 2 terms: the first holds the stack's whole range, the
    # later ones are dim, so only the range over every chunk so far
    # crosses the limit, at the third chunk, 6 terms in
    monkeypatch.setattr(jpd_module, "EXACT_SUM_LIMIT", 6 * 65535 ** 2)
    frames = np.random.default_rng(6).integers(0, 4, (11, 2, 3),
                                               dtype=np.uint16)
    frames[1, 0, 0], frames[2, 0, 0] = 65535, 0
    kernel = jpd_module._accumulate_chunk
    seen = []

    def spy(chunk, *args):
        seen.append(chunk.copy())
        return kernel(chunk, *args)

    monkeypatch.setattr(jpd_module, "_accumulate_chunk", spy)
    for cuts in ([], [1, 5, 6], list(range(1, 11))):
        seen.clear()
        with pytest.raises(PrecisionError,
                           match=r"^6 frame pairs with values in \[0, 65535\]"):
            accumulate_jpd(iter(np.split(frames, cuts)), band_radius=1,
                           chunk_size=2, workers=workers)
        assert [c.tobytes() for c in seen] == [frames[0:3].tobytes(),
                                              frames[2:5].tobytes()]
        # the chunk that crosses is dim: its own range would not
        assert frames[4:7].max() <= 3
        # one frame pair fewer is accepted
        seen.clear()
        accumulate_jpd(iter(np.split(frames[:6], [c for c in cuts if c < 6])),
                       band_radius=1, chunk_size=2, workers=workers)
        assert len(seen) == 3


def test_streamed_stack_beyond_exact_sums_raises_before_any_chunk(
        tmp_path, monkeypatch):
    # past the dtype bound the stack's range is read chunk by chunk, and
    # the refusal still comes before the first kernel call
    monkeypatch.setattr(jpd_module, "EXACT_SUM_LIMIT", 10 * 65535 ** 2)
    frames = np.zeros((11, 2, 3), dtype=np.uint16)
    frames[4, 1, 2] = 65535
    path = tmp_path / "stack.bpsr"
    write_frames(path, frames)
    calls = []
    monkeypatch.setattr(jpd_module, "_accumulate_chunk",
                        lambda *args: calls.append(args))
    with pytest.raises(PrecisionError, match=r"values in \[0, 65535\]"):
        accumulate_jpd(open_frames(path), band_radius=1, chunk_size=3)
    assert calls == []


def test_float_stack_bits_follow_the_chunking_not_the_threads():
    # float sums round in chunk order: the thread count never moves a bit,
    # a different chunking may move the last ones
    rng = np.random.default_rng(4)
    gains = rng.gamma(2.0, 50.0, (3000, 16, 16))
    frames = (gains * rng.poisson(0.3, gains.shape) / 100.0).astype(np.float32)
    base = accumulate_jpd(frames, band_radius=2, chunk_size=256)
    assert accumulate_jpd(frames, band_radius=2, chunk_size=256,
                          workers=2).planes.tobytes() == base.planes.tobytes()
    for chunk in (64, 100, 1000):
        other = accumulate_jpd(frames, band_radius=2, chunk_size=chunk)
        np.testing.assert_allclose(other.planes, base.planes, rtol=1e-9,
                                   atol=1e-12 * np.abs(base.planes).max())


@pytest.mark.parametrize("mode", ["near", "far"])
def test_finalize_holds_few_band_copies(mode):
    # one band: (2K+1)^2 float64 planes of the frame size
    k, h, w = 3, 64, 64
    rng = np.random.default_rng(13)
    sums = rng.integers(-1000, 1000, (2 * k + 1, 2 * k + 1, h, w)) * 1.0
    partial = PartialJpd(mode, k, (h, w), sums, 100)
    before = sums.copy()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        finalize_jpd(partial)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sums.nbytes
    assert np.array_equal(sums, before)


@pytest.mark.parametrize("workers", [None, 2])
def test_running_band_equals_merged_chunks(workers):
    # the running band stores the first chunk's band and adds the later
    # ones, the float64 additions merge_partials makes.  Float64 products
    # of the tiny stack round to -0.0, and 32 terms sum to -0.0, which a
    # band that started from zeros and added would turn into +0.0
    rng = np.random.default_rng(21)
    ints = rng.integers(0, 65536, (97, 4, 11), dtype=np.uint16)
    tiny = np.cumsum(-1e-200 * (1 + rng.random((97, 4, 11))), axis=0)
    for frames in (ints, ints > 30000, (ints / 7).astype(np.float32), tiny):
        for mode in jpd_module.MODES:
            parts = [accumulate_partial(frames[a:a + 33], mode, 2)
                     for a in range(0, 96, 32)]
            merged = merge_partials(parts)
            running = jpd_module._accumulate(frames, mode, 2, 32, workers)
            assert running.sums.tobytes() == merged.sums.tobytes()
            assert running.n_terms == merged.n_terms == 96
    zeros = merged.sums[merged.sums == 0]
    assert np.signbit(parts[0].sums[parts[0].sums == 0]).any()
    assert np.signbit(zeros).any()


def test_threads_add_rows_in_chunk_order(monkeypatch):
    # more threads than cores, switching often: each chunk adds a row band
    # into the running band only once the chunk before it has added those
    # rows, or a chunk's sums would be lost or added out of order
    frames = np.random.default_rng(17).integers(0, 9, (400, 6, 10),
                                                dtype=np.uint16)
    base = accumulate_jpd(frames, band_radius=2, chunk_size=3)
    monkeypatch.setattr(jpd_module, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = accumulate_jpd(frames, band_radius=2, chunk_size=3,
                                 workers=8)
            assert got.planes.tobytes() == base.planes.tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("mode", ["near", "far"])
def test_accumulation_holds_one_band(tmp_path, mode):
    # beside the kernel's buffers (KERNEL_BYTES) and one chunk read from
    # the file (at most KERNEL_BYTES for u16 frames), the chunks of a
    # serial run add into one band; a merge would hold two at least
    k, h, w = 3, 128, 64
    frames = np.random.default_rng(15).integers(0, 50, (600, h, w),
                                                dtype=np.uint16)
    path = tmp_path / "stack.bpsr"
    write_frames(path, frames)
    band = (2 * k + 1) ** 2 * h * w * 8
    slack = 4 * np.getbufsize() * 8  # numpy's casting buffers
    for source, chunk in ((frames, 0), (open_frames(path),
                                        jpd_module.KERNEL_BYTES)):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            running = jpd_module._accumulate(source, mode, k, 256, None)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert running.sums.nbytes == band
        assert peak <= jpd_module.KERNEL_BYTES + chunk + band + slack


def test_threaded_accumulation_holds_one_band(tmp_path, monkeypatch):
    # with two threads the chunks still add into the one band: beside it
    # each thread holds its kernel buffers (at most KERNEL_BYTES) and, from
    # a file, the chunks in flight (threads + 1 submitted, one being read);
    # a band per chunk in flight would take three bands more
    k, h, w, chunk, threads = 3, 128, 128, 8, 2
    monkeypatch.setattr(jpd_module, "_usable_cpus", lambda: threads)
    frames = np.random.default_rng(19).integers(0, 50, (121, h, w),
                                                dtype=np.uint16)
    path = tmp_path / "stack.bpsr"
    write_frames(path, frames)
    band = (2 * k + 1) ** 2 * h * w * 8
    read = (threads + 2) * (chunk + 1) * h * w * 2
    slack = 4 * np.getbufsize() * 8 * threads  # numpy's casting buffers
    for source, held in ((frames, 0), (open_frames(path), read)):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            running = jpd_module._accumulate(source, "near", k, chunk,
                                             threads)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert running.sums.nbytes == band
        assert running.n_terms == 120
        assert peak <= threads * jpd_module.KERNEL_BYTES + held + band + slack


def test_failing_threaded_chunk_raises_and_does_not_hang(monkeypatch):
    # the third chunk fails before it adds a row; the chunks after it must
    # still take their turns, so the pool finishes and the error reaches
    # the caller instead of every later chunk waiting on it for ever
    frames = np.random.default_rng(20).integers(0, 9, (40, 5, 6),
                                                dtype=np.uint16)
    monkeypatch.setattr(jpd_module, "_usable_cpus", lambda: 2)
    kernel = jpd_module._accumulate_chunk
    calls, lock, raised = [], threading.Lock(), []

    def spy(chunk, *args):
        with lock:
            calls.append(len(chunk))
            third = len(calls) == 3
        if third:
            raise MemoryError
        return kernel(chunk, *args)

    def call():
        try:
            accumulate_jpd(frames, band_radius=2, chunk_size=3, workers=2)
        except MemoryError as error:
            raised.append(error)

    monkeypatch.setattr(jpd_module, "_accumulate_chunk", spy)
    # run in a thread of its own, so a hang fails the test instead of
    # blocking it
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "accumulation hung after a chunk failed"
    assert len(raised) == 1 and len(calls) >= 3


def test_integer_chunks_fit_the_kernel_budget(monkeypatch):
    # integer and bool chunks take at most chunk_size terms and as many
    # frames as fit KERNEL_BYTES; float chunks keep chunk_size terms
    frames = np.random.default_rng(16).integers(0, 9, (50, 4, 8),
                                                dtype=np.uint16)
    base = accumulate_jpd(frames, band_radius=1, chunk_size=20)
    kernel = jpd_module._accumulate_chunk
    seen = []

    def spy(chunk, *args):
        seen.append(len(chunk))
        return kernel(chunk, *args)

    monkeypatch.setattr(jpd_module, "_accumulate_chunk", spy)
    monkeypatch.setattr(jpd_module, "KERNEL_BYTES", 10 * 4 * 8 * 2)
    for stack, lengths in ((frames, [10] * 5 + [5]),
                           (frames > 4, [20, 20, 12]),
                           (frames.astype(np.float32), [21, 21, 10])):
        if stack.dtype == np.bool_:  # 1-byte frames: 20 fit, 21 do not
            monkeypatch.setattr(jpd_module, "KERNEL_BYTES", 20 * 4 * 8)
        for workers in (None, 2):
            seen.clear()
            got = accumulate_jpd(stack, band_radius=1, chunk_size=20,
                                 workers=workers)
            assert seen == lengths
        if stack.dtype == np.uint16:
            assert got.planes.tobytes() == base.planes.tobytes()
    # a frame larger than the budget still makes chunks of one term
    monkeypatch.setattr(jpd_module, "KERNEL_BYTES", 1)
    seen.clear()
    assert accumulate_jpd(frames, band_radius=1).planes.tobytes() == (
        base.planes.tobytes())
    assert seen == [2] * 49


@pytest.mark.parametrize("mode", ["near", "far"])
def test_kernel_memory_is_bounded_by_its_budget(mode):
    # 257 full-range u16 frames run the float64 kernel, whose buffers for
    # 128 x 32 frames at K = 8 would take four times KERNEL_BYTES in one
    # band.  Wide halos (8 columns on either side of each 8-column tile)
    # and 17 row offsets make the halo columns and the product large
    # shares of a band row: a rows-per-band formula that left either out
    # would choose bands 1 to 4 MB over the budget.
    k, h, w = 8, 128, 32
    frames = np.random.default_rng(14).integers(0, 65536, (257, h, w),
                                                dtype=np.uint16)
    band_sums = (2 * k + 1) ** 2 * h * w * 8
    # beside the buffers and the band sums the kernel makes only numpy's
    # casting buffers, a few of np.getbufsize() float64 items each
    slack = 4 * np.getbufsize() * 8
    scratch = {}
    (chunk, dtype), = jpd_module._typed(frames, len(frames))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sums = np.zeros((2 * k + 1, 2 * k + 1, h, w))
        jpd_module._accumulate_chunk(chunk, dtype, mode, k, scratch, sums,
                                     False, contextlib.nullcontext)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    (shape, dtype), = scratch
    pix, part, partners, out, band = scratch[shape, dtype]
    assert np.dtype(dtype) == np.float64
    assert 1 < len(partners) < h  # several bands of several rows
    assert sums.nbytes == band_sums
    assert peak <= jpd_module.KERNEL_BYTES + band_sums + slack


def test_input_validation():
    with pytest.raises(FrameShapeError):
        accumulate_jpd(np.zeros((4, 4)))
    with pytest.raises(InsufficientDataError):
        accumulate_jpd(np.zeros((1, 4, 4)))
    with pytest.raises(ConfigurationError, match="mode"):
        accumulate_jpd(TINY, mode="mid")
    with pytest.raises(ConfigurationError, match="band radius"):
        accumulate_jpd(TINY, band_radius=-1)
    with pytest.raises(ConfigurationError, match="chunk_size"):
        accumulate_jpd(TINY, chunk_size=0)
    for workers in (0, -3):
        with pytest.raises(ConfigurationError, match="workers"):
            accumulate_jpd(TINY, workers=workers)
    with pytest.raises(InsufficientDataError):
        merge_partials([])


def test_merge_rejects_mismatched_geometry():
    a = accumulate_partial(TINY, band_radius=1)
    b = accumulate_partial(TINY, band_radius=2)
    with pytest.raises(StateError):
        merge_partials([a, b])
    c = accumulate_partial(TINY, mode="far", band_radius=1)
    with pytest.raises(StateError):
        merge_partials([a, c])


def _structural_validity_loop(mode, k, shape):
    """The plane-by-plane reference for structural_validity."""
    h, w = shape
    center = (h - 1, w - 1)
    valid = np.zeros((2 * k + 1, 2 * k + 1, h, w), dtype=bool)
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    for dy in range(-k, k + 1):
        for dx in range(-k, k + 1):
            if mode == "near":
                py, px = ys + dy, xs + dx
            else:
                py, px = center[0] - ys + dy, center[1] - xs + dx
            valid[dy + k, dx + k] = (py >= 0) & (py < h) & (px >= 0) & (px < w)
    return valid


@pytest.mark.parametrize("mode", ["near", "far"])
def test_structural_validity_matches_plane_loop(mode):
    for shape in [(1, 1), (1, 5), (4, 1), (3, 4), (6, 5)]:
        h, w = shape
        for k in range(max(shape) + 2):
            got = structural_validity(mode, k, shape)
            ref = _structural_validity_loop(mode, k, shape)
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.array_equal(got, ref), (shape, k)


def _flip_about(arr, cy, cx):
    """Point reflection q -> (cy, cx) - q, zero where the source is outside."""
    h, w = arr.shape
    out = np.zeros_like(arr)
    ya, yb = max(0, cy - h + 1), min(h - 1, cy)
    xa, xb = max(0, cx - w + 1), min(w - 1, cx)
    if ya > yb or xa > xb:
        return out
    src = arr[cy - yb:cy - ya + 1, cx - xb:cx - xa + 1]
    out[ya:yb + 1, xa:xb + 1] = src[::-1, ::-1]
    return out


def _symmetrize_loop(planes, valid, mode):
    """The plane-by-plane reference for the symmetrization in finalize_jpd."""
    k = planes.shape[0] // 2
    h, w = planes.shape[2:]
    center = (h - 1, w - 1)
    out = planes.copy()
    for dy in range(-k, k + 1):
        for dx in range(-k, k + 1):
            pd = planes[dy + k, dx + k]
            if mode == "near":
                pm = planes[-dy + k, -dx + k]
                ya, yb = max(0, -dy), h - max(0, dy)
                xa, xb = max(0, -dx), w - max(0, dx)
                if ya >= yb or xa >= xb:
                    continue
                out[dy + k, dx + k, ya:yb, xa:xb] = 0.5 * (
                    pd[ya:yb, xa:xb]
                    + pm[ya + dy:yb + dy, xa + dx:xb + dx])
            else:
                swapped = _flip_about(pd, center[0] + dy, center[1] + dx)
                v = valid[dy + k, dx + k]
                out[dy + k, dx + k] = np.where(v, 0.5 * (pd + swapped), pd)
    return out


def _separation_policy_loop(jpd, invalid_separation):
    """The plane-by-plane reference for apply_separation_policy's mask."""
    h, w = jpd.shape
    valid = jpd.valid.copy()
    for dy, dx, a, b in jpd.displacements():
        if jpd.mode == "near":
            if bool(np.asarray(invalid_separation(np.array(dy), np.array(dx)))):
                valid[a, b] = False
        else:
            sy = jpd.center[0] + dy - 2 * np.arange(h)[:, None]
            sx = jpd.center[1] + dx - 2 * np.arange(w)[None, :]
            bad = np.broadcast_to(invalid_separation(sy, sx), (h, w))
            valid[a, b] &= ~bad
    return valid


@pytest.mark.parametrize("mode", ["near", "far"])
def test_symmetrize_and_separation_policy_match_plane_loops(mode):
    # float sums: the exact dense-oracle property covers integer frames only
    rng = np.random.default_rng(12)
    policies = [IdealCamera().invalid_pair_separation,
                EmccdCamera().invalid_pair_separation,
                SpadCamera().invalid_pair_separation,
                lambda dy, dx: dx == 0]
    for shape in [(1, 1), (1, 5), (4, 1), (3, 4), (6, 5)]:
        for k in range(max(shape) + 2):
            sums = rng.standard_normal((2 * k + 1, 2 * k + 1, *shape))
            jpd = finalize_jpd(PartialJpd(mode, k, shape, sums, 1))
            valid = structural_validity(mode, k, shape)
            ref = np.where(valid, _symmetrize_loop(sums, valid, mode), 0.0)
            assert jpd.planes.tobytes() == ref.tobytes(), (shape, k)
            for policy in policies:
                out = apply_separation_policy(jpd, policy)
                ref_valid = _separation_policy_loop(jpd, policy)
                assert np.array_equal(out.valid, ref_valid), (shape, k)
                assert out.planes.tobytes() == np.where(
                    ref_valid, jpd.planes, 0.0).tobytes()


def test_structural_validity_edges():
    near = structural_validity("near", 1, (3, 3))
    assert near[1, 1].all()                   # zero displacement
    assert not near[1, 2][:, 2].any()         # dx=+1 partner off the right edge
    assert near[1, 2][:, :2].all()
    far = structural_validity("far", 1, (3, 3))
    assert far[1, 1].all()                    # u = 0 partner always on sensor
    assert not far[2, 1][0, :].any()          # u=(1,0): partner row 3 - y
    assert far[2, 1][1:, :].all()


def test_separation_policy_near_drops_whole_planes():
    jpd = accumulate_jpd(np.random.default_rng(0).integers(
        0, 30, (10, 5, 5), dtype=np.uint16), band_radius=1)
    out = apply_separation_policy(jpd, lambda dy, dx: dx == 0)
    assert out.pending_invalid
    for dy, dx, a, b in out.displacements():
        if dx == 0:
            assert not out.valid[a, b].any()
            assert np.all(out.planes[a, b] == 0.0)
        else:
            assert out.valid[a, b].any()
    with pytest.raises(StateError, match="unresolved invalid"):
        sum_projection(out)
    resolved = out.with_invalid_excluded()
    assert not resolved.pending_invalid
    sum_projection(resolved)


def test_separation_policy_far_drops_entries_individually():
    frames = np.random.default_rng(1).integers(0, 30, (10, 3, 3), np.uint16)
    jpd = accumulate_jpd(frames, mode="far", band_radius=1)
    out = apply_separation_policy(jpd, lambda sy, sx: (sy == 0) & (sx == 0))
    # separation c + u - 2r vanishes only where r = (c + u) / 2 is integral
    k = 1
    for dy, dx, a, b in out.displacements():
        expected = jpd.valid[a, b].copy()
        ry, rx = (2 + dy), (2 + dx)
        if ry % 2 == 0 and rx % 2 == 0:
            expected[ry // 2, rx // 2] = False
        assert np.array_equal(out.valid[a, b], expected)


def test_projection_mass_conservation():
    rng = np.random.default_rng(2)
    frames = rng.integers(0, 30, size=(20, 6, 6), dtype=np.uint16)
    for mode in ("near", "far"):
        jpd = accumulate_jpd(frames, mode=mode, band_radius=2)
        total = sum(jpd.planes[a, b][jpd.valid[a, b]].sum()
                    for _, _, a, b in jpd.displacements())
        assert sum_projection(jpd).values.sum() == pytest.approx(total)
        assert minus_projection(jpd).values.sum() == pytest.approx(total)


def test_projection_geometry():
    frames = np.random.default_rng(3).integers(0, 30, (10, 4, 4), np.uint16)
    jpd = accumulate_jpd(frames, mode="near", band_radius=1)
    img = sum_projection(jpd)
    assert img.values.shape == (7, 7)
    assert img.pitch == 0.5
    # sum coordinate s = 2r + d: the corner only receives the (0, 0) plane
    assert img.values[0, 0] == pytest.approx(jpd.plane(0, 0)[0, 0])
    minus = minus_projection(jpd)
    assert minus.values.shape == (3, 3)
    assert minus.origin == (-0.5, -0.5)
    assert minus.values[1, 1] == pytest.approx(jpd.plane(0, 0).sum())
    diag = diagonal_image(jpd)
    assert np.array_equal(diag.values, jpd.plane(0, 0))
    assert diag.pitch == 1.0

    far = accumulate_jpd(frames, mode="far", band_radius=1)
    fsum = sum_projection(far)
    # far plane u concentrates at sum coordinate c + u
    assert fsum.values[3, 3] == pytest.approx(
        far.plane(0, 0)[far.plane_valid(0, 0)].sum())
    with pytest.raises(StateError):
        diagonal_image(far)


def test_inactive_planes_are_skipped():
    frames = np.random.default_rng(4).integers(0, 30, (10, 4, 4), np.uint16)
    jpd = accumulate_jpd(frames, band_radius=1)
    active = jpd.active.copy()
    active[1, 1] = False
    trimmed = dataclasses.replace(jpd, active=active)
    assert minus_projection(trimmed).values[1, 1] == 0.0
    with pytest.raises(StateError, match="inactive"):
        diagonal_image(trimmed)


def test_plane_accessor_bounds():
    jpd = accumulate_jpd(TINY, band_radius=1)
    with pytest.raises(ConfigurationError):
        jpd.plane(2, 0)
    with pytest.raises(ConfigurationError):
        jpd.plane_valid(0, -2)


def test_snapshot_round_trip(tmp_path):
    frames = np.random.default_rng(8).integers(0, 30, (12, 5, 4), np.uint16)
    jpd = accumulate_jpd(frames, mode="far", band_radius=1)
    jpd = apply_separation_policy(jpd, lambda sy, sx: (sy == 0) & (sx == 0))
    active = jpd.active.copy()
    active[0, 0] = False
    jpd = dataclasses.replace(jpd, active=active)
    path = tmp_path / "snap.bjpd"
    write_jpd_snapshot(path, jpd)
    back = read_jpd_snapshot(path)
    assert back.mode == jpd.mode
    assert back.band_radius == jpd.band_radius
    assert back.center == jpd.center
    assert back.n_frames == jpd.n_frames
    assert back.pending_invalid
    assert np.array_equal(back.active, jpd.active)
    for dy, dx, a, b in jpd.displacements():
        if jpd.active[a, b]:
            assert np.array_equal(back.planes[a, b], jpd.planes[a, b])
            assert np.array_equal(back.valid[a, b], jpd.valid[a, b])
        else:
            assert np.all(back.planes[a, b] == 0.0)
            assert not back.valid[a, b].any()


def test_snapshot_rejects_band_beyond_record_limit(tmp_path):
    # plane records store (dy, dx) as i8 and their count as u16
    k = MAX_BAND_RADIUS + 1
    shape = (2 * k + 1, 2 * k + 1, 2, 2)
    jpd = Jpd("near", k, np.zeros(shape), np.zeros(shape, dtype=bool),
              np.ones(shape[:2], dtype=bool), 3)
    path = tmp_path / "snap.bjpd"
    with pytest.raises(ConfigurationError, match="snapshot limit"):
        write_jpd_snapshot(path, jpd)
    assert not path.exists()


def test_snapshot_rejects_frames_beyond_header_sides(tmp_path):
    # the header stores H and W as u16; zero-copy planes keep this cheap
    path = tmp_path / "snap.bjpd"
    for shape in ((1, 65536), (65536, 1)):
        band = (1, 1, *shape)
        jpd = Jpd("near", 0, np.broadcast_to(0.0, band),
                  np.broadcast_to(True, band), np.ones((1, 1), dtype=bool), 3)
        with pytest.raises(ConfigurationError) as info:
            write_jpd_snapshot(path, jpd)
        assert str(info.value) == (f"{shape[0]}x{shape[1]} frames exceed the "
                                   "snapshot limit of 65535 pixels per side")
        assert not path.exists()


def _snapshot_header(k, h, w, n_recs, center=None):
    cy, cx = (h - 1, w - 1) if center is None else center
    return struct.pack("<4sHBBHHIiiBH5x", b"BJPD", 1, 0, k, h, w, 3,
                       cy, cx, 0, n_recs)


def test_snapshot_rejects_crafted_headers(tmp_path):
    path = tmp_path / "crafted.bjpd"
    # a 32-byte header that would ask for (511, 511, 65535, 65535) planes
    path.write_bytes(_snapshot_header(255, 65535, 65535, 0))
    with pytest.raises(FileFormatError, match="exceeds the limit"):
        read_jpd_snapshot(path)
    # more records than the band has planes
    record = struct.pack("<bb", 0, 0)
    body = record * 10 + bytes(10 * 8) + bytes(10)
    path.write_bytes(_snapshot_header(1, 1, 1, 10) + body)
    with pytest.raises(FileFormatError, match="10 plane records for 9"):
        read_jpd_snapshot(path)
    # the i8 record -128 lies outside the widest band, K = 127
    body = struct.pack("<bb", -128, 0) + struct.pack("<d", 1.0) + b"\x80"
    path.write_bytes(_snapshot_header(127, 1, 1, 1) + body)
    with pytest.raises(FileFormatError, match=r"\(-128, 0\) outside band"):
        read_jpd_snapshot(path)
    # two identical (0, 0) records, each with a 1x1 plane and mask
    body = record * 2 + struct.pack("<dd", 1.0, 2.0) + b"\x80\x80"
    path.write_bytes(_snapshot_header(1, 1, 1, 2) + body)
    with pytest.raises(FileFormatError, match="duplicate"):
        read_jpd_snapshot(path)
    # a symmetry centre other than the one the frame shape implies
    body = record + struct.pack("<d", 1.0) + b"\x80"
    path.write_bytes(_snapshot_header(1, 1, 1, 1) + body)
    assert read_jpd_snapshot(path).plane(0, 0)[0, 0] == 1.0
    path.write_bytes(_snapshot_header(1, 1, 1, 1, center=(1, 0)) + body)
    with pytest.raises(FileFormatError, match="symmetry centre"):
        read_jpd_snapshot(path)
    # a zero-record header whose band cannot be allocated (1.98 PiB)
    path.write_bytes(_snapshot_header(127, 65535, 65535, 0))
    with pytest.raises(FileFormatError, match="does not fit in memory"):
        read_jpd_snapshot(path)
    # zero records stay legal: an all-inactive JPD round-trips
    jpd = accumulate_jpd(TINY, band_radius=1)
    jpd = dataclasses.replace(jpd, active=np.zeros_like(jpd.active))
    write_jpd_snapshot(path, jpd)
    assert path.stat().st_size == 32
    back = read_jpd_snapshot(path)
    assert not back.active.any() and not back.valid.any()


def test_snapshot_corruption_detection(tmp_path):
    jpd = accumulate_jpd(TINY, band_radius=1)
    path = tmp_path / "snap.bjpd"
    write_jpd_snapshot(path, jpd)
    raw = bytearray(path.read_bytes())

    def write_variant(mutate):
        data = bytearray(raw)
        mutate(data)
        bad = tmp_path / "bad.bjpd"
        bad.write_bytes(bytes(data))
        return bad

    with pytest.raises(FileFormatError, match="magic"):
        read_jpd_snapshot(write_variant(lambda d: d.__setitem__(slice(0, 4), b"NOPE")))
    with pytest.raises(FileFormatError, match="version"):
        read_jpd_snapshot(write_variant(
            lambda d: d.__setitem__(slice(4, 6), struct.pack("<H", 9))))
    with pytest.raises(FileFormatError, match="mode code"):
        read_jpd_snapshot(write_variant(lambda d: d.__setitem__(6, 9)))
    with pytest.raises(FileFormatError, match="outside band"):
        read_jpd_snapshot(write_variant(lambda d: d.__setitem__(32, 100)))
    with pytest.raises(FileFormatError, match="too short"):
        read_jpd_snapshot(write_variant(lambda d: d.__delitem__(slice(8, None))))
    with pytest.raises(FileFormatError, match="bytes"):
        read_jpd_snapshot(write_variant(lambda d: d.extend(b"\x00")))


def _write_snapshot_records(path, jpd):
    """The per-record reference for write_jpd_snapshot."""
    k = jpd.band_radius
    h, w = jpd.shape
    recs = [(dy, dx, a, b) for dy, dx, a, b in jpd.displacements()
            if jpd.active[a, b]]
    header = jpd_module._SNAP_HEADER.pack(
        b"BJPD", 1, jpd_module.MODES.index(jpd.mode), k, h, w,
        jpd.n_frames, jpd.center[0], jpd.center[1],
        1 if jpd.pending_invalid else 0, len(recs))
    with open(path, "wb") as fh:
        fh.write(header)
        for dy, dx, _, _ in recs:
            fh.write(struct.pack("<bb", dy, dx))
        for _, _, a, b in recs:
            fh.write(jpd.planes[a, b].astype("<f8", copy=False).tobytes())
        for _, _, a, b in recs:
            fh.write(np.packbits(jpd.valid[a, b]).tobytes())


def _read_snapshot_records(path):
    """The per-record reference for read_jpd_snapshot, header checks
    included."""
    raw = path.read_bytes()
    header = jpd_module._SNAP_HEADER
    if len(raw) < header.size:
        raise FileFormatError(f"{path}: too short for a JPD snapshot header")
    (magic, version, mode_code, k, h, w, n_frames, cy, cx, pending,
     n_recs) = header.unpack_from(raw, 0)
    if magic != b"BJPD":
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    if version != 1:
        raise FileFormatError(f"{path}: unsupported version {version}")
    if mode_code not in (0, 1):
        raise FileFormatError(f"{path}: unknown mode code {mode_code}")
    if h < 1 or w < 1:
        raise FileFormatError(f"{path}: bad frame shape {(h, w)}")
    if (cy, cx) != (h - 1, w - 1):
        raise FileFormatError(
            f"{path}: symmetry centre {(cy, cx)} is not {(h - 1, w - 1)}")
    if k > MAX_BAND_RADIUS:
        raise FileFormatError(
            f"{path}: band radius {k} exceeds the limit {MAX_BAND_RADIUS}")
    if n_recs > (2 * k + 1) ** 2:
        raise FileFormatError(
            f"{path}: {n_recs} plane records for {(2 * k + 1) ** 2} planes")
    plane_bytes = h * w * 8
    mask_bytes = (h * w + 7) // 8
    expected = header.size + n_recs * (2 + plane_bytes + mask_bytes)
    if len(raw) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} bytes, found {len(raw)}")
    off = header.size
    recs = []
    for _ in range(n_recs):
        dy, dx = struct.unpack_from("<bb", raw, off)
        off += 2
        if abs(dy) > k or abs(dx) > k:
            raise FileFormatError(f"{path}: displacement ({dy}, {dx}) outside band")
        recs.append((dy, dx))
    if len(set(recs)) != n_recs:
        raise FileFormatError(f"{path}: duplicate plane records")
    planes = np.zeros((2 * k + 1, 2 * k + 1, h, w))
    valid = np.zeros((2 * k + 1, 2 * k + 1, h, w), dtype=bool)
    active = np.zeros((2 * k + 1, 2 * k + 1), dtype=bool)
    for dy, dx in recs:
        planes[dy + k, dx + k] = np.frombuffer(
            raw, dtype="<f8", count=h * w, offset=off).reshape(h, w)
        off += plane_bytes
    for dy, dx in recs:
        bits = np.frombuffer(raw, dtype=np.uint8, count=mask_bytes, offset=off)
        valid[dy + k, dx + k] = np.unpackbits(
            bits, count=h * w).astype(bool).reshape(h, w)
        active[dy + k, dx + k] = True
        off += mask_bytes
    return Jpd(("near", "far")[mode_code], k, planes, valid, active, n_frames,
               bool(pending))


def _read_outcome(reader, path):
    try:
        jpd = reader(path)
    except FileFormatError as exc:
        return str(exc)
    return (jpd.mode, jpd.band_radius, jpd.n_frames, jpd.pending_invalid,
            jpd.planes.tobytes(), jpd.valid.tobytes(), jpd.active.tobytes())


def test_snapshot_io_matches_record_loops(tmp_path):
    # random JPDs in both modes on 1-9 px sides with K up to max(h, w) + 1,
    # random active masks (none and all included), camera policies and
    # negative zeros; then truncations and byte edits of each file
    rng = np.random.default_rng(5)
    policies = [IdealCamera().invalid_pair_separation,
                EmccdCamera().invalid_pair_separation,
                SpadCamera().invalid_pair_separation]
    new, ref, bad = (tmp_path / name for name in ("new", "ref", "bad"))
    for i in range(150):
        mode = ("near", "far")[i % 2]
        h, w = rng.integers(1, 10, size=2)
        k = int(rng.integers(1, max(h, w) + 2))
        sums = rng.standard_normal((2 * k + 1, 2 * k + 1, h, w))
        sums[rng.random(sums.shape) < 0.1] = -0.0
        jpd = finalize_jpd(PartialJpd(mode, k, (h, w), sums, 1))
        if i % 3:
            jpd = apply_separation_policy(jpd, policies[i % 3])
        active = rng.random(jpd.active.shape) < (i % 5) / 4
        jpd = dataclasses.replace(jpd, active=active,
                                  n_frames=int(rng.integers(0, 2 ** 32)))
        write_jpd_snapshot(new, jpd)
        _write_snapshot_records(ref, jpd)
        raw = new.read_bytes()
        assert raw == ref.read_bytes(), (mode, h, w, k)
        assert (_read_outcome(read_jpd_snapshot, new)
                == _read_outcome(_read_snapshot_records, new))
        n_recs = int(active.sum())
        for _ in range(8):
            data = bytearray(raw)
            if rng.random() < 0.3:
                del data[int(rng.integers(0, len(data))):]
            else:
                span = 32 + 2 * n_recs if rng.random() < 0.7 else len(data)
                for pos in rng.integers(0, span, size=rng.integers(1, 4)):
                    data[pos] = int(rng.integers(0, 256))
            bad.write_bytes(bytes(data))
            assert (_read_outcome(read_jpd_snapshot, bad)
                    == _read_outcome(_read_snapshot_records, bad))


@st.composite
def snapshot_jpds(draw):
    """Band JPDs with arbitrary float64 planes (negative zeros, NaN and
    infinities included), validity, active masks and flags."""
    mode = draw(st.sampled_from(["near", "far"]))
    h, w, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    shape = (2 * k + 1, 2 * k + 1, h, w)
    floats = st.one_of(st.just(-0.0), st.floats(width=64))
    return Jpd(mode, k, draw(arrays(np.float64, shape, elements=floats)),
               draw(arrays(np.bool_, shape)),
               draw(arrays(np.bool_, shape[:2])),
               draw(st.integers(0, 2 ** 32 - 1)), draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(jpd=snapshot_jpds())
def test_snapshot_round_trip_is_exact(tmp_path_factory, jpd):
    path = tmp_path_factory.mktemp("snap") / "jpd.bjpd"
    write_jpd_snapshot(path, jpd)
    back = read_jpd_snapshot(path)
    assert (back.mode, back.band_radius, back.n_frames, back.pending_invalid) \
        == (jpd.mode, jpd.band_radius, jpd.n_frames, jpd.pending_invalid)
    assert np.array_equal(back.active, jpd.active)
    on = jpd.active
    assert back.planes[on].tobytes() == jpd.planes[on].tobytes()
    assert np.array_equal(back.valid[on], jpd.valid[on])
    assert back.planes[~on].tobytes() == np.zeros_like(back.planes[~on]).tobytes()
    assert not back.valid[~on].any()
    again = path.with_suffix(".again")
    write_jpd_snapshot(again, back)
    assert again.read_bytes() == path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(jpd=snapshot_jpds(), data=st.data())
def test_snapshot_fuzz_reads_or_raises_file_format_error(tmp_path_factory,
                                                         jpd, data):
    path = tmp_path_factory.mktemp("fuzz") / "jpd.bjpd"
    write_jpd_snapshot(path, jpd)
    raw = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        del raw[data.draw(st.integers(0, len(raw) - 1), label="cut"):]
    else:
        # at least one record, so a header edit that asks for another
        # shape or band meets the length check
        n_recs = int(jpd.active.sum())
        assume(n_recs > 0)
        edits = data.draw(st.lists(st.tuples(
            st.integers(0, 32 + 2 * n_recs - 1), st.integers(0, 255)),
            min_size=1, max_size=4), label="edits")
        for pos, value in edits:
            raw[pos] = value
    path.write_bytes(bytes(raw))
    try:
        assert isinstance(read_jpd_snapshot(path), Jpd)
    except FileFormatError:
        pass
