"""Binary frame-stack storage.

Camera frames travel between the simulator and the reconstruction tools as a
single flat binary file holding a stack of equally sized 2-D frames.  The
layout is deliberately minimal so stacks can be produced or inspected from any
language:

======  ====  =======================================================
offset  size  field
======  ====  =======================================================
0       4     magic ``b"BPSR"``
4       2     format version, little-endian u16, currently 1
6       2     sample code, u16: 0 = uint16, 1 = float32, 2 = packed bits
8       4     frame width in pixels, u32
12      4     frame height in pixels, u32
16      4     number of frames, u32
20      12    reserved, zero
======  ====  =======================================================

Frame data follows the 32-byte header, frame by frame, row-major,
little-endian.  Packed-bit stacks (binary cameras) pack each row separately
into ``ceil(width / 8)`` bytes, most significant bit first, so rows always
start on a byte boundary.

:func:`open_frames` checks a stack's header and size and returns a
:class:`FrameSource`, which reads a contiguous slice of frames on demand,
so a long stack is processed without ever being held whole.
"""

from __future__ import annotations

import collections
import itertools
import os
import struct

import numpy as np

from .errors import FileFormatError, FrameShapeError, InsufficientDataError

MAGIC = b"BPSR"
VERSION = 1
_HEADER = struct.Struct("<4sHHIII12x")
HEADER_SIZE = _HEADER.size
MAX_FIELD = 2 ** 32 - 1  # count, height and width are u32

# the sample dtypes, indexed by the header's sample code
_SAMPLES = (np.dtype("<u2"), np.dtype("<f4"), np.dtype(bool))


def stack_bytes(shape, dtype) -> int:
    """Size of the file :func:`write_frames` writes for a stack of *shape*
    (count, height, width) and sample *dtype*, header included."""
    count, height, width = shape
    return HEADER_SIZE + count * height * _row_bytes(width, dtype)


def _row_bytes(width: int, dtype) -> int:
    """Bytes of one stored frame row: bit-packed rows are byte-aligned."""
    return (width + 7) // 8 if dtype == bool else width * dtype.itemsize


def check_stack(stack, frames: int = 0) -> None:
    """Refuse a frame stack, anything with a shape and a dtype: with
    :class:`FrameShapeError` unless it is (count, height, width) with
    non-empty frames of bool, integer or real samples, and with
    :class:`InsufficientDataError` when it holds fewer than *frames*
    frames.  A stack of no frames at all is refused for its count alone,
    so a block stream that ends before its first block, whose shape is
    (0,) (:func:`check_blocks`), is refused as an empty array is.  The
    writer, the accumulator, the dense reference and the intensity phase
    map all check their stacks through it."""
    shape = stack.shape
    if shape[:1] != (0,) or not frames:
        if len(shape) != 3:
            raise FrameShapeError(f"frame stack must be 3-D, got shape {shape}")
        if shape[1] == 0 or shape[2] == 0:
            raise FrameShapeError("frames must have non-zero height and width")
        if stack.dtype.kind not in "biuf":
            raise FrameShapeError(f"frame samples must be booleans, integers "
                                  f"or reals, got {stack.dtype}")
    if shape[0] < frames:
        raise InsufficientDataError(
            f"frame stack needs {frames} or more frames, got {shape[0]}")


def _sample_code(stack) -> int:
    """The header's sample code of a frame stack, checked by
    :func:`check_stack`; of its samples, only uint16, float32 and bool
    have one."""
    check_stack(stack)
    if max(stack.shape) > MAX_FIELD:
        raise FrameShapeError(
            f"frame stack shape {stack.shape} exceeds the header's u32 "
            f"limit of {MAX_FIELD}")
    try:
        return _SAMPLES.index(stack.dtype)
    except ValueError:
        raise FrameShapeError(
            f"unsupported frame dtype {stack.dtype}; use uint16, float32 or bool"
        ) from None


def write_frames(path, frames: np.ndarray) -> None:
    """Write a frame stack to *path*.

    *frames* must have shape (count, height, width) and dtype uint16,
    float32 or bool.  Boolean stacks are bit-packed per row.
    """
    write_frame_chunks(path, [frames])


# a frame stack that arrives as blocks, as check_blocks returns it
Blocks = collections.namedtuple("Blocks", "shape dtype blocks")


def check_blocks(blocks, frames: int = 1) -> Blocks:
    """Read *blocks*, the blocks of a frame stack's frames in order, until
    they hold *frames* frames or end, and return the stack as
    :class:`Blocks`: the shape of the frames read so far, their dtype, and
    every block in order, the ones read first included.  Each block is an
    array once it is checked, as it comes: the first by
    :func:`check_stack`, every later one to have the first one's height,
    width and dtype.  A refused stream is read no further than the block
    refused; one with no block at all has shape (0,).  The writer, the
    accumulator and the simulate command read their block streams
    through it."""
    checked, head = _checked(blocks), []
    while (sum(map(len, head)) < frames
           and (block := next(checked, None)) is not None):
        head.append(block)
    first = head[0] if head else np.empty(0)
    return Blocks((sum(map(len, head)), *first.shape[1:]), first.dtype,
                  itertools.chain(head, checked))


def _checked(blocks):
    """Each of *blocks* as an array, checked as :func:`check_blocks` says."""
    first = None  # none of the first block's frames: its shape and dtype
    for block in map(np.asarray, blocks):
        if first is None:
            check_stack(block)
            first = block[:0].copy()
        elif (block.shape[1:], block.dtype) != (first.shape[1:], first.dtype):
            (height, width), dtype = first.shape[1:], first.dtype
            raise FrameShapeError(
                f"chunk of shape {block.shape} and dtype {block.dtype} "
                f"in a stack of {height}x{width} {dtype} frames")
        yield block
        del block  # released before the next block is made


def write_frame_chunks(path, chunks) -> None:
    """Write a frame stack that arrives as *chunks*, the stack's frames in
    order, to *path*.

    Each chunk is a (count, height, width) array as :func:`write_frames`
    takes, and every chunk has the first one's height, width and dtype
    (:func:`check_blocks`).  The chunks up to the first frame are read and
    checked before *path* is opened, so no chunk at all is refused then.
    If a later chunk is refused, or producing it raises, the partial file
    is removed.
    """
    stack = check_blocks(chunks)
    code = _sample_code(stack)
    height, width = stack.shape[1:]
    count = 0
    fh = open(path, "wb")
    try:
        with fh:
            # the header goes in last, when the count is known, so a file
            # cut short by a crash reads as a bad magic, never as a stack
            fh.write(bytes(HEADER_SIZE))
            for chunk in stack.blocks:
                count += len(chunk)
                if count > MAX_FIELD:
                    raise FrameShapeError(f"{count} frames exceed the header's "
                                          f"u32 limit of {MAX_FIELD}")
                if chunk.dtype == bool:
                    # packbits along the row axis keeps every row byte-aligned
                    np.packbits(chunk, axis=-1).tofile(fh)
                else:
                    chunk.tofile(fh)
                del chunk  # released before the next chunk is made
            fh.seek(0)
            fh.write(_HEADER.pack(MAGIC, VERSION, code, width, height, count))
    except BaseException:
        os.remove(path)
        raise


class FrameSource:
    """A frame stack in a file, read a slice of frames at a time.

    ``source[a:b]`` reads frames a to b - 1 and returns them as
    :func:`read_frames` would, so code that slices a stack in contiguous
    spans takes a source in its place and holds only the span.  The
    accumulator reads its chunks so, in order, in the calling thread.
    Each read opens the file by path at its own offset, so the source
    holds no open file between reads.
    """

    ndim = 3

    def __init__(self, path, shape, sample):
        self.path, self.shape, self._sample = path, shape, sample
        # native byte order so downstream arithmetic is unconstrained
        self.dtype = sample.newbyteorder("=")

    def __getitem__(self, key) -> np.ndarray:
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError("a frame source reads contiguous slices of frames")
        count, height, width = self.shape
        span = range(count)[key]
        row = _row_bytes(width, self._sample)
        size = len(span) * height * row
        data = np.fromfile(self.path, np.uint8, size,
                           offset=HEADER_SIZE + span.start * height * row)
        if data.size != size:
            raise FileFormatError(f"{self.path}: file ends before frame "
                                  f"{span.stop - 1} of {count}")
        data = data.reshape(len(span), height, row)
        if self._sample == bool:
            return np.unpackbits(data, axis=-1, count=width).view(bool)
        return data.view(self._sample).astype(self.dtype, copy=False)


def unpack_header(path, data: bytes, layout: struct.Struct, magic: bytes,
                  version: int, what: str) -> list:
    """The fields of a binary header *data*, read with *layout*, that
    follow its magic and version; *what* names the format in the message
    of a header too short to hold them.  Raises :class:`FileFormatError`
    when the header is short or its magic or version is not the given one.
    """
    if len(data) < layout.size:
        raise FileFormatError(f"{path}: too short for {what} header")
    found, found_version, *fields = layout.unpack_from(data)
    if found != magic:
        raise FileFormatError(f"{path}: bad magic {found!r}")
    if found_version != version:
        raise FileFormatError(f"{path}: unsupported version {found_version}")
    return fields


def open_frames(path) -> FrameSource:
    """Open a frame stack written by :func:`write_frames` as a
    :class:`FrameSource`; no frame is read.

    Its shape is (count, height, width); packed-bit stacks read as bool.
    Raises :class:`FileFormatError` on bad magic, version, sample code or a
    size mismatch (truncated or padded file).
    """
    with open(path, "rb") as fh:
        code, width, height, count = unpack_header(
            path, fh.read(HEADER_SIZE), _HEADER, MAGIC, VERSION,
            "a frame-stack")
        if height == 0 or width == 0:
            raise FileFormatError(f"{path}: zero frame dimensions")
        if code >= len(_SAMPLES):
            raise FileFormatError(f"{path}: unknown sample code {code}")
        sample = _SAMPLES[code]
        expected = stack_bytes((count, height, width), sample) - HEADER_SIZE
        found = os.fstat(fh.fileno()).st_size - HEADER_SIZE
        if found != expected:
            raise FileFormatError(
                f"{path}: expected {expected} data bytes, found {found}")
    return FrameSource(path, (count, height, width), sample)


def read_frames(path) -> np.ndarray:
    """Read a whole frame stack written by :func:`write_frames`, as
    :func:`open_frames` opens it, into an array of shape
    (count, height, width)."""
    return open_frames(path)[:]
