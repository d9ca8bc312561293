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
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FileFormatError, FrameShapeError

MAGIC = b"BPSR"
VERSION = 1
_HEADER = struct.Struct("<4sHHIII12x")
HEADER_SIZE = _HEADER.size
MAX_FIELD = 2 ** 32 - 1  # count, height and width are u32

# the sample dtypes, indexed by the header's sample code
_SAMPLES = (np.dtype("<u2"), np.dtype("<f4"), np.dtype(bool))


def write_frames(path, frames: np.ndarray) -> None:
    """Write a frame stack to *path*.

    *frames* must have shape (count, height, width) and dtype uint16,
    float32 or bool.  Boolean stacks are bit-packed per row.
    """
    frames = np.asarray(frames)
    if frames.ndim != 3:
        raise FrameShapeError(f"frame stack must be 3-D, got shape {frames.shape}")
    count, height, width = frames.shape
    if height == 0 or width == 0:
        raise FrameShapeError("frames must have non-zero height and width")
    if max(frames.shape) > MAX_FIELD:
        raise FrameShapeError(
            f"frame stack shape {frames.shape} exceeds the header's u32 "
            f"limit of {MAX_FIELD}")
    try:
        code = _SAMPLES.index(frames.dtype)
    except ValueError:
        raise FrameShapeError(
            f"unsupported frame dtype {frames.dtype}; use uint16, float32 or bool"
        ) from None
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, code, width, height, count))
        if frames.dtype == bool:
            # packbits along the row axis keeps every row byte-aligned
            np.packbits(frames, axis=-1).tofile(fh)
        else:
            frames.tofile(fh)


def read_frames(path) -> np.ndarray:
    """Read a frame stack written by :func:`write_frames`.

    Returns an array of shape (count, height, width); packed-bit stacks come
    back as bool.  Raises :class:`FileFormatError` on bad magic, version,
    sample code or a size mismatch (truncated or padded file).
    """
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise FileFormatError(f"{path}: too short for a frame-stack header")
        magic, version, code, width, height, count = _HEADER.unpack_from(header)
        if magic != MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise FileFormatError(f"{path}: unsupported version {version}")
        if height == 0 or width == 0:
            raise FileFormatError(f"{path}: zero frame dimensions")
        if code >= len(_SAMPLES):
            raise FileFormatError(f"{path}: unknown sample code {code}")
        bits = _SAMPLES[code] == bool
        dtype = np.dtype(np.uint8) if bits else _SAMPLES[code]
        row_items = (width + 7) // 8 if bits else width
        items = count * height * row_items
        # sizes are compared before anything is allocated
        expected = items * dtype.itemsize
        found = os.fstat(fh.fileno()).st_size - HEADER_SIZE
        if found != expected:
            raise FileFormatError(
                f"{path}: expected {expected} data bytes, found {found}")
        data = np.fromfile(fh, dtype, items).reshape(count, height, row_items)
    if bits:
        return np.unpackbits(data, axis=-1, count=width).view(bool)
    # native byte order so downstream arithmetic is unconstrained
    return data.astype(dtype.newbyteorder("="), copy=False)
