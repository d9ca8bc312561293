import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jpdkit.errors import FileFormatError, FrameShapeError
from jpdkit.frames import (HEADER_SIZE, MAGIC, open_frames, read_frames,
                           stack_bytes, write_frame_chunks, write_frames)


def test_round_trip_uint16(tmp_path):
    rng = np.random.default_rng(0)
    frames = rng.integers(0, 4000, (5, 7, 11)).astype(np.uint16)
    path = tmp_path / "stack.bpsr"
    write_frames(path, frames)
    back = read_frames(path)
    assert back.dtype == np.uint16
    assert np.array_equal(back, frames)
    assert back.flags.writeable


def test_round_trip_float32(tmp_path):
    rng = np.random.default_rng(1)
    frames = rng.normal(size=(3, 4, 6)).astype(np.float32)
    path = tmp_path / "stack.bpsr"
    write_frames(path, frames)
    back = read_frames(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, frames)


def test_round_trip_bool_unaligned_width(tmp_path):
    # width 11 is not a byte multiple, so per-row packing is exercised
    rng = np.random.default_rng(2)
    frames = rng.random((4, 5, 11)) > 0.5
    path = tmp_path / "stack.bpsr"
    write_frames(path, frames)
    back = read_frames(path)
    assert back.dtype == np.bool_
    assert np.array_equal(back, frames)


def test_bool_file_is_row_packed(tmp_path):
    frames = np.zeros((1, 2, 11), dtype=bool)
    frames[0, 1, 10] = True
    path = tmp_path / "stack.bpsr"
    write_frames(path, frames)
    body = path.read_bytes()[HEADER_SIZE:]
    # 2 bytes per row; last set bit sits in bit position 10 % 8 of byte 1
    assert len(body) == 4
    assert body[:2] == b"\0\0"
    assert body[2:] == bytes([0, 0b00100000])


def test_header_layout(tmp_path):
    frames = np.zeros((2, 3, 4), dtype=np.uint16)
    path = tmp_path / "stack.bpsr"
    write_frames(path, frames)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert len(raw) == HEADER_SIZE + 2 * 3 * 4 * 2
    width = int.from_bytes(raw[8:12], "little")
    height = int.from_bytes(raw[12:16], "little")
    count = int.from_bytes(raw[16:20], "little")
    assert (width, height, count) == (4, 3, 2)
    assert raw[20:32] == b"\0" * 12


def test_non_contiguous_input(tmp_path):
    base = np.arange(2 * 4 * 6, dtype=np.uint16).reshape(2, 4, 6)
    view = base[:, ::2, :]
    path = tmp_path / "stack.bpsr"
    write_frames(path, view)
    assert np.array_equal(read_frames(path), view)


def test_write_rejects_bad_shapes_and_dtypes(tmp_path):
    path = tmp_path / "bad.bpsr"
    with pytest.raises(FrameShapeError):
        write_frames(path, np.zeros((4, 4), dtype=np.uint16))
    with pytest.raises(FrameShapeError):
        write_frames(path, np.zeros((2, 0, 4), dtype=np.uint16))
    with pytest.raises(FrameShapeError):
        write_frames(path, np.zeros((2, 4, 4), dtype=np.int8))


def test_write_rejects_shapes_beyond_u32_header_fields(tmp_path):
    # zero-copy stacks: the check runs before a byte is read or written
    path = tmp_path / "big.bpsr"
    for shape in ((2 ** 32, 1, 1), (1, 2 ** 32, 1), (1, 1, 2 ** 32)):
        stack = np.broadcast_to(np.zeros((1, 1, 1), dtype=np.uint16), shape)
        with pytest.raises(FrameShapeError) as info:
            write_frames(path, stack)
        assert str(info.value) == (f"frame stack shape {shape} exceeds the "
                                   "header's u32 limit of 4294967295")
        assert not path.exists()


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bpsr"
    frames = np.zeros((2, 3, 3), dtype=np.uint16)
    write_frames(path, frames)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="magic"):
        read_frames(path)


def test_read_rejects_truncation_and_padding(tmp_path):
    path = tmp_path / "bad.bpsr"
    write_frames(path, np.zeros((2, 3, 3), dtype=np.uint16))
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(FileFormatError, match="bytes"):
        read_frames(path)
    path.write_bytes(raw + b"\0")
    with pytest.raises(FileFormatError, match="bytes"):
        read_frames(path)
    path.write_bytes(raw[:10])
    with pytest.raises(FileFormatError, match="short"):
        read_frames(path)


def test_read_rejects_bad_version_and_code(tmp_path):
    path = tmp_path / "bad.bpsr"
    write_frames(path, np.zeros((2, 3, 3), dtype=np.uint16))
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="version"):
        read_frames(path)
    raw[4:6] = (1).to_bytes(2, "little")
    raw[6:8] = (7).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="sample code"):
        read_frames(path)


def test_sample_table_bounds(tmp_path):
    # a non-native byte order is not a sample type, and code 3 is the first
    # past the sample table
    path = tmp_path / "bad.bpsr"
    with pytest.raises(FrameShapeError, match="unsupported frame dtype >u2"):
        write_frames(path, np.zeros((2, 3, 3), dtype=">u2"))
    assert not path.exists()
    write_frames(path, np.zeros((2, 3, 3), dtype=np.uint16))
    raw = bytearray(path.read_bytes())
    raw[6:8] = (3).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="unknown sample code 3"):
        read_frames(path)


# header fields as (offset, struct format): version, sample code, width,
# height, count
HEADER_FIELDS = [(4, "<H"), (6, "<H"), (8, "<I"), (12, "<I"), (16, "<I")]


@st.composite
def frame_stacks(draw):
    dtype = draw(st.sampled_from([np.uint16, np.float32, np.bool_]))
    shape = (draw(st.integers(0, 4)), draw(st.integers(1, 5)),
             draw(st.integers(1, 12)))
    return draw(arrays(dtype, shape))


@settings(max_examples=200, deadline=None)
@given(frames=frame_stacks(), data=st.data())
def test_fuzz_reads_or_raises_file_format_error(tmp_path_factory, frames,
                                                data):
    path = tmp_path_factory.mktemp("fuzz") / "stack.bpsr"
    write_frames(path, frames)
    raw = bytearray(path.read_bytes())
    how = data.draw(st.sampled_from(["truncate", "bytes", "header"]))
    if how == "truncate":
        del raw[data.draw(st.integers(0, len(raw) - 1), label="cut"):]
    elif how == "bytes":
        for pos, value in data.draw(st.lists(st.tuples(
                st.integers(0, len(raw) - 1), st.integers(0, 255)),
                min_size=1, max_size=4), label="edits"):
            raw[pos] = value
    else:
        offset, fmt = data.draw(st.sampled_from(HEADER_FIELDS), label="field")
        value = data.draw(st.integers(0, 2 ** (8 * struct.calcsize(fmt)) - 1),
                          label="value")
        struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    try:
        back = read_frames(path)
    except FileFormatError:
        return
    assert back.ndim == 3
    assert back.dtype in (np.uint16, np.float32, np.bool_)


@settings(max_examples=200, deadline=None)
@given(frames=frame_stacks())
def test_round_trip_is_exact(tmp_path_factory, frames):
    path = tmp_path_factory.mktemp("round_trip") / "stack.bpsr"
    write_frames(path, frames)
    back = read_frames(path)
    assert (back.dtype, back.shape) == (frames.dtype, frames.shape)
    assert back.tobytes() == frames.tobytes()


@settings(max_examples=200, deadline=None)
@given(frames=frame_stacks(), data=st.data())
def test_chunked_write_equals_whole_write(tmp_path_factory, frames, data):
    # packed-bit rows never straddle frames, so any split gives the same
    # bytes; stack_bytes is the exact file size
    tmp = tmp_path_factory.mktemp("chunks")
    cuts = sorted(data.draw(st.lists(st.integers(0, len(frames)), max_size=3),
                            label="cuts"))
    write_frames(tmp / "whole.bpsr", frames)
    write_frame_chunks(tmp / "chunks.bpsr", np.split(frames, cuts))
    whole = (tmp / "whole.bpsr").read_bytes()
    assert (tmp / "chunks.bpsr").read_bytes() == whole
    assert stack_bytes(frames.shape, frames.dtype) == len(whole)


@pytest.mark.parametrize("fault, error", [
    ("raise", RuntimeError), ("dtype", FrameShapeError),
    ("width", FrameShapeError)])
def test_chunk_writer_removes_its_partial_file(tmp_path, fault, error):
    path = tmp_path / "stack.bpsr"

    def chunks():
        yield np.zeros((3, 4, 5), dtype=np.uint16)
        if fault == "raise":
            raise RuntimeError("rendering failed")
        yield np.zeros((3, 4, 6 if fault == "width" else 5),
                       dtype=np.float32 if fault == "dtype" else np.uint16)

    with pytest.raises(error):
        write_frame_chunks(path, chunks())
    assert not path.exists()


def test_chunk_writer_refuses_no_chunks_and_leaves_no_file(tmp_path):
    path = tmp_path / "stack.bpsr"
    for chunks in ([], iter(())):
        with pytest.raises(FrameShapeError, match="must be 3-D"):
            write_frame_chunks(path, chunks)
        assert not path.exists()


@settings(max_examples=200, deadline=None)
@given(frames=frame_stacks(), data=st.data())
def test_source_slices_equal_the_read_stack(tmp_path_factory, frames, data):
    path = tmp_path_factory.mktemp("source") / "stack.bpsr"
    write_frames(path, frames)
    source = open_frames(path)
    assert (source.shape, source.dtype, source.ndim) == (
        frames.shape, frames.dtype, 3)
    start = data.draw(st.integers(-6, 6), label="start")
    stop = data.draw(st.integers(-6, 6) | st.none(), label="stop")
    part = source[start:stop]
    assert (part.dtype, part.shape) == (frames.dtype, frames[start:stop].shape)
    assert part.tobytes() == frames[start:stop].tobytes()


def test_source_reads_only_contiguous_slices(tmp_path):
    path = tmp_path / "stack.bpsr"
    write_frames(path, np.zeros((4, 3, 3), dtype=np.uint16))
    source = open_frames(path)
    for key in (0, slice(0, 4, 2), slice(None, None, -1)):
        with pytest.raises(TypeError, match="contiguous"):
            source[key]


def test_source_cut_short_after_opening_raises_file_format_error(tmp_path):
    # the size is checked when the stack is opened; a read that then comes
    # up short is a malformed file too, not a reshape error
    path = tmp_path / "stack.bpsr"
    frames = np.arange(5 * 3 * 10, dtype=np.uint16).reshape(5, 3, 10)
    write_frames(path, frames)
    source = open_frames(path)
    with open(path, "r+b") as fh:
        fh.truncate(stack_bytes((3, 3, 10), frames.dtype) + 1)
    assert np.array_equal(source[1:3], frames[1:3])
    with pytest.raises(FileFormatError, match="ends before frame 3 of 5"):
        source[2:4]
