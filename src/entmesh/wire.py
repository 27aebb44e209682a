"""Strict binary codec primitives shared by every serialized structure.

Conventions (see docs/FORMATS.md for the full table): fields are written in
a fixed order, round numbers are big-endian 64-bit, digests are raw 32-byte
values, and variable-length runs carry a big-endian 32-bit length or count
prefix.  Decoding is strict -- every tag, length, and trailing byte is
checked -- so any single-bit mutation of an encoded object is caught either
as a decode error or as a failed content check downstream.

A record is written as one join: its fixed fields packed by a precompiled
``Head``, kept encodings of the records it holds, and a ``prefix`` before
each blob and list.  A record held in another is written bare: it ends
where its own fields say, so its reader reads it in place.  The bytes and
encode-time refusals are those of a field-by-field writer, which the tests
keep as the reference.  A record reads its fixed head in one unpack.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional, Sequence, TypeVar

from .hashtree import DIGEST_SIZE, Digest, InclusionProof

__all__ = [
    "Head",
    "Reader",
    "WireError",
    "at_leaf",
    "bounded",
    "decode",
    "digest",
    "digests",
    "encode_inclusion_proof",
    "prefix",
    "read_inclusion_proof",
    "read_path_pairs",
]

_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1

# Length bounds shared by every record (the table in docs/FORMATS.md).
MAX_ITEMS = 4096  # records in one counted list
MAX_AUDIT_STEPS = 64  # siblings in one inclusion proof's audit path

T = TypeVar("T")


class WireError(ValueError):
    """Malformed or truncated wire bytes."""


_U32 = struct.Struct(">I").unpack_from
_U32_PACK = struct.Struct(">I").pack


def prefix(n: int) -> bytes:
    """``n`` as a u32: the length prefix of every blob and the count of every list."""
    try:
        return _U32_PACK(n)
    except struct.error:
        raise WireError(f"u32 out of range: {n}") from None


def digest(d: bytes) -> bytes:
    """``d``, refused unless it is a digest's length."""
    if len(d) != DIGEST_SIZE:
        raise WireError(f"digest must be {DIGEST_SIZE} bytes")
    return d


def _joined_digests(items: Sequence[bytes]) -> bytes:
    """``items`` joined, refused unless each is a digest's length: their
    total is that of as many digests, and none is shorter."""
    joined = b"".join(items)
    if len(joined) != DIGEST_SIZE * len(items) or (items and min(map(len, items)) != DIGEST_SIZE):
        raise WireError(f"digest must be {DIGEST_SIZE} bytes")
    return joined


def digests(items: Sequence[bytes]) -> bytes:
    """A u32 count, then each digest."""
    return prefix(len(items)) + _joined_digests(items)


_FIELD_LIMITS = {"Q": ("u64", _U64_MAX), "I": ("u32", _U32_MAX)}


class Head:
    """A record's fixed fields in wire order, packed and unpacked by one
    precompiled ``struct``.  ``kinds`` spells them: ``d`` a digest, ``Q`` a
    u64, ``I`` a u32.  ``pack`` refuses what a field-by-field writer
    refuses, with its text, at the first field it would; ``struct``'s ``32s`` would pad a
    short digest and cut a long one, so digest lengths are checked here."""

    __slots__ = ("size", "_kinds", "_struct", "_digests")

    def __init__(self, kinds: str):
        self._kinds = kinds
        self._struct = struct.Struct(">" + kinds.replace("d", f"{DIGEST_SIZE}s"))
        self.size = self._struct.size
        self._digests = [i for i, kind in enumerate(kinds) if kind == "d"]

    def pack(self, *fields) -> bytes:
        for i in self._digests:
            if len(fields[i]) != DIGEST_SIZE:
                break
        else:
            try:
                return self._struct.pack(*fields)
            except struct.error:
                pass
        for kind, value in zip(self._kinds, fields):
            if kind == "d":
                digest(value)
            elif not 0 <= value <= _FIELD_LIMITS[kind][1]:
                raise WireError(f"{_FIELD_LIMITS[kind][0]} out of range: {value}")
        return self._struct.pack(*fields)  # a field that is no integer: struct's own refusal

    def read(self, r: "Reader") -> tuple:
        """The fields, from the next ``size`` bytes of ``r``."""
        return self._struct.unpack(r._take(self.size))


def bounded(n: int, limit: int) -> int:
    """A blob length ``n``, refused if it is over ``limit``."""
    if n > limit:
        raise WireError(f"blob length {n} exceeds limit")
    return n


class Reader:
    """Strict reads from one buffer, in place: each record's reader reads
    its fields from the position the record before it ended at.  A reader
    that raised is left mid-record and is not read again.
    """

    __slots__ = ("_data", "_pos", "_end")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._end = len(data)

    def _advance(self, n: int) -> int:
        """Move past ``n`` bytes; return where they start."""
        pos = self._pos
        if n < 0 or pos + n > self._end:
            raise WireError("truncated input")
        self._pos = pos + n
        return pos

    def _take(self, n: int) -> bytes:
        pos = self._advance(n)
        return self._data[pos : pos + n]

    def u32(self) -> int:
        return _U32(self._data, self._advance(4))[0]

    def digest(self) -> Digest:
        pos = self._advance(DIGEST_SIZE)
        return self._data[pos : pos + DIGEST_SIZE]

    def blob(self, max_len: int = 1 << 24) -> bytes:
        return self._take(bounded(self.u32(), max_len))

    def many(self, read: Callable[["Reader"], T], what: str, limit: int) -> tuple[T, ...]:
        """A u32 count of at most ``limit``, then that many records."""
        count = self.u32()
        if count > limit:
            raise WireError(f"too many {what}: {count}")
        return tuple([read(self) for _ in range(count)])

    def digests(self, what: str, limit: int) -> tuple[Digest, ...]:
        """A u32 count of at most ``limit``, then that many digests."""
        count = self.u32()
        if count > limit:
            raise WireError(f"too many {what}: {count}")
        pos = self._advance(count * DIGEST_SIZE)
        data = self._data
        return tuple([data[i : i + DIGEST_SIZE] for i in range(pos, self._pos, DIGEST_SIZE)])

    def tell(self) -> int:
        return self._pos

    def since(self, start: int) -> bytes:
        """The bytes read from position ``start`` up to here."""
        return self._data[start : self._pos]

    def remaining(self) -> int:
        return self._end - self._pos

    def expect_eof(self) -> None:
        if self._pos != self._end:
            raise WireError(f"{self.remaining()} trailing bytes")


def decode(data: bytes, read: Callable[[Reader], T]) -> T:
    """Read one record from ``data`` and reject any trailing bytes."""
    r = Reader(data)
    value = read(r)
    r.expect_eof()
    return value


_new_tuple = tuple.__new__  # a NamedTuple made without its Python-level __new__
_INDEXED_PATH_HEAD = struct.Struct(">QI")  # leaf_index, sibling count
# The siblings of a path of n steps, sliced from the buffer in one unpack.
_SIBLINGS = tuple([struct.Struct(f"{DIGEST_SIZE}s" * n).unpack_from for n in range(MAX_AUDIT_STEPS + 1)])


def encode_inclusion_proof(proof: InclusionProof, index: Optional[int] = None) -> bytes:
    """A path as a proof writes it: the u64 leaf index, then the siblings, a
    u32 count and each sibling.  ``index`` is the leaf index the format fixes
    for this path, where it fixes one: the path must be there, and the index
    is not written.  A path the reader would refuse is refused here."""
    leaf_index, siblings = proof
    count = len(siblings)
    if index is None:
        try:
            head = _INDEXED_PATH_HEAD.pack(leaf_index, count)
        except struct.error:
            raise WireError(f"u64 out of range: {leaf_index}") from None
    else:
        at_leaf(proof, index)
        head = prefix(count)
    if count > MAX_AUDIT_STEPS:
        raise WireError(f"too many audit steps: {count}")
    return head + _joined_digests(siblings)


def at_leaf(proof: InclusionProof, index: int) -> None:
    """Refuse ``proof`` unless it is at ``index``, the leaf the format fixes for it."""
    if proof.leaf_index != index:
        raise WireError(f"path at leaf {proof.leaf_index}, not at leaf {index}")


def read_inclusion_proof(r: Reader, index: Optional[int] = None) -> InclusionProof:
    """A path as ``encode_inclusion_proof`` writes it, at the fixed ``index``
    if one is given: the head (index and count, or count) in one unpack,
    then the siblings in another."""
    data, pos, limit = r._data, r._pos, r._end
    if index is None:
        if pos + _INDEXED_PATH_HEAD.size > limit:
            raise WireError("truncated input")
        index, count = _INDEXED_PATH_HEAD.unpack_from(data, pos)
        pos += _INDEXED_PATH_HEAD.size
    else:
        if pos + 4 > limit:
            raise WireError("truncated input")
        count = _U32(data, pos)[0]
        pos += 4
    if count > MAX_AUDIT_STEPS:
        raise WireError(f"too many audit steps: {count}")
    end = pos + count * DIGEST_SIZE
    if end > limit:
        raise WireError("truncated input")
    r._pos = end
    return _new_tuple(InclusionProof, (index, _SIBLINGS[count](data, pos)))


def read_path_pairs(r: Reader, count: int) -> list[tuple[InclusionProof, InclusionProof, bytes]]:
    """``count`` pairs of paths, each a path with its index and then one at
    the fixed index 0, read in one pass as ``read_inclusion_proof`` reads
    each, with the bytes of each pair."""
    data, pos, limit = r._data, r._pos, r._end
    head, head_size, siblings = _INDEXED_PATH_HEAD.unpack_from, _INDEXED_PATH_HEAD.size, _SIBLINGS
    pairs = []
    for _ in range(count):
        start = pos
        if pos + head_size > limit:
            raise WireError("truncated input")
        index, steps = head(data, pos)
        pos += head_size
        if steps > MAX_AUDIT_STEPS:
            raise WireError(f"too many audit steps: {steps}")
        end = pos + steps * DIGEST_SIZE
        if end > limit:
            raise WireError("truncated input")
        inclusion = _new_tuple(InclusionProof, (index, siblings[steps](data, pos)))
        if end + 4 > limit:
            raise WireError("truncated input")
        steps, pos = _U32(data, end)[0], end + 4
        if steps > MAX_AUDIT_STEPS:
            raise WireError(f"too many audit steps: {steps}")
        end = pos + steps * DIGEST_SIZE
        if end > limit:
            raise WireError("truncated input")
        pairs.append((inclusion, _new_tuple(InclusionProof, (0, siblings[steps](data, pos))), data[start:end]))
        pos = end
    r._pos = pos
    return pairs
