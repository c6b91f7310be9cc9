"""Binary code blocks, held as packed 64-bit words from round to file.

Bit convention: bit j of word j//64 is 1 where the code is +1.  Bits
past the code length in the last word are always zero (check_words, and so
every CodeBlock, refuses words that set one), so XOR+popcount over whole
words is the exact Hamming distance.  The +-1 form of a block is
derived from its words on request (CodeBlock.dense) and never kept.  A
block's words are read-only and its own (given writable words, it keeps a
copy), so what is derived from them and cached (CodeBlock.groups) cannot
go stale.
"""
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


def n_words(r):
    """Words per packed row of an r-bit code: ceil(r/64)."""
    return (r + 63) // 64


def pack_signs(positive):
    """Pack an (n, r) boolean matrix, True where the code is +1, into
    (n, ceil(r/64)) native uint64 words."""
    positive = np.ascontiguousarray(positive, dtype=bool)
    n, r = positive.shape
    words = np.zeros((n, n_words(r) * 8), dtype=np.uint8)
    # little-endian bit order puts bit j of each byte at column 8*byte + j,
    # and little-endian words put byte b at bits 8*b..8*b+7 of the word
    words[:, :(r + 7) // 8] = np.packbits(positive, axis=1, bitorder="little")
    return words.view("<u8").astype(np.uint64, copy=False)


def pack_codes(dense):
    """Pack (n, r) +-1 codes into (n, ceil(r/64)) native uint64 words."""
    d = np.asarray(dense)
    if d.ndim != 2:
        raise ValueError("dense codes must be 2-D")
    if not np.all(np.abs(d) == 1):
        raise ValueError("dense codes must be +-1 with no zeros")
    return pack_signs(d > 0)


def unpack_codes(packed, r):
    """Inverse of pack_codes; returns (n, r) int8 +-1 codes."""
    p = check_words(packed, r)
    octets = np.ascontiguousarray(p, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(octets, axis=1, count=r, bitorder="little")
    return bits.view(np.int8) * 2 - 1


def check_words(packed, r, name=None):
    """packed as an array, refused unless it is (n, ceil(r/64)) uint64 with
    no bit set past r.  name, when given, leads the message."""
    packed = np.asarray(packed)
    if packed.ndim != 2 or packed.dtype != np.uint64 \
            or packed.shape[1] != n_words(r):
        raise ValueError(
            (f"{name}: " if name else "") + f"packed codes must be 2-D "
            f"uint64 with ceil(r/64) = {n_words(r)} columns for r={r}, got "
            f"{packed.dtype} {packed.shape}")
    if r % 64 and np.any(packed[:, -1] >> np.uint64(r % 64)):
        raise ValueError(f"{name or 'a packed code'} sets bits past r={r}")
    return packed


def hamming_distances(query_packed, db_packed):
    """Hamming distances from one packed query row to every database row.

    Returned in the narrowest unsigned dtype that holds the code length:
    uint8 when words * 64 <= 255 (up to three words), uint16 otherwise.
    """
    counts = np.bitwise_count(np.bitwise_xor(db_packed, query_packed))
    dtype = np.uint8 if counts.shape[1] * 64 <= 255 else np.uint16
    return counts.sum(axis=1, dtype=dtype)


class CodeGroups(NamedTuple):
    """A block's rows grouped by code: group j holds the rows
    rows[starts[j]:starts[j] + sizes[j]], in no set order, whose words are
    words[j].  A code has one group, or more only where row keys collide
    (group_rows)."""

    words: np.ndarray            # (groups, n_words(r)) uint64
    rows: np.ndarray             # (n,) row ids, group after group
    starts: np.ndarray           # (groups,) intp
    sizes: np.ndarray            # (groups,) intp, each >= 1


# odd, so multiplying by it permutes the uint64s (2**64 / golden ratio)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _row_key(packed):
    """One uint64 per row that equal codes share: a one-word row's word, or
    a wider row's words folded together, which two distinct codes share
    about once in 2**64 pairs."""
    key = packed[:, 0]
    for word in packed.T[1:]:
        key = key * _MIX
        key ^= key >> np.uint64(29)
        key ^= word
    return key


def group_rows(packed):
    """Group the rows of checked words by code (CodeGroups).

    One unstable argsort of a 64-bit key per row (_row_key) brings equal
    codes together, whatever the code's width.  Distinct codes whose keys
    collide may interleave and split into more groups than codes.  That
    costs a top-k time, not exactness: it counts each group's rows at its
    code's distance and sorts the rows it takes by (distance, row), so
    neither a group's row order nor one group per code matters.
    """
    n = len(packed)
    rows = np.argsort(_row_key(packed))
    ordered = packed[rows]
    first = np.ones(n, dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=n)
    return CodeGroups(ordered[starts], rows, starts, sizes)


@dataclass
class CodeBlock:
    """Packed codes of one chunk, or of a whole index; row i is record i.

    packed is read-only.  Words given writable are copied, so the caller's
    array stays writable and a later write to it does not reach the block;
    words given read-only are kept, not copied, as snapshot_index and
    load_checkpoint hand over fresh words that nothing else writes.
    """

    packed: np.ndarray           # (n, n_words(r)) uint64
    r: int

    def __post_init__(self):
        self.packed = check_words(self.packed, self.r)
        if self.packed.flags.writeable:
            self.packed = self.packed.copy()
            self.packed.setflags(write=False)

    @property
    def n(self):
        return self.packed.shape[0]

    @property
    def dense(self):
        """The (n, r) int8 +-1 codes, unpacked afresh on every access."""
        return unpack_codes(self.packed, self.r)

    @cached_property
    def groups(self):
        """group_rows of the words, built on first access and kept with the
        block."""
        return group_rows(self.packed)
