"""Binary code blocks: dense +-1 working form and packed 64-bit query form.

Bit convention: bit j of word j//64 is 1 where the dense code is +1.  Bits
past the code length in the last word are always zero, so XOR+popcount over
whole words is the exact Hamming distance.
"""
from dataclasses import dataclass

import numpy as np


def pack_codes(dense):
    """Pack (n, r) +-1 codes into (n, ceil(r/64)) native uint64 words."""
    d = np.asarray(dense)
    if d.ndim != 2:
        raise ValueError("dense codes must be 2-D")
    if not np.all(np.abs(d) == 1):
        raise ValueError("dense codes must be +-1 with no zeros")
    n, r = d.shape
    words = (r + 63) // 64
    bits = np.zeros((n, words * 64), dtype=bool)
    bits[:, :r] = d > 0
    # little-endian bit order puts bit j of each byte at column 8*byte + j,
    # and little-endian words put byte b at bits 8*b..8*b+7 of the word
    packed = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    return packed.astype(np.uint64, copy=False)


def hamming_distances(query_packed, db_packed):
    """Hamming distances from one packed query row to every database row.

    Returned in the narrowest unsigned dtype that holds the code length:
    uint8 when words * 64 <= 255 (up to three words), uint16 otherwise.
    """
    counts = np.bitwise_count(np.bitwise_xor(db_packed, query_packed))
    dtype = np.uint8 if counts.shape[1] * 64 <= 255 else np.uint16
    return counts.sum(axis=1, dtype=dtype)


@dataclass
class CodeBlock:
    """Codes of one chunk; packed form built lazily on first use."""

    dense: np.ndarray            # (n, r) int8 +-1

    def __post_init__(self):
        self.dense = np.asarray(self.dense)
        if self.dense.dtype != np.int8:
            if not np.all(np.abs(self.dense) == 1):
                raise ValueError("codes must be +-1")
            self.dense = self.dense.astype(np.int8)
        self._packed = None

    @property
    def n(self):
        return self.dense.shape[0]

    @property
    def r(self):
        return self.dense.shape[1]

    @property
    def packed(self):
        if self._packed is None:
            self._packed = pack_codes(self.dense)
        return self._packed
