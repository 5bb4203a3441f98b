"""Classical layer: bit strings, the XOR base cipher, and the error-correcting codecs.

Two interchangeable codecs sit behind the same encode/decode surface:

* ``oracle`` - remembers the codeword it produced and declares success iff
  the received word is within ``max_errors`` bit flips of it. Decryption
  then succeeds exactly when the flip count is small enough, which makes
  Monte-Carlo statistics directly comparable to the analytic bounds.
* ``concrete`` - the binary BCH code of length N itself (``bch.BchCode``),
  shortened from the next primitive length 2^m - 1; one read-only
  instance per (N, t) is shared by every caller.
"""

from __future__ import annotations

import functools

import numpy as np

from .bch import BchCode, check_message_bits

SCHEMES = ("oracle", "concrete")


def random_bits(length: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=length, dtype=np.uint8)


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a bit array (index 0 first) into a hex string."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def base_encrypt(pad: np.ndarray, message: np.ndarray) -> np.ndarray:
    """One-time-pad encryption; an involution, so it is its own inverse."""
    pad = np.asarray(pad, dtype=np.uint8)
    message = np.asarray(message, dtype=np.uint8)
    if pad.shape != message.shape:
        raise ValueError(
            f"pad length {pad.size} does not match message length {message.size}"
        )
    return pad ^ message


def base_decrypt(pad: np.ndarray, ciphertext: np.ndarray) -> np.ndarray:
    return base_encrypt(pad, ciphertext)


@functools.cache
def concrete_spec(code_len: int, max_errors: int) -> BchCode:
    """The shared BCH code of length N = code_len correcting t = max_errors
    errors; its ``msg_len`` is the message length the concrete scheme needs.
    Building the field and tables takes milliseconds, so it happens once."""
    return BchCode(code_len, max_errors)


class OracleCodec:
    """Tracking codec: success is decided by the flip count alone.

    It has ``BchCode``'s surface: ``msg_len``, ``length``, ``t``, ``encode``
    and ``decode``. ``encode`` embeds the message in the first ``msg_len``
    positions and remembers the true (message, codeword) pair; ``decode``
    returns the remembered message iff the received word is within ``t``
    flips of the remembered codeword, else None. One instance serves one
    encrypt/decrypt exchange at a time and is not safe to share across
    concurrent trials.
    """

    def __init__(self, msg_len: int, length: int, t: int):
        self.msg_len = msg_len
        self.length = length
        self.t = t
        self._message = None
        self._codeword = None

    def encode(self, message: np.ndarray) -> np.ndarray:
        message = np.asarray(message, dtype=np.uint8)
        if message.shape != (self.msg_len,):
            raise ValueError(f"message must have length {self.msg_len}")
        codeword = np.zeros(self.length, dtype=np.uint8)
        codeword[: self.msg_len] = message
        self._message = message.copy()
        self._codeword = codeword.copy()
        return codeword

    def decode(self, word: np.ndarray):
        if self._codeword is None:
            raise RuntimeError("oracle codec cannot decode before encoding")
        word = np.asarray(word, dtype=np.uint8)
        if word.shape != (self.length,):
            raise ValueError(f"word must have length {self.length}")
        if np.count_nonzero(word != self._codeword) <= self.t:
            return self._message.copy()
        return None
