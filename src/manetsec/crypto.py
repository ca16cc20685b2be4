"""Symmetric crypto and key algebra used by every protocol module.

There is one suite, AES-GCM-128 with SHA-256, and one key width, KEY_BITS.
All group keys are KEY_BITS-bit strings combined with XOR; encryption is
authenticated (a wrong key or a flipped bit is a detectable failure, which
the mutual-authentication steps rely on); digests are SHA-256 and keyed
digests HMAC-SHA-256. Randomness is drawn from caller-supplied deterministic
RNG state so whole runs replay bit-for-bit from a seed. The process keeps at
most 256 AES-GCM contexts, one per key value, least recently used first out.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import random
import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

__all__ = [
    "KEY_BITS",
    "KEY_BYTES",
    "KeyMaterial",
    "NonceSource",
    "CipherSuite",
    "CryptoError",
    "IntegrityFailure",
    "WidthMismatch",
    "xor_combine",
]

MAX_NONCE = 2**64 - 1

# The width of every key: AES-128, and the SHA-256 derivation truncated to it.
KEY_BITS = 128
KEY_BYTES = KEY_BITS // 8

# A sealed frame is IV || AES-GCM ciphertext || tag.
_IV = 12
_TAG = 16

# Opaque byte blobs; kept as plain bytes on purpose.
Ciphertext = bytes
Digest = bytes


class CryptoError(Exception):
    pass


class IntegrityFailure(CryptoError):
    """Decryption failed authentication (wrong key or tampered ciphertext)."""


class WidthMismatch(CryptoError):
    """Key material of differing widths was mixed in one operation."""


@dataclass(frozen=True)
class KeyMaterial:
    """Fixed-width bitstring; the carrier for every key-like quantity."""

    data: bytes

    def __post_init__(self):
        if len(self.data) == 0:
            raise ValueError("key material must be non-empty")

    @property
    def width_bits(self) -> int:
        return len(self.data) * 8

    def __xor__(self, other: "KeyMaterial") -> "KeyMaterial":
        if len(self.data) != len(other.data):
            raise WidthMismatch(
                f"cannot XOR {self.width_bits}-bit with {other.width_bits}-bit key material"
            )
        folded = int.from_bytes(self.data, "big") ^ int.from_bytes(other.data, "big")
        return KeyMaterial(folded.to_bytes(len(self.data), "big"))

    def hex(self) -> str:
        return self.data.hex()

    @classmethod
    def zero(cls) -> "KeyMaterial":
        return cls(bytes(KEY_BYTES))

    @classmethod
    def random(cls, rng: random.Random) -> "KeyMaterial":
        return cls(rng.getrandbits(KEY_BITS).to_bytes(KEY_BYTES, "big"))


def xor_combine(parts: list[KeyMaterial]) -> KeyMaterial:
    """Fold a non-empty list of equal-width key material with XOR.

    Order-independent; [x] returns x, [x, x] returns all-zero.
    """
    if not parts:
        raise ValueError("xor_combine needs at least one part")
    acc = parts[0]
    for p in parts[1:]:
        acc = acc ^ p
    return acc


@dataclass
class NonceSource:
    """Per-node nonce generator with a used-value set (replay bookkeeping)."""

    rng: random.Random
    used: set[int] = field(default_factory=set)

    def fresh(self) -> int:
        """Draw a 64-bit nonce this source never issued before and record it in `used`."""
        while True:
            v = self.rng.getrandbits(64)
            if v == MAX_NONCE:
                continue  # keep the +1 echo of every issued nonce in 64 bits
            if v not in self.used:
                self.used.add(v)
                return v


@functools.lru_cache(maxsize=256)
def _aead(key: KeyMaterial) -> AESGCM:
    """The AES-GCM object for `key`, once its width is checked.

    Cached by key value, since every member opens a group broadcast with its
    own KeyMaterial of the same bytes; a width error is raised, never cached.
    """
    if len(key.data) != KEY_BYTES:
        raise WidthMismatch(f"suite expects {KEY_BITS}-bit keys, got {key.width_bits}-bit")
    return AESGCM(key.data)


def _open_first(aeads: Iterable[AESGCM], ct: Ciphertext) -> bytes | None:
    """The plaintext of `ct` under the first of `aeads` that authenticates
    it, or None when none does or `ct` is too short to hold an IV and tag."""
    if len(ct) < _IV + _TAG:
        return None
    iv, body = ct[:_IV], ct[_IV:]
    for aead in aeads:
        try:
            return aead.decrypt(iv, body, None)
        except InvalidTag:
            continue
    return None


class CipherSuite:
    """The one suite: AES-GCM under KEY_BITS-bit keys, with a 12-byte IV
    prepended to each ciphertext, and SHA-256 for digests, keyed digests
    (HMAC) and key derivation."""

    # -- key derivation ----------------------------------------------------

    def derive_key(self, *parts: bytes) -> KeyMaterial:
        """SHA-256 over a zero block counter and the length-prefixed parts,
        truncated to KEY_BYTES; one block covers a key, so the counter is
        always 0, but it is part of every derived key's input."""
        buf = b"".join(struct.pack(">I", len(p)) + p for p in parts)
        return KeyMaterial(hashlib.sha256(bytes(4) + buf).digest()[:KEY_BYTES])

    # -- authenticated encryption -----------------------------------------

    def encrypt(self, key: KeyMaterial, plaintext: bytes, rng: random.Random) -> Ciphertext:
        """Randomized authenticated encryption; the IV is drawn from `rng`.

        A seeded `rng` keeps whole runs reproducible; `random.SystemRandom()`
        draws the IV from the OS.
        """
        aead = _aead(key)
        iv = rng.getrandbits(_IV * 8).to_bytes(_IV, "big")
        return iv + aead.encrypt(iv, plaintext, None)

    def decrypt(self, key: KeyMaterial, ct: Ciphertext) -> bytes:
        """Inverse of encrypt; raises IntegrityFailure on wrong key or tamper."""
        pt = _open_first((_aead(key),), ct)
        if pt is None:
            raise IntegrityFailure("wrong key, tampered or truncated ciphertext")
        return pt

    def opener(self, keys: Iterable[KeyMaterial]) -> Callable[[Ciphertext], bytes | None]:
        """Trial decryption under a fixed key list, for an attacker that
        tries every key it holds on every frame.

        Every key's width is checked and its AEAD built here, once. The
        returned function gives the plaintext under the first key, in the
        given order, that opens a frame, or None when none does; a wrong key
        costs one failed AES-GCM call and no IntegrityFailure.
        """
        return functools.partial(_open_first, [_aead(key) for key in keys])

    # -- digests -------------------------------------------------------------

    def digest(self, data: bytes) -> Digest:
        """Deterministic one-way hash of `data` (SHA-256)."""
        return hashlib.sha256(data).digest()

    def keyed_digest(self, key: KeyMaterial, data: bytes) -> Digest:
        """HMAC-SHA-256 over `data`; forgery without the key is infeasible."""
        return _hmac.digest(key.data, data, "sha256")

    def verify_keyed_digest(self, key: KeyMaterial, data: bytes, digest: Digest) -> bool:
        return _hmac.compare_digest(self.keyed_digest(key, data), digest)
