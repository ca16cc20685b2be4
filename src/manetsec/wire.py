"""Wire PDU for every protocol step, with a bit-exact binary frame.

Frame layout (big-endian):
    kind            1 byte
    sender          4 bytes
    receiver        4 bytes   (0xFFFFFFFF = broadcast)
    id count        1 byte
    ids             4 bytes each (cleartext identities)
    payload length  2 bytes
    payload         ciphertext or digest, depending on kind

The cleartext portion never carries key material or nonces; those ride inside
the encrypted payload. `LAYOUTS` is the code's copy of the per-kind plaintext
table in WIRE.md; `pack` and `unpack` are the only readers of it.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from .crypto import KEY_BYTES, KeyMaterial

BROADCAST = 0xFFFFFFFF
_HDR = struct.Struct(">BIIB")
_LEN = struct.Struct(">H")
_ID = struct.Struct(">I")


class WireError(Exception):
    pass


class MessageKind(enum.IntEnum):
    AUTH_STEP1 = 1
    AUTH_STEP2 = 2
    AUTH_STEP3 = 3
    AGREE_STEP1 = 4
    AGREE_STEP2 = 5
    AGREE_STEP3 = 6
    JOIN_REQUEST = 7
    JOIN_STEP_A = 8
    JOIN_STEP_B = 9
    JOIN_STEP_C = 10
    GLOBAL_REKEY = 11
    LOCAL_REKEY_STEP1 = 12
    LOCAL_REKEY_STEP3 = 13
    MASTER_REKEY = 14


@dataclass(frozen=True)
class ProtocolMessage:
    kind: MessageKind
    sender: int
    receiver: int           # node id or BROADCAST
    ids: tuple[int, ...]    # cleartext identity fields
    payload: bytes          # Ciphertext or Digest per kind

    def to_bytes(self) -> bytes:
        if len(self.ids) > 255:
            raise WireError("too many cleartext ids")
        if len(self.payload) > 0xFFFF:
            raise WireError("payload exceeds 65535 bytes")
        out = _HDR.pack(self.kind, self.sender, self.receiver, len(self.ids))
        for i in self.ids:
            out += _ID.pack(i)
        return out + _LEN.pack(len(self.payload)) + self.payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ProtocolMessage":
        if len(raw) < _HDR.size + _LEN.size:
            raise WireError("truncated frame")
        kind_b, sender, receiver, nids = _HDR.unpack_from(raw, 0)
        try:
            kind = MessageKind(kind_b)
        except ValueError as e:
            raise WireError(f"unknown message kind {kind_b}") from e
        off = _HDR.size
        if len(raw) < off + 4 * nids + _LEN.size:
            raise WireError("truncated id list")
        ids = tuple(_ID.unpack_from(raw, off + 4 * k)[0] for k in range(nids))
        off += 4 * nids
        (plen,) = _LEN.unpack_from(raw, off)
        off += _LEN.size
        if len(raw) != off + plen:
            raise WireError("frame length mismatch")
        return cls(kind=kind, sender=sender, receiver=receiver, ids=ids, payload=raw[off:])


def concat_frames(frames: list[ProtocolMessage]) -> bytes:
    """The frames back to back as a listener hears them, built in one buffer."""
    out = bytearray()
    for msg in frames:
        out += msg.to_bytes()
    return bytes(out)


# What each kind carries inside its ciphertext or, for the DIGEST_KINDS, what
# its digest is computed over: I is a 4-byte id, Q an 8-byte nonce or nonce
# echo, K a KEY_BYTES-byte key field. JOIN_REQUEST has no row.

LAYOUTS: dict[MessageKind, str] = {
    MessageKind.AUTH_STEP1: "IIQ",          # ID_d, ID_a, nonce_d
    MessageKind.AUTH_STEP2: "IIQQ",         # ID_a, ID_d, nonce_d+1, nonce_a
    MessageKind.AUTH_STEP3: "IIQKK",        # ID_a, ID_d, nonce_a+1, K', S
    MessageKind.AGREE_STEP1: "IKQ",         # ID_root, z, nonce_root
    MessageKind.AGREE_STEP2: "IKQQ",        # ID_ch, S_ch, nonce_root+1, nonce_ch
    MessageKind.AGREE_STEP3: "IQK",         # digest input: ID_ch, nonce_ch+1, K
    MessageKind.JOIN_STEP_A: "IIQ",
    MessageKind.JOIN_STEP_B: "IIQQ",
    MessageKind.JOIN_STEP_C: "IIQKK",
    MessageKind.GLOBAL_REKEY: "IKQ",        # ID_ch, fresh, nonce_ch
    MessageKind.LOCAL_REKEY_STEP1: "IKQ",   # ID_j, fresh, nonce_j
    MessageKind.LOCAL_REKEY_STEP3: "IQK",   # digest input: ID_j, nonce_j+1, LK_new
    MessageKind.MASTER_REKEY: "IKQ",        # ID_parent, salt, nonce
}

# Kinds whose payload is a cleartext digest rather than a ciphertext; every
# other kind with a layout is sealed, and a receiver opens it before use.
DIGEST_KINDS = frozenset({MessageKind.AGREE_STEP3, MessageKind.LOCAL_REKEY_STEP3})
SEALED_KINDS = frozenset(LAYOUTS) - DIGEST_KINDS

# (struct, indices of the K fields) per kind code, None for a kind without a
# row; indexed by code so no lookup hashes a MessageKind
_COMPILED: list[tuple[struct.Struct, tuple[int, ...]] | None] = [None] * (max(MessageKind) + 1)
for _kind, _layout in LAYOUTS.items():
    _COMPILED[_kind] = (struct.Struct(">" + _layout.replace("K", f"{KEY_BYTES}s")),
                        tuple(i for i, c in enumerate(_layout) if c == "K"))


def _compiled(kind: MessageKind) -> tuple[struct.Struct, tuple[int, ...]]:
    entry = _COMPILED[kind]
    if entry is None:
        raise WireError(f"{MessageKind(kind).name} carries no plaintext")
    return entry


def pack(kind: MessageKind, *fields) -> bytes:
    """The plaintext of `kind`: ids and nonces as ints, keys as KeyMaterial."""
    layout, key_fields = _compiled(kind)
    fields = list(fields)
    for i in key_fields:
        fields[i] = fields[i].data
        if len(fields[i]) != KEY_BYTES:
            raise WireError(f"{len(fields[i])}-byte key field, want {KEY_BYTES}")
    return layout.pack(*fields)


def unpack(kind: MessageKind, plaintext: bytes) -> tuple:
    """Inverse of pack; raises WireError unless the length fits the layout exactly."""
    layout, key_fields = _compiled(kind)
    if len(plaintext) != layout.size:
        raise WireError(f"{len(plaintext)}-byte {MessageKind(kind).name} plaintext, "
                        f"want {layout.size}")
    fields = list(layout.unpack(plaintext))
    for i in key_fields:
        fields[i] = KeyMaterial(fields[i])
    return tuple(fields)
