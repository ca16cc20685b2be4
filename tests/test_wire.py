import re
from pathlib import Path

import pytest

from manetsec.crypto import KEY_BYTES, KeyMaterial
from manetsec.wire import (
    BROADCAST,
    DIGEST_KINDS,
    LAYOUTS,
    MessageKind,
    ProtocolMessage,
    SEALED_KINDS,
    WireError,
    pack,
    unpack,
)


class TestFrameConformance:
    def test_digest_frame_hex(self):
        msg = ProtocolMessage(MessageKind.AGREE_STEP3, sender=7, receiver=5,
                              ids=(7, 5), payload=bytes.fromhex("a3" * 32))
        assert msg.to_bytes().hex() == (
            "0600000007000000050200000007000000050020" + "a3" * 32)

    def test_join_request_frame_hex(self):
        msg = ProtocolMessage(MessageKind.JOIN_REQUEST, sender=19, receiver=BROADCAST,
                              ids=(19,), payload=b"")
        assert msg.to_bytes().hex() == "0700000013ffffffff01000000130000"

    def test_round_trip_all_kinds(self, rng):
        for kind in MessageKind:
            payload = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 100)))
            m = ProtocolMessage(kind, rng.randrange(2**32), rng.randrange(2**32),
                                tuple(rng.randrange(2**32) for _ in range(rng.randrange(4))),
                                payload)
            assert ProtocolMessage.from_bytes(m.to_bytes()) == m

    def test_broadcast_round_trip(self):
        m = ProtocolMessage(MessageKind.AGREE_STEP1, 1, BROADCAST, (1,), b"ct")
        back = ProtocolMessage.from_bytes(m.to_bytes())
        assert back.receiver == BROADCAST

    def test_truncated_frames_rejected(self):
        m = ProtocolMessage(MessageKind.AUTH_STEP1, 1, 2, (1, 2), b"payload")
        raw = m.to_bytes()
        for cut in (0, 3, 9, len(raw) - 1):
            with pytest.raises(WireError):
                ProtocolMessage.from_bytes(raw[:cut])

    def test_trailing_garbage_rejected(self):
        raw = ProtocolMessage(MessageKind.AUTH_STEP1, 1, 2, (), b"x").to_bytes()
        with pytest.raises(WireError):
            ProtocolMessage.from_bytes(raw + b"!")

    def test_unknown_kind_rejected(self):
        raw = ProtocolMessage(MessageKind.AUTH_STEP1, 1, 2, (), b"").to_bytes()
        with pytest.raises(WireError):
            ProtocolMessage.from_bytes(b"\xee" + raw[1:])

    def test_oversize_payload_rejected(self):
        with pytest.raises(WireError):
            ProtocolMessage(MessageKind.AUTH_STEP1, 1, 2, (), b"z" * 70_000).to_bytes()


K = MessageKind


class TestPayloadLayouts:
    def test_auth_step1_hex(self):
        pt = pack(K.AUTH_STEP1, 9, 2, 0x0102030405060708)
        assert pt.hex() == "00000009000000020102030405060708"
        assert unpack(K.AUTH_STEP1, pt) == (9, 2, 0x0102030405060708)

    def test_auth_step2(self):
        pt = pack(K.AUTH_STEP2, 2, 9, 0x11, 0x22)
        assert unpack(K.AUTH_STEP2, pt) == (2, 9, 0x11, 0x22)

    def test_auth_step3_carries_fold_and_share(self, rng):
        k, s = KeyMaterial.random(rng), KeyMaterial.random(rng)
        pt = pack(K.AUTH_STEP3, 2, 9, 0x33, k, s)
        assert unpack(K.AUTH_STEP3, pt) == (2, 9, 0x33, k, s)

    def test_agree_step1_hex(self):
        z = KeyMaterial(bytes.fromhex("00112233445566778899aabbccddeeff"))
        pt = pack(K.AGREE_STEP1, 1, z, 0x1122334455667788)
        assert pt.hex() == ("00000001"
                            "00112233445566778899aabbccddeeff"
                            "1122334455667788")
        assert unpack(K.AGREE_STEP1, pt) == (1, z, 0x1122334455667788)

    def test_agree_step2(self, rng):
        s = KeyMaterial.random(rng)
        pt = pack(K.AGREE_STEP2, 5, s, 7, 8)
        assert unpack(K.AGREE_STEP2, pt) == (5, s, 7, 8)

    def test_rekey_layout(self, rng):
        s = KeyMaterial.random(rng)
        for kind in (K.GLOBAL_REKEY, K.LOCAL_REKEY_STEP1, K.MASTER_REKEY):
            pt = pack(kind, 3, s, 44)
            assert pt == pack(K.AGREE_STEP1, 3, s, 44)
            assert unpack(kind, pt) == (3, s, 44)

    def test_confirm_digest_input_layout(self):
        k = KeyMaterial(bytes(range(16)))
        for kind in DIGEST_KINDS:
            blob = pack(kind, 5, 0x99, k)
            assert blob == bytes.fromhex("00000005") + (0x99).to_bytes(8, "big") + k.data

    def test_wrong_width_unpacks_fail(self, rng):
        with pytest.raises(WireError):
            pack(K.AGREE_STEP1, 1, KeyMaterial(bytes(24)), 1)
        pt = pack(K.AGREE_STEP1, 1, KeyMaterial.random(rng), 1)
        with pytest.raises(WireError):
            unpack(K.AGREE_STEP1, pt[:4] + bytes(8) + pt[4:])  # a 24-byte key field

    def test_join_request_has_no_layout(self):
        assert K.JOIN_REQUEST not in LAYOUTS and len(LAYOUTS) == 13
        with pytest.raises(WireError):
            unpack(K.JOIN_REQUEST, b"")


# Field values for each layout letter: fresh random ones, or the bounds of
# each field (all-zero, or every bit set).
def _sample_fields(layout, rng, values="random"):
    if values == "zero":
        return tuple(KeyMaterial.zero() if c == "K" else 0 for c in layout)
    if values == "max":
        return tuple(KeyMaterial(b"\xff" * KEY_BYTES) if c == "K"
                     else 2 ** (32 if c == "I" else 64) - 1 for c in layout)
    return tuple(KeyMaterial.random(rng) if c == "K"
                 else rng.getrandbits(32 if c == "I" else 64) for c in layout)


class TestLayoutTable:
    @pytest.mark.parametrize("values", ["random", "zero", "max"])
    @pytest.mark.parametrize("kind", sorted(LAYOUTS), ids=lambda k: k.name)
    def test_round_trip_every_kind(self, rng, kind, values):
        layout = LAYOUTS[kind]
        fields = _sample_fields(layout, rng, values)
        pt = pack(kind, *fields)
        sizes = {"I": 4, "Q": 8, "K": KEY_BYTES}
        assert len(pt) == sum(sizes[c] for c in layout)
        assert unpack(kind, pt) == fields
        for bad in (pt[:-1], pt + b"\x00"):
            with pytest.raises(WireError):
                unpack(kind, bad)

    @pytest.mark.parametrize("width", [KEY_BYTES - 1, KEY_BYTES + 1, 10, 24, 32])
    @pytest.mark.parametrize("kind", sorted(k for k, v in LAYOUTS.items() if "K" in v),
                             ids=lambda k: k.name)
    def test_key_field_off_by_one_refused(self, rng, kind, width):
        fields = list(_sample_fields(LAYOUTS[kind], rng))
        at = LAYOUTS[kind].index("K")
        fields[at] = KeyMaterial(bytes(width))
        with pytest.raises(WireError):
            pack(kind, *fields)


class TestWireDoc:
    """WIRE.md's kind table must say what the code does."""

    FIELD = {"4": "I", "8": "Q", "W": "K"}

    def rows(self):
        text = (Path(__file__).resolve().parents[1] / "WIRE.md").read_text()
        table = text.split("## Kind codes", 1)[1].split("\n\n", 2)[1]
        for line in table.splitlines()[2:]:
            code, name, payload, layout = (c.strip() for c in line.strip("|").split("|"))
            yield int(code), name, payload, layout

    def test_kind_table_matches_layouts(self):
        rows = list(self.rows())
        assert [(code, name) for code, name, _, _ in rows] == [(k.value, k.name) for k in K]
        documented = {}
        for code, name, payload, layout in rows:
            assert (payload == "digest") == (K(code) in DIGEST_KINDS), name
            assert (payload == "ciphertext") == (K(code) in SEALED_KINDS), name
            alias = re.match(r"as (\w+)", layout)
            if alias:
                documented[K(code)] = documented[K[alias.group(1)]]
            elif "`" in layout:
                fields = layout.split("`")[1]
                documented[K(code)] = "".join(self.FIELD[w] for w in
                                              re.findall(r"\((\w)\)", fields))
        assert documented == LAYOUTS
