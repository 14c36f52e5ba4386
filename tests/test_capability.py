"""Tests for the capability subsystem: XTEA, the one-way function, and
the sparse-capability mint/restrict/verify protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capability import (
    ALL_RIGHTS,
    CAP_WIRE_SIZE,
    CHECK_MASK,
    Capability,
    NULL_CAPABILITY,
    RIGHT_DELETE,
    RIGHT_MODIFY,
    RIGHT_READ,
    has_rights,
    mint_owner,
    one_way,
    port_for_name,
    require,
    restrict,
    rights_names,
    server_restrict,
    verify,
    xtea_encrypt_block,
)
from repro.errors import BadRequestError, CapabilityError, RightsError


# ---------------------------------------------------------------- XTEA


def test_xtea_known_vector():
    """Published XTEA test vector (32 rounds)."""
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex("4142434445464748")
    assert xtea_encrypt_block(key, plaintext).hex() == "497df3d072612cb5"


def test_xtea_zero_vector():
    """Published XTEA test vector: all-zero key and block."""
    assert xtea_encrypt_block(bytes(16), bytes(8)).hex() == "dee9d4d8f7131ed9"


def test_xtea_rejects_bad_sizes():
    with pytest.raises(ValueError):
        xtea_encrypt_block(bytes(15), bytes(8))
    with pytest.raises(ValueError):
        xtea_encrypt_block(bytes(16), bytes(7))


def test_xtea_avalanche():
    """Flipping one plaintext bit should change many ciphertext bits."""
    key = b"0123456789abcdef"
    a = xtea_encrypt_block(key, bytes(8))
    b = xtea_encrypt_block(key, bytes(7) + b"\x01")
    differing = bin(int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).count("1")
    assert differing > 16


# ------------------------------------------------------ one-way function


def test_one_way_deterministic():
    assert one_way(12345) == one_way(12345)


def test_one_way_range():
    for value in (0, 1, CHECK_MASK, 0x123456789ABC):
        assert 0 <= one_way(value) <= CHECK_MASK


def test_one_way_rejects_out_of_range():
    with pytest.raises(ValueError):
        one_way(-1)
    with pytest.raises(ValueError):
        one_way(CHECK_MASK + 1)


@given(st.integers(min_value=0, max_value=CHECK_MASK))
def test_one_way_stays_in_range(value):
    assert 0 <= one_way(value) <= CHECK_MASK


def test_one_way_no_trivial_collisions():
    seen = {one_way(v) for v in range(2000)}
    assert len(seen) == 2000


# ------------------------------------------------------------ Capability


def test_pack_unpack_roundtrip():
    cap = Capability(port=0x123456789ABC, object=42, rights=0x15, check=0xDEADBEEF42)
    assert Capability.unpack(cap.pack()) == cap


def test_pack_size():
    assert len(NULL_CAPABILITY.pack()) == CAP_WIRE_SIZE


def test_unpack_rejects_wrong_size():
    with pytest.raises(BadRequestError):
        Capability.unpack(bytes(15))


@given(
    port=st.integers(min_value=0, max_value=(1 << 48) - 1),
    obj=st.integers(min_value=0, max_value=(1 << 24) - 1),
    rights=st.integers(min_value=0, max_value=255),
    check=st.integers(min_value=0, max_value=CHECK_MASK),
)
def test_pack_unpack_roundtrip_property(port, obj, rights, check):
    cap = Capability(port=port, object=obj, rights=rights, check=check)
    assert Capability.unpack(cap.pack()) == cap


def test_field_range_validation():
    with pytest.raises(BadRequestError):
        Capability(port=1 << 48, object=0, rights=0, check=0)
    with pytest.raises(BadRequestError):
        Capability(port=0, object=1 << 24, rights=0, check=0)
    with pytest.raises(BadRequestError):
        Capability(port=0, object=0, rights=256, check=0)
    with pytest.raises(BadRequestError):
        Capability(port=0, object=0, rights=0, check=1 << 48)


def test_str_shows_rights():
    cap = Capability(port=1, object=2, rights=RIGHT_READ | RIGHT_DELETE, check=3)
    assert "read|delete" in str(cap)
    assert rights_names(ALL_RIGHTS) == "all"
    assert rights_names(0) == "none"


# ----------------------------------------------- mint / restrict / verify


PORT = port_for_name("bullet-test")
SECRET = 0x9F3A551D00C4


def test_owner_capability_verifies():
    cap = mint_owner(PORT, 7, SECRET)
    assert cap.rights == ALL_RIGHTS
    assert verify(cap, SECRET)


def test_owner_capability_wrong_secret_fails():
    cap = mint_owner(PORT, 7, SECRET)
    assert not verify(cap, SECRET ^ 1)


def test_restricted_capability_verifies():
    owner = mint_owner(PORT, 7, SECRET)
    reader = restrict(owner, RIGHT_READ)
    assert reader.rights == RIGHT_READ
    assert verify(reader, SECRET)


def test_restricted_capability_cannot_be_amplified():
    """Editing the rights byte of a restricted capability must break the
    check field."""
    owner = mint_owner(PORT, 7, SECRET)
    reader = restrict(owner, RIGHT_READ)
    forged = Capability(port=reader.port, object=reader.object,
                        rights=RIGHT_READ | RIGHT_DELETE, check=reader.check)
    assert not verify(forged, SECRET)


def test_forged_all_rights_fails():
    """Guessing the secret is the only way to an owner capability."""
    forged = Capability(port=PORT, object=7, rights=ALL_RIGHTS, check=0x1234)
    assert not verify(forged, SECRET)


def test_restrict_noop_when_rights_unchanged():
    owner = mint_owner(PORT, 7, SECRET)
    assert restrict(owner, ALL_RIGHTS) is owner


def test_restrict_restricted_locally_rejected():
    owner = mint_owner(PORT, 7, SECRET)
    reader = restrict(owner, RIGHT_READ | RIGHT_DELETE)
    with pytest.raises(RightsError):
        restrict(reader, RIGHT_READ)


def test_server_restrict_of_restricted_capability():
    owner = mint_owner(PORT, 7, SECRET)
    both = restrict(owner, RIGHT_READ | RIGHT_DELETE)
    assert verify(both, SECRET)
    new_rights, new_check = server_restrict(both.rights, SECRET, RIGHT_READ)
    reader = Capability(port=PORT, object=7, rights=new_rights, check=new_check)
    assert reader.rights == RIGHT_READ
    assert verify(reader, SECRET)


def test_server_restrict_to_all_returns_secret():
    new_rights, new_check = server_restrict(ALL_RIGHTS, SECRET, ALL_RIGHTS)
    assert new_rights == ALL_RIGHTS
    assert new_check == SECRET


def test_require_passes_with_rights():
    owner = mint_owner(PORT, 7, SECRET)
    require(owner, SECRET, RIGHT_READ | RIGHT_DELETE)  # must not raise


def test_require_distinguishes_forgery_from_missing_rights():
    owner = mint_owner(PORT, 7, SECRET)
    reader = restrict(owner, RIGHT_READ)
    with pytest.raises(RightsError):
        require(reader, SECRET, RIGHT_DELETE)
    tampered = Capability(port=PORT, object=7, rights=RIGHT_READ, check=0)
    with pytest.raises(CapabilityError):
        require(tampered, SECRET, RIGHT_READ)


@given(
    secret=st.integers(min_value=0, max_value=CHECK_MASK),
    mask=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=200)
def test_restrict_verify_property(secret, mask):
    """Every locally restricted owner capability verifies, and changing
    its rights field invalidates it."""
    owner = mint_owner(PORT, 1, secret)
    cap = restrict(owner, mask)
    assert verify(cap, secret)
    if cap.rights != ALL_RIGHTS:
        tampered_rights = (cap.rights + 1) & 0xFF
        tampered = Capability(port=cap.port, object=cap.object,
                              rights=tampered_rights, check=cap.check)
        # With different rights the same check must (overwhelmingly) fail.
        assert not verify(tampered, secret)


@given(
    secret=st.integers(min_value=0, max_value=CHECK_MASK),
    presented=st.integers(min_value=0, max_value=255),
    mask=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=200)
def test_server_restrict_property(secret, presented, mask):
    """server_restrict always yields a capability that verifies and whose
    rights are the intersection."""
    new_rights, new_check = server_restrict(presented, secret, mask)
    cap = Capability(port=PORT, object=1, rights=new_rights, check=new_check)
    assert new_rights == (presented & mask)
    assert verify(cap, secret)


def test_has_rights():
    assert has_rights(RIGHT_READ | RIGHT_DELETE, RIGHT_READ)
    assert not has_rights(RIGHT_READ, RIGHT_READ | RIGHT_MODIFY)
    assert has_rights(ALL_RIGHTS, RIGHT_MODIFY)


def test_port_for_name_deterministic_and_distinct():
    assert port_for_name("bullet") == port_for_name("bullet")
    assert port_for_name("bullet") != port_for_name("directory")
    assert 0 <= port_for_name("x") < (1 << 48)
