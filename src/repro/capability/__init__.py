"""Capability system (substrate S3): sparse capabilities with
cryptographic check fields, as used by Amoeba and the Bullet server."""

from .capability import (
    CAP_WIRE_SIZE,
    Capability,
    NULL_CAPABILITY,
    local_verifier,
    mint_owner,
    port_for_name,
    require,
    restrict,
    server_restrict,
    verify,
)
from .crypto import CHECK_BITS, CHECK_MASK, one_way, xtea_encrypt_block
from .rights import (
    ALL_RIGHTS,
    RIGHT_ADMIN,
    RIGHT_CREATE,
    RIGHT_DELETE,
    RIGHT_MODIFY,
    RIGHT_READ,
    has_rights,
    rights_names,
)

__all__ = [
    "CAP_WIRE_SIZE",
    "Capability",
    "NULL_CAPABILITY",
    "local_verifier",
    "mint_owner",
    "port_for_name",
    "require",
    "restrict",
    "server_restrict",
    "verify",
    "CHECK_BITS",
    "CHECK_MASK",
    "one_way",
    "xtea_encrypt_block",
    "ALL_RIGHTS",
    "RIGHT_ADMIN",
    "RIGHT_CREATE",
    "RIGHT_DELETE",
    "RIGHT_MODIFY",
    "RIGHT_READ",
    "has_rights",
    "rights_names",
]
