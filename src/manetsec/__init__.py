"""Group key agreement, eSOM intrusion detection and secure response for
simulated mobile ad hoc networks."""

from .crypto import CipherSuite, IntegrityFailure, KeyMaterial, NonceSource, xor_combine
from .keytree import (
    KeyTree,
    attach_member,
    build_tree,
    detach_member,
    dump_tree,
    key_path,
    select_checker,
)
from .protocol import GroupSession, ProtocolNode, SessionKeys, Transport
from .wire import BROADCAST, MessageKind, ProtocolMessage

__version__ = "0.1.0"
