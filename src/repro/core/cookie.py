"""Cookies and their wire encodings (Listing 2 of the paper).

A cookie is ``(cookie_id, uuid, timestamp, signature)`` where the signature
is an HMAC over the first three fields under the descriptor key.  Cookies
are unique (fresh uuid), bounded in time (timestamp must fall within the
network coherency time), and verifiable without revealing anything about
the traffic they ride on.

Two encodings are provided:

- :meth:`Cookie.to_bytes` — the 48-byte binary form used by binary carriers
  (IPv6 extension header, TCP option, UDP framing);
- :meth:`Cookie.to_text` — base64 of the binary form, used by text carriers
  (HTTP header, TLS extension), matching the paper's "we send a
  base64-encoded text cookie".
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import hmac
import struct
from dataclasses import dataclass

from .descriptor import CookieDescriptor
from .errors import MalformedCookie

__all__ = [
    "Cookie",
    "sign_cookie_fields",
    "SignerCache",
    "COOKIE_WIRE_BYTES",
    "SIGNATURE_BYTES",
    "UUID_BYTES",
]

UUID_BYTES = 16
SIGNATURE_BYTES = 16
# id (8) + uuid (16) + timestamp (8) + signature (16)
COOKIE_WIRE_BYTES = 8 + UUID_BYTES + 8 + SIGNATURE_BYTES

_TIMESTAMP_SCALE = 1_000_000  # store seconds as integer microseconds

_WIRE = struct.Struct(f"!Q{UUID_BYTES}sQ{SIGNATURE_BYTES}s")


def sign_cookie_fields(key: bytes, cookie_id: int, uuid: bytes, timestamp: float) -> bytes:
    """HMAC-SHA256 over (id | uuid | timestamp), truncated to 16 bytes.

    Truncated HMAC-SHA256 retains its unforgeability at reduced output
    length (RFC 2104 §5); 128 bits is far beyond what an on-path attacker
    can brute-force within a 5-second coherency window.
    """
    message = struct.pack("!Q", cookie_id) + uuid + struct.pack(
        "!Q", round(timestamp * _TIMESTAMP_SCALE)
    )
    return hmac.new(key, message, hashlib.sha256).digest()[:SIGNATURE_BYTES]


class SignerCache:
    """Per-key HMAC context reuse for batched verification.

    ``hmac.new(key, ...)`` pads and hashes the key on every call — two
    SHA-256 block transforms a verifier repeats for every cookie of the
    same descriptor.  The cache keys one pre-initialised context per
    descriptor key and serves each signature from ``ctx.copy()``, which
    clones the already-absorbed key state.  Digests are bit-identical to
    :func:`sign_cookie_fields` (HMAC is key-absorption then message
    absorption, and ``copy`` snapshots the former).

    A context only pays off for a key that repeats, so a key's first
    sighting is signed one-shot and merely remembered; the context is
    built on its second sighting.  State is bounded: at most
    ``max_keys`` contexts and ``max_keys`` remembered keys, each set
    cleared whole when full (like :class:`~repro.core.matcher.ReplayCache`
    dropping a generation) — O(1) amortized, where evicting the oldest
    dict entry one at a time rescans the dict's deleted slots.
    """

    def __init__(self, max_keys: int = 4096) -> None:
        if max_keys < 1:
            raise ValueError("max_keys must be at least 1")
        self.max_keys = max_keys
        self._contexts: dict[bytes, "hmac.HMAC"] = {}
        self._seen_once: set[bytes] = set()

    def __len__(self) -> int:
        return len(self._contexts)

    def sign(
        self, key: bytes, cookie_id: int, uuid: bytes, timestamp: float
    ) -> bytes:
        """Equivalent of :func:`sign_cookie_fields` via a cached context."""
        message = (
            struct.pack("!Q", cookie_id)
            + uuid
            + struct.pack("!Q", round(timestamp * _TIMESTAMP_SCALE))
        )
        contexts = self._contexts
        base = contexts.get(key)
        if base is None:
            seen_once = self._seen_once
            if key not in seen_once:
                if len(seen_once) >= self.max_keys:
                    seen_once.clear()
                seen_once.add(key)
                return hmac.digest(key, message, "sha256")[:SIGNATURE_BYTES]
            seen_once.discard(key)
            if len(contexts) >= self.max_keys:
                contexts.clear()
            base = contexts[key] = hmac.new(key, digestmod=hashlib.sha256)
        mac = base.copy()
        mac.update(message)
        return mac.digest()[:SIGNATURE_BYTES]


@dataclass(frozen=True)
class Cookie:
    """A single-use, signed token attached to packets."""

    cookie_id: int
    uuid: bytes
    timestamp: float
    signature: bytes

    def __post_init__(self) -> None:
        if len(self.uuid) != UUID_BYTES:
            raise MalformedCookie(
                f"uuid must be {UUID_BYTES} bytes, got {len(self.uuid)}"
            )
        if len(self.signature) != SIGNATURE_BYTES:
            raise MalformedCookie(
                f"signature must be {SIGNATURE_BYTES} bytes, got {len(self.signature)}"
            )

    def verify_signature(self, descriptor: CookieDescriptor) -> bool:
        """Constant-time check of the HMAC digest under the descriptor key."""
        expected = sign_cookie_fields(
            descriptor.key, self.cookie_id, self.uuid, self.timestamp
        )
        return hmac.compare_digest(expected, self.signature)

    # ------------------------------------------------------------------
    # Wire encodings
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """48-byte binary encoding.

        Memoized: the instance is frozen, so the encoding is computed at
        most once and cookies parsed by :meth:`from_bytes` re-emit the
        very bytes they arrived as.  Batch encoding (one frame per shard
        per dispatch) runs on the dispatcher's serial path, where this
        is the difference between one ``bytes`` concat per cookie and a
        dict lookup.
        """
        wire = self.__dict__.get("_wire")
        if wire is None:
            wire = _WIRE.pack(
                self.cookie_id,
                self.uuid,
                round(self.timestamp * _TIMESTAMP_SCALE),
                self.signature,
            )
            object.__setattr__(self, "_wire", wire)
        return wire

    @classmethod
    def from_bytes(cls, data: bytes) -> "Cookie":
        """Parse the binary encoding; raises :class:`MalformedCookie`."""
        if len(data) != COOKIE_WIRE_BYTES:
            raise MalformedCookie(
                f"cookie must be {COOKIE_WIRE_BYTES} bytes, got {len(data)}"
            )
        cookie_id, uuid, ts_micros, signature = _WIRE.unpack(data)
        cookie = cls(
            cookie_id=cookie_id,
            uuid=uuid,
            timestamp=ts_micros / _TIMESTAMP_SCALE,
            signature=signature,
        )
        # µs quantization makes the re-encoding bit-identical to the
        # input; seed the memo so a verify-and-forward path never
        # re-packs what it already holds.
        object.__setattr__(cookie, "_wire", bytes(data))
        return cookie

    def to_text(self) -> str:
        """Base64 text encoding for HTTP headers and TLS extensions."""
        return base64.b64encode(self.to_bytes()).decode("ascii")

    @classmethod
    def from_text(cls, text: str) -> "Cookie":
        """Parse the base64 text encoding; raises :class:`MalformedCookie`."""
        try:
            raw = base64.b64decode(text.encode("ascii"), validate=True)
        except (binascii.Error, UnicodeEncodeError) as exc:
            raise MalformedCookie(f"bad base64 cookie text: {exc}") from exc
        return cls.from_bytes(raw)

    def __repr__(self) -> str:
        return (
            f"Cookie(id={self.cookie_id:#018x}, uuid={self.uuid.hex()[:8]}..., "
            f"t={self.timestamp:.6f})"
        )
