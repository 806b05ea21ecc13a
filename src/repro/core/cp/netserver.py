"""TCP front end for the sharded control plane (PROTOCOL.md §14.6).

Same JSON-lines framing as :class:`~repro.core.netserver.AsyncCookieServer`
(it shares :class:`~repro.core.netserver.JsonLineServer`), so a
:class:`~repro.core.netserver.CookieClient` pointed here just works —
plus the control plane's admission gate: every request passes through
:meth:`ShardedControlPlane.admit` first, so a burst beyond the pending
cap answers with the structured shed error instead of queueing without
bound.
"""

from __future__ import annotations

from typing import Any

from ..netserver import MAX_CONNECTIONS, MAX_LINE_BYTES, JsonLineServer
from .service import ShardedControlPlane

__all__ = ["AsyncControlPlaneServer"]


class AsyncControlPlaneServer(JsonLineServer):
    """Serves a :class:`ShardedControlPlane` over TCP."""

    def __init__(
        self,
        controlplane: ShardedControlPlane,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = MAX_CONNECTIONS,
        max_request_bytes: int = MAX_LINE_BYTES,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            max_connections=max_connections,
            max_request_bytes=max_request_bytes,
        )
        self.controlplane = controlplane

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        shed = self.controlplane.admit()
        if shed is not None:
            return shed
        try:
            return self.controlplane.handle_request(request)
        finally:
            self.controlplane.release()
