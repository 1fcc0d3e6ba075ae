"""A tiny stdlib client for the sweep daemon's local API.

Used by the ``repro.serve submit/status/drain`` subcommands, the
``repro.obs serve`` view, and the tests — anything that wants to talk
to a running daemon without hand-rolling ``http.client`` calls.
Discovery goes through the endpoint file the daemon writes
(``<cache>/serve/endpoint.json``); a dead pid there means the daemon
was killed, and the caller should fall back to WAL replay for a
post-mortem view.
"""
from __future__ import annotations

import http.client
import json
from typing import Optional

from .api import pid_alive, read_endpoint

__all__ = ["ServeClient", "ServeError", "discover"]


class ServeError(RuntimeError):
    """A non-2xx response from the daemon (carries status + body)."""

    def __init__(self, status: int, body):
        self.status = status
        self.body = body
        detail = body.get("detail") if isinstance(body, dict) else ""
        reason = body.get("error") if isinstance(body, dict) else body
        super().__init__(
            f"daemon said {status}: {reason}" + (f" ({detail})" if detail else "")
        )


class ServeClient:
    """One daemon endpoint; every method is a single HTTP round trip."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)

    def _request(self, method: str, path: str, body: Optional[dict] = None):
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            try:
                doc = json.loads(raw) if raw else None
            except ValueError:
                doc = raw.decode(errors="replace")
            if resp.status >= 400:
                raise ServeError(resp.status, doc)
            return resp.status, doc, raw
        finally:
            conn.close()

    # -- API surface -------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")[1]

    def status(self) -> dict:
        return self._request("GET", "/status")[1]

    def submit(self, tenant: str, units: list) -> dict:
        return self._request(
            "POST", "/submit", {"tenant": tenant, "units": units}
        )[1]

    def drain(self) -> dict:
        return self._request("POST", "/drain")[1]

    def ticket(self, ticket: str) -> dict:
        return self._request("GET", f"/ticket/{ticket}")[1]

    def ticket_results(self, ticket: str) -> bytes:
        """The canonical results document, as the daemon's exact bytes."""
        return self._request("GET", f"/ticket/{ticket}/results")[2]

    def alive(self) -> bool:
        """The daemon answers (healthy or not: ``healthz()["ok"]`` says)."""
        try:
            self.healthz()
        except (OSError, ServeError):
            return False
        return True


def discover(cache_dir) -> Optional[ServeClient]:
    """A client for the daemon advertising in ``cache_dir``, if live."""
    ep = read_endpoint(cache_dir)
    if ep is None or not pid_alive(ep.get("pid", -1)):
        return None
    client = ServeClient(ep.get("host", "127.0.0.1"), ep.get("port", 0))
    return client if client.alive() else None
