"""The daemon's local HTTP JSON API (stdlib only, loopback only).

A thin, threaded ``http.server`` front end over :class:`SweepDaemon`:
every handler parses JSON, calls one daemon method under its own lock,
and renders JSON back.  The server binds ``127.0.0.1`` (never a public
interface) on an ephemeral port by default, and advertises itself via
an atomic *endpoint file* (``<cache>/serve/endpoint.json``) that
doubles as the single-daemon-per-workdir lock: a live pid in the file
means a daemon already owns this workdir.

Routes:

``GET /healthz``
    cheap liveness: pid, state, queue depth — 200 while the daemon
    accepts connections at all; ``ok`` is false (with the ``error``)
    once a dispatch callback has failed and nothing more dispatches.
``GET /status``
    the full :meth:`SweepDaemon.status` document (queue, tenants,
    leases, breakers) — what ``repro.obs serve`` renders.
``GET /ticket/<id>``
    per-ticket progress; 404 for unknown tickets.
``GET /ticket/<id>/results``
    the canonical ``--results-json`` bytes for a *complete* ticket;
    409 while units are still queued or leased.
``POST /submit``
    ``{"tenant": ..., "units": [{benchmark, api, device, size,
    options}, ...]}`` — 200 with a ticket, 400 for malformed units,
    429 for quota rejections, 503 for backpressure / open breaker /
    draining (the :class:`~repro.serve.admission.AdmissionVerdict`
    status mapping).
``POST /drain``
    stop admission; in-flight leases finish, queued work persists.
"""
from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from .. import durable
from ..telemetry import log
from .wal import serve_dir

__all__ = [
    "ServeAPI",
    "endpoint_path",
    "read_endpoint",
    "write_endpoint",
    "clear_endpoint",
    "pid_alive",
]

#: max accepted request body (a submission of a few hundred units is
#: well under this; anything larger is a client bug, not a sweep)
_MAX_BODY = 4 << 20


def endpoint_path(cache_dir) -> Path:
    """The daemon's discovery file (and workdir lock) location."""
    return serve_dir(cache_dir) / "endpoint.json"


def pid_alive(pid: int) -> bool:
    try:
        os.kill(int(pid), 0)
    except (OSError, ValueError, TypeError):
        return False
    return True


def read_endpoint(cache_dir) -> Optional[dict]:
    """The advertised endpoint, or None when absent/unreadable."""
    try:
        with open(endpoint_path(cache_dir)) as f:
            ep = json.load(f)
    except (OSError, ValueError):
        return None
    return ep if isinstance(ep, dict) else None


def write_endpoint(cache_dir, host: str, port: int) -> Path:
    return durable.atomic_write(
        endpoint_path(cache_dir),
        json.dumps(
            {"host": host, "port": port, "pid": os.getpid(),
             "unix": time.time()},
            sort_keys=True,
        ),
    )


def clear_endpoint(cache_dir) -> None:
    """Remove the endpoint file iff this process owns it."""
    ep = read_endpoint(cache_dir)
    if ep is not None and ep.get("pid") != os.getpid():
        return
    try:
        os.unlink(endpoint_path(cache_dir))
    except OSError:
        pass


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    daemon = None  # type: ignore[assignment]  # bound by ServeAPI

    # -- plumbing ----------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: A003 - BaseHTTPRequestHandler API
        pass  # the daemon journals what matters; stderr chatter helps no one

    def _send(self, status: int, doc) -> None:
        body = (
            doc if isinstance(doc, (bytes, bytearray))
            else json.dumps(doc, sort_keys=True).encode()
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _body(self) -> Optional[dict]:
        try:
            n = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return None
        if n <= 0 or n > _MAX_BODY:
            return None
        try:
            doc = json.loads(self.rfile.read(n))
        except (OSError, ValueError):
            return None
        return doc if isinstance(doc, dict) else None

    # -- routes ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send(200, self.daemon.healthz())
        elif path == "/status":
            self._send(200, self.daemon.status())
        elif path.startswith("/ticket/"):
            parts = path.split("/")  # ["", "ticket", <id>] or +["results"]
            ticket = parts[2] if len(parts) > 2 else ""
            if len(parts) == 4 and parts[3] == "results":
                self._ticket_results(ticket)
            elif len(parts) == 3:
                st = self.daemon.ticket_status(ticket)
                if st is None:
                    self._send(404, {"error": "unknown ticket", "ticket": ticket})
                else:
                    self._send(200, st)
            else:
                self._send(404, {"error": "not found", "path": self.path})
        else:
            self._send(404, {"error": "not found", "path": self.path})

    def _ticket_results(self, ticket: str) -> None:
        if self.daemon.ticket_status(ticket) is None:
            self._send(404, {"error": "unknown ticket", "ticket": ticket})
            return
        try:
            doc = self.daemon.ticket_results_json(ticket)
        except RuntimeError as e:
            self._send(500, {"error": str(e), "ticket": ticket})
            return
        if doc is None:
            self._send(
                409, {"error": "ticket not complete yet", "ticket": ticket}
            )
        else:
            # already-canonical bytes: do NOT re-encode (byte identity
            # with the sweep CLIs' --results-json is the contract)
            self._send(200, doc.encode())

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.rstrip("/")
        if path == "/submit":
            body = self._body()
            if body is None:
                self._send(400, {"error": "bad or missing JSON body"})
                return
            outcome = self.daemon.submit(
                body.get("tenant", "default"), body.get("units") or []
            )
            self._send(outcome.status, dict(outcome))
        elif path == "/drain":
            self.daemon.drain()
            self._send(200, {"ok": True, "state": "draining"})
        else:
            self._send(404, {"error": "not found", "path": self.path})


class ServeAPI:
    """The daemon's HTTP server: bind loopback, advertise, serve."""

    def __init__(self, daemon, host: str = "127.0.0.1", port: int = 0):
        handler = type("_BoundHandler", (_Handler,), {"daemon": daemon})
        self.sweep_daemon = daemon
        self.server = ThreadingHTTPServer((host, int(port)), handler)
        self.server.daemon_threads = True
        self.host, self.port = self.server.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServeAPI":
        write_endpoint(self.sweep_daemon.cache_dir, self.host, self.port)
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()
        log.info(
            "serve.listen",
            f"API listening on http://{self.host}:{self.port} "
            f"(endpoint file: {endpoint_path(self.sweep_daemon.cache_dir)})",
        )
        return self

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
        clear_endpoint(self.sweep_daemon.cache_dir)
