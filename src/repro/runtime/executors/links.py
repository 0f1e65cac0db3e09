"""One single-threaded TCP link server for the coordinator and the daemon.

:class:`LinkServer` owns what the TCP executor's coordinator and the
partitioning daemon share: the listener, one ``selectors`` loop
(:meth:`~LinkServer.poll` accepts and reads), a
:class:`~repro.runtime.executors.framing.FrameReader` per link, sends,
courtesy rejects and drops with a recorded reason.  Each owner is a frame
handler: ``on_frame(link, frame)`` sees every decoded frame and
``on_drop(link, reason)`` every drop.

Corruption or protocol violations cost the link, never the event loop: a
torn frame waits for more bytes, a refused one drops the link as ``bad
frame: ...``, and a handler raising ``TypeError``, ``ValueError``,
``IndexError``, ``KeyError`` or ``AttributeError`` drops it as ``malformed
frame: ...``.  The drop log keeps the last :data:`DROP_LOG` entries.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.runtime.executors.framing import FrameReader, enable_keepalive

__all__ = ["DROP_LOG", "Link", "LinkServer"]

#: How many ``(peer, reason)`` drop records a server keeps.
DROP_LOG = 256


@dataclass(eq=False)
class Link:
    """One accepted connection and its parse state."""

    sock: socket.socket
    peer: str
    reader: FrameReader = field(default_factory=FrameReader)
    connected_at: float = field(default_factory=time.monotonic)
    #: When the oldest still-unanswered liveness probe was sent; any bytes
    #: received from the peer clear it.
    awaiting_pong_since: Optional[float] = None


class LinkServer:
    """Accept, read, send and drop links for one frame-handling owner."""

    def __init__(
        self,
        bind: Tuple[str, int],
        *,
        on_frame: Callable[[Any, Any], None],
        on_drop: Optional[Callable[[Any, str], None]] = None,
        link_type: Callable[..., Link] = Link,
    ) -> None:
        self._on_frame = on_frame
        self._on_drop = on_drop
        self._link_type = link_type
        #: Live links, oldest first.
        self.links: List[Link] = []
        #: The last :data:`DROP_LOG` dropped links as ``(peer, reason)``.
        self.drops: Deque[Tuple[str, str]] = deque(maxlen=DROP_LOG)
        self.drops_total = 0
        #: Drops caused by corrupt or protocol-violating frames.
        self.frame_errors = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(bind)
        self._listener.listen(64)
        self._listener.setblocking(False)
        #: The bound ``(host, port)``; port ``0`` in ``bind`` picks a free one.
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)

    def summary(self) -> Dict[str, Any]:
        return {
            "links": len(self.links),
            "frame_errors": self.frame_errors,
            "drops": list(self.drops),
            "drops_total": self.drops_total,
        }

    def recent_drops(self) -> str:
        """`` (recent drops — peer: reason; ...)`` of the last three, for
        error messages."""
        recent = "; ".join(f"{p}: {r}" for p, r in list(self.drops)[-3:])
        return f" (recent drops — {recent})" if recent else ""

    # -- the loop ------------------------------------------------------------------

    def poll(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds; accept and read what is ready."""
        for key, _events in self._selector.select(timeout):
            if key.data is None:
                self._accept_all()
            else:
                self.read(key.data)

    def _accept_all(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:  # includes BlockingIOError: nothing left to accept
                return
            self.adopt(sock, f"{addr[0]}:{addr[1]}")

    def adopt(self, sock: socket.socket, peer: str) -> Link:
        """Serve an already-connected socket as a new link."""
        sock.setblocking(False)
        # A half-open connection (partition, powered-off host) would
        # otherwise stay silent forever; keepalive turns it into an error
        # the loop sees within minutes.
        enable_keepalive(sock)
        link = self._link_type(sock=sock, peer=peer)
        self.links.append(link)
        self._selector.register(sock, selectors.EVENT_READ, link)
        return link

    def read(self, link: Link) -> None:
        """Read what ``link`` has sent and hand each complete frame on."""
        try:
            data = link.sock.recv(1 << 20)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self.drop(link, "read error")
            return
        if not data:
            self.drop(link, "connection closed")
            return
        link.awaiting_pong_since = None
        try:
            frames = list(link.reader.feed(data))
        except Exception as exc:
            self.drop(link, f"bad frame: {exc}", frame_error=True)
            return
        for frame in frames:
            try:
                self._on_frame(link, frame)
            except (TypeError, ValueError, IndexError, KeyError, AttributeError) as exc:
                self.drop(link, f"malformed frame: {exc}", frame_error=True)
                return
            if link not in self.links:
                return  # the handler dropped the link

    # -- sending and dropping --------------------------------------------------------

    def send(self, link: Link, blob: bytes) -> None:
        """Bounded-blocking send; drops the link on failure."""
        try:
            link.sock.settimeout(30.0)
            try:
                link.sock.sendall(blob)
            finally:
                link.sock.settimeout(0.0)
        except OSError as exc:
            self.drop(link, f"send failed: {exc}")

    def reject(self, link: Link, blob: bytes, reason: str) -> None:
        """Tell the peer why (best effort), then drop it."""
        _courtesy_send(link.sock, blob)
        self.drop(link, f"handshake rejected: {reason}")

    def drop(self, link: Link, reason: str, *, frame_error: bool = False) -> None:
        """Close ``link``, record ``(peer, reason)`` and tell the owner."""
        if link not in self.links:
            return
        self.links.remove(link)
        self.drops.append((link.peer, reason))
        self.drops_total += 1
        if frame_error:
            self.frame_errors += 1
        self._discard(link)
        if self._on_drop is not None:
            self._on_drop(link, reason)

    def _discard(self, link: Link) -> None:
        try:
            self._selector.unregister(link.sock)
        except (KeyError, ValueError):
            pass
        try:
            link.sock.close()
        except OSError:
            pass

    # -- lifecycle -------------------------------------------------------------------

    def stop_listening(self) -> None:
        """Close the listening socket; live links keep being served."""
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()

    def close(self, parting: Optional[bytes] = None) -> None:
        """Close every link, sending ``parting`` first, and the listener.

        Links closed here are not recorded as drops."""
        for link in self.links:
            if parting is not None:
                _courtesy_send(link.sock, parting)
            self._discard(link)
        self.links.clear()
        self.stop_listening()
        self._selector.close()


def _courtesy_send(sock: socket.socket, blob: bytes) -> None:
    try:
        sock.settimeout(5.0)
        sock.sendall(blob)
    except OSError:
        pass
