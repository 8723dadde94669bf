"""The scale-out supervisor: boot, watch, and kill real OS processes.

`ScaleoutSupervisor` owns the process tree of a deployment: it binds
the bootstrap's listen socket, spawns one OS process per LessLog node
(``fork`` by default — copy-on-write makes a 256-node fleet cheap even
on a single-core host; ``subprocess`` re-execs the interpreter for a
fully isolated fleet), runs the :class:`BootstrapServer` in the parent,
and injects §5.3 crash churn with a literal ``kill -9``.

Lifecycle discipline:

* **launch() is synchronous and runs before any event loop exists** —
  forking with a live asyncio loop would duplicate its epoll state
  into every child.  Children close the inherited listen socket, ask
  the kernel for a SIGKILL when the parent dies (``PR_SET_PDEATHSIG``,
  best effort), run the worker coroutine on a fresh loop, and
  ``os._exit`` so no parent cleanup (atexit hooks, buffered writers)
  runs twice.
* **kill(pid)** resolves the node's OS pid from its ``hello``, sends
  ``SIGKILL``, reaps the zombie, and only then tells the bootstrap —
  the process is provably gone before the coordination plane flips the
  membership bit, so nothing the victim might still have written races
  the kill record.
* **shutdown()** SIGTERMs every spawned child (registered or not),
  collects the ``goodbye`` snapshots (each worker drains its inbox
  first), SIGKILLs whatever still runs at the deadline, reaps
  everyone, and closes the bootstrap.  Reaping polls with ``WNOHANG``
  between ``asyncio.sleep`` calls: the bootstrap shares this loop, and
  a worker blocked on its ``goodbye`` reply must still get it.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import signal
import socket
import subprocess
import sys

from ...core.errors import ConfigurationError, MembershipError
from ..cluster import RuntimeConfig
from .bootstrap import BootstrapServer
from .worker import run_worker

__all__ = ["ScaleoutSupervisor"]

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Best effort: have the kernel SIGKILL us if the parent dies."""
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):  # pragma: no cover - non-glibc
        pass


class ScaleoutSupervisor:
    """One multi-process LessLog deployment, end to end."""

    def __init__(
        self,
        config: RuntimeConfig,
        n_nodes: int | None = None,
        mode: str = "fork",
    ) -> None:
        if mode not in ("fork", "subprocess"):
            raise ConfigurationError(
                f"mode must be 'fork' or 'subprocess', got {mode!r}"
            )
        self.mode = mode
        self.bootstrap = BootstrapServer(config, n_nodes)
        self.address: tuple[str, int] | None = None
        self._listen_sock: socket.socket | None = None
        self._children: list[int] = []
        """OS pids of forked children (fork mode)."""
        self._procs: list[subprocess.Popen] = []
        self._reaped: set[int] = set()

    # -- boot ----------------------------------------------------------------

    def launch(self) -> tuple[str, int]:
        """Bind the bootstrap socket and spawn the fleet.  Call this
        *before* any asyncio loop exists in the parent process."""
        if self._listen_sock is not None:
            raise ConfigurationError("the fleet is already launched")
        sock = socket.create_server(
            ("127.0.0.1", 0), backlog=max(512, self.bootstrap.expected * 2)
        )
        self._listen_sock = sock
        host, port = sock.getsockname()[:2]
        self.address = (host, port)
        for _ in range(self.bootstrap.expected):
            self._spawn(host, port)
        return (host, port)

    def _spawn(self, host: str, port: int) -> None:
        if self.mode == "subprocess":
            self._procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker",
                     "--bootstrap", f"{host}:{port}"],
                    env=os.environ.copy(),
                )
            )
            return
        child = os.fork()
        if child:
            self._children.append(child)
            return
        # Child: a fresh worker process sharing nothing but memory pages.
        status = 1
        try:
            _die_with_parent()
            assert self._listen_sock is not None
            self._listen_sock.close()
            run_worker(host, port)
            status = 0
        except KeyboardInterrupt:  # pragma: no cover
            status = 0
        except BaseException:  # pragma: no cover - crash visibly
            import traceback

            traceback.print_exc()
        finally:
            os._exit(status)

    @property
    def listen_socket(self) -> socket.socket | None:
        """The bootstrap's bound listen socket, while launched.  Forked
        shard-driver children must close their inherited copy so the
        address actually dies with this parent."""
        return self._listen_sock

    async def start(self, boot_timeout: float = 60.0) -> None:
        """Serve the bootstrap and wait until every worker registered."""
        await self.bootstrap.serve(sock=self._listen_sock)
        await asyncio.wait_for(self.bootstrap.ready.wait(), boot_timeout)

    # -- liveness / crash injection ------------------------------------------

    def alive(self) -> dict[int, bool]:
        """Liveness of every spawned OS process (``wait``-free poll)."""
        return {ospid: self._poll(ospid) for ospid in self._spawned()}

    def _spawned(self) -> list[int]:
        return list(self._children) + [proc.pid for proc in self._procs]

    def _poll(self, ospid: int) -> bool:
        """Whether ``ospid`` still runs; reaps it if it has exited."""
        if ospid in self._reaped:
            return False
        for proc in self._procs:
            if proc.pid == ospid:
                if proc.poll() is None:
                    return True
                self._reaped.add(ospid)
                return False
        try:
            done, _status = os.waitpid(ospid, os.WNOHANG)
        except ChildProcessError:  # pragma: no cover - reaped elsewhere
            done = ospid
        if done:
            self._reaped.add(ospid)
            return False
        return True

    async def _await_exit(self, ospids: list[int], deadline: float) -> list[int]:
        """Poll until every process in ``ospids`` has exited or the loop
        clock passes ``deadline``; returns those still running."""
        loop = asyncio.get_running_loop()
        while True:
            running = [ospid for ospid in ospids if self._poll(ospid)]
            if not running or loop.time() >= deadline:
                return running
            await asyncio.sleep(0.01)

    async def kill(self, pid: int) -> None:
        """``kill -9`` the worker serving node ``pid`` — no drain, no
        goodbye, no flush; then record the silent death (PR 8's crash
        semantics over a real process table)."""
        ospid = self.bootstrap.ospid_of(pid)
        if ospid <= 0:
            raise MembershipError(f"no OS process known for P({pid})")
        os.kill(ospid, signal.SIGKILL)
        await self._await_exit([ospid], float("inf"))
        await self.bootstrap.note_killed(pid)

    # -- teardown ------------------------------------------------------------

    def _signal(self, ospid: int, sig: int) -> None:
        if ospid in self._reaped:
            return
        try:
            os.kill(ospid, sig)
        except ProcessLookupError:  # pragma: no cover - already gone
            pass

    async def shutdown(self, term_timeout: float = 30.0) -> None:
        """SIGTERM the fleet, await the goodbyes, reap, close.

        Children still running ``term_timeout`` seconds after the
        SIGTERM are SIGKILLed, so shutdown always returns.
        """
        survivors = len(self.bootstrap.worker_pids())
        spawned = self._spawned()
        for ospid in spawned:
            self._signal(ospid, signal.SIGTERM)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + term_timeout
        while (
            len(self.bootstrap.goodbyes) < survivors
            and loop.time() < deadline
        ):
            await asyncio.sleep(0.01)
        for ospid in await self._await_exit(spawned, deadline):
            self._signal(ospid, signal.SIGKILL)
        await self._await_exit(spawned, float("inf"))
        await self.bootstrap.shutdown()
        if self._listen_sock is not None:
            self._listen_sock.close()
            self._listen_sock = None
