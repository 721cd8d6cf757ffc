"""The processes of the block sweeps: the caller and helpers forked over shared fields.

A block sweep (``grid.stencil_rhs``, ``measures.frame_fields``) of at least
``grid.PROC_NODES`` interior nodes (24 Ki: 161^2 or 31^3 and up) splits its
blocks among the processes of the open ``Team`` when every array it reads or
writes is a field of the team: the calling process and up to
``grid.helper_count()`` helpers (one per further CPU of
``grid.cpu_budget()``, ``ACTX_THREADS``), forked when the team opens, each
with at least 12 Ki nodes. The team's fields live in one anonymous shared
``mmap``, made before the fork. Per sweep the caller sends each helper one
short pipe message (the kernel, the plan, the arrays' offsets in the arena
and the scalars), sweeps its own part and waits for each helper's one-byte
answer. Each process takes a run of whole axis-0 slabs, so no two restore
faces in the same slab, and each block writes only its own nodes and its own
row of extrema or sums, in the shared rows: every output has the serial bits
at any process count. The helpers are forked after ``cli.main`` has frozen
the import-time objects (``gc.freeze``), so the cyclic collector, in the
caller or a helper, never scans them and copies none of the pages they share.

Threads gained nothing here, as the Python between the numpy calls holds the
GIL: at 257^2 two threads took 175 us against 170 us serial. On a 2-CPU host
one ``stencil_rhs`` call took, serial against two processes: 129^2 50 -> 53
us (slower), 145^2 60 -> 58 us, 161^2 70 -> 59 us, 193^2 95 -> 65 us, 257^2
165 -> 95 us, 513^2 0.70 -> 0.37 ms, 33^3 108 -> 76 us, 97^3 2.7 -> 1.41 ms;
an empty sweep's round trip costs 16 us. A helper calls no public function of
the package: the benchmark's span tracer (``perfbench/spans.py``) keeps one
stack for the whole process. ``grid.open_team`` imports this module only for
a team with helpers: compiling it costs a millisecond, which a run without
helpers (a ladder's rung, say) or an invocation's set-up would pay for
nothing.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
from typing import NamedTuple

import numpy as np

from . import grid
from .grid import FieldSet, GridError, _plan, _teams


class _Helper(NamedTuple):
    pid: int
    cmd: int  # the write end of its command pipe
    ack: int  # the read end of its answer pipe


class Team(FieldSet):
    """The processes of the block sweeps: the calling one and ``helpers`` (at
    least one) forked ones, over an arena of shared memory with room for
    ``fields`` float64 fields of shape ``nodes``, handed out by ``field``. A
    sweep whose arrays are all fields of the last open team splits its blocks
    among its processes; any other sweep runs in the calling process alone.
    The open teams are kept in ``grid._teams``, as the sweeps deep inside a
    step find them there and a fork must close the child's copies of their
    pipes. The arena is one anonymous shared ``mmap``, made before the helpers
    are forked; it stays mapped as long as an array in it lives, after
    ``close`` too. ``grid.open_team`` makes one when a sweep can use helpers.
    """

    def __init__(self, nodes: tuple[int, ...], fields: int, helpers: int):
        super().__init__(nodes)
        n = math.prod(self.nodes)
        self.procs: list[_Helper] = []
        # by id, each array ``field`` made (kept, so no other array takes its id) and its (offset, shape)
        self._fields: dict[int, tuple[np.ndarray, tuple[int, tuple[int, ...]]]] = {}
        page = mmap.PAGESIZE
        rows = fields * n // grid.CHUNK + helpers + 4  # block rows of a sweep over any array in the arena
        self.arena = mmap.mmap(-1, -(-16 * rows // page) * page + fields * -(-8 * n // page) * page)
        self._free = 0
        self.results = self.field((rows, 2))  # each block's row of extrema or sums
        _teams.append(self)
        try:
            for _ in range(helpers):
                self._fork()
        except BaseException:
            self.close()
            raise

    def field(self, shape: tuple[int, ...] | None = None) -> np.ndarray:
        """A new float64 array of ``shape`` (default: the nodes) in the arena."""
        shape = self.nodes if shape is None else tuple(shape)
        size = 8 * math.prod(shape)
        if self._free + size > len(self.arena):
            raise GridError(f"team arena full: no room for an array of shape {shape}")
        out = np.ndarray(shape, np.float64, self.arena, self._free)
        self._fields[id(out)] = (out, (self._free, shape))
        self._free += -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
        return out

    def share(self, values: np.ndarray) -> np.ndarray:
        """``values`` copied into the arena."""
        out = self.field(values.shape)
        np.copyto(out, values)
        return out

    def refs(self, arrays) -> tuple | None:
        """Each array's (offset, shape) in the arena, None for None; None unless
        every array is one that ``field`` made."""
        refs = []
        for a in arrays:
            if a is None:
                refs.append(None)
            elif id(a) in self._fields:
                refs.append(self._fields[id(a)][1])
            else:
                return None
        return tuple(refs)

    def _fork(self) -> None:
        cmd_r, cmd_w = os.pipe()
        ack_r, ack_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (cmd_r, cmd_w, ack_r, ack_w):
                os.close(fd)
            raise
        if pid == 0:  # the helper leaves only through os._exit, so no caller's cleanup runs twice
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops it by closing its pipe
                os.close(cmd_w)  # else its own command pipe would never reach EOF
                os.close(ack_r)
                _serve(cmd_r, ack_w, self.arena, self.results)
                code = 0
            finally:
                os._exit(code)
        os.close(cmd_r)
        os.close(ack_w)
        self.procs.append(_Helper(pid, cmd_w, ack_r))

    def sweep(self, kernel, plan_args: tuple, refs: tuple, arrays, scalars) -> None:
        """``kernel`` on part t of the plan ``grid._plan(*plan_args)`` in helper t
        (t >= 1) and on part 0 here, over the arrays whose ``refs`` these are;
        returns once every helper has answered."""
        plan = _plan(*plan_args)
        busy = []
        try:
            for t, proc in enumerate(self.procs[: len(plan.parts) - 1], 1):
                msg = pickle.dumps((kernel, plan_args, t, refs, scalars), pickle.HIGHEST_PROTOCOL)
                try:
                    os.write(proc.cmd, len(msg).to_bytes(4, "little") + msg)
                except OSError:
                    raise GridError(f"block sweep helper {proc.pid} has exited") from None
                busy.append(proc)
            kernel(plan.parts[0], arrays, scalars, self.results)
        finally:  # the arrays stay in use until every helper given a part has answered
            failed = [proc.pid for proc in busy if os.read(proc.ack, 1) != b"."]
        if failed:
            raise GridError(f"block sweep helper {failed[0]} failed or exited")

    def close(self) -> None:
        """Stop the helpers (each leaves when its command pipe closes) and reap them."""
        if self in _teams:
            _teams.remove(self)
        procs, self.procs = self.procs, []
        self._fields.clear()
        for proc in procs:
            os.close(proc.cmd)
        for proc in procs:
            os.close(proc.ack)
            try:
                os.waitpid(proc.pid, 0)
            except ChildProcessError:  # reaped elsewhere
                pass


def _forget_teams() -> None:
    """In a forked child: forget the parent's teams and close the child's copies
    of their pipe ends, so that it never talks to their helpers and no helper
    waits for it to close them."""
    for team in _teams:
        for proc in team.procs:
            os.close(proc.cmd)
            os.close(proc.ack)
        team.procs = []
    _teams.clear()


os.register_at_fork(after_in_child=_forget_teams)


def _serve(cmd: int, ack: int, arena, results: np.ndarray) -> None:
    """A helper's loop: per message (kernel, plan arguments, part, array refs,
    scalars), the kernel on its part over the arena's arrays, then one byte,
    b"." when done; until its command pipe reaches EOF. It calls no public
    function of the package: the benchmark's span tracer (``perfbench/spans.py``)
    keeps one stack for the whole process."""
    jobs: dict[bytes, tuple] = {}  # the unpickled messages: a run repeats a few of them
    views: dict = {}
    while msg := os.read(cmd, 1 << 16):
        size = int.from_bytes(msg[:4], "little") + 4
        while len(msg) < size:  # a message longer than the pipe writes at once
            more = os.read(cmd, size - len(msg))
            if not more:
                return
            msg += more
        job = jobs.get(msg)
        if job is None:
            kernel, plan_args, t, refs, scalars = pickle.loads(msg[4:])
            for ref in refs:
                if ref is not None and ref not in views:
                    views[ref] = np.ndarray(ref[1], np.float64, arena, ref[0])
            arrays = tuple(None if ref is None else views[ref] for ref in refs)
            if len(jobs) >= 64:  # a time-dependent transport makes every step's message new
                jobs.clear()
            job = jobs[msg] = (kernel, _plan(*plan_args).parts[t], arrays, scalars)
        kernel, part, arrays, scalars = job
        try:
            kernel(part, arrays, scalars, results)
        except Exception:
            import traceback  # imported here: it costs ~2 ms, and only a failure needs it

            traceback.print_exc()
            os.write(ack, b"!")
        else:
            os.write(ack, b".")
