"""Every process an invocation forks: the block sweeps' helpers and a sweep's workers.

``_fork_child`` forks both, over two pipes made before the fork (commands
in, answers out), with stdout and stderr flushed first. The child ignores
SIGINT (its parent closes its command pipe, or kills it) and leaves only
through ``os._exit``, so no cleanup of the parent runs twice. At any fork,
the child closes its copies of the live children's pipe ends and forgets
them and the open teams (``_forget``), so each command pipe reaches EOF when
the parent closes it. Longer messages are frames, a 4-byte length and the
bytes (``_send``, ``_recv``); ``_reap`` closes the pipes and waits.

A block sweep of at least ``grid.PROC_NODES`` interior nodes (24 Ki: 161^2
or 31^3 and up) whose arrays are all fields of the open ``Team`` (in one
anonymous shared ``mmap``) splits its blocks, whole axis-0 slabs each, among
the caller and the team's helpers (``grid.helper_count()``, each with at
least 12 Ki nodes): one frame to each helper, the caller's own part, then
each helper's one-byte answer. Every output has the serial bits. Threads
gained nothing (the Python between numpy calls holds the GIL). On a 2-CPU
host one ``stencil_rhs`` call took, serial against two processes, 129^2 50
-> 53 us, 257^2 165 -> 95 us, 97^3 2.7 -> 1.41 ms; an empty sweep's round
trip costs 16 us. A helper calls no public function of the package: the
benchmark's span tracer keeps one stack per process.

``run_jobs`` runs a refinement sweep's rungs (``checks.sweep``) on up to one
forked worker per CPU, with no process pool; a worker that ends inside a job
leaves that rung FAILED. Only an invocation that forks imports this module
(``grid.open_team``, ``checks.sweep``).
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import select
import signal
import sys

import numpy as np

from . import grid
from .grid import FieldSet, GridError, _plan, _teams


class _Child:
    """A forked child and the parent's ends of its pipes: ``cmd``, the write end
    of its command pipe (-1 once closed), and ``ack``, the read end of its answer pipe."""

    def __init__(self, pid: int, cmd: int, ack: int):
        self.pid, self.cmd, self.ack = pid, cmd, ack

    def release(self) -> None:
        """Close its command pipe: it leaves once it has answered the last command."""
        if self.cmd >= 0:
            os.close(self.cmd)
            self.cmd = -1


# The children forked here and not yet reaped.
_live: list[_Child] = []


def _fork_child(serve, *args) -> _Child:
    """A forked child that runs ``serve(cmd, ack, *args)`` on the read end of a new
    command pipe and the write end of a new answer pipe, then leaves; with a
    traceback on stderr and exit code 1 if ``serve`` raised."""
    cmd_r, cmd_w = os.pipe()
    ack_r, ack_w = os.pipe()
    # text still buffered here would be written by the child too, if it ever flushed
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError:
        for fd in (cmd_r, cmd_w, ack_r, ack_w):
            os.close(fd)
        raise
    if pid == 0:  # the child leaves only through os._exit, so no cleanup of the parent runs twice
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops it
            os.close(cmd_w)  # else its own command pipe would never reach EOF
            os.close(ack_r)
            serve(cmd_r, ack_w, *args)
            code = 0
        except Exception:  # os._exit below skips the interpreter's own report
            import traceback  # imported here: it costs ~2 ms, and only a failure needs it

            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(cmd_r)
    os.close(ack_w)
    child = _Child(pid, cmd_w, ack_r)
    _live.append(child)
    return child


def _forget() -> None:
    """In a forked child: close its copies of the live children's pipe ends and
    forget them and the teams, so that it never talks to them or holds a pipe open."""
    for fd in [fd for child in _live for fd in (child.cmd, child.ack) if fd >= 0]:
        os.close(fd)
    _live.clear()
    for team in _teams:
        team.procs = []
    _teams.clear()


os.register_at_fork(after_in_child=_forget)


def _reap(children) -> list[int | None]:
    """Close every command pipe of ``children`` (so that they all leave at once),
    then each answer pipe, and wait for each: their wait statuses (None: reaped elsewhere)."""
    for child in children:
        child.release()
    statuses = []
    for child in children:
        os.close(child.ack)
        _live.remove(child)
        try:
            statuses.append(os.waitpid(child.pid, 0)[1])
        except ChildProcessError:
            statuses.append(None)
    return statuses


def _ended(status: int | None) -> str:
    """How a process with the wait status ``status`` ended."""
    if status is None:
        return "was reaped elsewhere"
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        return f"was killed by signal {sig} ({signal.Signals(sig).name})"
    return f"exited with code {os.waitstatus_to_exitcode(status)}"


def _send(fd: int, data: bytes) -> None:
    """``data`` as one frame on ``fd``: its 4-byte length, then the bytes."""
    view = memoryview(len(data).to_bytes(4, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _recv(fd: int) -> bytes | None:
    """The bytes of the next frame on ``fd``, the only one in flight on its pipe
    (its sender waits for an answer); None at EOF, also in mid-frame."""
    data = b""
    while len(data) < 4 or len(data) < 4 + int.from_bytes(data[:4], "little"):
        more = os.read(fd, 1 << 16)
        if not more:
            return None
        data += more
    return data[4:]


class Team(FieldSet):
    """The processes of the block sweeps: the calling one and ``helpers`` (at
    least one) forked ones, over an arena of shared memory with room for
    ``fields`` float64 fields of shape ``nodes`` (``field``), mapped as long as
    an array in it lives. The open teams are kept in ``grid._teams``."""

    def __init__(self, nodes: tuple[int, ...], fields: int, helpers: int):
        super().__init__(nodes)
        n = math.prod(self.nodes)
        self.procs: list[_Child] = []
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
        self.procs.append(_fork_child(_serve, self.arena, self.results))

    def sweep(self, kernel, plan_args: tuple, refs: tuple, arrays, scalars) -> None:
        """``kernel`` on part t of the plan ``grid._plan(*plan_args)`` in helper t
        (t >= 1) and on part 0 here, over the arrays whose ``refs`` these are;
        returns once every helper has answered."""
        plan = _plan(*plan_args)
        busy = []
        try:
            for t, proc in enumerate(self.procs[: len(plan.parts) - 1], 1):
                try:
                    _send(proc.cmd, pickle.dumps((kernel, plan_args, t, refs, scalars), pickle.HIGHEST_PROTOCOL))
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
        _reap(procs)


def _serve(cmd: int, ack: int, arena, results: np.ndarray) -> None:
    """A helper's loop: per frame (kernel, plan arguments, part, array refs,
    scalars), the kernel on its part over the arena's arrays, then the byte
    b"."; until its command pipe reaches EOF. A kernel that raises ends the
    helper (``_fork_child``), and the caller's sweep raises ``GridError``."""
    jobs: dict[bytes, tuple] = {}  # the unpickled messages: a run repeats a few of them
    views: dict = {}
    while (msg := _recv(cmd)) is not None:
        job = jobs.get(msg)
        if job is None:
            kernel, plan_args, t, refs, scalars = pickle.loads(msg)
            for ref in refs:
                if ref is not None and ref not in views:
                    views[ref] = np.ndarray(ref[1], np.float64, arena, ref[0])
            arrays = tuple(None if ref is None else views[ref] for ref in refs)
            if len(jobs) >= 64:  # a time-dependent transport makes every step's message new
                jobs.clear()
            job = jobs[msg] = (kernel, _plan(*plan_args).parts[t], arrays, scalars)
        kernel, part, arrays, scalars = job
        kernel(part, arrays, scalars, results)
        os.write(ack, b".")


def run_jobs(jobs: list[tuple[str, str]], workers: int, cpus: int, run, failed) -> list:
    """``run(job)`` for each of ``jobs`` (a rung's config text and directory), on up
    to ``workers`` forked workers with ``cpus`` CPUs each (``ACTX_THREADS``); a
    new worker is forked while jobs wait and fewer than ``workers`` live. A job
    whose worker ends before sending its result gets ``failed(job, line)``,
    with the stderr line that says so. Returns the results in the jobs' order."""
    results: list = [None] * len(jobs)
    pending = list(range(len(jobs)))
    idle: list[_Child] = []
    busy: dict[int, tuple[_Child, int]] = {}  # by the read end of its answer pipe: a worker and its job
    given: dict[int, list[int]] = {}  # by pid: every job a worker was given, in order
    try:
        while pending or busy:
            while pending and (idle or len(idle) + len(busy) < workers):
                w = idle.pop(0) if idle else _fork_child(_serve_jobs, jobs, run, cpus)
                j = pending.pop(0)
                busy[w.ack] = (w, j)
                given.setdefault(w.pid, []).append(j)
                try:
                    _send(w.cmd, j.to_bytes(4, "little"))
                except OSError:  # the worker has ended: its answer pipe reaches EOF below
                    pass
            if not pending:
                for w in idle + [w for w, _ in busy.values()]:
                    w.release()
            for fd in select.select(list(busy), [], [])[0]:
                w, j = busy[fd]
                data = _recv(fd)
                if data is None:
                    del busy[fd]
                    how = _ended(_reap([w])[0])
                    rungs = ", ".join(jobs[i][1] for i in given[w.pid])
                    results[j] = failed(jobs[j], f"rung failed: sweep worker {w.pid} {how} while running "
                                        f"{jobs[j][1]} (its rungs: {rungs})")
                else:
                    results[j] = pickle.loads(data)
                    del busy[fd]
                    idle.append(w)
    finally:
        for w, _ in busy.values():  # only after an error: stop the job it runs
            os.kill(w.pid, signal.SIGKILL)
        _reap(idle + [w for w, _ in busy.values()])  # a waiting worker leaves at EOF
    return results


def _serve_jobs(cmd: int, res: int, jobs: list, run, cpus: int) -> None:
    """A worker's loop: per job index, ``run(job)`` pickled back; until EOF."""
    os.environ["ACTX_THREADS"] = str(cpus)  # its share of the budget (grid.cpu_budget)
    while (msg := _recv(cmd)) is not None:
        _send(res, pickle.dumps(run(jobs[int.from_bytes(msg, "little")]), pickle.HIGHEST_PROTOCOL))
