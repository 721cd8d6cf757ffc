"""The worker processes of a refinement sweep, forked by the sweep itself.

``checks.sweep`` runs each distinct rung as one job, its run and its offline
checks. On more than one CPU it hands the jobs to ``run_jobs``, which forks
up to ``workers`` processes directly (no process pool, and no
``multiprocessing`` or ``concurrent`` import) and keeps them busy: the first
free worker takes the next job, and the jobs come largest rung first. The
fork, pipe and reap conventions are ``team.Team``'s: stdout and stderr are
flushed before each fork, each worker has a command pipe (a 4-byte job
index per job, EOF to leave) and a result pipe (the job's result, pickled
behind its 4-byte length), ignores SIGINT (its parent stops it), closes its
copies of the other workers' pipe ends and leaves only through
``os._exit``, so no cleanup of the parent runs twice. Once no job waits,
every worker's command pipe is closed, and each leaves after its current
job while the others still run: at the end only the last one's exit is
waited for.

A worker that ends while it runs a job (killed, say) leaves that rung
FAILED, with one stderr line that names its pid, its rungs and how it
ended, and the other rungs still run. Every worker is reaped before
``run_jobs`` returns, also after an error. ``checks.sweep`` imports this
module only when it forks workers: compiling it costs about a millisecond,
which every other invocation, and every invocation's set-up, would pay for
nothing.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
from dataclasses import dataclass, field


@dataclass
class _Worker:
    pid: int
    cmd: int  # the write end of its command pipe; -1 once closed
    res: int  # the read end of its result pipe
    job: int | None = None  # the index of the job it runs; None while it waits
    given: list[int] = field(default_factory=list)  # every job it was given, in order

    def release(self) -> None:
        """Close its command pipe: it leaves once its current job is done."""
        if self.cmd >= 0:
            os.close(self.cmd)
            self.cmd = -1


def run_jobs(jobs: list[tuple[str, str]], workers: int, cpus: int, run, failed) -> list:
    """``run(job)`` for each of ``jobs`` (a rung's config text and directory), on up
    to ``workers`` forked workers with ``cpus`` CPUs each (``ACTX_THREADS``); a
    new worker is forked while jobs wait and fewer than ``workers`` live. A job
    whose worker ends before sending its result gets ``failed(job, line)``,
    with the stderr line that says so. Returns the results in the jobs' order."""
    results: list = [None] * len(jobs)
    pending = list(range(len(jobs)))
    live: dict[int, _Worker] = {}  # by the read end of the result pipe
    try:
        while pending or any(w.job is not None for w in live.values()):
            idle = [w for w in live.values() if w.job is None]
            while pending and (idle or len(live) < workers):
                if idle:
                    w = idle.pop(0)
                else:
                    w = _fork(jobs, cpus, run, live.values())
                    live[w.res] = w
                w.job = pending.pop(0)
                w.given.append(w.job)
                try:
                    os.write(w.cmd, w.job.to_bytes(4, "little"))
                except OSError:  # the worker has ended: its result pipe reaches EOF below
                    pass
            if not pending:
                for w in live.values():
                    w.release()
            ready, _, _ = select.select([w.res for w in live.values() if w.job is not None], [], [])
            for fd in ready:
                w = live[fd]
                result = _read_result(fd)
                if result is None:
                    del live[fd]
                    w.release()
                    os.close(w.res)
                    how = _ended(os.waitpid(w.pid, 0)[1])
                    rungs = ", ".join(jobs[j][1] for j in w.given)
                    result = failed(jobs[w.job], f"rung failed: sweep worker {w.pid} {how} while running "
                                    f"{jobs[w.job][1]} (its rungs: {rungs})")
                results[w.job] = result
                w.job = None
    finally:
        for w in live.values():
            if w.job is not None:  # only after an error: stop the job it runs
                os.kill(w.pid, signal.SIGKILL)
            w.release()  # a waiting worker leaves at EOF
            os.close(w.res)
        for w in live.values():
            os.waitpid(w.pid, 0)
    return results


def _fork(jobs: list, cpus: int, run, others) -> _Worker:
    """A forked worker that serves ``jobs`` with ``run`` (``_serve``). ``others``
    are the workers already forked: the child closes its copies of their pipe
    ends, so that each of their command pipes reaches EOF when the parent
    closes it."""
    cmd_r, cmd_w = os.pipe()
    res_r, res_w = os.pipe()
    # text still buffered here would be written by the child too, if it ever flushed
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError:
        for fd in (cmd_r, cmd_w, res_r, res_w):
            os.close(fd)
        raise
    if pid == 0:  # the worker leaves only through os._exit, so no caller's cleanup runs twice
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops it
            for fd in [cmd_w, res_r] + [fd for w in others for fd in (w.cmd, w.res)]:
                os.close(fd)
            os.environ["ACTX_THREADS"] = str(cpus)  # its share of the budget (grid.cpu_budget)
            _serve(jobs, run, cmd_r, res_w)
            code = 0
        except Exception:  # os._exit below skips the interpreter's own report
            import traceback  # imported here: only a failure needs it

            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(cmd_r)
    os.close(res_w)
    return _Worker(pid, cmd_w, res_r)


def _serve(jobs: list, run, cmd: int, res: int) -> None:
    """A worker's loop: per job index read from ``cmd`` (4 bytes), ``run(job)``
    pickled to ``res`` behind its 4-byte length; until ``cmd`` reaches EOF."""
    while msg := os.read(cmd, 4):
        data = pickle.dumps(run(jobs[int.from_bytes(msg, "little")]), pickle.HIGHEST_PROTOCOL)
        view = memoryview(len(data).to_bytes(4, "little") + data)
        while view:
            view = view[os.write(res, view):]


def _read_result(fd: int):
    """A worker's next result from its result pipe; None at EOF, when the worker
    has ended before sending it whole."""
    data = b""
    while len(data) < 4 or len(data) < 4 + int.from_bytes(data[:4], "little"):
        more = os.read(fd, 1 << 16)
        if not more:
            return None
        data += more
    return pickle.loads(data[4:])


def _ended(status: int) -> str:
    """How a process with the wait status ``status`` ended."""
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        return f"was killed by signal {sig} ({signal.Signals(sig).name})"
    return f"exited with code {os.waitstatus_to_exitcode(status)}"
