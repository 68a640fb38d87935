"""Worker processes that run `train`'s per-sample forward and backward
passes and the gradient suite's checks.

Each worker is a fresh interpreter (`python -c "... serve()"`, started with
the parent's `sys.path`) whose BLAS runs on one thread, so the bytes it
computes depend on neither the worker count nor the caller's BLAS settings.
Parent and worker exchange pickled messages over the worker's stdin and
stdout; every request but `end` gets one reply, `(result, exception)`.
Workers are started on first use and kept for later calls; a worker
ignores SIGINT and exits when its stdin reaches end of file, so none
outlives the parent.  A caller interrupted while workers are busy kills
them, and a worker found dead is replaced by the next call.

`starmap` is the stateless request: it calls a module-level function on
each task's arguments, dealing the tasks to the workers as each becomes
free and returning the results in task order.

One `Session` spans one `train` call.  One temporary file, which the
workers map, holds the network's weights, written by the parent before
every step, and the gradient partial sums the workers chain through.  The
network's structure is pickled once per session, with its parameters
replaced by views of that map on the worker side.
Per step the parent hands each worker a consecutive slice of the batch
(`losses`), then walks the workers in order (`gradients`): worker k adds its
per-sample gradients, in sample order, onto the partial sum worker k-1 left
in the map.  That is the order in which `backward` accumulates `.grad` over
the samples of a batch in one process, so the sums are the same bits.
"""

from __future__ import annotations

import atexit
import io
import math
import mmap
import os
import pickle
import select
import signal
import subprocess
import sys
import tempfile

import numpy as np

from .tensor import Tensor, backward, scale, zero_grads

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_SHM = "/dev/shm"  # memory-backed where it exists; the map never touches a disk there

_idle = []  # started workers not in use, reused first


# ---------------------------------------------------------------------------
# parent side


class _Worker:
    def __init__(self):
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env.update({var: "1" for var in _BLAS_THREAD_VARS})
        env["PYTHONPATH"] = os.pathsep.join([package_root] + sys.path)
        self.proc = subprocess.Popen(
            [sys.executable, "-c", "from scdkit.workers import serve; serve()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self.owner = os.getpid()  # a forked child must not talk to its parent's workers

    def send(self, *request):
        self.proc.stdin.write(pickle.dumps(request, pickle.HIGHEST_PROTOCOL))
        self.proc.stdin.flush()

    def recv(self):
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise RuntimeError(f"scdkit worker {self.proc.pid} exited "
                               f"(code {self.proc.wait()})") from None

    def close(self, kill=False):
        if kill:
            self.proc.kill()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:  # the worker is gone and a write was still buffered
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def worker_count(tasks):
    """Workers for `tasks` independent tasks: one per core this process may
    run on, at most one per task."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, tasks))


def _checkout(count):
    """`count` live workers for one caller's exclusive use."""
    taken = []
    while len(taken) < count:
        try:
            w = _idle.pop()
        except IndexError:
            w = _Worker()
        if w.owner != os.getpid():
            continue
        if w.proc.poll() is None:
            taken.append(w)
        else:
            w.close()
    return taken


@atexit.register
def _close_idle():
    while _idle:
        w = _idle.pop()
        if w.owner == os.getpid():
            w.close()


def starmap(fn, tasks):
    """`[fn(*task) for task in tasks]`, each call made on a worker under the
    caller's floating-point error settings.  `fn` must be a module-level
    function, since it is pickled by name, and every task a tuple of
    picklable values.  The tasks go out in order on `worker_count(len(tasks))`
    workers, each to the next worker that is free, and the results come back
    in task order.  If calls raise, the exception of the first such task in
    order reaches the caller once every task before it has finished."""
    tasks = list(tasks)
    results = [None] * len(tasks)
    if not tasks:
        return results
    errstate = np.geterr()
    pool = _checkout(worker_count(len(tasks)))
    free = list(pool)
    running = {}  # a busy worker's stdout -> (worker, task index)
    failed = None  # (task index, exception) of the first failed task so far
    sent = 0
    try:
        while True:
            # every task before a failed one has gone out: tasks go out in order
            while free and sent < len(tasks) and failed is None:
                w = free.pop()
                w.send("call", fn, tasks[sent], errstate)
                running[w.proc.stdout] = (w, sent)
                sent += 1
            if not running:
                break
            for out in select.select(list(running), [], [])[0]:
                w, i = running.pop(out)
                result, error = w.recv()
                free.append(w)
                if error is None:
                    results[i] = result
                elif failed is None or i < failed[0]:
                    failed = (i, error)
    except BaseException:  # a worker may still owe a reply: none goes back to the pool
        for w in pool:
            w.close(kill=True)
        raise
    _idle.extend(pool)
    if failed is not None:
        raise failed[1]
    return results


def _layout(shapes):
    offsets = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
    return offsets, offsets[-1]


def _views(buf, shapes, offsets, base):
    return [buf[base + a:base + b].reshape(s) for s, a, b in zip(shapes, offsets, offsets[1:])]


class Session:
    """`count` workers holding a copy of `net` for `train(net, ..., cfg)`."""

    def __init__(self, net, cfg, count):
        self.params = net.parameters()
        shapes = [p.data.shape for p in self.params]
        offsets, total = _layout(shapes)
        self.at = [8 * a for a in offsets[:-1]]  # byte offset of each weight; partials follow
        self.partial_at = 8 * total
        self.fd, path = tempfile.mkstemp(prefix="scdkit-train-",
                                         dir=_SHM if os.path.isdir(_SHM) else None)
        self.workers = []
        try:
            nbytes = max(2 * total, 1) * 8
            os.ftruncate(self.fd, nbytes)
            self._write_weights()
            for p in self.params:
                p.grad = None  # `gradients` refills only arrays this session made
            structure = _dumps_net(net, self.params)
            self.workers = _checkout(count)
            self._ask_all(self.workers, "begin", path, nbytes, shapes, structure, cfg, np.geterr())
        except BaseException:
            self.close(broken=True)
            raise
        finally:
            os.unlink(path)  # every worker has mapped it, or given up
        self.used = []

    def _write_weights(self):
        # file writes, not a map of our own: the shared pages stay out of this
        # process's resident set
        for p, at in zip(self.params, self.at):
            data = np.ascontiguousarray(p.data)
            if os.pwrite(self.fd, data, at) != data.nbytes:
                raise OSError(f"short write to the training map at byte {at}")

    def _ask_all(self, workers, *request):
        """Send `request` to every worker, then collect the replies in order and
        raise the first worker's exception, if any."""
        for w in workers:
            w.send(*request)
        replies = [w.recv() for w in workers]
        for _, error in replies:
            if error is not None:
                raise error
        return [result for result, _ in replies]

    def losses(self, pairs):
        """Forward and backward every pair on the workers, under the current
        weights, with each loss scaled by 1/len(pairs).  Returns the reports
        in pair order up to the first failure, and the exception a worker
        raised there or None; a non-finite report also ends the list."""
        n = len(pairs)
        self.used = self.workers[:min(len(self.workers), n)]
        k = len(self.used)
        try:
            self._write_weights()
            for i, w in enumerate(self.used):
                w.send("step", pairs[n * i // k:n * (i + 1) // k], n, i == 0)
            replies = [w.recv() for w in self.used]
        except BaseException:
            self.close(broken=True)
            raise
        reports = []
        for result, error in replies:
            if error is not None:
                return reports, error
            done, finite = result
            reports += done
            if not finite:
                break
        return reports, None

    def gradients(self):
        """Set each parameter's `.grad` to the sum of the last `losses` call's
        per-sample gradients, added in sample order; None where no sample
        reached the parameter.  The arrays of the step before are refilled,
        which spares the optimizer step fresh pages."""
        present = [False] * len(self.params)
        try:
            for w in self.used:
                present = self._ask_all([w], "reduce", present)[0]
        except BaseException:
            self.close(broken=True)
            raise
        for p, at, have in zip(self.params, self.at, present):
            grad, p.grad = p.grad, None
            if have:
                p.grad = grad if grad is not None else np.empty(p.data.shape)
                if os.preadv(self.fd, [p.grad], self.partial_at + at) != p.grad.nbytes:
                    raise OSError(f"short read from the training map at byte {at}")

    def close(self, broken=False):
        """Hand the workers back to the pool; kill them if the protocol broke."""
        workers, self.workers = self.workers, []
        for w in workers:
            if broken:
                w.close(kill=True)
                continue
            try:
                w.send("end")
            except OSError:
                w.close(kill=True)
                continue
            _idle.append(w)
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _dumps_net(net, params):
    """`net` pickled with each of `params` replaced by its index."""
    ids = {id(p): j for j, p in enumerate(params)}
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = lambda obj: ids.get(id(obj))
    pickler.dump(net)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# worker side


class _State:
    """One session's copy of the network, its map and the held gradients."""

    def __init__(self, path, nbytes, shapes, structure, cfg, errstate):
        np.seterr(**errstate)
        with open(path, "r+b") as f:
            buf = np.frombuffer(mmap.mmap(f.fileno(), nbytes), np.float64)
        offsets, total = _layout(shapes)
        weights = _views(buf, shapes, offsets, 0)
        for view in weights:
            view.flags.writeable = False
        self.partial = _views(buf, shapes, offsets, total)
        self.params = [Tensor(view, requires_grad=True) for view in weights]
        unpickler = pickle.Unpickler(io.BytesIO(structure))
        unpickler.persistent_load = self.params.__getitem__
        self.net = unpickler.load()
        self.cfg = cfg
        self.grads = []  # per sample of the last step: each parameter's gradient or None

    def step(self, pairs, n, first):
        """Losses and gradients of `pairs`, each loss scaled by 1/n.  The worker
        holding the batch's first sample lets `backward` accumulate its
        samples' gradients, which is that chain's start; the others keep each
        sample's gradients apart for `reduce`."""
        from .train import sample_loss  # train imports this module on first use

        zero_grads(self.params)
        self.grads = []
        reports = []
        for pair in pairs:
            loss, report = sample_loss(self.net, pair, self.cfg)[:2]
            reports.append(report)
            if not math.isfinite(report.l_total):
                return reports, False
            backward(scale(loss, 1.0 / n))
            del loss  # frees this sample's graph before the next one is built
            if not first:
                self.grads.append([p.grad for p in self.params])
                zero_grads(self.params)
        if first:
            self.grads = [[p.grad for p in self.params]]
            zero_grads(self.params)
        return reports, True

    def reduce(self, present):
        for grads in self.grads:
            for j, g in enumerate(grads):
                if g is None:
                    continue
                if present[j]:
                    np.add(self.partial[j], g, out=self.partial[j])
                else:
                    np.copyto(self.partial[j], g)
                    present[j] = True
        self.grads = []
        return present


def _reply(out, result, error):
    try:
        data = pickle.dumps((result, error), pickle.HIGHEST_PROTOCOL)
    except Exception:  # an exception that cannot travel: send its type and message
        data = pickle.dumps((None, RuntimeError(f"{type(error).__name__}: {error}")))
    out.write(data)
    out.flush()


def serve():
    """Answer requests on stdin until it closes; protocol replies go to the
    original stdout, anything else a worker prints goes to stderr."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests = os.fdopen(os.dup(0), "rb")
    out = os.fdopen(os.dup(1), "wb")
    devnull = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull, 0)
    os.close(devnull)
    os.dup2(2, 1)
    state = None
    while True:
        try:
            kind, *args = pickle.load(requests)
        except EOFError:
            return
        if kind == "end":
            state = None  # drops the network and unmaps the session's file
            continue
        try:
            if kind == "call":
                fn, call_args, errstate = args
                with np.errstate(**errstate):
                    result = fn(*call_args)
            elif kind == "begin":
                state = None
                state = _State(*args)
                result = None
            else:
                result = getattr(state, kind)(*args)
        except Exception as e:
            _reply(out, None, e)
        else:
            _reply(out, result, None)
