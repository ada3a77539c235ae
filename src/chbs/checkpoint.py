"""The text checkpoint format, and a writer process that streams it.

A checkpoint file holds one block per recorded state::

    state <n> <t>
    <phi>
    <mu>
    <psi>
    <w>

each row one line of space-separated ``%.17g`` values, so that a file
reads back bit-exactly.  Printing 17-digit floats costs about a
microsecond per value, as much as a step's solves on a desk mesh, so a
run does not print them itself: :class:`Stream` is a run hook that sends
the raw float64 bytes of each block through a pipe to a child process
running this file, which formats and writes them while the solver goes
on.  The child writes a block only after all of its bytes have arrived,
and flushes it, so a run that crashes or is interrupted leaves only
complete blocks.

This module imports only the standard library and nothing of chbs, so
the child starts as ``python -I -S <this file> <path>`` without numpy.
"""

import os
import signal
import struct
import sys

FIELDS = ("phi", "mu", "psi", "w")
# block header on the pipe: step, time and the length of each row; the
# rows follow as native float64
_HEADER = struct.Struct("=qd%dq" % len(FIELDS))


def format_block(n, t, rows):
    """The text of one block: ``state n t``, then one line per row."""
    lines = ["state %d %.17g" % (n, t)]
    lines += [" ".join(["%.17g"] * len(row)) % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


def encode_block(n, t, rows):
    """The bytes of one block on the pipe; ``rows`` are float64 arrays."""
    return b"".join([_HEADER.pack(n, t, *map(len, rows))]
                    + [row.tobytes() for row in rows])


def write_blocks(src, out):
    """Format the blocks read from binary ``src`` onto text ``out``.

    Each block is written and flushed once all of its bytes are read.
    Returns 0 when ``src`` ends between blocks and 1 when it ends inside
    one, whose bytes are then dropped.
    """
    while True:
        head = src.read(_HEADER.size)
        if not head:
            return 0
        if len(head) < _HEADER.size:
            return 1
        n, t, *sizes = _HEADER.unpack(head)
        body = src.read(8 * sum(sizes))
        if len(body) < 8 * sum(sizes):
            return 1
        values = memoryview(body).cast("d")
        rows, start = [], 0
        for size in sizes:
            rows.append(values[start:start + size].tolist())
            start += size
        out.write(format_block(n, t, rows))
        out.flush()


class Stream:
    """Run hook that streams every ``stride``-th state to ``path``.

    The writer process starts at the first block.  :meth:`close` ends the
    stream and waits for the writer; use the stream as a context manager
    so that the writer never outlives the run.  A broken pipe or a writer
    that fails raises :class:`OSError` naming ``path``.
    """

    def __init__(self, path, stride=1):
        self.path = os.fspath(path)
        self.stride = stride
        self._proc = None

    def __call__(self, state, report):
        if state.n % self.stride:
            return
        if self._proc is None:
            self._proc = self._start()
        block = encode_block(state.n, state.t,
                             [getattr(state, name) for name in FIELDS])
        try:
            self._proc.stdin.write(block)
            self._proc.stdin.flush()
        except BrokenPipeError:
            raise OSError("checkpoint writer for %s stopped" % self.path) \
                from None

    def _start(self):
        # only the parent imports these; the writer starts without them
        import fcntl
        import subprocess
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.abspath(__file__),
             self.path], stdin=subprocess.PIPE)
        try:
            # room for about ten desk-mesh blocks, so that the run seldom
            # waits for the writer; the default 64 KiB holds less than one
            fcntl.fcntl(proc.stdin.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)
        except (AttributeError, OSError):
            pass  # not Linux, or above the user's pipe limit: runs slower
        return proc

    def close(self):
        """Close the pipe and wait for the writer to finish its blocks."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the writer is gone; its exit status says why
        if proc.wait() != 0:
            raise OSError("checkpoint writer for %s exited with status %d"
                          % (self.path, proc.returncode))

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        try:
            self.close()
        except OSError:
            if kind is None:
                raise
            # else the error that ended the run is the one to report


def main(argv):
    """Writer process: blocks from stdin to the file ``argv[1]``."""
    # Ctrl-C reaches the whole process group; the parent closes the pipe
    # and the writer finishes the blocks it has
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        out = open(argv[1], "w", encoding="utf-8")
    except OSError as exc:
        print("checkpoint writer: %s" % exc, file=sys.stderr)
        return 2
    with out:
        return write_blocks(sys.stdin.buffer, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
