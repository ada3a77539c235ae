"""The text checkpoint format, and a writer process that streams it.

A checkpoint file holds one block per recorded state::

    state <n> <t>
    <phi>
    <mu>
    <psi>
    <w>

each row one line of space-separated ``%.17g`` values, so that a file
reads back bit-exactly.  Python's ``%`` prints a 17-digit float in about
half a microsecond, per row or per value, so :func:`print_block` prints
the four rows of a block in one call of an exact vectorized kernel, in
about half that, newlines included, as the bytes that are written.  A
run does not print even so.  A command starts one child process running
this file (:class:`Writer`) before its own work, and every checkpoint
file of the command goes through it: :class:`Stream` is a run hook that
sends the raw float64 bytes of each block, with the path of its file,
through the shared pipe, and the child prints and writes them while the
solvers go on.  The child opens a file at its first block, and writes a
block only after all of its bytes have arrived, and flushes it, so a run
that crashes or is interrupted leaves only complete blocks.

The child runs with glibc's malloc thresholds fixed above the kernel's
buffers (``_MALLOC_ENV``): with the defaults it returns the ~2 MB of each
desk block to the OS and faults it in again: about 47k minor faults for
a 100-step desk run, against about 5k with them (glibc 2.36, x86-64).

This module imports numpy and the standard library, nothing of chbs or
scipy.  The child starts as ``python -I -S <this file> <dir>``
(:func:`writer_command`), without ``site``; ``<dir>`` is the directory
that holds the parent's numpy, so that it loads the same one.
"""

import os
import signal
import struct
import sys

if __name__ == "__main__":
    # the writer process.  Ctrl-C reaches the whole process group; the
    # parent closes the pipe and the writer finishes the blocks it has.
    # It starts without site, and its first argument is the directory
    # that holds the parent's numpy (see writer_command).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sys.path.append(sys.argv[1])

import numpy as np

FIELDS = ("phi", "mu", "psi", "w")
# message header on the pipe: kind, the length of the path, then for a
# block its step, time and the length of each row (zeros for a close);
# the path follows, then the rows as native float64
_HEADER = struct.Struct("=cIqd%dq" % len(FIELDS))
_BLOCK, _CLOSE = b"B", b"C"
# the writer answers a close with the length of a reason, then the reason,
# UTF-8: empty when the file was written whole
_REPLY = struct.Struct("=I")
# glibc's malloc thresholds in the writer's environment, above a desk
# block's kernel buffers, so that the writer keeps their pages
_MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432",
               "MALLOC_TRIM_THRESHOLD_": "67108864"}

# the decimal exponents k = floor(log10|x|) that _print certifies:
# those of 1e-280 <= |x| <= 1e280, where every product below stays clear
# of underflow and overflow
_K_MIN, _K_MAX = -281, 280
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitting constant
# _print lays out one value per column of a byte array, in these
# rows: sign, "0." and three leading zeros, 17 digits with a point slot
# after each of the first 16, "e", the exponent's sign and three digits,
# and the separator
_DIGIT = 6
_EXP = _DIGIT + 33
_WIDTH = _EXP + 6
_J = np.arange(17, dtype=np.int8)[:, None]  # digit index, as a column


def _split(a):
    """Dekker's split of ``a`` into halves of at most 26 bits each."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10(p):
    """The double nearest to 10^p, and 10^p minus it as the integer pair
    (numerator, denominator)."""
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    h = num / den  # int / int rounds correctly
    a, b = h.as_integer_ratio()
    return h, (num * b - a * den, den * b)


def _tables():
    """The smallest double >= 10^k for k in [_K_MIN, _K_MAX + 1], and for
    k in [_K_MIN, _K_MAX] 10^(16-k) as the sum hi + lo of two doubles,
    with hi split."""
    thresh = []
    for k in range(_K_MIN, _K_MAX + 2):
        h, (rest, _) = _pow10(k)
        thresh.append(h if rest <= 0 else np.nextafter(h, np.inf))
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        h, (rest, den) = _pow10(16 - k)
        hi.append(h)
        lo.append(rest / den)
    hi = np.array(hi)
    return (np.array(thresh), hi) + _split(hi) + (np.array(lo),)


_THRESH, _POW_HI, _POW_HH, _POW_HL, _POW_LO = _tables()


def _print(values, sizes):
    """The lines of float64 ``values`` cut into rows of ``sizes``, as
    bytes: each row its values printed by ``%.17g`` and separated by
    spaces, and a newline, also after an empty row.

    Vectorized and exact.  With k = floor(log10|x|), read off a table of
    powers of ten, d = round(|x| 10^(16-k)) comes from Dekker's exact
    two-product (Numer. Math. 18, 1971) of |x| with 10^(16-k) held as a
    pair of doubles, which gives |x| 10^(16-k) < 10^17 to about 2^-47.
    The sign, the 17 digits of d, the point, the exponent and the
    separator go into one fixed-width byte array, a column per value,
    with NUL in every unused slot and for the trailing zeros, and one
    ``bytes.translate`` drops the NULs.  Each row ends in a blank column
    whose separator is the newline, so the last value of a row has none;
    ±0 is laid out as d = 0, k = 0.  A value the kernel cannot certify is
    printed by ``%.17g`` itself: non-finite, |x| outside [1e-280, 1e280]
    but not zero, or a fraction of |x| 10^(16-k) within 2^-30 of one
    half (a possible tie).
    """
    ends = np.cumsum(sizes)
    x = np.insert(values, ends, 0.0)
    blank = ends + np.arange(len(ends))  # the column that ends each row
    n = x.size
    a = np.abs(x)
    zero = a == 0.0
    sure = zero | ((a >= 1e-280) & (a <= 1e280))  # False for NaN
    a[~sure | zero] = 1.0
    # the float log10 may be one off next to a power of ten
    guess = np.floor(np.log10(a)).astype(np.intp) - _K_MIN
    i = guess + (a >= _THRESH[guess + 1])
    i -= a < _THRESH[guess]
    # |x| 10^(16-k) = p + e, exact up to the rounding of a * lo; p >=
    # 10^16 > 2^53 is an integer
    ah, al = _split(a)
    hh, hl = _POW_HH[i], _POW_HL[i]
    p = a * _POW_HI[i]
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * _POW_LO[i]
    whole = np.floor(e)
    frac = e - whole
    sure &= np.abs(frac - 0.5) >= 2.0 ** -30
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    d[zero] = 0
    k = (i + _K_MIN).astype(np.int16) + carry  # exponent of the result

    # d is digit 0 and two halves of eight digits, small enough for
    # uint32, whose division is much faster than int64's.  In each half,
    # digit j is q_j - 10 q_{j-1} for the prefixes q_j = half // 10^(8-j),
    # taken mod 256
    top = d // 10 ** 16
    rest = d - top * 10 ** 16
    upper = rest // 10 ** 8
    q = np.empty((17, n), np.uint32)
    q[0] = top
    q[8] = upper
    q[16] = rest - upper * 10 ** 8
    for j in range(1, 8):
        np.floor_divide(q[8::8], np.uint32(10 ** (8 - j)), out=q[j::8])
    digits = q.astype(np.uint8)
    digits[2:9] -= np.uint8(10) * digits[1:8]
    digits[10:] -= np.uint8(10) * digits[9:16]
    last = ((digits != 0) * _J).max(axis=0)  # the last nonzero digit
    fixed = (k >= -4) & (k < 17)
    small = fixed & (k < 0)  # printed as 0.000ddd
    # the digit after which the point goes (-1: before the first; 16:
    # nowhere), and the last digit printed
    point = np.where(fixed, np.maximum(k, -1), 0).astype(np.int8)
    shown = np.maximum(last, point)

    out = np.zeros((_WIDTH, n), np.uint8)
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    out[1] = small * np.uint8(ord("0"))
    out[2] = small * np.uint8(ord("."))
    for j in range(3):
        out[3 + j] = (small & (j < -k - 1)) * np.uint8(ord("0"))
    out[_DIGIT:_EXP:2] = (_J <= shown) * (digits + np.uint8(ord("0")))
    out[_DIGIT + 1:_EXP:2] = ((_J[:16] == point) & (last > point)) \
        * np.uint8(ord("."))
    sci = ~fixed
    ak = np.abs(k)
    out[_EXP] = sci * np.uint8(ord("e"))
    out[_EXP + 1] = sci * np.where(k < 0, np.uint8(ord("-")),
                                   np.uint8(ord("+")))
    out[_EXP + 2] = (sci & (ak >= 100)) * (ord("0") + ak // 100)
    out[_EXP + 3] = sci * (ord("0") + ak // 10 % 10)
    out[_EXP + 4] = sci * (ord("0") + ak % 10)
    # a space after each value but a row's last, a newline in each blank
    # (the column before the blank of an empty row is a blank too, the
    # last one when the row is the first)
    out[-1] = ord(" ")
    out[-1, blank - 1] = 0
    out[:, blank] = 0
    out[-1, blank] = ord("\n")
    for m in np.flatnonzero(~sure):
        text = ("%.17g" % x[m]).encode("ascii")
        out[:-1, m] = 0
        out[:len(text), m] = np.frombuffer(text, np.uint8)
    return out.T.tobytes().translate(None, b"\0")


def print_block(n, t, values, sizes):
    """The bytes of one block: ``state n t``, then the float64 ``values``
    cut into rows of ``sizes``, one line each, in one kernel call."""
    return b"state %d %.17g\n" % (n, t) + _print(values, sizes)


def format_block(n, t, rows):
    """The text of one block: ``state n t``, then one line per row."""
    rows = [np.asarray(row, dtype=np.float64).ravel() for row in rows]
    return print_block(n, t, np.concatenate(rows),
                       [row.size for row in rows]).decode("ascii")


def writer_command():
    """The command line of a writer process.

    ``-I -S`` keeps the user's environment and ``site`` out of the
    child; the directory of the parent's numpy stands in for them.  The
    child reads messages on stdin and answers closes on stdout; the
    blocks name their files.
    """
    return [sys.executable, "-I", "-S", os.path.abspath(__file__),
            os.path.dirname(os.path.dirname(np.__file__))]


def encode_block(path, n, t, rows):
    """The bytes on the pipe of one block of the file ``path``; ``rows``
    are sent as float64, whatever their type."""
    name = os.fsencode(path)
    rows = [np.asarray(row, dtype=np.float64) for row in rows]
    return b"".join([_HEADER.pack(_BLOCK, len(name), n, t,
                                  *[row.size for row in rows]),
                     name] + [row.tobytes() for row in rows])


def encode_close(path):
    """The bytes on the pipe that close the file ``path``."""
    name = os.fsencode(path)
    return _HEADER.pack(_CLOSE, len(name), 0, 0.0,
                        *[0] * len(FIELDS)) + name


def _close(out):
    """Close the file ``out``, if any; the error that stops it, or None."""
    try:
        if out is not None:
            out.close()
    except OSError as exc:
        return exc
    return None


def serve(src, replies):
    """Write the blocks read from binary ``src`` to the files they name.

    A file opens at its first block.  Each block is written and flushed
    once all of its bytes are read.  A file that cannot be opened or
    written takes no more blocks.  A close message closes its file and
    answers on binary ``replies`` with the reason the file failed, empty
    when it did not.  Returns 0 when ``src`` ends between messages and
    every file closed was written, and 1 when a file failed or ``src``
    ends inside a message, whose bytes are then dropped.
    """
    files = {}  # path -> its open file, or the OSError that stopped it
    failed = 0
    try:
        while True:
            head = src.read(_HEADER.size)
            if not head:
                return failed
            if len(head) < _HEADER.size:
                return 1
            kind, size, n, t, *sizes = _HEADER.unpack(head)
            path = src.read(size)
            body = src.read(8 * sum(sizes))
            if len(path) < size or len(body) < 8 * sum(sizes):
                return 1
            if kind == _CLOSE:
                out = files.pop(path, None)
                error = out if isinstance(out, OSError) else _close(out)
                reason = b""
                if error is not None:
                    failed = 1
                    reason = (error.strerror or str(error)).encode(
                        "utf-8", "replace")
                replies.write(_REPLY.pack(len(reason)) + reason)
                replies.flush()
                continue
            out = files.get(path)
            if not isinstance(out, OSError):
                try:
                    if out is None:
                        out = files[path] = open(path, "wb")
                    out.write(print_block(
                        n, t, np.frombuffer(body, dtype=np.float64), sizes))
                    out.flush()
                except OSError as exc:
                    _close(out)
                    files[path] = exc
                    failed = 1
    finally:
        for out in files.values():
            if not isinstance(out, OSError):
                _close(out)


class _Closing:
    """Context manager that calls ``close``; a close error gives way to
    the error that ended the block, which is the one to report."""

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        try:
            self.close()
        except OSError:
            if kind is None:
                raise


class Writer(_Closing):
    """The writer process of one command, shared by all its streams.

    The process starts at once, so that its numpy import overlaps the
    caller's own work.  Its streams are fed from one thread, one message
    at a time.  Use the writer as a context manager, so that the process
    never outlives the command: leaving it ends the pipe and reaps the
    process.  A writer that never received a message has nothing to
    finish and is killed.
    """

    def __init__(self):
        # only the parent needs these
        import fcntl
        import subprocess
        self._used = False
        # set while a message is on its way, and left set when sending it
        # failed: a message cut short garbles every later one
        self._broken = False
        self._proc = subprocess.Popen(writer_command(),
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE,
                                      env=dict(os.environ, **_MALLOC_ENV))
        try:
            # room for about ten desk-mesh blocks, so that a run seldom
            # waits for the writer; the default 64 KiB holds less than one
            fcntl.fcntl(self._proc.stdin.fileno(), fcntl.F_SETPIPE_SZ,
                        1 << 20)
        except (AttributeError, OSError):
            pass  # not Linux, or above the user's pipe limit: runs slower

    def _exchange(self, path, message, answered):
        """Send ``message`` for the file ``path`` whole, and return the
        writer's answer to it when it has one."""
        if self._broken:
            raise OSError("checkpoint writer for %s stopped" % path)
        self._used = self._broken = True
        pipe = self._proc.stdin
        try:
            pipe.write(message)
            pipe.flush()
        except BrokenPipeError:
            raise OSError("checkpoint writer for %s stopped"
                          % path) from None
        reason = b""
        if answered:
            head = self._proc.stdout.read(_REPLY.size)
            if len(head) < _REPLY.size:
                raise OSError("checkpoint writer for %s stopped" % path)
            reason = self._proc.stdout.read(*_REPLY.unpack(head))
        self._broken = False
        return reason.decode("utf-8", "replace")

    def send(self, path, n, t, rows):
        """Send block ``n`` at time ``t`` of the file ``path``."""
        self._exchange(path, encode_block(path, n, t, rows), False)

    def finish(self, path):
        """Return once the writer has written, flushed and closed the
        file ``path``; :class:`OSError` naming it if it could not."""
        reason = self._exchange(path, encode_close(path), True)
        if reason:
            raise OSError("checkpoint writer for %s: %s" % (path, reason))

    def close(self):
        """End the pipe and reap the writer once it has finished."""
        proc = self._proc
        if not self._used:
            proc.kill()
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the writer is gone; its exit status says why
        status = proc.wait()
        proc.stdout.close()
        if self._used and status != 0:
            raise OSError("checkpoint writer exited with status %d"
                          % status)


class Stream(_Closing):
    """Run hook that sends every ``stride``-th state to ``path`` through
    ``writer``.

    The file opens at the first block, so a stream that sent none leaves
    no file.  :meth:`close` returns once the writer has written and
    flushed the last block; use the stream as a context manager.  A
    broken pipe, or a file the writer could not write, raises
    :class:`OSError` naming ``path``.
    """

    def __init__(self, writer, path, stride=1):
        self.writer = writer
        self.path = os.fspath(path)
        self.stride = stride
        self._sent = False

    def __call__(self, state, report):
        if state.n % self.stride:
            return
        self.writer.send(self.path, state.n, state.t,
                         [getattr(state, name) for name in FIELDS])
        self._sent = True

    def close(self):
        """Close the file once the writer has finished its blocks."""
        sent, self._sent = self._sent, False
        if sent:
            self.writer.finish(self.path)


if __name__ == "__main__":
    # messages from stdin, answers to closes on stdout.  Every file is
    # closed and every answer flushed by the return; os._exit skips the
    # interpreter's teardown, which takes longer than a block
    os._exit(serve(sys.stdin.buffer, sys.stdout.buffer))
