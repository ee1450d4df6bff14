"""A standard output closed by its reader ends a command quietly.

``sperner decompose chain.hyp | head -n 1`` closes the pipe after one
line of a 2.9 MB tree. ``main`` then prints nothing more, points the
stdout descriptor at ``os.devnull`` so the flush at interpreter exit
does not raise again, and returns 2. Checked in process, with a stdout
whose ``write`` raises and one whose ``flush`` does (a short output that
the pipe would take only at exit), and in a subprocess over a pipe
closed after one line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sperner
from sperner.cli import main
from sperner.hypergraph import Hypergraph
from sperner.textio import write_hypergraph

CHAIN = Hypergraph(range(1200), [{v} for v in range(1200)])


class ClosedPipe:
    """A stdout whose reader has gone: every write raises. Its descriptor
    is ``fd``, a file of the test's own."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class ClosedOnFlush(ClosedPipe):
    """A stdout that buffers a short output and meets the closed pipe only
    when it is flushed."""

    def write(self, text):
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stdout", [ClosedPipe, ClosedOnFlush])
def test_closed_stdout_in_process(stdout, tmp_path, monkeypatch, capsys):
    path = tmp_path / "chain.hyp"
    path.write_text(write_hypergraph(CHAIN))
    out = tmp_path / "out"
    fd = os.open(out, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", stdout(fd))
        assert main(["decompose", str(path)]) == 2
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == b""


def test_closed_pipe_in_a_subprocess(tmp_path):
    path = tmp_path / "chain.hyp"
    path.write_text(write_hypergraph(CHAIN))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sperner.__file__).parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen([sys.executable, "-m", "sperner.cli", "decompose", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"z=0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""
