"""The paper-scale grid, rerun from its committed command and compared byte for byte.

``paper600/`` holds the command (``command.txt``) and the files it wrote
(``sweep.csv``, ``config.txt``).  The grid takes about 45 s on 2 CPUs, so
this file sits outside the tier-1 ``testpaths``; run it with
``python -m pytest results``.
"""

import hashlib
import shlex
from pathlib import Path

from asyncadmm.cli import main

RECORD = Path(__file__).parent / "paper600"
# sweep.csv's digest since the grid was first run; a rerun that differs is a finding, not a new golden
SWEEP_SHA256 = "f776d556e488c42bfa4e101278efb10685439ebdbdeb2bf746ffdf225b0ba3e8"


def test_grid_reproduces_the_committed_files(tmp_path):
    program, *args = shlex.split((RECORD / "command.txt").read_text())
    assert program == "asyncadmm" and args[-2] == "--out"
    assert main([*args[:-1], str(tmp_path)]) == 0
    assert hashlib.sha256((RECORD / "sweep.csv").read_bytes()).hexdigest() == SWEEP_SHA256
    for name in ("sweep.csv", "config.txt"):
        assert (tmp_path / name).read_bytes() == (RECORD / name).read_bytes(), name
