"""Byte-for-byte CLI regression: every recorded case of ``cli_golden.json``
must give the same exit code, stdout and stderr.

The fixture comes from ``make_cli_golden.py``; see there for how the cases
are drawn and how to re-record them.
"""

import json

from make_cli_golden import FIXTURE, run_case
from sperner.cli import main


def test_cli_output_matches_golden(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the width
    cases = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert len(cases) > 300
    mismatches = []
    for i, case in enumerate(cases):
        got = run_case(main, case, str(tmp_path))
        want = {k: case[k] for k in ("code", "stdout", "stderr")}
        if got != want:
            mismatches.append(f"case {i} {case['argv']}: want {want!r}, got {got!r}")
    assert not mismatches, f"{len(mismatches)} mismatches; first: " + "\n".join(mismatches[:3])
