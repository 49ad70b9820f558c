import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import minorflow

SRC = Path(minorflow.__file__).resolve().parents[1]
SCRIPTS = SRC.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["scale_smoke.py", "--n", "300", "--family", "k5free", "--seed", "11"],
        [
            "scale_smoke.py", "--n", "300", "--family", "k5free", "--seed", "0",
            "--decomposer", "k5", "--candidates", "2",
        ],
        ["fuzz_cross_check.py", "--rounds", "3", "--max-n", "30", "--decomposer"],
    ],
    ids=["scale_smoke", "scale_smoke_decomposer", "fuzz_cross_check"],
)
def test_script_runs_and_exits_zero(argv):
    # The scripts reach into the solver and the decomposers (scale_smoke
    # wraps solver.phase1, decomposition.biconnected_split and
    # decomposition.spqr by their signatures), so a change to those
    # functions must keep them running.
    env = {k: v for k, v in os.environ.items() if k != "MINORFLOW_SEED"}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    if argv[0] == "scale_smoke.py":
        candidates = argv[argv.index("--candidates") + 1] if "--candidates" in argv else "8"
        line = rf"^picked \d+ -> \d+ of {candidates} candidates in \d+\.\ds$"
        assert re.search(line, out.stdout, re.M), out.stdout
        if "--decomposer" in argv:
            # The decompose line: the components, the planar blocks kept
            # whole (the blocks less the spqr calls), the spqr calls, and the
            # collections made inside the decomposer with their time.
            key = argv[argv.index("--decomposer") + 1]
            line = (
                rf"^decompose \({key}\): components=[1-9]\d* \(planar blocks kept whole \d+\), "
                r"spqr calls \d+ in \d+\.\d\ds, "
                r"gc collections \[\d+, \d+, \d+\] taking \d+\.\d\ds$"
            )
            assert re.search(line, out.stdout, re.M), out.stdout
        # The parse line: both texts' parse times, their size and the
        # collections made inside both parses.
        line = (
            r"^parse \(from text\): network \d+\.\d\ds, tree \d+\.\d\ds, [1-9]\d* bytes, "
            r"gc collections \[\d+, \d+, \d+\]$"
        )
        assert re.search(line, out.stdout, re.M), out.stdout
        # validate's line: the verdict and time, then the torsos whose
        # planarity was tested and the time those tests took.
        line = (
            r"^validate \(tree parsed back from text\): ok in \d+\.\d\ds, "
            r"planarity-tested torsos [1-9]\d* in \d+\.\d{3}s, gc collections \[\d+, \d+, \d+\]$"
        )
        assert re.search(line, out.stdout, re.M), out.stdout
