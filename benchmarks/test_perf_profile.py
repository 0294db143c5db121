"""Wall-clock gate on ``repro profile``'s phase coverage.

The profile's top-level phases (spec decode, build, simulate, finalize)
are contiguous brackets of each trial, so together they should account
for nearly all of the ``trial`` span. Coverage is a ratio of wall-clock
times and so dips on a loaded machine; it is gated here, next to the
other timing gates, rather than in the unit suite (which checks only the
deterministic rows and call counts).
"""

from repro.cli import main

#: Minimum share of trial wall time the top-level phases must cover.
COVERAGE_FLOOR = 90.0


def test_profile_phase_coverage(capsys):
    assert main(["profile", "--country", "china", "--protocol", "http",
                 "--trials", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    coverage = float(out.split("phase coverage:")[1].split("%")[0])
    assert coverage >= COVERAGE_FLOOR, out
