"""Machine-speed calibration: times reported at a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host.  Neighbours on the
host slow the whole machine down by 20-30% for seconds to minutes at a
time; a fixed CPU-bound loop shows the same swings, and CPU time tracks
wall time through them (they are not scheduling or steal).  Raw wall-clock
figures of two runs of the same code therefore differ by as much as a
real regression would.

So every timed window is cut into segments of about half a second, and
between segments the benchmark times :func:`calibrate`, a pure-Python
arithmetic loop that touches no program code and allocates nothing the
cyclic GC sees.  A segment's *slowness* is the median of the loop times
within :data:`WINDOW` calibrations on either side of it, divided by
:data:`REFERENCE_NS`; its wall times are divided by that slowness.  The
reported figures are thus the program's times at the speed where the
loop takes :data:`REFERENCE_NS` (about a 2.1 GHz Xeon vCPU of a shared
host), and a program change moves them exactly as it moves raw time.
The raw figures and the median slowness are printed beside them.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence

#: Iterations of the calibration loop (~8 ms at the reference speed).
LOOP = 100_000
#: Nanoseconds the loop takes at the reference speed.
REFERENCE_NS = 8_000_000
#: Calibrations on each side of a segment that its slowness is taken from
#: (about four seconds each way): wide enough that one noisy calibration
#: does not move a segment, narrow enough to follow the host's swings.
WINDOW = 8


def calibrate() -> int:
    """Nanoseconds one run of the fixed arithmetic loop takes now."""
    started = time.perf_counter_ns()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return time.perf_counter_ns() - started


class SpeedTrack:
    """Calibration samples taken between the segments of a timed window:
    sample ``i`` precedes segment ``i`` and sample ``i + 1`` follows it."""

    def __init__(self) -> None:
        self.samples: List[int] = []

    def sample(self) -> None:
        self.samples.append(calibrate())

    def slowness(self, segment: int) -> float:
        """How much slower than the reference the machine ran during the
        segment (> 1 is slower)."""
        near = self.samples[max(0, segment - WINDOW + 1): segment + 1 + WINDOW]
        return statistics.median(near) / REFERENCE_NS

    def median_slowness(self) -> float:
        return statistics.median(self.samples) / REFERENCE_NS

    def calibration_s(self) -> float:
        return sum(self.samples) / 1e9


def at_reference(seconds: Sequence[float], slowness: Sequence[float]) -> float:
    """Total of per-segment wall times, each at the reference speed."""
    return sum(s / f for s, f in zip(seconds, slowness))


def report_line(track: SpeedTrack, raw: Dict[str, float]) -> str:
    """The ``speed:`` line: the median slowness and the raw figures."""
    return (
        f"speed: median slowness {track.median_slowness():.4f} over "
        f"{len(track.samples)} calibrations ({track.calibration_s():.3f} s); raw "
        + " ".join(f"{name}={value:.6g}" for name, value in raw.items())
    )
