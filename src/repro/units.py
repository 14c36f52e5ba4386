"""Unit helpers.

All simulated time in this library is kept in **seconds** (floats); all
sizes in **bytes** (ints). These helpers exist so that calibration
constants and benchmark tables read like the paper (msec, Kbytes/sec).
"""

from __future__ import annotations

KB = 1024
MB = 1024 * 1024

USEC = 1e-6
MSEC = 1e-3


def msec(t: float) -> float:
    """``t`` milliseconds as seconds."""
    return t * MSEC


def usec(t: float) -> float:
    """``t`` microseconds as seconds."""
    return t * USEC


def to_msec(seconds: float) -> float:
    """Seconds -> milliseconds (for reporting)."""
    return seconds / MSEC


def bandwidth_kb_per_sec(nbytes: int, seconds: float) -> float:
    """Throughput in Kbytes/sec, the unit of the paper's figures 2b/3b."""
    if seconds <= 0:
        return float("inf")
    return (nbytes / KB) / seconds


def fmt_size(nbytes: int) -> str:
    """Format a size the way the paper labels its table rows."""
    if nbytes == 1:
        return "1 byte"
    if nbytes < KB:
        return f"{nbytes} bytes"
    if nbytes < MB:
        kb = nbytes / KB
        return f"{int(kb)} Kbytes" if kb == int(kb) else f"{kb:.1f} Kbytes"
    mb = nbytes / MB
    return f"{int(mb)} Mbyte" if mb == int(mb) else f"{mb:.2f} Mbyte"
