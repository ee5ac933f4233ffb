"""Shared constants used across the speak-up reproduction.

The paper mixes several unit systems: link capacities in Mbits/s, payments
in bytes or KBytes, server capacity in requests per second, and latencies
in milliseconds.  Everything internal to this package uses SI base units —
bits per second, bytes, seconds — and the unit constants here scale the
paper's figures into them.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------

BITS_PER_BYTE = 8

KBIT = 1_000
MBIT = 1_000_000
GBIT = 1_000_000_000

KBYTE = 1_000
MBYTE = 1_000_000

MS = 1e-3


def milliseconds(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * MS


# ---------------------------------------------------------------------------
# Defaults taken directly from the paper (section 6 and 7.1)
# ---------------------------------------------------------------------------

#: Size of one payment POST the JavaScript front-end constructs (section 6).
DEFAULT_POST_BYTES = 1 * MBYTE

#: Size of a request message on the wire.
REQUEST_BYTES = 1500.0

#: Paper's experiment length on Emulab (section 7.1).
PAPER_EXPERIMENT_DURATION = 600.0

#: Default access-link bandwidth of a client in the evaluation (section 7.1).
DEFAULT_CLIENT_BANDWIDTH = 2 * MBIT

#: Good-client request rate lambda (requests per second, section 7.1).
GOOD_CLIENT_RATE = 2.0

#: Good-client window of outstanding requests (section 7.1).
GOOD_CLIENT_WINDOW = 1

#: Bad-client request rate lambda (requests per second, section 7.1).
BAD_CLIENT_RATE = 40.0

#: Bad-client window of outstanding requests (section 7.1).
BAD_CLIENT_WINDOW = 20

#: A queued request times out and is logged as a service denial after this
#: many seconds (section 7.1).
REQUEST_TIMEOUT = 10.0

#: Server-side service time jitter: uniform in [(1 - delta)/c, (1 + delta)/c]
#: (section 6 uses delta = 0.1).
SERVICE_TIME_JITTER = 0.1

#: Suspended requests are aborted after this long in the heterogeneous-request
#: extension (section 5 suggests 30 seconds).
SUSPEND_ABORT_TIMEOUT = 30.0

#: TCP maximum segment size used by the slow-start ramp model.
DEFAULT_MSS_BYTES = 1460

#: Number of round-trip times of quiescence between successive payment POSTs
#: (section 3.4: "a quiescent period between POSTs (equal to two RTTs)").
POST_QUIESCENT_RTTS = 2.0
