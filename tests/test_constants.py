"""Tests for unit conversions and paper defaults."""

import pytest

from repro import constants


def test_byte_conversions():
    assert constants.BITS_PER_BYTE == 8
    assert constants.MBYTE == 1_000 * constants.KBYTE == 1_000_000
    assert constants.milliseconds(250) == pytest.approx(0.25)


def test_paper_defaults_match_section_6_and_7():
    assert constants.DEFAULT_POST_BYTES == 1_000_000
    assert constants.PAPER_EXPERIMENT_DURATION == 600.0
    assert constants.DEFAULT_CLIENT_BANDWIDTH == 2_000_000
    assert (constants.GOOD_CLIENT_RATE, constants.GOOD_CLIENT_WINDOW) == (2.0, 1)
    assert (constants.BAD_CLIENT_RATE, constants.BAD_CLIENT_WINDOW) == (40.0, 20)
    assert constants.REQUEST_TIMEOUT == 10.0
    assert constants.REQUEST_BYTES == 1500.0
    assert constants.SERVICE_TIME_JITTER == 0.1
    assert constants.POST_QUIESCENT_RTTS == 2.0
