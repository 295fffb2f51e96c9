"""argparse value types shared by every ``python -m repro`` parser."""
from __future__ import annotations

import argparse
import math


def positive_int(text: str) -> int:
    """argparse type: an int strictly greater than zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def port(text: str) -> int:
    """argparse type: a TCP port number, 1 to 65535."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a port number, got {text!r}") from None
    if not 1 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port number from 1 to 65535, got {text!r}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a finite float strictly greater than zero.

    ``nan`` and ``inf`` are refused: ``nan <= 0`` is False, so a bare
    sign check would let it through.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number, got {text!r}")
    return value
