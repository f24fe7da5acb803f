from pathlib import Path

import numpy as np
import pytest

from quakespec import Accelerogram

DEMO_DIR = Path(__file__).resolve().parent.parent / "demo"


def make_sine(f0=1.0, dt=0.01, duration=40.0, amp=1.0):
    # endpoint excluded: n*dt covers exactly `duration` seconds, so
    # integer-Hz sines are coherent with the transform grid
    n = round(duration / dt)
    t = np.arange(n) * dt
    return Accelerogram(dt=dt, samples=amp * np.sin(2.0 * np.pi * f0 * t))


@pytest.fixture
def sine_1hz():
    return make_sine(1.0)
