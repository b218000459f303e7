import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from dpencil.frenet import FrenetApparatus  # noqa: E402
from dpencil.pencil import (  # noqa: E402
    marching_values,
    pencil_normal,
    pencil_partials,
    pencil_point,
)
from dpencil.presets import load_preset  # noqa: E402
from dpencil.scene import SceneConfig  # noqa: E402

# HYPOTHESIS_PROFILE=ci runs every property on fixed examples, so that a
# failing CI run fails again locally under the same profile; without it
# the properties draw fresh examples on every run.
settings.register_profile("ci", derandomize=True, print_blob=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def preset_config(name: str) -> SceneConfig:
    return SceneConfig.from_dict(load_preset(name))


def preset_pencil(name: str):
    return preset_config(name).pencil()


class PointGeometry(NamedTuple):
    frame: FrenetApparatus
    point: np.ndarray
    d_s: np.ndarray
    d_t: np.ndarray
    normal: np.ndarray
    degenerate: bool
    non_finite: bool


def point_geometry(p, s: float, t: float, frame=None) -> PointGeometry:
    """The pencil ``p`` at one (s, t): the frame (``p.frame(s)`` unless
    ``frame`` is given), ``marching_values`` and the kernels
    ``pencil_point``, ``pencil_partials`` and ``pencil_normal``.  A missing
    frame or marching value raises (``NO_FRAME``, ``DomainError``); a
    missing normal is zero, with ``degenerate`` or ``non_finite`` set."""
    if frame is None:
        frame = p.frame(s)
    mv = marching_values(p.marching, s, t)
    unit, degenerate, non_finite = pencil_normal(frame, mv)
    return PointGeometry(frame, pencil_point(p.curve.point(s), frame, mv),
                         *pencil_partials(frame, mv), unit, bool(degenerate), bool(non_finite))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def ex1():
    return preset_pencil("example1")


@pytest.fixture(scope="session")
def ex2():
    return preset_pencil("example2")


@pytest.fixture(scope="session")
def ex3():
    return preset_pencil("example3")


@pytest.fixture(scope="session")
def ex4():
    return preset_pencil("example4")
