import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

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
