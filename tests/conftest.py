"""Fixtures shared by the test modules."""

import os
import pathlib

import pytest


@pytest.fixture
def src_env():
    """The environment for a subprocess that imports this checkout's
    package: os.environ with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
