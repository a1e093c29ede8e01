import os
from pathlib import Path

import pytest

import bcgames


@pytest.fixture()
def src_env() -> dict:
    """Environment for a child interpreter that imports the same bcgames."""
    env = dict(os.environ)
    src = str(Path(bcgames.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
