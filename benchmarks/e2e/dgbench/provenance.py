"""Where and on what a result was measured."""

from __future__ import annotations

import os
import platform
import subprocess

import numpy as np

from repro.core import native


def blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 only prints
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def git_revision(root: str) -> str:
    """``HEAD`` of ``root``, or ``"unknown"`` outside a git checkout."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def host() -> dict:
    """The machine, the numeric stack and the checkout being measured."""
    root = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, os.pardir)
    )
    return {
        "nproc": os.cpu_count(),
        "blas": blas_name(),
        "thread_pins": {
            name: value
            for name, value in os.environ.items()
            if name.endswith("_NUM_THREADS")
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "native": native.status(),
        "git_rev": git_revision(root),
    }
