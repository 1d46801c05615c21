"""Environment fingerprint attached to every benchmark record.

Wall-clock numbers are only comparable within one environment; the
fingerprint makes each benchmark record self-describing so a later
reader (or the regression gate) can tell whether two records came from
the same interpreter, machine class, and commit.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Optional

__all__ = ["fingerprint", "git_commit"]


def git_commit(cwd: Optional[str] = None) -> Optional[str]:
    """Short commit hash of the working tree, or None outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def fingerprint() -> dict:
    """The environment descriptor stored in every benchmark record."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
    }
