"""Run provenance: host fingerprint, commit, source digest, peak memory."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> Dict[str, object]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def git_commit(root: Path) -> Optional[str]:
    """``HEAD`` of *root* when it is a git work tree, else ``None``."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-1 over every ``.py`` file under *src* (path and bytes).

    Identifies the measured code even in a checkout that is not a git
    repository.
    """
    digest = hashlib.sha1()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path) -> Dict[str, object]:
    return {
        "host": host_fingerprint(),
        "commit": git_commit(root),
        "source_sha1": source_digest(root / "src"),
        "argv": sys.argv[1:],
    }
