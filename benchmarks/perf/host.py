"""What the numbers were measured on: the ``host`` block that heads every
document."""

from __future__ import annotations

import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def llc_bytes() -> int:
    """Largest cache the kernel reports for cpu0 (socket-wide on a VM:
    the guest's real share is smaller)."""
    best = 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = index.read_text().strip()
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        best = max(best, int(text.rstrip("KMG")) * mult)
    return best


def _first_line(cmd: list[str]) -> str:
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else "unavailable"


def host_block() -> dict:
    src_lines = sum(
        sum(1 for _ in path.open(encoding="utf-8")) for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "cores": os.cpu_count(),
        "llc_bytes": llc_bytes(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cc": _first_line([os.environ.get("CC", "cc"), "--version"]),
        "git_sha": _first_line(["git", "rev-parse", "HEAD"]),
        "src_lines": src_lines,
    }
