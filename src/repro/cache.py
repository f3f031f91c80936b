"""Persistent-cache janitor CLI: ``python -m repro.cache <command>``.

Operates on the two on-disk cache tiers:

* the **compile cache** (``PYACC_COMPILE_CACHE``, default
  ``~/.cache/pyacc/compile``) — pickled kernel (``k*.pkl``) and program
  (``g*.pkl``) entries, integrity-framed by :mod:`repro.ir.diskcache`;
* the **native artifact cache** (``PYACC_NATIVE_CACHE``, default
  ``~/.cache/pyacc/native``) — compiled ``.c``/``.so`` pairs.

Commands::

    python -m repro.cache ls                 # keys + sizes + metadata
    python -m repro.cache prune --max-bytes N  # LRU (mtime) eviction
    python -m repro.cache clear              # drop every entry + stray temp file
    python -m repro.cache verify             # re-hash, unlink corrupted

All commands accept ``--dir PATH`` to target an explicit directory,
``--native`` to target the native artifact cache instead of the compile
cache, and ``--json`` for machine-readable output.  Exit status is 0 on
success, 2 on usage/environment errors (e.g. the compile cache is
disabled and no ``--dir`` was given) — mirroring ``python -m
repro.lint``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from pathlib import Path
from typing import Optional, Sequence

from .ir import diskcache
from .ir.compilecache import CACHE_ENV, cache_dir as compile_cache_dir
from .ir.nativecache import CACHE_ENV as NATIVE_CACHE_ENV
from .ir.nativecache import cache_dir as native_cache_dir

__all__ = ["main"]

#: Entry suffixes per tier: framed pickles for the compile cache, raw
#: compiler artifacts for the native cache.
_COMPILE_SUFFIXES = (".pkl",)
_NATIVE_SUFFIXES = (".c", ".so")


def _entry_meta(path: Path) -> dict:
    """Best-effort metadata for one compile-cache entry (``ls``).

    Reads the framed payload header; corrupted entries report
    ``status: corrupt`` instead of failing the listing.
    """
    kind = "kernel" if path.name.startswith("k") else (
        "program" if path.name.startswith("g") else "entry"
    )
    out = {"kind": kind}
    try:
        blob = diskcache.read_entry(path)
        if blob is None:
            out["status"] = "missing"
            return out
        payload = pickle.loads(blob)
    except Exception:
        out["status"] = "corrupt"
        return out
    out["status"] = "ok"
    if isinstance(payload, dict):
        meta = payload.get("meta") or {}
        for field in ("kernel", "executor", "verify_mode"):
            if field in meta:
                out[field] = meta[field]
        if "mode" in payload:
            out["mode"] = payload["mode"]
        if payload.get("kind") == "program":
            out["nodes"] = len(payload.get("nodes", ()))
    return out


def _cmd_ls(dirpath: Path, suffixes: tuple, as_json: bool, deep: bool) -> int:
    files = diskcache.entry_files(dirpath, suffixes)
    rows = []
    for path, size, mtime in files:
        row = {"key": path.name, "bytes": size, "mtime": mtime}
        if deep and path.suffix == ".pkl":
            row.update(_entry_meta(path))
        rows.append(row)
    total = sum(r["bytes"] for r in rows)
    if as_json:
        print(
            json.dumps(
                {"dir": str(dirpath), "entries": rows, "bytes": total},
                indent=2,
            )
        )
        return 0
    for r in rows:
        extra = ""
        if "kernel" in r:
            extra = (
                f"  {r.get('kind')}:{r.get('kernel')}"
                f" executor={r.get('executor')}"
                f" verify={r.get('verify_mode')}"
            )
        elif "kind" in r:
            extra = f"  {r['kind']}"
            if "nodes" in r:
                extra += f" nodes={r['nodes']}"
            if r.get("status") != "ok":
                extra += f" [{r['status']}]"
        print(f"{r['key']}  {r['bytes']:>10}{extra}")
    print(f"{len(rows)} entr{'y' if len(rows) == 1 else 'ies'}, {total} bytes")
    return 0


def _cmd_prune(
    dirpath: Path, suffixes: tuple, max_bytes: int, as_json: bool
) -> int:
    removed, freed = diskcache.prune_dir(dirpath, max_bytes, suffixes)
    left = diskcache.dir_bytes(dirpath, suffixes)
    if as_json:
        print(
            json.dumps(
                {"removed": removed, "freed": freed, "bytes": left}, indent=2
            )
        )
    else:
        print(f"pruned {removed} entries ({freed} bytes); {left} bytes remain")
    return 0


def _cmd_clear(dirpath: Path, suffixes: tuple, as_json: bool) -> int:
    # Stray temp files too: a kernel or program entry writer killed
    # between ``mkstemp`` and ``os.replace`` leaves a ``*.tmp`` behind.
    removed = diskcache.clear_dir(dirpath, suffixes + (".tmp",))
    if as_json:
        print(json.dumps({"removed": removed}, indent=2))
    else:
        print(f"cleared {removed} entries from {dirpath}")
    return 0


def _cmd_verify(dirpath: Path, suffixes: tuple, as_json: bool) -> int:
    # Only framed entries can be re-hashed; native .c/.so artifacts
    # verify at load time (the dlopen is the integrity check).
    framed = tuple(s for s in suffixes if s == ".pkl")
    checked, removed = diskcache.verify_dir(dirpath, framed or (".pkl",))
    if as_json:
        print(json.dumps({"checked": checked, "removed": removed}, indent=2))
    else:
        print(f"verified {checked} entries; unlinked {removed} corrupted")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="inspect and maintain the persistent caches",
    )
    parser.add_argument(
        "command", choices=("ls", "prune", "clear", "verify")
    )
    parser.add_argument(
        "--dir",
        metavar="PATH",
        help="explicit cache directory (default: the compile cache, "
        f"${CACHE_ENV} or ~/.cache/pyacc/compile)",
    )
    parser.add_argument(
        "--native",
        action="store_true",
        help="target the native artifact cache "
        f"(${NATIVE_CACHE_ENV} or ~/.cache/pyacc/native)",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        metavar="N",
        help="prune: evict least-recently-used entries until <= N bytes",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    parser.add_argument(
        "--no-meta",
        action="store_true",
        help="ls: skip reading entry payloads for metadata",
    )
    ns = parser.parse_args(argv)

    suffixes = _NATIVE_SUFFIXES if ns.native else _COMPILE_SUFFIXES
    if ns.dir:
        dirpath = Path(ns.dir)
    elif ns.native:
        dirpath = native_cache_dir()
    else:
        d = compile_cache_dir()
        if d is None:
            print(
                f"error: the compile cache is disabled (${CACHE_ENV}); "
                "pass --dir to target a directory explicitly",
                file=sys.stderr,
            )
            return 2
        dirpath = d

    if ns.command == "ls":
        return _cmd_ls(dirpath, suffixes, ns.json, deep=not ns.no_meta)
    if ns.command == "prune":
        if ns.max_bytes is None:
            parser.error("prune requires --max-bytes N")
        return _cmd_prune(dirpath, suffixes, ns.max_bytes, ns.json)
    if ns.command == "clear":
        return _cmd_clear(dirpath, suffixes, ns.json)
    return _cmd_verify(dirpath, suffixes, ns.json)


if __name__ == "__main__":
    sys.exit(main())
