"""Content-addressed on-disk cache with atomic writes.

Keys are canonical-JSON documents hashed with SHA-256, from the
interpreter's built-in `_sha256` module where it has one: `hashlib` maps
OpenSSL, which costs every process megabytes and milliseconds for a digest
that is the same either way. Entries are written via a temp file and
os.replace, so concurrent writers of the same key leave exactly one intact
winner. A format-version mismatch or a corrupted entry is a miss (the
latter is deleted). A failed write removes its temp file, prints one line
to stderr and turns the cache off for the rest of the run.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

try:
    from _sha256 import sha256
except ImportError:  # Python 3.12 renamed the module to _sha2
    from hashlib import sha256

# the version of an entry's layout; reports carry their own
FORMAT_VERSION = 1


def content_hash(obj) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode("utf-8")).hexdigest()


class Cache:
    def __init__(self, directory: str):
        self.directory = directory
        self.enabled = True
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise OSError(f"cannot create cache directory {directory}: {exc}") from exc

    def _path(self, key_obj) -> str:
        return os.path.join(self.directory, content_hash(key_obj) + ".json")

    def get(self, key_obj):
        if not self.enabled:
            return None
        path = self._path(key_obj)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (ValueError, RecursionError, OSError):  # decoding errors are ValueErrors
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        if not isinstance(entry, dict) or entry.get("format_version") != FORMAT_VERSION:
            return None
        return entry.get("payload")

    def put(self, key_obj, payload) -> None:
        if not self.enabled:
            return
        path = self._path(key_obj)
        entry = {"format_version": FORMAT_VERSION, "key": key_obj, "payload": payload}
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, sort_keys=True))
            os.replace(tmp, path)
        except OSError as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            self.enabled = False
            sys.stderr.write(f"syzlab: cache disabled: cache write failed for {path}: {exc}\n")
