"""Content-addressed JSON result cache with atomic writes."""

import hashlib
import json
import os
import tempfile


def default_cache_dir():
    """Resolve the cache directory: KLRLAB_CACHE, then the per-user cache tree."""
    env = os.environ.get("KLRLAB_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "klrlab")


def _canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj):
    return hashlib.sha256(_canon(obj).encode("utf-8")).hexdigest()


class ResultCache:
    """Stores JSON payloads in files named by the sha256 of their lookup key.

    Each file records the key, the payload, and the payload's own sha256; a read
    that fails to parse, carries a different key, or fails the hash check is a
    miss, so corrupted entries are recomputed rather than trusted.  Payloads must
    be JSON-serializable and not None.
    """

    def __init__(self, directory=None):
        self.directory = directory or default_cache_dir()

    def path_for(self, key):
        return os.path.join(self.directory, _digest(key) + ".json")

    def get(self, key):
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict):
            return None
        payload = record.get("payload")
        if _canon(record.get("key")) != _canon(key):
            return None
        if record.get("sha256") != _digest(payload):
            return None
        return payload

    def put(self, key, payload):
        os.makedirs(self.directory, exist_ok=True)
        record = {"key": key, "sha256": _digest(payload), "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # dumps runs the C encoder; dump streams through the Python one.
                fh.write(json.dumps(record))
            os.replace(tmp, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return payload

    def fetch(self, key, compute):
        """Return the cached payload for key, computing and storing it on a miss."""
        got = self.get(key)
        if got is not None:
            return got
        return self.put(key, compute())
