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


# The canonical encoding that keys are named by and payloads hashed in.  One shared
# encoder: `json.dumps` with these options would build a new one on every call.
_canon = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Stores JSON payloads in files named by the sha256 of their lookup key.

    Each file records the key, the payload, and the payload's own sha256; a read
    that fails to parse as UTF-8 JSON, carries a different key, or fails the hash
    check is a miss, so corrupted entries are recomputed rather than trusted.
    Payloads must be JSON-serializable and not None.
    """

    def __init__(self, directory=None):
        self.directory = directory or default_cache_dir()

    def _path(self, key_text):
        return os.path.join(self.directory, _sha256(key_text) + ".json")

    def path_for(self, key):
        return self._path(_canon(key))

    def get(self, key):
        key_text = _canon(key)
        try:
            # Unbuffered: the entry is read whole, so a buffer would only be copied.
            with open(self._path(key_text), "rb", buffering=0) as fh:
                record = json.loads(fh.read().decode("utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or _canon(record.get("key")) != key_text:
            return None
        payload = record.get("payload")
        if record.get("sha256") != _sha256(_canon(payload)):
            return None
        return payload

    def put(self, key, payload):
        record = {"key": key, "sha256": _sha256(_canon(payload)), "payload": payload}
        # dumps runs the C encoder; dump streams through the Python one.
        data = json.dumps(record).encode("utf-8")
        path = self._path(_canon(key))
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        except OSError:
            # A missing directory is made on the first write; a path that cannot be one
            # (a plain file) raises its own error from makedirs.
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
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
