"""SHA-256 fingerprints of configs, run logs and bundle files.

This module alone decides how bytes get hashed. `hashlib` loads OpenSSL's
libcrypto, 3.4 MB resident and ~3 ms, while every file the quick-start
hashes is under 200 KB. CPython's own SHA-256 needs no library, but on an
x86-64 host with SHA extensions it hashes at ~4.4 ms/MB against OpenSSL's
~0.8 ms/MB, so the two break even near 0.8 MB. Below 1 MiB the built-in
hashes; at 1 MiB and above, or on a build without it, `hashlib` does.
"""

try:
    from _sha2 import sha256 as _builtin_sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _builtin_sha256  # CPython 3.10-3.11
    except ImportError:
        _builtin_sha256 = None

_BUILTIN_LIMIT = 1 << 20  # bytes; from here on OpenSSL's speed repays its load


def sha256_hex(data: bytes) -> str:
    """Lowercase hex SHA-256 of `data`."""
    if _builtin_sha256 is not None and len(data) < _BUILTIN_LIMIT:
        return _builtin_sha256(data).hexdigest()
    import hashlib

    return hashlib.sha256(data).hexdigest()
