"""The one SHA-256 helper: hashlib's digest at every length, with CPython's
built-in module or without it, and OpenSSL loaded only from 1 MiB on."""

import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rleval
from rleval import _digest

# Around SHA-256's one-block padding limit (55/56), its 64-byte block, and
# the 1 MiB split between the built-in and OpenSSL.
LENGTHS = (0, 1, 55, 56, 63, 64, 65, 2**20 - 1, 2**20, 2**20 + 1)


def _data(length):
    return (bytes(range(256)) * (length // 256 + 1))[:length]


@pytest.mark.parametrize("length", LENGTHS)
def test_digest_is_hashlibs(length):
    data = _data(length)
    assert _digest.sha256_hex(data) == hashlib.sha256(data).hexdigest()


@pytest.fixture()
def without_builtin_sha256(monkeypatch):
    """`_digest` re-imported as on a build with neither `_sha2` nor
    `_sha256`; re-imported as it was afterwards."""
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    importlib.reload(_digest)
    yield
    monkeypatch.undo()
    importlib.reload(_digest)


@pytest.mark.parametrize("length", LENGTHS)
def test_digest_without_the_builtin_is_hashlibs(length, without_builtin_sha256):
    assert _digest._builtin_sha256 is None
    data = _data(length)
    assert _digest.sha256_hex(data) == hashlib.sha256(data).hexdigest()


_HASH_IN_A_FRESH_INTERPRETER = """\
import sys
from rleval._digest import sha256_hex
sha256_hex(bytes(int(sys.argv[1])))
print("_hashlib" in sys.modules)
"""


@pytest.mark.parametrize("length, loaded", [(2**20 - 1, "False"), (2**20, "True")])
def test_openssl_loads_only_from_one_mib(length, loaded):
    env = {**os.environ, "PYTHONPATH": str(Path(rleval.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _HASH_IN_A_FRESH_INTERPRETER, str(length)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [loaded]
