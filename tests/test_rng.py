"""Counter-RNG contracts: scalar-oracle agreement, stream separation, and
determinism of the derived draws."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from rleval import rng as rng_module
from rleval.errors import ValidationError
from rleval.rng import (
    DOMAIN_BOOTSTRAP,
    MAX_SEED,
    SeededRng,
    bootstrap_means,
    derive_key,
    philox_u32_blocks,
    splitmix64,
    validate_seed,
)


def test_philox_matches_scalar_oracle():
    # block_start carries into counter word 1; the array form holds stream
    # streams[r]'s blocks in row r
    key = derive_key(987654321)
    start = 2**33 - 2
    blocks = philox_u32_blocks(key[0], key[1], 5, 17, start, 16)
    streams = np.array([0, 17, 2**32 - 1], dtype=np.uint64)
    rows = philox_u32_blocks(key[0], key[1], 5, streams, start, 16)
    assert blocks.shape == (16, 4) and rows.shape == (3, 16, 4)
    for i in range(16):
        block_index = start + i
        counter = (block_index & 0xFFFFFFFF, block_index >> 32)
        assert list(blocks[i]) == oracles.philox4x32_ref((*counter, 17, 5), key)
        for r, stream in enumerate(streams):
            assert list(rows[r, i]) == oracles.philox4x32_ref((*counter, int(stream), 5), key)


def test_bootstrap_matches_scalar_oracle():
    key = derive_key(55)
    sample = [10.0, 11.5, 9.25, 14.0, 8.5]
    mine = bootstrap_means(np.array(sample), 64, key[0], key[1], DOMAIN_BOOTSTRAP)
    ref = oracles.bootstrap_means_ref(sample, 64, key, DOMAIN_BOOTSTRAP)
    assert list(mine) == ref


def test_streams_are_disjoint():
    key = derive_key(1)
    a = philox_u32_blocks(key[0], key[1], 0, 0, 0, 64)
    b = philox_u32_blocks(key[0], key[1], 0, 1, 0, 64)
    c = philox_u32_blocks(key[0], key[1], 1, 0, 0, 64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_splitmix_diffuses_small_seeds():
    keys = {splitmix64(s) for s in range(64)}
    assert len(keys) == 64


def test_uniform01_open_interval_and_determinism():
    u1 = SeededRng(42).uniform01(200_000)
    u2 = SeededRng(42).uniform01(200_000)
    assert np.array_equal(u1, u2)
    assert float(np.min(u1)) > 0.0
    assert float(np.max(u1)) < 1.0
    assert abs(float(np.mean(u1)) - 0.5) < 0.005


def test_standard_normal_moments():
    z = SeededRng(7).standard_normal(200_000)
    assert abs(float(np.mean(z))) < 0.01
    assert abs(float(np.std(z)) - 1.0) < 0.01


def _draw_branches(seed, count):
    """SeededRng(seed).standard_normal(count), split by the quantile's
    branch: the central draws (|u - 1/2| <= 0.425, + - * / only) and the
    tail draws (through np.log)."""
    u = SeededRng(seed).uniform01(count)
    z = SeededRng(seed).standard_normal(count)
    central = np.abs(u - 0.5) <= 0.425
    return z[central], z[~central]


def _sha256(values):
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


# sha256 of the central and of the tail draws of a million normals. A
# change to the tail alone (a portable log, say) re-pins only the second.
PINNED_NORMALS = {
    7: ("92f69cdbca7124857172dd6852f6dae06ab3f8d88ae6d393cf97deea8040605e",
        "5caf17fe4642e3b616ba150c6d94e20be1689e5972981dbb7361e2a4e7e2badb"),
    20240917: ("f5e2bbb01032acd9a9950a76a41f56d41866731b2baa8975ad6a6eec92fc98b6",
               "4baad24f60e53246f2026d7e824509761524229ddc989db83df5102d4b965845"),
}


@pytest.mark.parametrize("seed", PINNED_NORMALS)
def test_standard_normal_pinned_bytes(seed):
    # A million draws reach |z| > 4.8, so the tail rational in r - 1.6 is
    # pinned too (the one in r - 5 starts at p < 1.4e-11); the synth run
    # logs are made of these values.
    central, tail = _draw_branches(seed, 1_000_000)
    assert (_sha256(central), _sha256(tail)) == PINNED_NORMALS[seed]


_AVX512 = bool(np._core._multiarray_umath.__cpu_features__.get("AVX512_SKX"))


@pytest.mark.skipif(not _AVX512, reason="needs a CPU whose numpy loops include AVX-512")
def test_central_normals_do_not_depend_on_simd_class():
    """The central draws use only + - * /, so numpy's AVX2 loops give the
    same bytes as its AVX-512 loops; the tail draws go through np.log,
    whose loops differ, and are not compared."""
    script = ("import sys, test_rng; "
              "sys.stdout.write(test_rng._sha256(test_rng._draw_branches(7, 10**6)[0]))")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, cwd=Path(__file__).parent).stdout
    assert out == _sha256(_draw_branches(7, 10**6)[0])


def test_stream_allocation_is_positional():
    # the k-th request is reproducible regardless of earlier request sizes
    a = SeededRng(5)
    a.uniform01(3)
    second_a = a.uniform01(4)
    b = SeededRng(5)
    b.uniform01(9999)
    second_b = b.uniform01(4)
    assert np.array_equal(second_a, second_b)


def test_seed_validation():
    validate_seed(0)
    validate_seed(MAX_SEED)
    for bad in (-1, MAX_SEED + 1, 1.5, "7", True):
        with pytest.raises(ValidationError):
            validate_seed(bad)


def test_philox_chunked_blocks_match_one_call(monkeypatch):
    key = derive_key(3)
    streams = np.arange(2, dtype=np.uint64)
    whole = philox_u32_blocks(key[0], key[1], 1, streams, 5, 7)
    monkeypatch.setattr(rng_module, "_MAX_BLOCKS_PER_CALL", 5)
    assert np.array_equal(philox_u32_blocks(key[0], key[1], 1, streams, 5, 7), whole)
    assert np.array_equal(philox_u32_blocks(key[0], key[1], 1, 1, 5, 7), whole[1])
