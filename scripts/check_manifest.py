#!/usr/bin/env python3
"""Validates the on-disk checkpoint-manifest schema (docs/fault_tolerance.md).

Two modes:

  check_manifest.py CHECKPOINT_DIR
      Validate an existing rotated checkpoint directory: parse MANIFEST.vckm
      against the documented wire format (magic "VCKM", versions 1-3, entry
      table, CRC-32 trailer), then cross-check every listed chain file's
      existence, size, and CRC (v3: the file's own CRC trailer; v1/v2: the
      CRC of the whole file), plus the latest.vckp alias.

  check_manifest.py --emitter PATH/TO/checkpoint_rotation_test
      Drive the checkpoint_rotation_test gtest binary twice
      (--gtest_filter=ManifestEmit* with VERO_CKPT_EMIT_DIR pointing at
      fresh temp dirs), validate both emitted directories, and require the
      deterministic projection (file names, trees_done, sizes, CRCs) to be
      identical across the two runs. Registered as the check_manifest ctest,
      mirroring check_trace.

This is an independent reimplementation of the reader: it shares no code
with src/quadrants/checkpoint.cc, so it catches accidental format drift
that a C++ round-trip test cannot. Exits non-zero on the first violation.
"""

import argparse
import os
import struct
import zlib

from checklib import require, run_gtest_emitter

MANIFEST_MAGIC = 0x56434B4D  # "VCKM"
CHECKPOINT_MAGIC = 0x56434B50  # "VCKP"
DELTA_MAGIC = 0x56434B44  # "VCKD"
VERSION = 1
# v2 adds per-entry kind + base_trees; v3 records each chain file's CRC
# trailer instead of a CRC over the whole file.
MANIFEST_VERSIONS = (1, 2, 3)
KIND_FULL = 0
KIND_DELTA = 1
MANIFEST_NAME = "MANIFEST.vckm"
LATEST_NAME = "latest.vckp"


class Reader:
    """Bounds-checked little-endian cursor over one file's bytes."""

    def __init__(self, data, where):
        self.data = data
        self.pos = 0
        self.where = where

    def take(self, n, what):
        require(self.pos + n <= len(self.data),
                f"{self.where}: truncated reading {what} "
                f"(need {n} bytes at offset {self.pos}, "
                f"have {len(self.data)})")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self, what):
        return self.take(1, what)[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]

    def string(self, what):
        n = self.u32(f"{what} length")
        require(n <= len(self.data) - self.pos,
                f"{self.where}: {what} length {n} overruns file")
        return self.take(n, what).decode("utf-8", errors="strict")


def parse_manifest(path):
    """Parses MANIFEST.vckm; returns (version, entry list oldest first)."""
    with open(path, "rb") as f:
        data = f.read()
    r = Reader(data, path)
    require(r.u32("magic") == MANIFEST_MAGIC, f"{path}: bad magic")
    version = r.u32("version")
    require(version in MANIFEST_VERSIONS, f"{path}: unsupported version")
    count = r.u32("entry count")
    entries = []
    for i in range(count):
        what = f"entry[{i}]"
        entry = {
            "file": r.string(f"{what} file"),
            "trees_done": r.u32(f"{what} trees_done"),
            "bytes": r.u64(f"{what} bytes"),
            "crc32": r.u32(f"{what} crc32"),
            # v1 manifests predate delta chains: every entry is full.
            "kind": KIND_FULL,
            "base_trees": 0,
        }
        if version >= 2:
            entry["kind"] = r.u8(f"{what} kind")
            entry["base_trees"] = r.u32(f"{what} base_trees")
            require(entry["kind"] in (KIND_FULL, KIND_DELTA),
                    f"{path}: {what} unknown kind {entry['kind']}")
        entries.append(entry)
    trailer = r.u32("CRC trailer")
    require(r.pos == len(data),
            f"{path}: {len(data) - r.pos} trailing bytes after CRC trailer")
    computed = zlib.crc32(data[:len(data) - 4]) & 0xFFFFFFFF
    require(trailer == computed,
            f"{path}: CRC trailer {trailer:#010x} != computed "
            f"{computed:#010x}")
    return version, entries


def check_chain_file(path, expected_kind):
    """Validates one chain file's framing: magic (full "VCKP" or delta
    "VCKD" per the manifest's kind), version, own CRC trailer. Returns
    (data, header) where header holds the fields shared by both formats."""
    with open(path, "rb") as f:
        data = f.read()
    require(len(data) >= 16, f"{path}: too short to be a checkpoint")
    magic, version, trees_done = struct.unpack_from("<III", data, 0)
    expected_magic = (DELTA_MAGIC if expected_kind == KIND_DELTA
                      else CHECKPOINT_MAGIC)
    require(magic == expected_magic,
            f"{path}: magic {magic:#010x} does not match manifest kind "
            f"{expected_kind}")
    require(version == VERSION, f"{path}: unsupported checkpoint version")
    (trailer,) = struct.unpack_from("<I", data, len(data) - 4)
    computed = zlib.crc32(data[:len(data) - 4]) & 0xFFFFFFFF
    require(trailer == computed, f"{path}: checkpoint CRC trailer mismatch")
    header = {"trees_done": trees_done}
    if expected_kind == KIND_DELTA:
        require(len(data) >= 24, f"{path}: delta file too short")
        base_trees, count = struct.unpack_from("<II", data, 12)
        require(base_trees < trees_done,
                f"{path}: delta base_trees {base_trees} >= trees_done "
                f"{trees_done}")
        require(count == trees_done - base_trees,
                f"{path}: delta tree count {count} != trees_done - "
                f"base_trees")
        header["base_trees"] = base_trees
    return data, header


def check_dir(dir_path):
    """Validates a checkpoint directory; returns its projection."""
    require(os.path.isdir(dir_path), f"{dir_path}: not a directory")
    manifest_path = os.path.join(dir_path, MANIFEST_NAME)
    require(os.path.exists(manifest_path), f"missing {manifest_path}")
    version, entries = parse_manifest(manifest_path)
    require(len(entries) > 0, f"{manifest_path}: empty manifest")

    prev_index = -1
    prev_entry = None
    for entry in entries:
        name = entry["file"]
        where = f"{manifest_path}: entry {name!r}"
        require(name.startswith("ckpt-") and name.endswith(".vckp")
                and len(name) == 16,
                f"{where}: not a chain file name")
        index = int(name[5:11])
        require(index > prev_index,
                f"{where}: chain indices not strictly increasing")
        prev_index = index

        # Delta-chain invariants: a delta extends the immediately preceding
        # manifest entry, and the retained chain always starts at a full
        # anchor (GC never strands a delta suffix).
        if entry["kind"] == KIND_DELTA:
            require(prev_entry is not None,
                    f"{where}: delta entry with no preceding chain entry")
            require(entry["base_trees"] == prev_entry["trees_done"],
                    f"{where}: delta base_trees {entry['base_trees']} != "
                    f"previous entry trees_done {prev_entry['trees_done']}")
            require(entry["trees_done"] > entry["base_trees"],
                    f"{where}: delta does not advance the tree count")
        else:
            require(entry["base_trees"] == 0,
                    f"{where}: full entry with nonzero base_trees")
        prev_entry = entry

        path = os.path.join(dir_path, name)
        require(os.path.exists(path), f"{where}: listed file missing")
        data, header = check_chain_file(path, entry["kind"])
        require(len(data) == entry["bytes"],
                f"{where}: size {len(data)} != manifest {entry['bytes']}")
        if version >= 3:
            # The trailer itself was checked against the content above.
            (file_crc,) = struct.unpack_from("<I", data, len(data) - 4)
            crc_name = "CRC trailer"
        else:
            file_crc = zlib.crc32(data) & 0xFFFFFFFF
            crc_name = "whole-file CRC"
        require(file_crc == entry["crc32"],
                f"{where}: {crc_name} {file_crc:#010x} != manifest "
                f"{entry['crc32']:#010x}")
        require(header["trees_done"] == entry["trees_done"],
                f"{where}: file trees_done {header['trees_done']} != "
                f"manifest {entry['trees_done']}")
        if entry["kind"] == KIND_DELTA:
            require(header["base_trees"] == entry["base_trees"],
                    f"{where}: file base_trees {header['base_trees']} != "
                    f"manifest {entry['base_trees']}")

    # The alias duplicates the newest committed chain file byte-for-byte.
    latest_path = os.path.join(dir_path, LATEST_NAME)
    require(os.path.exists(latest_path), f"missing {latest_path}")
    with open(os.path.join(dir_path, entries[-1]["file"]), "rb") as f:
        newest = f.read()
    with open(latest_path, "rb") as f:
        alias = f.read()
    require(alias == newest,
            f"{latest_path}: alias differs from newest chain file "
            f"{entries[-1]['file']}")

    return [(e["file"], e["trees_done"], e["bytes"], e["crc32"], e["kind"],
             e["base_trees"])
            for e in entries]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*",
                        help="checkpoint directory to validate")
    parser.add_argument("--emitter", metavar="CHECKPOINT_ROTATION_TEST",
                        help="checkpoint_rotation_test binary to drive")
    args = parser.parse_args()

    if args.emitter:
        def emit_projection():
            out_dir = run_gtest_emitter(args.emitter, "ManifestEmit*",
                                        "VERO_CKPT_EMIT_DIR")
            proj = check_dir(out_dir)
            # The emitter also writes a delta-mode chain into "delta/" so
            # the v2 kind/base_trees columns get external validation.
            delta_dir = os.path.join(out_dir, "delta")
            require(os.path.isdir(delta_dir),
                    f"{out_dir}: emitter wrote no delta-mode chain")
            delta_proj = check_dir(delta_dir)
            require(any(e[4] == KIND_DELTA for e in delta_proj),
                    f"{delta_dir}: delta-mode chain has no delta entries")
            return proj + delta_proj

        proj_a = emit_projection()
        proj_b = emit_projection()
        require(proj_a == proj_b,
                "deterministic manifest projection differs between two "
                "identical runs")
        print(f"check_manifest: OK ({len(proj_a)} chain entries, projection "
              "stable across 2 runs)")
        return

    if not args.paths:
        parser.error("need a checkpoint directory or --emitter")
    total = 0
    for path in args.paths:
        total += len(check_dir(path))
    print(f"check_manifest: OK ({total} chain entries across "
          f"{len(args.paths)} dir(s))")


if __name__ == "__main__":
    main()
