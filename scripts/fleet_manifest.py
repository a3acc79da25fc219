#!/usr/bin/env python3
"""Inspect and verify a fleet campaign manifest.

The manifest is the pair of files src/fleet/manifest.hh describes: a
checkpointed snapshot (`<path>`) plus an append-only journal
(`<path>.journal`).  Every line is one JSON object whose single
member names the record type (config, case, poison, repro, weights)
and holds its payload, sealed with a trailing ` crc <fnv64-hex>`.
This tool re-implements the loader independently of the C++ code, so
CI can cross-check the orchestrator rather than trust its own
accounting.  A line that fails its seal, does not parse, or lacks a
member its type requires counts as torn:

  # Human summary: config, progress, quarantine list, torn lines.
  fleet_manifest.py build/fleet.manifest

  # Exactly-once coverage proof for a kill/resume (chaos) campaign:
  # every seed in [--seed, --seed + --cases) must be completed or
  # quarantined, exactly once, with nothing outside the range.
  fleet_manifest.py build/fleet.manifest --verify-coverage \
      --seed 0x5eed --cases 200

  # Additionally require every quarantined case to carry a shrunk
  # repro file that exists on disk.
  fleet_manifest.py ... --require-repro

Exit status: 0 when every requested check holds, 1 otherwise.
"""

import argparse
import json
import os
import sys

FNV_OFFSET = 0xcbf29ce484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1


def fnv1a(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def unseal(line: str):
    """Return the record with its checksum verified, or None."""
    at = line.rfind(" crc ")
    if at < 0:
        return None
    body, crc = line[:at], line[at + 5:]
    try:
        want = int(crc, 16)
    except ValueError:
        return None
    if len(crc) != 16 or fnv1a(body.encode()) != want:
        return None
    return body


def no_duplicates(pairs):
    """object_pairs_hook: a member named twice fails, as in the C++
    parser."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate member")
    return obj


def seed_of(body):
    """The 16-hex-digit `seed` member of a record's payload, or None."""
    seed = body.get("seed")
    if not isinstance(seed, str) or len(seed) != 16:
        return None
    try:
        return int(seed, 16)
    except ValueError:
        return None


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


class Manifest:
    def __init__(self):
        self.config = None
        self.completed = {}   # seed -> case payload
        self.poisoned = {}    # seed -> (attempts, cause, repro)
        self.weights = {}     # batch -> bank
        self.torn = 0
        self.conflicts = []

    def apply(self, kind, body):
        """Apply one record other than config; False if it does not
        read."""
        if not isinstance(body, dict):
            return False
        seed = seed_of(body)
        attempts, cause = body.get("attempts"), body.get("cause")
        path, bank = body.get("path"), body.get("bank")
        if kind == "case" and seed is not None:
            self.completed[seed] = body
        elif kind == "poison" and seed is not None and is_int(attempts) \
                and isinstance(cause, str):
            prev = self.poisoned.get(seed, (0, "", ""))
            self.poisoned[seed] = (attempts, cause, prev[2])
        elif kind == "repro" and seed is not None \
                and isinstance(path, str):
            prev = self.poisoned.get(seed, (0, "", ""))
            self.poisoned[seed] = (prev[0], prev[1], path)
        elif kind == "weights" and is_int(body.get("batch")) \
                and isinstance(bank, list) \
                and all(is_int(w) and w > 0 for w in bank):
            self.weights[body["batch"]] = bank
        else:
            return False
        return True

    def load_file(self, path: str, require_header: bool):
        if not os.path.exists(path):
            return
        saw_header = False
        with open(path, errors="replace") as f:
            for line in f:
                line = line.rstrip("\n")
                if not line:
                    continue
                rec = unseal(line)
                try:
                    doc = json.loads(rec, object_pairs_hook=no_duplicates)
                except (TypeError, ValueError):
                    doc = None
                if not isinstance(doc, dict) or len(doc) != 1:
                    self.torn += 1
                    continue
                (kind, body), = doc.items()
                if kind == "config" and isinstance(body, str):
                    if self.config is None:
                        self.config = body
                    elif self.config != body:
                        self.conflicts.append(body)
                    saw_header = True
                elif require_header and not saw_header:
                    self.torn += 1
                elif not self.apply(kind, body):
                    self.torn += 1


def load(path: str) -> Manifest:
    m = Manifest()
    m.load_file(path, require_header=True)
    m.load_file(path + ".journal", require_header=False)
    return m


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("manifest", help="manifest checkpoint path")
    ap.add_argument("--verify-coverage", action="store_true",
                    help="require exactly-once coverage of the "
                         "[--seed, --seed + --cases) range")
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=None)
    ap.add_argument("--cases", type=int, default=None)
    ap.add_argument("--require-repro", action="store_true",
                    help="every poison record needs an existing "
                         "repro file")
    ap.add_argument("--max-quarantined", type=int, default=None,
                    help="fail when more cases are quarantined")
    args = ap.parse_args()

    m = load(args.manifest)
    ok = True

    print(f"manifest : {args.manifest}")
    print(f"config   : {m.config or '<missing>'}")
    print(f"completed: {len(m.completed)}")
    print(f"poisoned : {len(m.poisoned)}")
    print(f"weights  : {len(m.weights)}")
    print(f"torn     : {m.torn}")
    for seed, (attempts, cause, repro) in sorted(m.poisoned.items()):
        print(f"  poison seed {seed:016x}: {attempts} attempts, "
              f"{cause}" + (f" -> {repro}" if repro else ""))
    if m.conflicts:
        ok = False
        for c in m.conflicts:
            print(f"FAIL: conflicting config record: {c}")

    both = set(m.completed) & set(m.poisoned)
    if both:
        ok = False
        print(f"FAIL: {len(both)} seeds both completed and "
              f"quarantined: "
              + " ".join(f"{s:016x}" for s in sorted(both)[:8]))

    if args.verify_coverage:
        if args.seed is None or args.cases is None:
            ap.error("--verify-coverage needs --seed and --cases")
        want = set(range(args.seed, args.seed + args.cases))
        have = set(m.completed) | set(m.poisoned)
        missing = want - have
        extra = have - want
        if missing:
            ok = False
            print(f"FAIL: {len(missing)} seeds uncovered: "
                  + " ".join(f"{s:016x}"
                             for s in sorted(missing)[:8]))
        if extra:
            ok = False
            print(f"FAIL: {len(extra)} seeds outside the campaign: "
                  + " ".join(f"{s:016x}" for s in sorted(extra)[:8]))
        if not missing and not extra:
            print(f"coverage : all {args.cases} seeds exactly once "
                  f"({len(m.completed)} completed, "
                  f"{len(m.poisoned)} quarantined)")

    if args.require_repro:
        for seed, (_, _, repro) in sorted(m.poisoned.items()):
            if not repro:
                ok = False
                print(f"FAIL: seed {seed:016x} quarantined without "
                      f"a repro record")
            elif not os.path.exists(repro):
                ok = False
                print(f"FAIL: seed {seed:016x} repro missing on "
                      f"disk: {repro}")

    if args.max_quarantined is not None \
            and len(m.poisoned) > args.max_quarantined:
        ok = False
        print(f"FAIL: {len(m.poisoned)} quarantined > limit "
              f"{args.max_quarantined}")

    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
