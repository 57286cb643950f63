#!/usr/bin/env bash
# Prints the first-party workspace packages (every `ipv6web*` package in
# `cargo metadata`), one per line.
#
# Derived, not hand-maintained: vendored crates (vendor/*) are left out,
# and a newly added ipv6web-* crate is picked up automatically instead of
# being silently skipped by the lint steps that use this list.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=$(cargo metadata --format-version 1 --no-deps |
  python3 -c '
import json, sys
meta = json.load(sys.stdin)
names = sorted(p["name"] for p in meta["packages"] if p["name"].startswith("ipv6web"))
print("\n".join(names))
')

if [[ -z "$pkgs" ]]; then
  echo "first-party-packages: no ipv6web packages found in cargo metadata" >&2
  exit 1
fi
echo "$pkgs"
