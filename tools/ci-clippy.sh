#!/usr/bin/env bash
# Runs clippy over every first-party workspace package
# (tools/first-party-packages.sh), all targets, warnings denied. A bare
# `cargo clippy` at the workspace root lints only the root package.
#
# Usage: tools/ci-clippy.sh
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  echo "usage: $0" >&2
  exit 2
fi

pkgs=$(tools/first-party-packages.sh)
args=()
while IFS= read -r p; do
  args+=(-p "$p")
done <<<"$pkgs"

exec cargo clippy "${args[@]}" --all-targets -- -D warnings
