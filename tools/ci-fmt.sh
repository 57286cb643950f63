#!/usr/bin/env bash
# Runs `cargo fmt` over every first-party workspace package
# (tools/first-party-packages.sh); vendored crates keep their upstream
# formatting.
#
# Usage: tools/ci-fmt.sh [--check]
set -euo pipefail
cd "$(dirname "$0")/.."

mode=()
if [[ "${1:-}" == "--check" ]]; then
  mode=(--check)
elif [[ $# -gt 0 ]]; then
  echo "usage: $0 [--check]" >&2
  exit 2
fi

pkgs=$(tools/first-party-packages.sh)
args=()
while IFS= read -r p; do
  args+=(-p "$p")
done <<<"$pkgs"

exec cargo fmt "${mode[@]}" "${args[@]}"
