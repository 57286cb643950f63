#!/usr/bin/env bash
# Waits for the study daemon (ipv6webd) over HTTP.
#
#   tools/ci-wait.sh healthz BASE_URL
#       Polls GET /healthz up to 100 times, 0.2 s apart, until it answers.
#   tools/ci-wait.sh job BASE_URL JOB_ID STATE
#       Polls GET /jobs/JOB_ID until its state is STATE: `running` up to
#       600 times 0.05 s apart, any other state up to 600 times 1 s apart.
#
# Exits 0 once the wait is over and 1 on a timeout. A job that reaches a
# terminal state other than STATE (`failed` when waiting for `done`, or
# `done` when waiting for `failed`) prints its record and exits 1 at once.
set -euo pipefail

usage() {
  echo "usage: $0 healthz BASE_URL | job BASE_URL JOB_ID STATE" >&2
  exit 2
}

case "${1:-}" in
  healthz)
    [ "$#" -eq 2 ] || usage
    for _ in $(seq 1 100); do
      curl -sf "$2/healthz" > /dev/null && exit 0
      sleep 0.2
    done
    echo "ci-wait: $2 never answered /healthz" >&2
    exit 1
    ;;
  job)
    [ "$#" -eq 4 ] || usage
    url="$2/jobs/$3"
    want="$4"
    pause=1
    [ "$want" = running ] && pause=0.05
    state=queued
    for _ in $(seq 1 600); do
      state=$(curl -sf "$url" | jq -r .state)
      [ "$state" = "$want" ] && exit 0
      if [ "$state" = done ] || [ "$state" = failed ]; then
        echo "ci-wait: job $3 ended $state, expected $want" >&2
        curl -s "$url"
        exit 1
      fi
      sleep "$pause"
    done
    echo "ci-wait: job $3 still $state, expected $want" >&2
    exit 1
    ;;
  *)
    usage
    ;;
esac
