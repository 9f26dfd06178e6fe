#!/usr/bin/env bash
# Runs descell's subcommands on tests/data and checks their output.
# The arguments are the command that runs descell, for example:
#   bash .github/smoke.sh descell
#   PYTHONPATH=src bash .github/smoke.sh python -m descell
set -euo pipefail
data="$(cd "$(dirname "${BASH_SOURCE[0]}")/../tests/data" && pwd)"
"$@" homology "$data/torus.cw" | tail -n 1 | grep -qx "betti 1 2 1"
"$@" homology "$data/torus.cw" --oracle | tail -n 1 | grep -qx "betti 1 2 1"
"$@" persist "$data/cooling.scenario" | cmp - "$data/golden_cooling_signature.csv"
"$@" descriptive "$data/disk3.cw" --probe "$data/disk3_probe.csv" --spectrum \
  | cmp - <(printf 'alpha %s cells 14 betti 1 1 0\n' 0.2 0.5 0.9)
"$@" validate "$data/torus.cw" | cmp - <(echo OK)
