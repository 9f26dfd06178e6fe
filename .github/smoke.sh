#!/usr/bin/env bash
# Runs descell's subcommands on tests/data and checks their output.
# The arguments are the command that runs descell, for example:
#   bash .github/smoke.sh descell
#   PYTHONPATH=src bash .github/smoke.sh python -m descell
set -euo pipefail
# Some steps run from another directory, so a relative PYTHONPATH entry is
# resolved against the starting one.
if [ -n "${PYTHONPATH:-}" ]; then
  IFS=: read -ra entries <<< "$PYTHONPATH"
  for i in "${!entries[@]}"; do
    case "${entries[i]}" in /*) ;; *) entries[i]="$PWD/${entries[i]}" ;; esac
  done
  PYTHONPATH="$(IFS=:; echo "${entries[*]}")"
  export PYTHONPATH
fi
data="$(cd "$(dirname "${BASH_SOURCE[0]}")/../tests/data" && pwd)"
"$@" homology "$data/torus.cw" | tail -n 1 | grep -qx "betti 1 2 1"
"$@" homology "$data/torus.cw" --oracle | tail -n 1 | grep -qx "betti 1 2 1"
# Truncated at dimension 1: the top map d_2 gives only the pivots that clear d_1.
"$@" homology "$data/torus.cw" --max-dim 1 --generators \
  | cmp - <(printf '%s\n' "dim 0 cells 1 cycle_rank 1 boundary_rank 0 betti 1" "gen 0 v" \
      "dim 1 cells 2 cycle_rank 2 boundary_rank 0 betti 2" "gen 1 a" "gen 1 b" "betti 1 2")
"$@" persist "$data/cooling.scenario" | cmp - "$data/golden_cooling_signature.csv"
"$@" persist "$data/cooling.scenario" --mode retain --delta 0.25 \
  | cmp - "$data/golden_cooling_signature_retain.csv"
# A command line with each option spelled in full is read without argparse,
# in either form of a value; argparse reads an abbreviated option alike.
"$@" persist "$data/cooling.scenario" --delta 0 | cmp - "$data/golden_cooling_signature.csv"
"$@" persist "$data/cooling.scenario" --delta=0 | cmp - "$data/golden_cooling_signature.csv"
"$@" homology "$data/torus.cw" --gen | cmp - <("$@" homology "$data/torus.cw" --generators)
"$@" descriptive "$data/disk3.cw" --probe "$data/disk3_probe.csv" --spectrum \
  | cmp - <(printf 'alpha %s cells 14 betti 1 1 0\n' 0.2 0.5 0.9)
"$@" descriptive "$data/disk3.cw" --probe "$data/disk3_probe.csv" --spectrum \
    --dim 1 --mode retain --delta 0.3 | cmp - <(echo "alpha 0.0 cells 15 betti 1 0 0")
# An arity-1 ball whose radius falls between the two rounded edge distances:
# |0.7 - 0.5| = 0.19999999999999996 is inside it, |0.9 - 0.7| = 0.20000000000000007 not.
"$@" descriptive "$data/disk3.cw" --probe "$data/disk3_probe.csv" --alpha 0.7 --delta 0.2 \
  | cmp - <(echo "alpha 0.7 cells 14 betti 1 1 0")
"$@" descriptive "$data/disk3.cw" --probe "$data/disk3_probe.csv" --alpha 0.7 --delta 0.2 \
    --mode retain | cmp - <(echo "alpha 0.7 cells 13 betti 1 2 0")
# Arity-2 balls test each distinct value with `contains`. At (0.5, 0.75) with
# radius 0.25, tI's first component 0.25 is at the ball's edge, but tI is not
# in it, so only tJ goes.
"$@" descriptive "$data/square.cw" --probe "$data/cooling_step1.csv" --spectrum --dim 1 \
    --mode retain --delta 0.3 \
  | cmp - <(printf '%s\n' "alpha 0.25;0.25 cells 6 betti 2 0 0" "alpha 0.75;0.75 cells 8 betti 2 0 0")
"$@" descriptive "$data/square.cw" --probe "$data/cooling_step2.csv" --alpha "0.5;0.75" \
    --delta 0.25 | cmp - <(echo "alpha 0.5;0.75 cells 10 betti 1 1 0")
# A negative ';'-joined alpha, after '=' and as a separate value.
"$@" descriptive "$data/square.cw" --probe "$data/cooling_step1.csv" --alpha="-0.5;0.25" \
  | cmp - <(echo "alpha -0.5;0.25 cells 11 betti 1 0 0")
"$@" descriptive "$data/square.cw" --probe "$data/cooling_step1.csv" --alpha "-0.5;0.25" \
  | cmp - <(echo "alpha -0.5;0.25 cells 11 betti 1 0 0")
# A separate negative value after a prefix of --alpha, as after '='.
"$@" descriptive "$data/disk3.cw" --probe "$data/disk3_probe.csv" --alp -1e-3 \
  | cmp - <("$@" descriptive "$data/disk3.cw" --probe "$data/disk3_probe.csv" --alpha=-1e-3)
# The torus times a circle at removal dimension 2: the cascade removes the
# 3-cell with either of its triangles.
"$@" descriptive "$data/torus_x_circle.cw" --probe "$data/torus_x_circle_probe.csv" \
    --spectrum --dim 2 --delta 0.25 \
  | cmp - <(printf '%s\n' "alpha 0.0 cells 6 betti 1 3 2 0" "alpha 0.5 cells 6 betti 1 3 2 0" \
      "alpha 1.0 cells 7 betti 1 3 2 1")
"$@" descriptive "$data/torus_x_circle.cw" --probe "$data/torus_x_circle_probe.csv" \
    --spectrum --dim 2 --delta 0.25 --mode retain \
  | cmp - <(printf 'alpha %s cells 5 betti 1 3 1 0\n' 0.0 0.5 1.0)
"$@" validate "$data/torus.cw" | cmp - <(echo OK)
# The torus times a circle: a 3-cell, so the top map d_3 is not empty.
"$@" homology "$data/torus_x_circle.cw" --oracle | tail -n 1 | grep -qx "betti 1 3 3 1"
"$@" validate "$data/torus_x_circle.cw" | cmp - <(echo OK)
# A 2-cell attached once to one edge: its composite boundary is odd at both
# ends of the edge, and the compile of its face rows finds it; exit 1.
{ "$@" validate "$data/broken_dd.cw" || echo "exit $?"; } \
  | cmp - <(printf '%s\n' "composite-odd [f v0] composite boundary coefficient 1 is odd" \
      "composite-odd [f v1] composite boundary coefficient 1 is odd" "exit 1")
# An undeclared face and a face of the wrong dimension: the row index misses
# both, and each line is read again word by word to word its parse error.
faces="$(mktemp -d)"
trap 'rm -rf "$faces"' EXIT
printf '%s\n' "cell v 0" "cell e 1" "cell t 2" "bnd e v:1 ghost:1" "bnd t v:1" > "$faces/bad.cw"
{ "$@" validate "$faces/bad.cw" 2>&1 >/dev/null || echo "exit $?"; } \
  | cmp - <(printf '%s\n' "$faces/bad.cw:4: error: bnd references undeclared face 'ghost'" \
      "$faces/bad.cw:5: error: face 'v' has dimension 0, expected 1" "exit 2")
# A triangle boundary with each edge's faces on two bnd lines, and a face of
# ca entered on both of its lines with degrees that cancel.
tri="$(mktemp)"
trap 'rm -rf "$faces" "$tri"' EXIT
printf '%s\n' "cell a 0" "cell b 0" "cell c 0" "cell ab 1" "cell bc 1" "cell ca 1" \
  "bnd ab a:1" "bnd ab b:1" "bnd bc b:1" "bnd bc c:1" "bnd ca c:1 b:1" "bnd ca a:1 b:-1" > "$tri"
"$@" homology "$tri" --generators \
  | cmp - <(printf '%s\n' "dim 0 cells 3 cycle_rank 3 boundary_rank 2 betti 1" "gen 0 a" \
      "dim 1 cells 3 cycle_rank 1 boundary_rank 0 betti 1" "gen 1 ab bc ca" "betti 1 1")
"$@" validate "$tri" | cmp - <(echo OK)
# Descriptor tables from the CLI: a clean one is accepted by whole columns,
# and a broken one is walked row by row to word each error.
scen="$(mktemp -d)"
trap 'rm -rf "$faces" "$tri" "$scen"' EXIT
cp "$data/cooling.scenario" "$data/square.cw" "$data"/cooling_step[123].csv "$scen"
# A blank line and ids padded with a space and a tab: the same signature.
awk -F, -v OFS=, 'NR == 4 { print "" } NR > 1 { $1 = " " $1 "\t" } 1' \
  "$data/cooling_step2.csv" > "$scen/cooling_step2.csv"
"$@" persist "$scen/cooling.scenario" | cmp - "$data/golden_cooling_signature.csv"
# A value that is not a number and a repeated row: exit 1, both errors, and
# the cell of the rejected row left without descriptors.
{ sed '3s/^eE,0.25,/eE,warm,/' "$data/cooling_step3.csv"; sed -n 2p "$data/cooling_step3.csv"; } \
  > "$scen/cooling_step3.csv"
{ "$@" persist "$scen/cooling.scenario" 2>&1 >/dev/null || echo "exit $?"; } \
  | cmp - <(printf '%s\n' \
      "$scen/cooling_step3.csv:3: error: non-numeric descriptor value in 'eE,warm,0.75'" \
      "$scen/cooling_step3.csv:13: error: duplicate row for cell 'eD'" \
      "$scen/cooling_step3.csv:0: error: cells without descriptors: eE" "exit 1")
# Run from the scenario's parent directory, a referenced file is named by its
# path from there, so the path printed can be opened as it stands.
shown="$(cd "$scen/.." && { "$@" persist "${scen##*/}/cooling.scenario" 2>&1 >/dev/null || true; } \
  | sed -n '1s/:.*//p')"
[ "$shown" = "${scen##*/}/cooling_step3.csv" ]
(cd "$scen/.." && test -f "$shown")
# A step CSV that is not UTF-8 gets the same diagnostic line named by a
# scenario (a scenario error, exit 1) and on the command line (a parse
# error, exit 2).
bytes="$(wc -c < "$data/cooling_step1.csv")"
{ cat "$data/cooling_step1.csv"; printf '\377\n'; } > "$scen/cooling_step1.csv"
notutf8="$scen/cooling_step1.csv:0: error: not UTF-8 text (invalid start byte at byte $((bytes)))"
{ "$@" persist "$scen/cooling.scenario" 2>&1 >/dev/null || echo "exit $?"; } \
  | cmp - <(printf '%s\n' "$notutf8" "exit 1")
{ "$@" descriptive "$data/square.cw" --probe "$scen/cooling_step1.csv" --spectrum \
    2>&1 >/dev/null || echo "exit $?"; } | cmp - <(printf '%s\n' "$notutf8" "exit 2")
"$@" gauge "$data/disk3.cw" --probe "$data/disk3_probe.csv" --charts "$data/charts_ok.chart" \
  | cmp - <(echo OK)
# A report with violations exits 1, which the `||` both allows and prints.
{ "$@" gauge "$data/disk3.cw" --probe "$data/disk3_probe.csv" \
    --charts "$data/charts_override.chart" || echo "exit $?"; } \
  | cmp - <(printf '%s\n' "trivialization charts right cell C residual 0.77 norm 0.77" "exit 1")
# A cover with a comment line, a tab-indented member and CRLF endings gives
# the same report; a member repeated in the second block is walked line by
# line to its diagnostic, a parse error.
covers="$(mktemp -d)"
trap 'rm -rf "$faces" "$tri" "$scen" "$covers"' EXIT
awk 'NR == 1 { printf "# two charts, one override\r\n" } NR == 2 { $0 = "\t" $0 }
  { printf "%s\r\n", $0 }' "$data/charts_override.chart" > "$covers/crlf.chart"
{ "$@" gauge "$data/disk3.cw" --probe "$data/disk3_probe.csv" \
    --charts "$covers/crlf.chart" || echo "exit $?"; } \
  | cmp - <(printf '%s\n' "trivialization charts right cell C residual 0.77 norm 0.77" "exit 1")
{ cat "$data/charts_override.chart"; echo "member C-D"; } > "$covers/dup.chart"
{ "$@" gauge "$data/disk3.cw" --probe "$data/disk3_probe.csv" \
    --charts "$covers/dup.chart" 2>&1 >/dev/null || echo "exit $?"; } \
  | cmp - <(printf '%s\n' "$covers/dup.chart:22: error: cell 'C-D' listed twice in chart 'right'" \
      "exit 2")
# In the form that emit_charts writes, a cover is read in one piece; with a
# member repeated inside the run of members before the override line it is
# walked line by line to the same diagnostic.
sed 1d "$data/charts_ok.chart" > "$covers/canonical.chart"
"$@" gauge "$data/disk3.cw" --probe "$data/disk3_probe.csv" --charts "$covers/canonical.chart" \
  | cmp - <(echo OK)
{ head -n 20 "$data/charts_override.chart"; echo "member C-D"; tail -n +21 "$data/charts_override.chart"; } \
  > "$covers/dup_canonical.chart"
{ "$@" gauge "$data/disk3.cw" --probe "$data/disk3_probe.csv" \
    --charts "$covers/dup_canonical.chart" 2>&1 >/dev/null || echo "exit $?"; } \
  | cmp - <(printf '%s\n' \
      "$covers/dup_canonical.chart:21: error: cell 'C-D' listed twice in chart 'right'" "exit 2")
# Non-dyadic overrides: cell C's three values leave a cocycle residual that
# rounds, and each override is a trivialization row; exit 1. Taken whole, and
# walked line by line with a comment and CRLF endings, the report is the same.
code=0
"$@" gauge "$data/disk3.cw" --probe "$data/disk3_probe.csv" \
  --charts "$data/charts_cocycle.chart" > "$covers/cocycle.report" || code=$?
[ "$code" = 1 ]
cmp "$covers/cocycle.report" "$data/golden_charts_cocycle.txt"
awk 'NR == 1 { printf "# three charts around C\r\n" } { printf "%s\r\n", $0 }' \
  "$data/charts_cocycle.chart" > "$covers/cocycle_crlf.chart"
code=0
"$@" gauge "$data/disk3.cw" --probe "$data/disk3_probe.csv" \
  --charts "$covers/cocycle_crlf.chart" > "$covers/cocycle_crlf.report" || code=$?
[ "$code" = 1 ]
cmp "$covers/cocycle_crlf.report" "$data/golden_charts_cocycle.txt"
# Line, member and block errors interleaved: each is worded on its line, in
# line order, and the block errors follow.
printf '%s\n' "chart a" "member X" "bogus line" "member A" "member A" "chart b" \
  "override A 0.5" "# note" "chart a" "member B" > "$covers/mixed.chart"
{ "$@" gauge "$data/disk3.cw" --probe "$data/disk3_probe.csv" \
    --charts "$covers/mixed.chart" 2>&1 >/dev/null || echo "exit $?"; } \
  | cmp - <(printf '%s\n' "$covers/mixed.chart:2: error: unknown cell 'X'" \
      "$covers/mixed.chart:3: error: unknown directive 'bogus'" \
      "$covers/mixed.chart:5: error: cell 'A' listed twice in chart 'a'" \
      "$covers/mixed.chart:9: error: chart 'a' declared twice" \
      "$covers/mixed.chart:10: error: member line before any chart declaration" \
      "$covers/mixed.chart:6: error: chart 'b' has no members" "exit 2")
# An unrecognized argument prints the usage line that names every subcommand,
# as an unknown subcommand does; both are usage errors.
bogus="$({ "$@" persist x --bogus 2>&1 >/dev/null || echo "exit $?"; } | sed -n '1p;$p')"
nosuch="$({ "$@" nosuch 2>&1 >/dev/null || echo "exit $?"; } | sed -n '1p;$p')"
[ "$bogus" = "$nosuch" ]
[ "${bogus##*$'\n'}" = "exit 2" ]
# Two thousand charts hold one vertex, chart cI overriding it with I + 1: every
# cocycle residual there is an exact zero, so the report is one trivialization
# row per chart, and it comes well inside the time limit.
many="$(mktemp -d)"
trap 'rm -rf "$faces" "$tri" "$scen" "$covers" "$many"' EXIT
printf 'cell A 0\n' > "$many/point.cw"
printf 'cell,f1\nA,0.0\n' > "$many/point_probe.csv"
for ((i = 0; i < 2000; i++)); do
  printf 'chart c%d\nmember A\noverride A %d\n' "$i" "$((i + 1))"
done > "$many/point.chart"
code=0
timeout 20 "$@" gauge "$many/point.cw" --probe "$many/point_probe.csv" \
  --charts "$many/point.chart" > "$many/report" || code=$?
[ "$code" = 1 ]
[ "$(wc -l < "$many/report")" = 2000 ]
