#!/usr/bin/env bash
# Docs hygiene: keeps docs/SCENARIOS.md from rotting against the parser.
#
#  1. Every key in the scenario key table (src/scenario/spec.cpp, between
#     the BEGIN/END KEY TABLE markers — the same table the parser, the
#     scenario-text printer and `mpiv_run --list` read) must appear in
#     docs/SCENARIOS.md as `key`, and every row of that file's key tables
#     (header cell `key`) must name a key of the table, so a deleted key
#     does not linger in the docs. `workload.<param>` rows stand for the
#     `workload.*` row.
#  2. Every relative markdown link in README.md and docs/*.md must point at
#     a file that exists.
#  3. Every binary README.md, PAPER.md or docs/*.md names — a `bench_*`,
#     `test_*` or `mpiv_*` name — and every `./build/<name>` command in
#     those files, bench/e2e/README.md or the verify skill notes must have
#     a source under bench/, tests/, tools/ or examples/, so a command for
#     a deleted binary cannot linger. A name ending in `_` (`bench_micro_*`)
#     names a family and needs one matching source. CHANGES.md and
#     ROADMAP.md are history and may name deleted binaries.
#
# No build needed: CI's docs-check job runs this straight off the checkout.
set -euo pipefail

cd "$(dirname "$0")/.."

SPEC=src/scenario/spec.cpp
DOC=docs/SCENARIOS.md
fail=0

if [[ ! -f "$DOC" ]]; then
  echo "error: $DOC missing" >&2
  exit 1
fi

# --- 1. every key from the table -------------------------------------------
table=$(sed -n '/BEGIN KEY TABLE/,/END KEY TABLE/p' "$SPEC")
if [[ -z "$table" ]]; then
  echo "error: KEY TABLE markers not found in $SPEC" >&2
  exit 1
fi
keys=$(echo "$table" | grep -oE '\.doc = \{"[^"]+"' | sed 's/.*{"//; s/"$//')
if [[ -z "$keys" ]]; then
  echo "error: no keys found in the table region of $SPEC" >&2
  exit 1
fi
while IFS= read -r key; do
  if ! grep -qF "\`$key\`" "$DOC"; then
    echo "MISSING: $key (key table) not documented in $DOC" >&2
    fail=1
  fi
done <<< "$keys"

documented=$(awk '
  /^\| *key *\|/ { in_table = 1; next }
  in_table && /^\|[- |]+\|$/ { next }
  in_table && /^\|/ { split($0, cell, "|"); print cell[2]; next }
  { in_table = 0 }' "$DOC" | sed -E 's/^ *`([^`]*)` *$/\1/')
while IFS= read -r key; do
  [[ -z "$key" ]] && continue
  [[ $key == workload.* ]] && key='workload.*'
  if ! grep -qxF "$key" <<< "$keys"; then
    echo "STALE: $key documented in $DOC but not in the key table" >&2
    fail=1
  fi
done <<< "$documented"

# --- 2. relative markdown links resolve ------------------------------------
for md in README.md docs/*.md; do
  dir=$(dirname "$md")
  # Extract (target) parts of [text](target) links, one per line.
  while IFS= read -r target; do
    [[ -z "$target" ]] && continue
    case "$target" in
      http://*|https://*|\#*) continue ;;
    esac
    path=${target%%#*}  # drop an anchor suffix
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
      echo "BROKEN LINK: $md -> $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed 's/^](//; s/)$//')
done

# --- 3. named binaries have sources ----------------------------------------
DOCS=(README.md PAPER.md docs/*.md)
RUN_DOCS=("${DOCS[@]}" bench/e2e/README.md)
SKILL=.claude/skills/verify/SKILL.md
[[ -f $SKILL ]] && RUN_DOCS+=("$SKILL")
sources=$(find bench tests tools examples -name '*.cpp' -exec basename {} .cpp \;)
names=$({
  grep -ohE '\b(bench|test|mpiv)_[a-z0-9_]*' "${DOCS[@]}"
  grep -ohE '\./build/[A-Za-z0-9_]+' "${RUN_DOCS[@]}" | sed 's|^\./build/||'
} | sort -u)
while IFS= read -r name; do
  if [[ $name == *_ ]]; then
    grep -q "^$name" <<< "$sources" && continue
  else
    grep -qx "$name" <<< "$sources" && continue
  fi
  echo "STALE: $name has no source under bench/, tests/, tools/ or examples/" \
    "(named in $(grep -lwF "$name" "${RUN_DOCS[@]}" | tr '\n' ' '))" >&2
  fail=1
done <<< "$names"

if [[ $fail -ne 0 ]]; then
  echo "docs check FAILED" >&2
  exit 1
fi
echo "docs check OK ($(echo "$keys" | wc -l) table keys, links resolve," \
  "$(echo "$names" | wc -l) binary names have sources)"
