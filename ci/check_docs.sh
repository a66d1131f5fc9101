#!/usr/bin/env bash
# Docs hygiene gate, run by ci/verify.sh:
#   1. Relative markdown links in README.md, DESIGN.md, docs/*.md and
#      examples/README.md must resolve to existing files.
#   2. Every field of QPipeOptions (src/qpipe/engine.h), EngineConfig
#      (src/core/sharing_engine.h) and CostModelOptions
#      (src/qpipe/cost_model.h) must have its own table row in
#      docs/KNOBS.md, and every backticked name in the first cell of a
#      docs/KNOBS.md table row must be a field of one of them (so a
#      removed knob cannot leave a stale row behind).
#   3. Every canonical metric name in src/common/metrics.h must be named
#      in docs/METRICS.md.
#   4. Every examples/*.cpp must head a table row in examples/README.md,
#      every such row must name an existing example, and every example
#      must have a runner: an add_test in CMakeLists.txt or a ci/*.sh
#      script that invokes the binary.
# The point: the documentation surface cannot silently rot as knobs,
# metrics and examples are added or removed.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. dead relative links -------------------------------------------------
for f in README.md DESIGN.md docs/*.md examples/README.md; do
  [[ -f "$f" ]] || continue
  dir=$(dirname "$f")
  while IFS= read -r target; do
    [[ -z "$target" ]] && continue
    case "$target" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    path="${target%%#*}"
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" ]]; then
      echo "docs-check: dead link in $f -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$f" | sed 's/^](//; s/)$//')
done

# --- 2. knob coverage -------------------------------------------------------
# Extract member names of a top-level struct (`struct Name {` or
# `struct Name : Base {`): lines at brace depth 1 that declare a field (no
# '(', ends in ';'), taking the last identifier before the
# default/semicolon. Nested function bodies sit at depth >= 2 and are
# skipped. Inherited fields are checked through the base struct.
extract_fields() {
  local file="$1" struct="$2"
  awk -v s="$struct" '
    $0 ~ "^struct[ \t]+" s "[ \t]*(:[^{]*)?\\{" {
      in_struct = 1; depth = 1; next
    }
    in_struct {
      line = $0
      if (depth == 1 && line !~ /\(/ && line !~ /^[ \t]*\/\// &&
          line ~ /;[ \t]*$/) {
        sub(/=.*/, "", line)
        sub(/;.*/, "", line)
        gsub(/[ \t]+$/, "", line)
        n = split(line, parts, /[ \t]+/)
        name = parts[n]
        if (name ~ /^[a-z_][a-z0-9_]*$/) print name
      }
      # count braces on the ORIGINAL line ($0), not the stripped copy
      o = gsub(/\{/, "{"); c = gsub(/\}/, "}")
      depth += o - c
      if (depth <= 0) in_struct = 0
    }
  ' "$file"
}

check_knobs() {
  local file="$1" struct="$2"
  local name found=0
  while IFS= read -r name; do
    [[ -z "$name" ]] && continue
    found=1
    # The field must head a table row: backticked in the first cell. A
    # mention in prose or in another knob's row does not count.
    if ! grep -qE "^\| [^|]*\`$name\`" docs/KNOBS.md; then
      echo "docs-check: $struct::$name ($file) has no row in docs/KNOBS.md"
      fail=1
    fi
  done < <(extract_fields "$file" "$struct")
  # A struct the extractor cannot parse would otherwise pass silently.
  if [[ $found -eq 0 ]]; then
    echo "docs-check: no fields extracted for $struct ($file)"
    fail=1
  fi
}

check_knobs src/qpipe/engine.h QPipeOptions
check_knobs src/core/sharing_engine.h EngineConfig
check_knobs src/qpipe/cost_model.h CostModelOptions

# Backticked names in the first cell of every markdown table body row of
# a file (a header row is the one right above a |---| separator and is
# skipped).
table_first_cells() {
  awk -F'|' '
    /^\|[-: |]+$/ { prev = ""; next }
    /^\| / { if (prev != "") print prev; prev = $2; next }
    { if (prev != "") print prev; prev = "" }
    END { if (prev != "") print prev }
  ' "$1" | grep -oE '`[^`]+`' | tr -d '`'
}

# The other direction: every knob row names a field.
known_fields=$(extract_fields src/qpipe/engine.h QPipeOptions
               extract_fields src/core/sharing_engine.h EngineConfig
               extract_fields src/qpipe/cost_model.h CostModelOptions)
while IFS= read -r name; do
  [[ -z "$name" ]] && continue
  if ! grep -qxF "$name" <<<"$known_fields"; then
    echo "docs-check: docs/KNOBS.md row \`$name\` is not a field of QPipeOptions, EngineConfig or CostModelOptions"
    fail=1
  fi
done < <(table_first_cells docs/KNOBS.md)

# --- 3. metric coverage -----------------------------------------------------
while IFS= read -r metric; do
  [[ -z "$metric" ]] && continue
  if ! grep -qF "\`$metric\`" docs/METRICS.md; then
    echo "docs-check: metric $metric (src/common/metrics.h) missing from docs/METRICS.md"
    fail=1
  fi
done < <(grep -oE '"[a-z_.]+"' src/common/metrics.h | tr -d '"')

# --- 4. example coverage ----------------------------------------------------
example_rows=$(table_first_cells examples/README.md)
for src in examples/*.cpp; do
  name=$(basename "$src" .cpp)
  if ! grep -qxF "$name" <<<"$example_rows"; then
    echo "docs-check: $src has no row in examples/README.md"
    fail=1
  fi
  if ! grep -qE "^add_test\(NAME [^ ]+ COMMAND $name( |\))" CMakeLists.txt &&
     ! grep -qE "/$name([\"[:space:]]|\$)" ci/*.sh; then
    echo "docs-check: $src is neither add_test'ed in CMakeLists.txt nor run by a ci/*.sh script"
    fail=1
  fi
done
while IFS= read -r name; do
  [[ -z "$name" ]] && continue
  if [[ ! -f "examples/$name.cpp" ]]; then
    echo "docs-check: examples/README.md row \`$name\` names no examples/$name.cpp"
    fail=1
  fi
done <<<"$example_rows"

if [[ $fail -ne 0 ]]; then
  echo "docs-check: FAILED"
  exit 1
fi
echo "docs-check: OK"
