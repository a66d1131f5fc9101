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
#   5. Every bench/bench_*.cc must head a row of README.md's bench table
#      whose JSON cell names a BENCH_*.json, every such row must name an
#      existing bench, and ci/verify.sh must run every bench: a bench is
#      gated or recorded on every verify run, or it is gone.
#   6. The query path has one stop-aware wait (WaitUnlessStopped in
#      src/exec/exec_context.h): no other `wait_for(` or `wait_until(` in
#      src/qpipe, src/exec, src/storage or src/cjoin, and no
#      `BindStopCheck` anywhere under src, tests, bench, tools or
#      examples.
#   7. A sharing session has one view (SessionView in
#      src/qpipe/shared_pages_list.h): none of `GetDeepSnapshot`,
#      `GetSnapshot(`, `SharingChannel::Stats`, `ReaderIntrospection` or
#      `StatsOf` under src, tests, bench, tools or examples, and one
#      reader view (one `int64_t parked_for_micros` field) under src.
#   8. The I/O layer waits one way and dispatches one way: none of
#      `budget_mib_per_sec`, `RefillLocked` or
#      `kIoStallMicros{Prefetch,Faultback,Spill}` under src, tests,
#      bench, tools or examples, and no spin loop on
#      `std::chrono::steady_clock::now()` in src/storage/disk_manager.cc
#      (the disk model sleeps).
# The point: the documentation surface cannot silently rot as knobs,
# metrics, examples and benches are added or removed.
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

# --- 5. bench coverage ------------------------------------------------------
# "name|json cell" for every README.md table row headed by a bench.
bench_rows=$(awk -F'|' '/^\| `bench_[a-z0-9_]+` \|/ {
  name = $2; gsub(/[ `]/, "", name); print name "|" $(NF - 1)
}' README.md)
for src in bench/bench_*.cc; do
  name=$(basename "$src" .cc)
  row=$(grep -E "^$name\|" <<<"$bench_rows" || true)
  if [[ -z "$row" ]]; then
    echo "docs-check: $src has no row in README.md's bench table"
    fail=1
  elif ! grep -qE '`BENCH_[A-Za-z0-9_]+\.json`' <<<"${row#*|}"; then
    echo "docs-check: README.md row \`$name\` names no BENCH_*.json"
    fail=1
  fi
  if ! grep -qE "\./build/$name([\"[:space:]]|\$)" ci/verify.sh; then
    echo "docs-check: $src is not run by ci/verify.sh"
    fail=1
  fi
done
while IFS='|' read -r name _; do
  [[ -z "$name" ]] && continue
  if [[ ! -f "bench/$name.cc" ]]; then
    echo "docs-check: README.md bench row \`$name\` names no bench/$name.cc"
    fail=1
  fi
done <<<"$bench_rows"

# --- 6. one stop-aware wait -------------------------------------------------
while IFS= read -r hit; do
  [[ -z "$hit" ]] && continue
  echo "docs-check: timed wait outside WaitUnlessStopped: $hit"
  fail=1
done < <(grep -rnE 'wait_(for|until)\(' src/qpipe src/exec src/storage src/cjoin |
         grep -v '^src/exec/exec_context\.h:' || true)
while IFS= read -r hit; do
  [[ -z "$hit" ]] && continue
  echo "docs-check: BindStopCheck is gone; pass the query's context to the reader: $hit"
  fail=1
done < <(grep -rn 'BindStopCheck' src tests bench tools examples || true)

# --- 7. one view of a sharing session --------------------------------------
while IFS= read -r hit; do
  [[ -z "$hit" ]] && continue
  echo "docs-check: a sharing session has one view; read SessionView through Introspect(): $hit"
  fail=1
done < <(grep -rnE 'GetDeepSnapshot|GetSnapshot\(|SharingChannel::Stats|ReaderIntrospection|StatsOf' \
           src tests bench tools examples || true)
reader_views=$(grep -rnE '^[[:space:]]*(std::)?int64_t[[:space:]]+parked_for_micros\b' src || true)
if [[ $(grep -c . <<<"$reader_views" || true) -gt 1 ]]; then
  while IFS= read -r hit; do
    echo "docs-check: more than one reader view; SessionView::Reader is the one: $hit"
  done <<<"$reader_views"
  fail=1
fi

# --- 8. one wait, one dispatch path in the I/O layer -----------------------
while IFS= read -r hit; do
  [[ -z "$hit" ]] && continue
  echo "docs-check: the I/O scheduler has no throttle; dispatch by priority only: $hit"
  fail=1
done < <(grep -rnE 'budget_mib_per_sec|RefillLocked|kIoStallMicros(Prefetch|Faultback|Spill)' \
           src tests bench tools examples || true)
while IFS= read -r hit; do
  [[ -z "$hit" ]] && continue
  echo "docs-check: the disk model sleeps; no spin on the clock: $hit"
  fail=1
done < <(grep -HnF 'while (std::chrono::steady_clock::now()' \
           src/storage/disk_manager.cc || true)

if [[ $fail -ne 0 ]]; then
  echo "docs-check: FAILED"
  exit 1
fi
echo "docs-check: OK"
