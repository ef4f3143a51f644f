#!/usr/bin/env bash
# Render `--help=plain` for the lcmm command and, recursively, every
# subcommand it lists; fail when cmdliner reports an error in any doc
# string (an undefined $(var), an illegal escape, ...).
#
#   bash test/help_render.sh path/to/lcmm_cli.exe
set -euo pipefail
lcmm=$1
status=0
rendered=0

check() {
  local out sub
  if ! out=$("$lcmm" "$@" --help=plain 2>&1); then
    echo "lcmm $* --help=plain failed" >&2
    status=1
    return
  fi
  rendered=$((rendered + 1))
  if grep -q 'cmdliner error' <<<"$out"; then
    echo "lcmm $* --help=plain:" >&2
    grep 'cmdliner error' <<<"$out" >&2
    status=1
  fi
  for sub in $(sed -n '/^COMMANDS$/,/^[A-Z]/s/^       \([a-z][a-z0-9_-]*\).*/\1/p' <<<"$out"); do
    check "$@" "$sub"
  done
}

check
# The top level alone lists well over ten subcommands: finding fewer
# means the COMMANDS section was not parsed, not that all is well.
if [ "$rendered" -lt 10 ]; then
  echo "only $rendered help pages rendered; COMMANDS section not found" >&2
  exit 1
fi
exit "$status"
