#!/usr/bin/env bash
# Size report: the numbers ROADMAP.md's "Current size" line quotes,
# produced by a command instead of by hand.  Markdown on stdout (CI's
# lint job appends it to the step summary); reported, never gated.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$1" -name '*.py' -print0 | xargs -0 cat | wc -l; }
knobs=$(grep -rhoE --include='*.py' 'PYACC_[A-Z_]+' src | sort -u)

echo "### Size report"
echo
echo "| what | count |"
echo "|---|---|"
echo "| \`src\` lines (*.py) | $(lines src) |"
echo "| \`tests\` lines (*.py) | $(lines tests) |"
echo "| \`PYACC_*\` names in \`src\` | $(echo "$knobs" | wc -l) |"
echo "| \`threading.Lock()\` sites in \`src\` | $(grep -rF --include='*.py' 'threading.Lock()' src | wc -l) |"
echo "| \`retry_transients(\` sites in \`src\` (the seam's call + the definition) | $(grep -rF --include='*.py' 'retry_transients(' src | wc -l) |"
echo
echo "\`PYACC_*\` set: $(echo $knobs)"
