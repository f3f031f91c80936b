#!/usr/bin/env bash
# Size report: the numbers ROADMAP.md's "Current size" line quotes,
# produced by a command instead of by hand.  Markdown on stdout (CI's
# lint job appends it to the step summary); reported, never gated.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$1" -name '*.py' -print0 | xargs -0 cat | wc -l; }
# Lowering only (no cache writes); "n/a" only when numpy is absent — any
# other failure must show, not read as a missing number.  Prints the
# loop-nest count, then the loops gcc vectorized in the unit ("n/a"
# without a compiler that reports it: one extra compile, into a temp dir).
lbm_unit() {
  python -c 'import numpy' 2>/dev/null || { echo "n/a n/a"; return; }
  PYTHONPATH=src PYACC_COMPILE_CACHE=off python - <<'EOF'
import numpy as np
from repro.apps import lbm
from repro.ir.cgen import _NativeLowering
from repro.ir.compile import compile_kernel
from repro.ir.inspect import _vectorize_report
n = 8
args = [np.zeros(9 * n * n), np.ones(9 * n * n), np.zeros(9 * n * n), 0.6,
        lbm.WEIGHTS, lbm.CX, lbm.CY, n]
trace = compile_kernel(lbm.lbm_kernel, 2, args, executor="codegen").trace
source = _NativeLowering(trace, args).lower()["source"]
vec = _vectorize_report(source)
print(source.count("for (int64_t i0 "), "n/a" if vec is None else vec[0])
EOF
}
read -r lbm_nests lbm_vectorized <<< "$(lbm_unit)"
# Parsed, not imported: counting needs no numpy.
fault_sites() {
  python - <<'EOF'
import ast
tree = ast.parse(open("src/repro/faults.py").read())
print(next(len(n.value.elts) for n in tree.body if isinstance(n, ast.Assign)
           and any(getattr(t, "id", None) == "FAULT_SITES" for t in n.targets)))
EOF
}
public_names() {
  python - <<'EOF'
import ast
tree = ast.parse(open("src/repro/__init__.py").read())
print(next(len(n.value.elts) for n in tree.body if isinstance(n, ast.Assign)
           and any(getattr(t, "id", None) == "__all__" for t in n.targets)))
EOF
}
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
echo "| \`FAULT_SITES\` entries | $(fault_sites) |"
echo "| names in \`repro.__all__\` (the public surface) | $(public_names) |"
echo "| \`benchmarks/bench_*.py\` lines / \`BENCH_*.json\` files | $(cat benchmarks/bench_*.py | wc -l) / $(ls BENCH_*.json | wc -l) |"
echo "| loop nests in \`lbm_kernel\`'s native lowering (1 = the single-loop licence holds) | $lbm_nests |"
echo "| loops vectorized in \`lbm_kernel\`'s native unit (gcc's report; n/a without \`cc\`) | $lbm_vectorized |"
echo "| Python calls pinned per warm \`parallel_for\` / \`parallel_reduce\` / one-node replay (\`TestHotPathBudget\`) | $(sed -n 's/^ *PINNED = (\(.*\))$/\1/p' tests/test_api.py) |"
echo
echo "\`PYACC_*\` set: $(echo $knobs)"
