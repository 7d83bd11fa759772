#!/usr/bin/env bash
# Run every console command of the CI smoke check in the current directory,
# which it fills with small files; exit non-zero on the first that fails.
#
# Usage:
#   bash scripts/console_commands.sh
#   PYTHON=/path/to/python MIRRORPHASE="/path/to/python -m mirrorphase.cli" \
#     PYTHONPATH=/path/to/src bash scripts/console_commands.sh
#
# MIRRORPHASE is the command line to run (default: the installed
# `mirrorphase` script) and PYTHON the interpreter of the checks between the
# commands (default: `python`). The second form runs the whole list on an
# interpreter with no installed package, which is how CI shows that the
# package needs no runtime dependency.
set -euo pipefail

PYTHON=${PYTHON:-python}
read -r -a MP <<< "${MIRRORPHASE:-mirrorphase}"
mp() { "${MP[@]}" "$@"; }

mp --help
mp --version
mp decoherence --gamma0 0.05 --lambda 5 --omega 0.03 --velocity 0.5 \
  --time 1 --solve-td
mp phase --gamma0 0.05 --lambda 5 --omega 0.03 --velocity 0.5 \
  --theta 1 --method exact
# the kinematic oracle, at its default steps, agrees with the exact
# phase to 1e-6, also at the fastest decay of the tested domain
for point in "--theta 0.25pi --gamma0 0.5 --lambda 5 --omega 0.03 --velocity 0.5" \
    "--theta 1.6493361431346414 --gamma0 1 --lambda 15 --omega 1e-3 --velocity 0.95 --periods 3"; do
  read -r -a flags <<< "$point"
  oracle=$(mp phase "${flags[@]}" --method oracle)
  exact=$(mp phase "${flags[@]}" --method exact)
  "$PYTHON" -c 'import sys; oracle, exact = (float(dict(f.split("=") for f in line.split())["phase"]) for line in sys.argv[1:]); assert abs(oracle - exact) <= 1e-6, sys.argv[1:]' "$oracle" "$exact"
done
# on the equator the coherence turns subnormal before the end: the
# exact phase ends, exit 0, at half the final time
equator=$(timeout 60 "${MP[@]}" phase --gamma0 0.30643530364655647 \
  --lambda 11.505552193573896 --omega 0.016066986970937572 \
  --velocity 0.9374061573196392 --theta 0.5pi --s-final 9.539514388456325)
"$PYTHON" -c 'import sys; phase = float(dict(f.split("=") for f in sys.argv[1].split())["phase"]); assert abs(phase - 9.539514388456325 / 2) <= 1e-12, sys.argv[1]' "$equator"
"$PYTHON" -c "from mirrorphase import *"
mp figure 3 --emit-config fig3.cfg
mp figure 3 --emit-config /dev/stdout > fig3-stdout.cfg
cmp fig3.cfg fig3-stdout.cfg
mp sweep fig3.cfg -o fig3.csv
mp sweep fig3.cfg -o fig3.json --format json
# the readers give back one dataset from both files
"$PYTHON" -c 'from mirrorphase import read_dataset_csv, read_dataset_json; c, j = read_dataset_csv("fig3.csv"), read_dataset_json("fig3.json"); assert c.columns == j.columns and c.rows == j.rows; assert c.metadata == {k: v for k, v in j.metadata.items() if k != "columns"}'
# refused configs point to the grammar in the sweep help
mp sweep --help > sweep-help.txt
grep -q "Sweep config grammar" sweep-help.txt
: > empty.cfg
status=0
mp sweep empty.cfg -o empty.csv 2> empty-err.txt || status=$?
test "$status" -eq 2
test "$(wc -l < empty-err.txt)" -eq 1
status=0
mp decoherence --gamma0 -1 --lambda 5 --omega 0.03 --velocity 0.5 \
  --time 1 || status=$?
test "$status" -eq 2
# a subnormal oracle grid step is refused in one line
status=0
mp phase --gamma0 0.05 --lambda 5 --omega 0.03 --velocity 0.5 --theta 1 \
  --method oracle --s-final 1e-310 --steps 10 2> step-err.txt || status=$?
test "$status" -eq 2
test "$(wc -l < step-err.txt)" -eq 1
echo "console commands: all passed"
