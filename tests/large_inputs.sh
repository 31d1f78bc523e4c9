#!/usr/bin/env bash
# Large-input smoke test: expected exit codes and byte-stable outputs at
# ROADMAP scale, with no timing threshold.  Writes every input and output
# under OUTDIR and checks them against tests/golden/large.sha256.
#
#   tests/large_inputs.sh OUTDIR
set -euo pipefail
if [ $# -ne 1 ]; then
  echo "usage: $0 OUTDIR" >&2
  exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
root=$(pwd)

tritile() { PYTHONPATH=src timeout 300 python -m tritile.cli "$@"; }
# usage errors exit 2 and help exits 0, with or without a command's own parser
for argv in "" "bogus" "validate a b"; do
  code=0
  tritile $argv > /dev/null 2>&1 || code=$?
  test "$code" -eq 2
done
tritile --help > /dev/null
tritile generate recursive --help > /dev/null
tritile generate twoscale --b 2 --h 433/250 --m 20 --n 20 -o "$out/big.til"
tritile audit "$out/big.til" --disk 15,10,49 > "$out/big.audit_disk.txt"
tritile generate recursive --depth 400 -o "$out/deep.til"
tritile audit "$out/deep.til" --disk 0,0,100 > "$out/deep.audit_disk.txt"
# the grid soup against the rational soup oracle of tests/test_incidence.py, at 2400
# tiles and at depth 400 (coordinates of ~560 bits, the widest slope key)
PYTHONPATH=src:tests python -c "if True:
  import sys
  from tritile import parse_tiling
  from test_incidence import grid_soup_in_rationals, rational_soup
  for path in sys.argv[1:]:
      patch = parse_tiling(open(path, 'rb').read())
      assert grid_soup_in_rationals(patch) == rational_soup(patch.tiles), path
" "$out/big.til" "$out/deep.til"
# generated inputs with fractional parameters: a skew base with t = 5/3, and b, h not on 1/4, 1/2
tritile generate recursive --t 5/3 --base 0,0,1/3,0,0,1/7 --depth 40 -o "$out/recursive-skew.til"
tritile generate twoscale --b 5/7 --h 3/11 --m 4 --n 3 -o "$out/twoscale-frac.til"
# seeded convex output: draws read only Random.random(), so these bytes hold on every version
tritile generate convex --k 25 --seed 1 -o "$out/convex25.til"
tritile audit "$out/convex25.til" > "$out/convex25.audit.txt"
tritile generate convex --k 8 --seed 3 --strategy fan -o "$out/convex8-fan.til"
# the pair family, built from a rational triangle, on the default and a skew one
for kind in line midpoint bisector; do
  tritile generate pair --kind "$kind" -o "$out/pair-$kind.til"
  tritile generate pair --kind "$kind" --triangle 0,0,1/3,0,1/7,2/5 -o "$out/pair-$kind-skew.til"
done
for name in big deep; do
  til="$out/$name.til"
  tritile validate "$til" > "$out/$name.validate.txt"
  tritile audit "$til" > "$out/$name.audit.txt"
  tritile stretches "$til" > "$out/$name.stretches.txt"
  tritile stats "$til" > "$out/$name.stats.txt"
  tritile stats "$til" --precision-bits 256 > "$out/$name.stats256.txt"
  tritile render "$til" -o "$out/$name.svg" --stretch-overlay --labels > /dev/null
  # no tile of these patches has perimeter 1, so the checks fail: exit 1, not 3 or 124
  code=0
  tritile audit "$til" --unit-perimeter > "$out/$name.audit_unit_perimeter.txt" || code=$?
  test "$code" -eq 1
done
# the same checks on the disk pieces: exit 1 for the same reason
for case in big:15,10,49 deep:0,0,100; do
  name=${case%%:*}
  code=0
  tritile audit "$out/$name.til" --disk "${case#*:}" --unit-perimeter \
    > "$out/$name.audit_disk_unit_perimeter.txt" || code=$?
  test "$code" -eq 1
done
# a disk piece whose own least grid scale is far below its ambient's
tritile audit "$out/recursive-skew.til" --disk 0,0,1 > "$out/recursive-skew.audit_disk.txt"
# one right triangle with legs 10^k: numbers past CPython's 4300-digit int/str limit;
# then legs 1/10^k, so the grid scale D = 10^k comes from a parsed denominator
for k in 2200 5000; do
  long="$out/long$k.til"
  python -c "import sys; n = '1' + '0' * int(sys.argv[1]); print(f'#TILING 1\ntri 0 0 {n} 0 0 {n}')" $k > "$long"
  tritile validate "$long" > "$out/long$k.validate.txt"
  tritile audit "$long" > "$out/long$k.audit.txt"
  tritile stats "$long" --precision-bits 20000 > "$out/long$k.stats20000.txt"
  frac="$out/frac$k.til"
  python -c "import sys; n = '1/1' + '0' * int(sys.argv[1]); print(f'#TILING 1\ntri 0 0 {n} 0 0 {n}')" $k > "$frac"
  tritile validate "$frac" > "$out/frac$k.validate.txt"
  tritile audit "$frac" > "$out/frac$k.audit.txt"
done
# every generated input, stdout and SVG above, byte for byte, on every Python version
(cd "$out" && sha256sum -c "$root/tests/golden/large.sha256")
