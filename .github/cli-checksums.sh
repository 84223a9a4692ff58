#!/usr/bin/env bash
# CLI output checksums, run from the root of the repository:
#   bash .github/cli-checksums.sh
#
# The seven default experiments and twenty-three other configurations at
# one seed, and the --help text at 80 columns (its line breaks
# follow COLUMNS): each file must have the sha256 recorded in
# .github/cli-sha256.txt, so a byte change fails unless the same
# diff updates that file.  The defaults, and two theta > 0 sweeps so
# that the implicit stage is covered too, run again on one thread
# and must give the same bytes, as must the tamed target-SE mlmc
# run: the default mlmc run meets its target SE with the pilot
# alone, and this one tops levels up.  The theta > 0 strong-error
# sweep runs two chunks, the last one short.  The M = 4 runs read draw
# blocks that end inside a coarse step: the mlmc one in its 1808-path
# chunk (after one of 8192 paths), whose 18-step blocks end inside a
# 4-step coarse step, the coupled one at 3000 paths.
# They also cover a pair's running coarse sum carried across a block.  The
# target-SE mlmc run at 0.000856 tops the base level up by one
# sample over its pilot, which runs as a top-up of two.  The tamed
# strong-error sweep tames each level by its own level's rule, and
# the rates-moment run reads horizon = 2 from a --config file: the
# one run of the config-file layer and of a horizon other than 1.
# A rates-variance run reads the config-only keys eps0 and payoff
# from a second --config file.  The tamed theta = 0.5 rates-variance
# run is the one variance sweep on the implicit stage and on taming,
# where a pair's coarse member tames by its own level's rule, the law
# its term of the uncoupled baseline stands for.  The four run again
# on one thread.  The [result] block of each run's
# summary, without its wall_seconds line, is checked as
# <name>.result.txt, and its [config] block, without the out line (a
# temporary path) and the jobs line (the host's CPU count by
# default), as <name>.config.txt, so a changed default or echo
# format shows too.  The rates-strong and mlmc runs at --eps 0 pin
# the noise-free runs, where a stream is never drawn.  The tamed mlmc
# run from base level 1 reads tau = 0.5 from a third --config file: the
# lowest base level a tamed estimate admits, whose plan tames with the
# step of level 0.  The theta = 0.5 mlmc run on additive_noise is the
# one run of a state-independent diffusion, where X = x + eps * Y holds
# exactly, the problem an exactness check of antithetic levels runs
# on; it runs again on one thread.  So does the tamed theta = 0.5
# deviation sweep, the one threaded sweep whose cells run the implicit
# stage and taming about the skeleton's centre.  The tamed theta = 0.5
# mlmc run at 9000 samples folds each level in two chunks, of 8192 and
# 808 paths: the one multi-chunk tamed fold.  It runs again on one thread.
# The deviation sweep at --eps 0,0.002,0.005,0.01,0.02,0.05 is the one run
# with an eps = 0 cell, recorded with deviation 0 and kept out of the fit;
# it runs again on one thread.  The mlmc run over levels 11..13 is the one
# run whose chunk width the state budget sets rather than CHUNK_SIZE: level
# 12 folds 4096-path chunks and level 13 chunks of 2048 and 52 paths.  The
# tamed theta = 0.5 deviation sweep at 9000 samples runs each cell in two
# chunks, of 8192 and 808 paths: the one theta > 0 sweep cell that the
# chunk cap splits, where the stage solve iterates per chunk.  It runs
# again on one thread.
set -e
sums="$PWD/.github/cli-sha256.txt"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
mkdir "$out/jobs1"
cli() { PYTHONPATH=src python -m mlmc_sdde.cli --seed 7 "$@"; }
for e in path coupled mlmc rates-strong rates-moment rates-variance deviation; do
  cli --experiment "$e" --out "$out/$e.csv"
  cli --experiment "$e" --jobs 1 --out "$out/jobs1/$e.csv"
  cmp "$out/$e.csv" "$out/jobs1/$e.csv"
done
cli --experiment mlmc --problem cubic_onesided --theta 0.5 --delta 0.5 --samples 200 --out "$out/mlmc-tamed.csv"
cli --experiment mlmc --problem cubic_onesided --theta 0.5 --delta 0.5 --samples 9000 --out "$out/mlmc-tamed-9000.csv"
cli --experiment mlmc --problem cubic_onesided --theta 0.5 --delta 0.5 --samples 9000 --jobs 1 --out "$out/jobs1/mlmc-tamed-9000.csv"
cmp "$out/mlmc-tamed-9000.csv" "$out/jobs1/mlmc-tamed-9000.csv"
cli --experiment mlmc --problem cubic_onesided --theta 0.5 --delta 0.5 --target-se 2e-4 --out "$out/mlmc-tamed-se.csv"
cli --experiment mlmc --problem cubic_onesided --theta 0.5 --delta 0.5 --target-se 2e-4 --jobs 1 --out "$out/jobs1/mlmc-tamed-se.csv"
cmp "$out/mlmc-tamed-se.csv" "$out/jobs1/mlmc-tamed-se.csv"
cli --experiment rates-variance --M 4 --base-level 2 --max-level 4 --samples 2000 --out "$out/rates-variance-M4.csv"
cli --experiment coupled --samples 9000 --out "$out/coupled-9000.csv"
cli --experiment path --samples 9000 --out "$out/path-9000.csv"
cli --experiment rates-moment --theta 0.5 --samples 6000 --out "$out/rates-moment-theta.csv"
cli --experiment rates-moment --theta 0.5 --samples 6000 --jobs 1 --out "$out/jobs1/rates-moment-theta.csv"
cmp "$out/rates-moment-theta.csv" "$out/jobs1/rates-moment-theta.csv"
cli --experiment rates-strong --theta 0.5 --samples 3000 --out "$out/rates-strong-theta.csv"
cli --experiment rates-strong --theta 0.5 --samples 3000 --jobs 1 --out "$out/jobs1/rates-strong-theta.csv"
cmp "$out/rates-strong-theta.csv" "$out/jobs1/rates-strong-theta.csv"
cli --experiment deviation --problem cubic_onesided --theta 0.5 --delta 0.5 --samples 6000 --out "$out/deviation-tamed.csv"
cli --experiment deviation --problem cubic_onesided --theta 0.5 --delta 0.5 --samples 6000 --jobs 1 --out "$out/jobs1/deviation-tamed.csv"
cmp "$out/deviation-tamed.csv" "$out/jobs1/deviation-tamed.csv"
cli --experiment mlmc --M 4 --base-level 2 --max-level 4 --samples 10000 --out "$out/mlmc-M4.csv"
cli --experiment mlmc --M 4 --base-level 2 --max-level 4 --samples 10000 --jobs 1 --out "$out/jobs1/mlmc-M4.csv"
cmp "$out/mlmc-M4.csv" "$out/jobs1/mlmc-M4.csv"
cli --experiment coupled --M 4 --base-level 3 --samples 3000 --out "$out/coupled-M4.csv"
cli --experiment mlmc --target-se 0.000856 --out "$out/mlmc-topup-one.csv"
cli --experiment rates-strong --problem cubic_onesided --theta 0.5 --delta 0.5 --samples 2000 --out "$out/rates-strong-tamed.csv"
cli --experiment rates-strong --problem cubic_onesided --theta 0.5 --delta 0.5 --samples 2000 --jobs 1 --out "$out/jobs1/rates-strong-tamed.csv"
cmp "$out/rates-strong-tamed.csv" "$out/jobs1/rates-strong-tamed.csv"
cli --experiment rates-strong --eps 0 --out "$out/rates-strong-eps0.csv"
cli --experiment mlmc --eps 0 --samples 200 --out "$out/mlmc-eps0.csv"
printf 'horizon=2\n' > "$out/horizon2.conf"
cli --config "$out/horizon2.conf" --experiment rates-moment --theta 0.5 --base-level 4 --max-level 6 --samples 2000 --out "$out/rates-moment-config.csv"
cli --config "$out/horizon2.conf" --experiment rates-moment --theta 0.5 --base-level 4 --max-level 6 --samples 2000 --jobs 1 --out "$out/jobs1/rates-moment-config.csv"
cmp "$out/rates-moment-config.csv" "$out/jobs1/rates-moment-config.csv"
printf 'eps0=1e-4\npayoff=identity\n' > "$out/eps0.conf"
cli --config "$out/eps0.conf" --experiment rates-variance --base-level 3 --max-level 5 --samples 2000 --out "$out/rates-variance-config.csv"
cli --config "$out/eps0.conf" --experiment rates-variance --base-level 3 --max-level 5 --samples 2000 --jobs 1 --out "$out/jobs1/rates-variance-config.csv"
cmp "$out/rates-variance-config.csv" "$out/jobs1/rates-variance-config.csv"
cli --experiment rates-variance --problem cubic_onesided --theta 0.5 --delta 0.5 --samples 2000 --out "$out/rates-variance-tamed.csv"
cli --experiment rates-variance --problem cubic_onesided --theta 0.5 --delta 0.5 --samples 2000 --jobs 1 --out "$out/jobs1/rates-variance-tamed.csv"
cmp "$out/rates-variance-tamed.csv" "$out/jobs1/rates-variance-tamed.csv"
printf 'tau=0.5\n' > "$out/tau.conf"
cli --config "$out/tau.conf" --experiment mlmc --problem cubic_onesided --theta 0.5 --delta 0.5 --base-level 1 --max-level 4 --samples 200 --out "$out/mlmc-tamed-base1.csv"
cli --experiment mlmc --problem additive_noise --theta 0.5 --samples 2000 --out "$out/mlmc-additive.csv"
cli --experiment mlmc --problem additive_noise --theta 0.5 --samples 2000 --jobs 1 --out "$out/jobs1/mlmc-additive.csv"
cmp "$out/mlmc-additive.csv" "$out/jobs1/mlmc-additive.csv"
cli --experiment deviation --eps 0,0.002,0.005,0.01,0.02,0.05 --out "$out/deviation-eps0.csv"
cli --experiment deviation --eps 0,0.002,0.005,0.01,0.02,0.05 --jobs 1 --out "$out/jobs1/deviation-eps0.csv"
cmp "$out/deviation-eps0.csv" "$out/jobs1/deviation-eps0.csv"
cli --experiment mlmc --base-level 11 --max-level 13 --samples 2100 --out "$out/mlmc-deep.csv"
cli --experiment deviation --problem cubic_onesided --theta 0.5 --delta 0.5 --samples 9000 --out "$out/deviation-tamed-9000.csv"
cli --experiment deviation --problem cubic_onesided --theta 0.5 --delta 0.5 --samples 9000 --jobs 1 --out "$out/jobs1/deviation-tamed-9000.csv"
cmp "$out/deviation-tamed-9000.csv" "$out/jobs1/deviation-tamed-9000.csv"
COLUMNS=80 PYTHONPATH=src python -m mlmc_sdde.cli --help > "$out/help.txt"
for f in "$out"/*.csv.summary.txt; do
  sed -n '/^\[result\]$/,${/^wall_seconds = /!p}' "$f" > "${f%.csv.summary.txt}.result.txt"
  sed -n '/^\[config\]$/,/^$/{/^$/d;/^out = /d;/^jobs = /d;p}' "$f" > "${f%.csv.summary.txt}.config.txt"
done
(cd "$out" && sha256sum *.csv *.result.txt *.config.txt help.txt && sha256sum --strict -c "$sums")
