#!/bin/sh
# Out-of-memory smoke: mines a low-minsup input under a small address-space
# limit and requires the CLI's out-of-memory diagnostic and exit code 4,
# never an abort (exit 134). Runs serial and with a thread pool, whose
# workers' allocation failures must reach the same guard.
#
# usage: cli_oom_smoke.sh QARM WORK_DIR SANITIZED
# Exits 77 (CTest's skip code) in sanitizer builds: their shadow memory
# does not fit under the limit.
QARM=$1
WORK_DIR=$2
SANITIZED=$3
LIMIT_KB=393216

if [ "$SANITIZED" = "1" ]; then
  echo "sanitizer build: skipping the address-space-limited run"
  exit 77
fi

CSV="$WORK_DIR/oom_people.csv"
awk 'BEGIN { srand(11); print "Age,Income,Married,NumCars";
  for (i = 0; i < 20000; i++) {
    age = 20 + int(rand() * 50); inc = int(age * 900 + rand() * 20000);
    mar = (age > 30 && rand() < 0.7) ? "Yes" : "No";
    cars = (inc > 45000) ? 1 + int(rand() * 2) : int(rand() * 2);
    print age "," inc "," mar "," cars } }' > "$CSV" || exit 1

for threads in 1 2; do
  err=$( (ulimit -v $LIMIT_KB && exec "$QARM" --input="$CSV" \
      --schema=Age:quant,Income:quant,Married:cat,NumCars:quant \
      --minsup=0.05 --maxsup=0.5 --minconf=0.3 --interest=1.5 \
      --threads=$threads --format=csv) 2>&1 >/dev/null)
  rc=$?
  if [ $rc -ne 4 ]; then
    echo "threads=$threads: expected exit 4, got $rc: $err"
    exit 1
  fi
  case "$err" in
    *"qarm: out of memory during mine"*) ;;
    *) echo "threads=$threads: missing diagnostic: $err"; exit 1 ;;
  esac
  echo "threads=$threads: exit 4 with diagnostic"
done
exit 0
