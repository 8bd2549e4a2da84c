#!/usr/bin/env bash
# A/A check: runs every workload N times back to back on the same code and
# prints, per end-to-end metric, the values, their range and interquartile
# distance as shares of the median, and PASS/FAIL against half the metric's
# bound. Two invocations give the two sets of runs whose medians the
# acceptance rule compares.
#
#   bash benchmark/aa.sh [N] [flags passed on, e.g. -aa-seeds -seed 11]
#
# N defaults to 5. With -aa-seeds run i uses seed+i: the ten-seed protocol of
# the acceptance rule is `bash benchmark/aa.sh 10 -aa-seeds`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:-5}"
shift || true
for workload in register churn census; do
	bash "$here/run.sh" -workload "$workload" -aa "$n" "$@"
	echo
done
