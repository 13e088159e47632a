#!/usr/bin/env bash
# One-shot local mirror of the CI lint job: go vet, the simlint analyzer
# suite, the fused multiply-add check of the model packages, the
# reachability census and the api.txt check of the public surface, then
# staticcheck and govulncheck when installed.
# The last two are skipped with a notice rather than failed when absent,
# so the script works in offline sandboxes; CI installs them and runs all
# six unconditionally.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== simlint"
go run ./cmd/simlint ./...

echo "== no fused multiply-add in the model packages"
scripts/nofma.sh

echo "== reachability census and public surface"
go test -count=1 -run 'TestCensus|TestAPI' .

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck"
    staticcheck ./...
else
    echo "== staticcheck not installed; skipping (CI runs it)"
fi

if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck"
    govulncheck ./...
else
    echo "== govulncheck not installed; skipping (CI runs it)"
fi

echo "lint clean"
