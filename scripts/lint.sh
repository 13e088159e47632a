#!/usr/bin/env bash
# One-shot local mirror of the CI lint job: go vet and the simlint analyzer
# suite in both build variants (the production build and the -tags
# faultinject chaos build — they compile different files, so each must be
# analyzed on its own), the reachability census and the api.txt check of
# the public surface, then staticcheck and govulncheck when installed.
# The last two are skipped with a notice rather than failed when absent,
# so the script works in offline sandboxes; CI installs them and runs all
# five unconditionally.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...
go vet -tags faultinject ./...

echo "== simlint"
go run ./cmd/simlint ./...
go run ./cmd/simlint -tags faultinject ./...

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
