#!/usr/bin/env bash
# Fails when the compiler fuses a multiply and an add into one rounding in
# the model packages on a host architecture that can: the simulated clock
# must round x*y before adding it to be bit-for-bit the same on every host
# (DESIGN §2). amd64 never fuses, so the packages are cross-compiled for
# arm64 and riscv64 and their assembly listings searched for the fused
# opcodes (FMADD, FMSUB, FNMADD, FNMSUB).
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(./internal/cache ./internal/tlb ./internal/prefetch ./internal/dram ./internal/hier ./internal/sim)
for arch in arm64 riscv64; do
    asm=$(GOARCH=$arch go build -gcflags=-S "${pkgs[@]}" 2>&1)
    if [ -z "$asm" ]; then
        echo "$arch: the compiler printed no assembly listing"; exit 1
    fi
    fused=$(printf '%s\n' "$asm" | grep -E '\bF(N)?M(ADD|SUB)[DS]?\b' || true)
    if [ -n "$fused" ]; then
        echo "$arch: fused multiply-add in the model packages:"; echo "$fused"; exit 1
    fi
    echo "$arch: no fused multiply-add in ${pkgs[*]}"
done
