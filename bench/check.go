package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"riscvmem/internal/run"
	"riscvmem/internal/sim"
)

// goldenJSON pins, per sim.ModelVersion and workload, the SHA-256 of the
// reference rows the default seed generates. A simulator-only speed-up must
// leave every digest as it is; a model change bumps ModelVersion and adds a
// new set.
//
//go:embed golden.json
var goldenJSON []byte

// Outcomes of comparing a run's reference digest with golden.json.
const (
	pinOK       = "ok"
	pinUnpinned = "unpinned" // no digest recorded for these inputs: reported, not a failure
	pinMismatch = "mismatch" // same model version, different rows: every op counts as failed
)

// reference holds the rows every later answer must equal bit for bit: each
// distinct cell computed once through a run.Runner with memoization off.
type reference struct {
	rows   map[cell]run.Result
	digest string
	pin    string
}

func computeReference(ctx context.Context, w workload, pinned bool) (*reference, error) {
	cells := w.cells()
	jobs := make([]run.Job, len(cells))
	for i, c := range cells {
		j, err := c.job(w.resolve)
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", c, err)
		}
		jobs[i] = j
	}
	results, err := run.New(run.Options{DisableCache: true}).Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	ref := &reference{rows: make(map[cell]run.Result, len(cells)), pin: pinUnpinned}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i, c := range cells {
		ref.rows[c] = results[i]
		if err := enc.Encode(struct {
			Cell cell
			Row  run.Result
		}{c, results[i]}); err != nil {
			return nil, err
		}
	}
	ref.digest = hex.EncodeToString(h.Sum(nil))
	if !pinned {
		return ref, nil
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if want, ok := golden[sim.ModelVersion][w.name()]; ok {
		ref.pin = pinOK
		if want != ref.digest {
			ref.pin = pinMismatch
		}
	}
	return ref, nil
}
