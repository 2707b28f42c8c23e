package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	mr "repro"
	"repro/internal/telemetry"
)

// The batch-skewed workload: RunPoints on Twitter-like inputs whose
// population centres make the partitioner's job uneven, run as a closed
// loop, one run at a time.
const (
	batchPoints = 100_000
	batchEps    = 0.1
	batchMinPts = 40
	batchLeaves = 16
	// batchInputs is the number of seeded inputs a round runs, one after
	// the other. The planner's cost differs by up to 50% between inputs,
	// so a run measures whole rounds over several of them.
	batchInputs = 12
	// coldRuns is the number of fresh processes whose first RunPoints
	// call makes up the set-up figure; each takes the next input.
	coldRuns = 3
)

// batchInput is input k of the run seeded with seed.
func batchInput(seed int64, k int) []mr.Point {
	return mr.Twitter(batchPoints, seed*batchInputs+int64(k))
}

func batchConfig() mr.Config { return mr.Default(batchEps, batchMinPts, batchLeaves) }

// dbdcFloor is the paper's quality floor against single-CPU DBSCAN.
const dbdcFloor = 0.995

func runBatch(b *bench) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	inputs := make([][]mr.Point, batchInputs)
	refs := make([]*oracle, batchInputs)
	for k := range inputs {
		inputs[k] = batchInput(b.seed, k)
		refs[k] = newOracle(inputs[k], batchEps, batchMinPts)
	}
	cfg := batchConfig()

	// Set-up: the cold first call every cmd/mrscan invocation pays,
	// each in a fresh process.
	cold := make([]float64, 0, coldRuns)
	for i := 0; i < coldRuns; i++ {
		sp := b.hub.Start(nil, "setup:cold-RunPoints")
		d, err := coldBatchTime(b.seed, i)
		sp.End()
		if err != nil {
			return nil, err
		}
		cold = append(cold, d)
	}
	out.e2e["setup_s"] = median(cold)

	// Warm-up: this process's own first call stays out of the figures.
	s := samples{}
	if _, labels, err := mr.RunPoints(inputs[0], cfg); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	} else {
		checkPipeline(out, s, refs[0], labels, "warm-up run")
	}

	meter := startMeter()
	var durs []float64
	var total time.Duration
	for total < b.seconds {
		for k, pts := range inputs {
			sp := b.hub.Start(nil, "batch.RunPoints", telemetry.Int("input", k))
			t0 := time.Now()
			res, labels, err := mr.RunPoints(pts, cfg)
			d := time.Since(t0)
			sp.End()
			out.attempted++
			if err != nil {
				out.failed++
				fmt.Fprintln(os.Stderr, "RunPoints failed:", err)
				continue
			}
			total += d
			durs = append(durs, ms(d))
			checkPipeline(out, s, refs[k], labels, fmt.Sprintf("run %d (input %d)", out.attempted, k))
			s.addPipeline(res)
		}
	}
	meter.record(out.layers, out.attempted)
	if total > 0 {
		out.e2e["points_per_s"] = float64(batchPoints*len(durs)) / total.Seconds()
	}
	out.e2e["op_p50_ms"] = median(durs)

	if b.hub != nil {
		for _, pts := range inputs {
			if err := s.probeLayers(b.hub, pts, cfg); err != nil {
				return nil, err
			}
		}
	}
	s.store(out.layers)
	return out, nil
}

// checkPipeline checks one pipeline labelling against the oracle —
// exact cores, exact noise, witnessed borders, DBDC at the paper's floor
// — and records its border-noise count and quality.
func checkPipeline(out *outcome, s samples, ref *oracle, labels []int, what string) {
	borderNoise, err := ref.check(labels, false)
	if err != nil {
		out.problem("%s: %v", what, err)
		return
	}
	q, err := mr.Quality(ref.labels, labels)
	if err != nil {
		out.problem("%s: %v", what, err)
		return
	}
	if q < dbdcFloor {
		out.problem("%s: DBDC quality %.5f below %.3f", what, q, dbdcFloor)
	}
	s.add("sweep.border_noise_points", float64(borderNoise))
	s.add("sweep.dbdc_quality", q)
}

// coldBatchTime runs one cold RunPoints call on input k in a fresh copy
// of this program and returns its duration in seconds.
func coldBatchTime(seed int64, k int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--cold-batch", strconv.Itoa(k), "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold batch run: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
}

// coldBatchChild is the fresh process's side of coldBatchTime.
func coldBatchChild(seed int64, k int) error {
	pts := batchInput(seed, k)
	t0 := time.Now()
	if _, _, err := mr.RunPoints(pts, batchConfig()); err != nil {
		return err
	}
	fmt.Println(time.Since(t0).Seconds())
	return nil
}
