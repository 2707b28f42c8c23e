package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// runChild runs this program on one workload in a fresh process and
// returns its result line.
func runChild(args ...string) (*resultJSON, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", args, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res resultJSON
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%v: result line: %w", args, err)
	}
	return &res, nil
}

func childArgs(workload string, seed int64, seconds, trace int) []string {
	return []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace)}
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the spreads printed here match the ones a gate computes.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	n := len(s)
	if n == 0 {
		return q
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			j, delta = 1, 0
		case j > n-1:
			j, delta = n-1, 4
		}
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// steadiness reruns one workload k times, each in a fresh process with
// its own seed, and prints every end-to-end metric's median, quartiles,
// interquartile spread and (max − min) / median.
func steadiness(workload string, seed int64, seconds, k int) error {
	values := map[string][]float64{}
	failedShare := map[string]bool{}
	for i := 0; i < k; i++ {
		t0 := time.Now()
		res, err := runChild(childArgs(workload, seed+int64(i), seconds, 0)...)
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		if !res.Correct {
			return fmt.Errorf("seed %d: output check failed", seed+int64(i))
		}
		fmt.Printf("seed %d: wall %.1fs attempted %d failed %d", seed+int64(i), wall.Seconds(), res.Attempted, res.Failed)
		for _, m := range endToEnd {
			v := res.Metrics[m.name].Value
			values[m.name] = append(values[m.name], v)
			fmt.Printf("  %s=%.4g", m.name, v)
		}
		fmt.Println()
		failedShare[strconv.FormatFloat(float64(res.Failed)/float64(res.Attempted), 'g', -1, 64)] = true
	}
	fmt.Printf("\n%-14s %12s %12s %12s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med")
	for _, m := range endToEnd {
		vs := values[m.name]
		q := quartiles(vs)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vs {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		fmt.Printf("%-14s %12.5g %12.5g %12.5g %8.2f%% %8.2f%%\n", m.name, q[1], q[0], q[2],
			100*(q[2]-q[0])/q[1], 100*(hi-lo)/q[1])
	}
	fmt.Printf("distinct failed shares: %d\n", len(failedShare))
	return nil
}

// traceOverhead runs the workload untraced and traced, each in a fresh
// process on the same seed, and prints how much tracing moved every
// end-to-end metric.
func traceOverhead(workload string, seed int64, seconds int, traceOut string) error {
	plain, err := runChild(childArgs(workload, seed, seconds, 0)...)
	if err != nil {
		return err
	}
	if _, err := runChild(append(childArgs(workload, seed, seconds, 1), "--trace-out", traceOut)...); err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(traceOut, fmt.Sprintf("%s-seed%d.layers.json", workload, seed)))
	if err != nil {
		return err
	}
	var traced struct {
		EndToEnd map[string]float64 `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &traced); err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %12s %9s\n", "metric", "untraced", "traced", "overhead")
	for _, m := range endToEnd {
		a, b := plain.Metrics[m.name].Value, traced.EndToEnd[m.name]
		fmt.Printf("%-14s %12.5g %12.5g %8.2f%%\n", m.name, a, b, 100*(b-a)/a)
	}
	return nil
}
