package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"time"

	mr "repro"
	"repro/internal/telemetry"
)

// The stream-firehose workload: sliding-window engines fed by the seeded
// drifting firehose, ticking back to back, with a snapshot read after
// every fourth tick.
const (
	streamEps      = 0.12
	streamMinPts   = 8
	streamWindow   = 20
	streamPerTick  = 5000
	streamPerRound = 4 // ticks per round; each round ends with a snapshot
	// streamCount is the number of independent streams a run interleaves,
	// one round each in turn. A stream's tick cost depends on how its
	// hotspots happen to overlap, so a run measures several.
	streamCount = 3
	// streamPool is the number of generated tick batches per stream.
	// Longer runs replay them in order with fresh, still increasing point
	// IDs.
	streamPool = 120
)

// feed is one stream with its generated arrivals.
type feed struct {
	pool [][]mr.Point
	eng  *mr.Stream
	next int // index of the next tick batch
}

// batch returns tick j's arrivals.
func (f *feed) batch(j int) []mr.Point {
	src := f.pool[j%streamPool]
	offset := uint64(j/streamPool) * streamPool * streamPerTick
	in := make([]mr.Point, len(src))
	for i, p := range src {
		p.ID += offset
		in[i] = p
	}
	return in
}

func runStream(b *bench) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	cfg := mr.StreamConfig{Eps: streamEps, MinPts: streamMinPts, WindowTicks: streamWindow}

	// Set-up: fill each stream's window from empty to steady state.
	feeds := make([]*feed, streamCount)
	fills := make([]float64, 0, streamCount)
	for k := range feeds {
		f := &feed{pool: mr.Firehose(streamPool, streamPerTick, b.seed*streamCount+int64(k))}
		var err error
		if f.eng, err = mr.NewStream(cfg); err != nil {
			return nil, err
		}
		inputs := make([][]mr.Point, streamWindow)
		for j := range inputs {
			inputs[j] = f.batch(j)
		}
		f.next = streamWindow
		sp := b.hub.Start(nil, "setup:window-fill", telemetry.Int("stream", k))
		t0 := time.Now()
		for _, in := range inputs {
			if _, err := f.eng.Tick(in); err != nil {
				return nil, fmt.Errorf("window fill: %w", err)
			}
		}
		fills = append(fills, time.Since(t0).Seconds())
		sp.End()
		feeds[k] = f
	}
	out.e2e["setup_s"] = median(fills)

	s := samples{}
	meter := startMeter()
	var tickMs []float64
	var total time.Duration
	arrivals := 0
	for total < b.seconds {
		for k, f := range feeds {
			round := b.hub.Start(nil, "stream.round", telemetry.Int("stream", k))
			for i := 0; i < streamPerRound; i++ {
				in := f.batch(f.next)
				f.next++
				sp := b.hub.Start(round, "stream.Tick")
				t0 := time.Now()
				st, err := f.eng.Tick(in)
				d := time.Since(t0)
				sp.End()
				out.attempted++
				if err != nil {
					out.failed++
					fmt.Fprintf(os.Stderr, "stream %d tick %d: %v\n", k, f.next-1, err)
					continue
				}
				total += d
				arrivals += len(in)
				tickMs = append(tickMs, ms(d))
				s.add("stream.dirty_cells", float64(st.DirtyCells))
				s.add("stream.core_cells", float64(st.CoreCells))
				s.add("stream.pairs_rebuilt", float64(st.PairsRebuilt))
				s.add("stream.border_cells", float64(st.BorderCells))
			}
			sp := b.hub.Start(round, "stream.Snapshot")
			t0 := time.Now()
			snap := f.eng.Snapshot()
			d := time.Since(t0)
			sp.End()
			round.End()
			out.attempted++
			total += d
			s.add("stream.snapshot_ms", ms(d))

			// The oracle labels each window once, outside the timed region.
			ref := newOracle(snap.Points, streamEps, streamMinPts)
			if _, err := ref.check(snap.Labels, true); err != nil {
				out.problem("stream %d snapshot at tick %d: %v", k, snap.Tick, err)
			}
		}
	}
	meter.record(out.layers, out.attempted)
	out.e2e["points_per_s"] = float64(arrivals) / total.Seconds()
	out.e2e["op_p50_ms"] = median(tickMs)
	out.layers["stream.tick_p90_ms"] = quantile(tickMs, 0.9)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(feeds[0].eng.WindowState()); err != nil {
		return nil, err
	}
	out.layers["stream.state_bytes"] = float64(buf.Len())
	s.store(out.layers)
	// Per-tick counters are reported as means, not medians.
	for _, name := range []string{"stream.dirty_cells", "stream.core_cells", "stream.pairs_rebuilt", "stream.border_cells"} {
		out.layers[name] = mean(s[name])
	}
	return out, nil
}
