package main

import (
	"fmt"
	"time"

	mr "repro"
	"repro/internal/dbscan"
	"repro/internal/gdbscan"
	"repro/internal/geom"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/merge"
	"repro/internal/partition"
	"repro/internal/telemetry"
)

// samples collects per-operation figures by metric name; store reduces
// each to its median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) store(layers map[string]float64) {
	for name, vs := range s {
		layers[name] = median(vs)
	}
}

// addPipeline records the layer figures one pipeline run reports on its
// public outputs: Result.Times, Result.Stats, Result.Plan, and the
// counters and spans of Result.Telemetry.
func (s samples) addPipeline(res *mr.Result) {
	t := res.Times
	s.add("partition.phase_ms", ms(t.Partition))
	s.add("cluster.phase_ms", ms(t.Cluster))
	s.add("merge.phase_ms", ms(t.Merge))
	s.add("sweep.phase_ms", ms(t.Sweep))
	s.add("gdbscan.slowest_leaf_ms", ms(t.GPUDBSCAN))
	s.add("lustre.write_sim_ms", ms(t.PartitionWriteSim))
	s.add("lustre.read_sim_ms", ms(t.PartitionReadSim))
	if p := res.Plan; p != nil {
		s.add("partition.imbalance", float64(p.MaxTotal())/p.MeanTotal())
		var owned, shadow int64
		for _, spec := range p.Specs {
			owned += spec.PointCount
			shadow += spec.ShadowCount
		}
		if owned > 0 {
			s.add("partition.shadow_ratio", float64(shadow)/float64(owned))
		}
	}
	st := res.Stats
	if st.TotalPoints > 0 {
		s.add("gdbscan.dense_box_share", float64(st.DenseBoxPoints)/float64(st.TotalPoints))
	}
	s.add("gdbscan.seed_rounds", float64(st.SeedRounds))
	s.add("gdbscan.collisions", float64(st.Collisions))

	rep := telemetry.BuildReport(res.Telemetry)
	spanWall := func(name string) float64 {
		for _, a := range rep.Spans {
			if a.Name == name {
				return ms(time.Duration(a.WallTotalNs))
			}
		}
		return 0
	}
	s.add("gdbscan.classify_ms", spanWall("kernel:gdbscan/classify"))
	s.add("gdbscan.expand_ms", spanWall("kernel:gdbscan/expand"))
	s.add("gdbscan.border_ms", spanWall("kernel:gdbscan/border"))
	s.add("checkpoint.save_ms", spanWall("checkpoint.save"))

	sum := map[string]float64{}
	for _, m := range rep.Metrics {
		sum[m.Name] += float64(m.Value)
	}
	s.add("lustre.write_ops", sum["lustre_write_ops_total"])
	s.add("lustre.write_seeks", sum["lustre_write_seeks_total"])
	s.add("lustre.write_bytes", sum["lustre_bytes_written_total"])
	s.add("gpusim.launches", sum["gpusim_kernel_launches_total"])
	s.add("gpusim.transfer_bytes", sum["gpusim_h2d_bytes_total"]+sum["gpusim_d2h_bytes_total"])
	if lookups := sum["gpusim_pool_hits_total"] + sum["gpusim_pool_misses_total"]; lookups > 0 {
		s.add("gpusim.pool_hit_ratio", sum["gpusim_pool_hits_total"]/lookups)
	}
	s.add("mrnet.bytes", sum["mrnet_bytes_total"])
	s.add("mrnet.packets", sum["mrnet_packets_total"])
	s.add("checkpoint.saves", sum["checkpoint_saves_total"])
	s.add("checkpoint.bytes", sum["checkpoint_bytes_total"])
}

// probeLayers times the partitioner and the merge on the same inputs a
// pipeline run sees, by calling those layers' exported functions under
// the benchmark's own spans — Result.Times does not break the partition
// phase into planning and splitting, nor the merge phase into combining
// and tree transfer. The leaf clustering between them is untimed; it
// only produces the summaries Combine consumes.
func (s samples) probeLayers(hub *telemetry.Hub, pts []geom.Point, cfg mr.Config) error {
	g := grid.New(cfg.Eps)
	hist := g.HistogramOf(pts)

	sp := hub.Start(nil, "probe:partition.MakePlan")
	t0 := time.Now()
	plan, err := partition.MakePlan(g, hist, cfg.Leaves, cfg.MinPts, cfg.Rebalance)
	s.add("partition.plan_ms", ms(time.Since(t0)))
	sp.End()
	if err != nil {
		return fmt.Errorf("probe MakePlan: %w", err)
	}

	sp = hub.Start(nil, "probe:partition.Split")
	t0 = time.Now()
	split, err := partition.Split(plan, pts, partition.SplitOptions{ShadowReps: cfg.ShadowReps})
	s.add("partition.split_ms", ms(time.Since(t0)))
	sp.End()
	if err != nil {
		return fmt.Errorf("probe Split: %w", err)
	}

	dev := gpusim.New(gpusim.K20(), nil)
	var ws gdbscan.Workspace
	groups := make([][]*merge.Summary, len(split.Partitions))
	for leaf, owned := range split.Partitions {
		combined := append(append([]geom.Point(nil), owned...), split.Shadows[leaf]...)
		res, err := gdbscan.Cluster(dev, combined, gdbscan.Options{
			Params:    dbscan.Params{Eps: cfg.Eps, MinPts: cfg.MinPts},
			DenseBox:  cfg.DenseBox,
			Workspace: &ws,
		})
		if err != nil {
			return fmt.Errorf("probe leaf %d: %w", leaf, err)
		}
		groups[leaf], err = merge.BuildSummaries(g, leaf, combined, len(owned), res.Labels, res.Core, res.NumClusters)
		if err != nil {
			return fmt.Errorf("probe leaf %d summaries: %w", leaf, err)
		}
	}
	sp = hub.Start(nil, "probe:merge.Combine")
	t0 = time.Now()
	merge.Combine(g, cfg.Eps, groups)
	s.add("merge.combine_ms", ms(time.Since(t0)))
	sp.End()
	return nil
}
