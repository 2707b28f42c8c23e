package main

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// oracle is an exact DBSCAN labelling written apart from the program's
// own clustering code, after the grid method of Wang, Gu & Shun,
// "Theoretically-Efficient and Practical Parallel DBSCAN": points are
// bucketed into square cells small enough that any two points of one
// cell are within Eps, core points are marked per cell, and core points
// are joined with union-find over neighbouring cells. It follows the
// program's conventions: a point is core when at least MinPts points,
// itself included, lie within distance Eps (inclusive).
//
// Border points are ambiguous in DBSCAN: one may be reached from several
// clusters. The oracle keeps, for every non-core point, the list of
// clusters whose cores lie within Eps of it, so a checker can accept any
// of them.
type oracle struct {
	core      []bool
	comp      []int32 // cluster of each core point, -1 for non-core
	nclusters int
	// admissible clusters of non-core point i: adm[admStart[i]:admStart[i+1]]
	admStart []int32
	adm      []int32
	// labels is one valid labelling: cores by component, borders by
	// their smallest admissible cluster, noise -1.
	labels []int
}

type cellKey struct{ x, y int64 }

// newOracle labels pts exactly. Clusters are numbered by their
// lowest-indexed core point, so the labelling is a function of the input
// order alone.
func newOracle(pts []geom.Point, eps float64, minPts int) *oracle {
	n := len(pts)
	o := &oracle{
		core:     make([]bool, n),
		comp:     make([]int32, n),
		admStart: make([]int32, n+1),
		labels:   make([]int, n),
	}
	if n == 0 {
		return o
	}
	// A cell side of Eps/1.5 keeps a cell's diagonal (0.943 Eps) safely
	// inside Eps, and any point within Eps of a cell lies at most two
	// cells away.
	side := eps / 1.5
	eps2 := eps * eps

	// Bucket points by cell in CSR form: members[start[c]:start[c+1]].
	index := make(map[cellKey]int32)
	cellOf := make([]int32, n)
	var keys []cellKey
	var count []int32
	for i, p := range pts {
		k := cellKey{int64(math.Floor(p.X / side)), int64(math.Floor(p.Y / side))}
		c, ok := index[k]
		if !ok {
			c = int32(len(keys))
			index[k] = c
			keys = append(keys, k)
			count = append(count, 0)
		}
		cellOf[i] = c
		count[c]++
	}
	nc := len(keys)
	start := make([]int32, nc+1)
	for c := 0; c < nc; c++ {
		start[c+1] = start[c] + count[c]
	}
	members := make([]int32, n)
	fill := append([]int32(nil), start[:nc]...)
	for i, c := range cellOf {
		members[fill[c]] = int32(i)
		fill[c]++
	}

	// Neighbouring cells (5×5 block, the cell itself included), CSR.
	nbrStart := make([]int32, nc+1)
	var nbrs []int32
	for c, k := range keys {
		for dx := int64(-2); dx <= 2; dx++ {
			for dy := int64(-2); dy <= 2; dy++ {
				if d, ok := index[cellKey{k.x + dx, k.y + dy}]; ok {
					nbrs = append(nbrs, d)
				}
			}
		}
		nbrStart[c+1] = int32(len(nbrs))
	}
	within := func(i, j int32) bool {
		dx, dy := pts[i].X-pts[j].X, pts[i].Y-pts[j].Y
		return dx*dx+dy*dy <= eps2
	}

	// Core marking: a cell holding MinPts points makes all of them core;
	// otherwise count each point's neighbourhood, stopping at MinPts.
	for c := 0; c < nc; c++ {
		cell := members[start[c]:start[c+1]]
		if len(cell) >= minPts {
			for _, i := range cell {
				o.core[i] = true
			}
			continue
		}
		for _, i := range cell {
			found := 0
		scan:
			for _, d := range nbrs[nbrStart[c]:nbrStart[c+1]] {
				for _, j := range members[start[d]:start[d+1]] {
					if within(i, j) {
						found++
						if found >= minPts {
							break scan
						}
					}
				}
			}
			o.core[i] = found >= minPts
		}
	}

	// Union-find over core points. All cores of one cell are within Eps
	// of each other; two cells join when any pair of their cores does.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra < rb {
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	firstCore := make([]int32, nc)
	for c := 0; c < nc; c++ {
		firstCore[c] = -1
		for _, i := range members[start[c]:start[c+1]] {
			if !o.core[i] {
				continue
			}
			if firstCore[c] < 0 {
				firstCore[c] = i
			} else {
				union(firstCore[c], i)
			}
		}
	}
	for c := 0; c < nc; c++ {
		if firstCore[c] < 0 {
			continue
		}
		for _, d := range nbrs[nbrStart[c]:nbrStart[c+1]] {
			if d <= int32(c) || firstCore[d] < 0 || find(firstCore[c]) == find(firstCore[d]) {
				continue
			}
		pair:
			for _, i := range members[start[c]:start[c+1]] {
				if !o.core[i] {
					continue
				}
				for _, j := range members[start[d]:start[d+1]] {
					if o.core[j] && within(i, j) {
						union(i, j)
						break pair
					}
				}
			}
		}
	}

	// Number clusters by their lowest-indexed core point.
	compOfRoot := make(map[int32]int32)
	for i := 0; i < n; i++ {
		o.comp[i] = -1
		if !o.core[i] {
			continue
		}
		r := find(int32(i))
		id, ok := compOfRoot[r]
		if !ok {
			id = int32(len(compOfRoot))
			compOfRoot[r] = id
		}
		o.comp[i] = id
		o.labels[i] = int(id)
	}
	o.nclusters = len(compOfRoot)

	// Border points: the clusters of every core within Eps.
	for i := 0; i < n; i++ {
		if o.core[i] {
			o.admStart[i+1] = int32(len(o.adm))
			continue
		}
		from := len(o.adm)
		c := cellOf[i]
		for _, d := range nbrs[nbrStart[c]:nbrStart[c+1]] {
			if firstCore[d] < 0 {
				continue
			}
			for _, j := range members[start[d]:start[d+1]] {
				if o.core[j] && within(int32(i), j) && !contains(o.adm[from:], o.comp[j]) {
					o.adm = append(o.adm, o.comp[j])
				}
			}
		}
		o.admStart[i+1] = int32(len(o.adm))
		o.labels[i] = -1
		for _, a := range o.adm[from:] {
			if o.labels[i] < 0 || int(a) < o.labels[i] {
				o.labels[i] = int(a)
			}
		}
	}
	return o
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// admissible returns the clusters non-core point i may join.
func (o *oracle) admissible(i int) []int32 { return o.adm[o.admStart[i]:o.admStart[i+1]] }

// check verifies got against the oracle: core points are partitioned
// exactly like the oracle's cores (the two cluster numberings are a
// bijection on cores), no oracle-noise point carries a label, and every
// labelled border point has a same-cluster core within Eps. A border
// point labelled noise is an error only when strictBorders is set;
// otherwise it is counted in borderNoise.
func (o *oracle) check(got []int, strictBorders bool) (borderNoise int, err error) {
	if len(got) != len(o.core) {
		return 0, fmt.Errorf("%d labels for %d points", len(got), len(o.core))
	}
	o2p := make([]int, o.nclusters)
	for i := range o2p {
		o2p[i] = -1
	}
	p2o := make(map[int]int32)
	for i, l := range got {
		if !o.core[i] {
			continue
		}
		oc := o.comp[i]
		if l < 0 {
			return 0, fmt.Errorf("core point %d labelled noise", i)
		}
		if o2p[oc] < 0 {
			o2p[oc] = l
		} else if o2p[oc] != l {
			return 0, fmt.Errorf("oracle cluster %d split across labels %d and %d (point %d)", oc, o2p[oc], l, i)
		}
		if prev, ok := p2o[l]; !ok {
			p2o[l] = oc
		} else if prev != oc {
			return 0, fmt.Errorf("label %d merges oracle clusters %d and %d (point %d)", l, prev, oc, i)
		}
	}
	for i, l := range got {
		if o.core[i] {
			continue
		}
		adm := o.admissible(i)
		switch {
		case len(adm) == 0 && l >= 0:
			return 0, fmt.Errorf("noise point %d labelled %d", i, l)
		case len(adm) == 0:
		case l < 0 && strictBorders:
			return 0, fmt.Errorf("border point %d labelled noise", i)
		case l < 0:
			borderNoise++
		default:
			oc, ok := p2o[l]
			if !ok || !contains(adm, oc) {
				return 0, fmt.Errorf("border point %d labelled %d, which has no core within Eps", i, l)
			}
		}
	}
	return borderNoise, nil
}
