package main

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
)

// bruteDBSCAN labels pts by the textbook definition with O(n²) distance
// checks: cores, their connected components numbered by lowest index,
// and for every non-core point the sorted set of clusters in reach.
func bruteDBSCAN(pts []geom.Point, eps float64, minPts int) (core []bool, comp []int32, adm [][]int32) {
	n := len(pts)
	eps2 := eps * eps
	near := func(i, j int) bool {
		dx, dy := pts[i].X-pts[j].X, pts[i].Y-pts[j].Y
		return dx*dx+dy*dy <= eps2
	}
	core = make([]bool, n)
	for i := range pts {
		c := 0
		for j := range pts {
			if near(i, j) {
				c++
			}
		}
		core[i] = c >= minPts
	}
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	for i := range pts {
		if !core[i] || comp[i] >= 0 {
			continue
		}
		comp[i] = next
		stack := []int{i}
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for b := range pts {
				if core[b] && comp[b] < 0 && near(a, b) {
					comp[b] = next
					stack = append(stack, b)
				}
			}
		}
		next++
	}
	adm = make([][]int32, n)
	for i := range pts {
		if core[i] {
			continue
		}
		seen := map[int32]bool{}
		for j := range pts {
			if core[j] && near(i, j) && !seen[comp[j]] {
				seen[comp[j]] = true
			}
		}
		for c := int32(0); c < next; c++ {
			if seen[c] {
				adm[i] = append(adm[i], c)
			}
		}
	}
	return core, comp, adm
}

func blobs(rng *rand.Rand, n, k int, sigma float64) []geom.Point {
	centers := make([][2]float64, k)
	for i := range centers {
		centers[i] = [2]float64{rng.Float64() * 2, rng.Float64() * 2}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		if rng.Intn(5) == 0 {
			pts[i] = geom.Point{ID: uint64(i), X: rng.Float64() * 2, Y: rng.Float64() * 2}
			continue
		}
		c := centers[rng.Intn(k)]
		pts[i] = geom.Point{ID: uint64(i), X: c[0] + rng.NormFloat64()*sigma, Y: c[1] + rng.NormFloat64()*sigma}
	}
	return pts
}

func sortedAdm(o *oracle, i int) []int32 {
	a := append([]int32(nil), o.admissible(i)...)
	sort.Slice(a, func(x, y int) bool { return a[x] < a[y] })
	return a
}

func compareWithBrute(t *testing.T, name string, pts []geom.Point, eps float64, minPts int) {
	t.Helper()
	core, comp, adm := bruteDBSCAN(pts, eps, minPts)
	o := newOracle(pts, eps, minPts)
	for i := range pts {
		if o.core[i] != core[i] {
			t.Fatalf("%s: point %d core=%v, brute force says %v", name, i, o.core[i], core[i])
		}
		if o.comp[i] != comp[i] {
			t.Fatalf("%s: point %d in cluster %d, brute force says %d", name, i, o.comp[i], comp[i])
		}
		if got := sortedAdm(o, i); len(got)+len(adm[i]) > 0 && !reflect.DeepEqual(got, adm[i]) {
			t.Fatalf("%s: point %d admissible %v, brute force says %v", name, i, got, adm[i])
		}
	}
	// The oracle's own labelling passes its own check, strictly.
	if _, err := o.check(o.labels, true); err != nil {
		t.Fatalf("%s: oracle labels fail the check: %v", name, err)
	}
}

func TestOracleMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(400)
		pts := blobs(rng, n, 1+rng.Intn(6), 0.02+rng.Float64()*0.1)
		eps := 0.02 + rng.Float64()*0.15
		minPts := 1 + rng.Intn(12)
		compareWithBrute(t, "blobs", pts, eps, minPts)
	}
}

func TestOracleDegenerateInputs(t *testing.T) {
	compareWithBrute(t, "empty", nil, 0.1, 4)
	compareWithBrute(t, "single", []geom.Point{{ID: 7, X: 3, Y: -2}}, 0.1, 1)
	compareWithBrute(t, "single-noise", []geom.Point{{ID: 7, X: 3, Y: -2}}, 0.1, 2)
	dup := make([]geom.Point, 50)
	for i := range dup {
		dup[i] = geom.Point{ID: uint64(i), X: 0.5, Y: 0.5}
	}
	compareWithBrute(t, "duplicates-core", dup, 0.1, 50)
	compareWithBrute(t, "duplicates-noise", dup, 0.1, 51)
	// Points exactly Eps apart are neighbours (the distance test is
	// inclusive), on a lattice whose spacing straddles cell borders.
	var lattice []geom.Point
	for x := 0; x < 12; x++ {
		for y := 0; y < 12; y++ {
			lattice = append(lattice, geom.Point{ID: uint64(len(lattice)), X: float64(x) * 0.25, Y: float64(y) * 0.25})
		}
	}
	compareWithBrute(t, "lattice", lattice, 0.25, 5)
	compareWithBrute(t, "lattice-sparse", lattice, 0.25, 6)
}

func TestCheckRejectsWrongLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := blobs(rng, 400, 4, 0.03)
	o := newOracle(pts, 0.08, 5)
	if o.nclusters < 2 {
		t.Fatalf("want at least two clusters, got %d", o.nclusters)
	}
	mutate := func(f func(l []int)) []int {
		l := append([]int(nil), o.labels...)
		f(l)
		return l
	}
	firstCore, noise, otherCluster := -1, -1, -1
	for i := range pts {
		switch {
		case o.core[i] && firstCore < 0:
			firstCore = i
		case !o.core[i] && len(o.admissible(i)) == 0 && noise < 0:
			noise = i
		}
	}
	for i := range pts {
		if o.core[i] && o.comp[i] != o.comp[firstCore] {
			otherCluster = i
			break
		}
	}
	cases := map[string][]int{
		"core as noise":  mutate(func(l []int) { l[firstCore] = -1 }),
		"noise labelled": mutate(func(l []int) { l[noise] = 0 }),
		"clusters merged": mutate(func(l []int) {
			for i := range l {
				if o.core[i] && o.comp[i] == o.comp[otherCluster] {
					l[i] = l[firstCore]
				}
			}
		}),
		"cluster split": mutate(func(l []int) { l[firstCore] = 1000 }),
	}
	for name, labels := range cases {
		if _, err := o.check(labels, false); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
	// Renumbering clusters is not an error.
	renamed := mutate(func(l []int) {
		for i := range l {
			if l[i] >= 0 {
				l[i] += 17
			}
		}
	})
	if _, err := o.check(renamed, true); err != nil {
		t.Errorf("renamed clusters rejected: %v", err)
	}
}
