// Connected-component labelling for threshold-based eddy detection
// (§IV, Fig 4): "One can identify ocean eddies algorithmically by
// iteratively thresholding the SSH data and searching for connected
// components that satisfy certain criteria".
package eddy

import (
	"fmt"

	"repro/internal/matrix"
)

// unionFind is a standard weighted quick-union structure.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// ConnComp labels the 4-connected components of a rank-2 bool matrix.
// Background cells get label 0; components are numbered from 1 in
// row-major order of their first cell. The result is a rank-2 int
// matrix of the same shape.
func ConnComp(binary *matrix.Matrix) (*matrix.Matrix, error) {
	if binary.Elem() != matrix.Bool || binary.Rank() != 2 {
		return nil, fmt.Errorf("eddy: ConnComp requires a rank-2 bool matrix, got %s", binary)
	}
	sh := binary.Shape()
	rows, cols := sh[0], sh[1]
	bits := binary.Bools()
	uf := newUnionFind(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			k := r*cols + c
			if !bits[k] {
				continue
			}
			if c+1 < cols && bits[k+1] {
				uf.union(k, k+1)
			}
			if r+1 < rows && bits[k+cols] {
				uf.union(k, k+cols)
			}
		}
	}
	out := matrix.New(matrix.Int, rows, cols)
	labels := out.Ints()
	next := int64(1)
	byRoot := map[int]int64{}
	for k := range bits {
		if !bits[k] {
			continue
		}
		root := uf.find(k)
		l, ok := byRoot[root]
		if !ok {
			l = next
			next++
			byRoot[root] = l
		}
		labels[k] = l
	}
	return out, nil
}

// ComponentSizes returns the cell count of each label (index 0 is the
// background count).
func ComponentSizes(labels *matrix.Matrix) []int {
	max := int64(0)
	for _, l := range labels.Ints() {
		if l > max {
			max = l
		}
	}
	sizes := make([]int, max+1)
	for _, l := range labels.Ints() {
		sizes[l]++
	}
	return sizes
}

// DetectOptions configures threshold-sweep eddy detection.
type DetectOptions struct {
	// Thresholds to sweep, lowest (deepest depression) first — the
	// Fig 4 for-loop over i.
	Thresholds []float64
	// MinSize, MaxSize: component cell-count criteria "typical of
	// ocean eddies".
	MinSize, MaxSize int
}

// DefaultDetect sweeps a small threshold ladder.
func DefaultDetect() DetectOptions {
	ths := []float64{-0.6, -0.45, -0.3, -0.2}
	return DetectOptions{Thresholds: ths, MinSize: 4, MaxSize: 500}
}

// Detection is one detected eddy candidate at one time step.
type Detection struct {
	Time       int
	Label      int64
	Size       int
	CLat, CLon float64 // centroid
	Threshold  float64
}

// DetectAtTime runs the threshold sweep on one rank-2 SSH slice,
// returning candidate components. A cell claimed at a deeper threshold
// is not re-reported at shallower ones.
func DetectAtTime(slice *matrix.Matrix, ti int, o DetectOptions) ([]Detection, error) {
	if slice.Rank() != 2 || slice.Elem() != matrix.Float {
		return nil, fmt.Errorf("eddy: DetectAtTime requires a rank-2 float matrix")
	}
	sh := slice.Shape()
	rows, cols := sh[0], sh[1]
	claimed := make([]bool, rows*cols)
	var out []Detection
	for _, th := range o.Thresholds {
		bin := matrix.New(matrix.Bool, rows, cols)
		bits := bin.Bools()
		data := slice.Floats()
		for k := range bits {
			bits[k] = data[k] < th && !claimed[k]
		}
		labels, err := ConnComp(bin)
		if err != nil {
			return nil, err
		}
		sizes := ComponentSizes(labels)
		// centroids
		type acc struct {
			n          int
			sLat, sLon float64
		}
		cents := map[int64]*acc{}
		for k, l := range labels.Ints() {
			if l == 0 {
				continue
			}
			a := cents[l]
			if a == nil {
				a = &acc{}
				cents[l] = a
			}
			a.n++
			a.sLat += float64(k / cols)
			a.sLon += float64(k % cols)
		}
		for l := int64(1); l < int64(len(sizes)); l++ {
			if sizes[l] < o.MinSize || sizes[l] > o.MaxSize {
				continue
			}
			a := cents[l]
			out = append(out, Detection{
				Time: ti, Label: l, Size: sizes[l],
				CLat: a.sLat / float64(a.n), CLon: a.sLon / float64(a.n),
				Threshold: th,
			})
			// claim the component's cells
			for k, lab := range labels.Ints() {
				if lab == l {
					claimed[k] = true
				}
			}
		}
	}
	return out, nil
}

// Detect runs DetectAtTime over every time slice of a rank-3 SSH
// matrix (lat x lon x time), as Fig 4 does via matrixMap.
func Detect(ssh *matrix.Matrix, o DetectOptions) ([][]Detection, error) {
	if ssh.Rank() != 3 {
		return nil, fmt.Errorf("eddy: Detect requires a rank-3 SSH matrix")
	}
	tDim := ssh.Shape()[2]
	out := make([][]Detection, tDim)
	for ti := 0; ti < tDim; ti++ {
		sliceAny, err := ssh.Index(nil, matrix.All(), matrix.All(), matrix.Scalar(ti))
		if err != nil {
			return nil, err
		}
		dets, err := DetectAtTime(sliceAny.(*matrix.Matrix), ti, o)
		if err != nil {
			return nil, err
		}
		out[ti] = dets
	}
	return out, nil
}

// Track links detections across consecutive time steps by nearest
// centroid within maxDist, producing eddy tracks (§IV's tracking).
func Track(dets [][]Detection, maxDist float64) [][]Detection {
	var tracks [][]Detection
	active := map[int]int{} // detection index in previous step -> track id
	for ti := 0; ti < len(dets); ti++ {
		nextActive := map[int]int{}
		for di, d := range dets[ti] {
			best, bestDist := -1, maxDist
			if ti > 0 {
				for pi, p := range dets[ti-1] {
					if _, used := active[pi]; !used {
						continue
					}
					dist := hyp(d.CLat-p.CLat, d.CLon-p.CLon)
					if dist < bestDist {
						best, bestDist = pi, dist
					}
				}
			}
			if best >= 0 {
				id := active[best]
				tracks[id] = append(tracks[id], d)
				nextActive[di] = id
				delete(active, best)
			} else {
				tracks = append(tracks, []Detection{d})
				nextActive[di] = len(tracks) - 1
			}
		}
		active = nextActive
	}
	return tracks
}

func hyp(a, b float64) float64 {
	s := a*a + b*b
	// cheap sqrt via Newton (avoids importing math here)
	if s == 0 {
		return 0
	}
	x := s
	for i := 0; i < 20; i++ {
		x = 0.5 * (x + s/x)
	}
	return x
}
