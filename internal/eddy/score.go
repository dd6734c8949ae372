// The temporal trough-scoring method of §IV (Figs 7–8), as native Go
// reference implementations mirroring the extended-C code of Fig 8:
// GetTrough walks from a local maximum down and back up; ComputeArea
// measures the area between the trough and the peak-to-peak line;
// ScoreTS assigns each trough its area; ScoreField maps ScoreTS over
// the time dimension of an SSH cube (Fig 8's matrixMap(scoreTS, data,
// [2])).
package eddy

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/par"
)

// GetTrough is Fig 8's getTrough: starting at index i (a local
// maximum), walk downwards while values fall, then upwards while they
// rise, returning the trough slice ts[beginning..i] (inclusive), its
// start index and its end index.
func GetTrough(ts []float64, i int) (trough []float64, beginning, end int) {
	beginning = i
	n := len(ts)
	for i+1 < n && ts[i] >= ts[i+1] {
		i++
	}
	for i+1 < n && ts[i] < ts[i+1] {
		i++
	}
	out := make([]float64, i-beginning+1)
	copy(out, ts[beginning:i+1])
	return out, beginning, i
}

// ComputeArea is Fig 8's computeArea: the area between the trough and
// the line connecting its two end points ("computing the 'area'
// between that trough and an imaginary line going from peak to peak").
// Each point of the result carries the total area.
func ComputeArea(areaOfInterest []float64) []float64 {
	n := len(areaOfInterest)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	y1 := areaOfInterest[0]
	y2 := areaOfInterest[n-1]
	x1, x2 := 0, n-1
	var m float64
	if x1 != x2 {
		m = (y1 - y2) / float64(x1-x2)
	}
	b := y1 - m*float64(x1)
	area := 0.0
	for i := 0; i < n; i++ {
		line := float64(i)*m + b
		area += line - areaOfInterest[i]
	}
	for i := range out {
		out[i] = area
	}
	return out
}

// ScoreTS is Fig 8's scoreTS: trim to the first local maximum, then
// repeatedly cut out troughs and assign each point the trough's area.
func ScoreTS(ts []float64) []float64 {
	scores := make([]float64, len(ts))
	n := len(ts)
	i := 0
	for i+1 < n && ts[i] < ts[i+1] { // trimming
		i++
	}
	for i < n-1 {
		trough, beginning, end := GetTrough(ts, i)
		area := ComputeArea(trough)
		copy(scores[beginning:end+1], area)
		if end == i { // no progress possible (flat tail)
			break
		}
		i = end
	}
	return scores
}

// ScoreField applies ScoreTS along the time dimension (dim 2) of a
// lat x lon x time SSH matrix, the cells distributed over the pool's
// workers (nil = one) — the reference for Fig 8's matrixMap(scoreTS,
// data, [2]).
func ScoreField(ssh *matrix.Matrix, pool *par.Pool) (*matrix.Matrix, error) {
	if ssh.Rank() != 3 || ssh.Elem() != matrix.Float {
		return nil, fmt.Errorf("eddy: ScoreField requires a rank-3 float matrix")
	}
	sh := ssh.Shape()
	lat, lon, tn := sh[0], sh[1], sh[2]
	out := matrix.New(matrix.Float, lat, lon, tn)
	src := ssh.Floats()
	dst := out.Floats()
	pool.ParallelFor(0, lat*lon, func(cell int) {
		base := cell * tn
		copy(dst[base:base+tn], ScoreTS(src[base:base+tn]))
	})
	return out, nil
}

// TopScores returns the k highest per-cell peak scores with their
// locations, for ranking candidate eddy sites ("ranking locations on
// the map by how likely it is that what is being detected is actually
// an eddy").
type ScoredCell struct {
	Lat, Lon int
	Score    float64
}

// TopScores scans a scored field for each cell's maximum score over
// time and returns the k best cells, ordered best first.
func TopScores(scores *matrix.Matrix, k int) []ScoredCell {
	sh := scores.Shape()
	lat, lon, tn := sh[0], sh[1], sh[2]
	data := scores.Floats()
	cells := make([]ScoredCell, 0, lat*lon)
	for la := 0; la < lat; la++ {
		for lo := 0; lo < lon; lo++ {
			best := 0.0
			base := (la*lon + lo) * tn
			for t := 0; t < tn; t++ {
				if data[base+t] > best {
					best = data[base+t]
				}
			}
			cells = append(cells, ScoredCell{la, lo, best})
		}
	}
	// partial selection sort for the top k
	if k > len(cells) {
		k = len(cells)
	}
	for i := 0; i < k; i++ {
		maxJ := i
		for j := i + 1; j < len(cells); j++ {
			if cells[j].Score > cells[maxJ].Score {
				maxJ = j
			}
		}
		cells[i], cells[maxJ] = cells[maxJ], cells[i]
	}
	return cells[:k]
}
