package eddy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/par"
)

func TestConnCompBasic(t *testing.T) {
	// two components: an L-shape and a lone cell
	bin := matrix.FromBools([]bool{
		true, true, false, false,
		true, false, false, true,
		false, false, false, false,
	}, 3, 4)
	labels, err := ConnComp(bin)
	if err != nil {
		t.Fatal(err)
	}
	l := labels.Ints()
	if l[0] != l[1] || l[0] != l[4] {
		t.Errorf("L-shape not connected: %v", l)
	}
	if l[7] == 0 || l[7] == l[0] {
		t.Errorf("lone cell mislabeled: %v", l)
	}
	if l[2] != 0 || l[11] != 0 {
		t.Errorf("background labeled: %v", l)
	}
	sizes := ComponentSizes(labels)
	if len(sizes) != 3 || sizes[l[0]] != 3 || sizes[l[7]] != 1 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestConnCompDiagonalNotConnected(t *testing.T) {
	bin := matrix.FromBools([]bool{
		true, false,
		false, true,
	}, 2, 2)
	labels, _ := ConnComp(bin)
	l := labels.Ints()
	if l[0] == l[3] {
		t.Error("4-connectivity must not join diagonals")
	}
}

func TestConnCompErrors(t *testing.T) {
	if _, err := ConnComp(matrix.New(matrix.Float, 2, 2)); err == nil {
		t.Error("float matrix should be rejected")
	}
	if _, err := ConnComp(matrix.New(matrix.Bool, 2, 2, 2)); err == nil {
		t.Error("rank-3 matrix should be rejected")
	}
}

// Property: labels partition exactly the true cells, and any two
// 4-adjacent true cells share a label.
func TestQuickConnCompInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 2+r.Intn(8), 2+r.Intn(8)
		bits := make([]bool, rows*cols)
		for i := range bits {
			bits[i] = r.Intn(3) == 0
		}
		labels, err := ConnComp(matrix.FromBools(bits, rows, cols))
		if err != nil {
			return false
		}
		l := labels.Ints()
		for i := range bits {
			if bits[i] != (l[i] != 0) {
				return false
			}
		}
		for rr := 0; rr < rows; rr++ {
			for cc := 0; cc < cols; cc++ {
				k := rr*cols + cc
				if !bits[k] {
					continue
				}
				if cc+1 < cols && bits[k+1] && l[k] != l[k+1] {
					return false
				}
				if rr+1 < rows && bits[k+cols] && l[k] != l[k+cols] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGetTrough(t *testing.T) {
	// the Fig 7 signature: fall then rise
	ts := []float64{2, 1.5, 1, 1.2, 1.8, 2.2, 2.0}
	trough, b, e := GetTrough(ts, 0)
	if b != 0 || e != 5 {
		t.Fatalf("trough bounds = %d..%d, want 0..5", b, e)
	}
	if len(trough) != 6 || trough[0] != 2 || trough[5] != 2.2 {
		t.Errorf("trough = %v", trough)
	}
}

func TestComputeAreaTriangle(t *testing.T) {
	// symmetric V: line from 2 to 2; areas 0+1+2+1+0 = 4
	area := ComputeArea([]float64{2, 1, 0, 1, 2})
	if len(area) != 5 {
		t.Fatal("area length")
	}
	for _, v := range area {
		if v < 3.999 || v > 4.001 {
			t.Fatalf("area = %v, want 4", v)
		}
	}
	if out := ComputeArea(nil); len(out) != 0 {
		t.Error("empty input should give empty output")
	}
	one := ComputeArea([]float64{5})
	if len(one) != 1 || one[0] != 0 {
		t.Errorf("singleton area = %v", one)
	}
}

func TestScoreTSDeepVsShallow(t *testing.T) {
	// A deep trough must score higher than a shallow noise bump
	// ("Large areas will then correspond to segments ... that underwent
	// substantial drops and rises, and those that are shallow ... can
	// be associated with noise").
	ts := []float64{1, 1.1, 1.0, 1.1, 1.1, 1.05, 1.1, // shallow bumps
		1.2, 0.2, 0.1, 0.3, 1.2, // deep eddy trough
		1.1, 1.0, 1.1}
	scores := ScoreTS(ts)
	deep := scores[9]
	shallow := scores[2]
	if deep <= shallow {
		t.Fatalf("deep trough score %v should exceed shallow %v", deep, shallow)
	}
	if deep <= 0 {
		t.Fatalf("deep trough should have positive area, got %v", deep)
	}
}

func TestScoreTSMonotoneSeries(t *testing.T) {
	// strictly rising series: trimmed entirely, all scores zero
	scores := ScoreTS([]float64{1, 2, 3, 4, 5})
	for _, s := range scores {
		if s != 0 {
			t.Fatalf("monotone series should score 0, got %v", scores)
		}
	}
}

func TestScoreFieldParallelMatchesSequential(t *testing.T) {
	ssh, _ := Synthesize(SynthOptions{Lat: 10, Lon: 12, Time: 30, NumEddies: 3,
		NoiseAmp: 0.03, SwellAmp: 0.05, Seed: 9})
	seq, err := ScoreField(ssh, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(4)
	parl, err := ScoreField(ssh, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(seq, parl) {
		t.Fatal("parallel scoring differs from sequential")
	}
}

// The synthetic ground truth must be recoverable: cells under real
// eddy tracks should rank above random ocean (the paper's premise that
// area scores separate eddies from noise).
func TestScoresFindSyntheticEddies(t *testing.T) {
	o := SynthOptions{Lat: 24, Lon: 32, Time: 40, NumEddies: 4,
		NoiseAmp: 0.03, SwellAmp: 0.05, Seed: 4}
	ssh, eddies := Synthesize(o)
	scores, err := ScoreField(ssh, nil)
	if err != nil {
		t.Fatal(err)
	}
	top := TopScores(scores, 40)
	near := func(c ScoredCell) bool {
		for _, e := range eddies {
			// compare against the eddy mid-life position
			mid := float64(e.Life) / 2
			clat := e.Lat0 + e.VLat*mid
			clon := e.Lon0 + e.VLon*mid
			d := (float64(c.Lat)-clat)*(float64(c.Lat)-clat) +
				(float64(c.Lon)-clon)*(float64(c.Lon)-clon)
			if d < (3*e.Radius)*(3*e.Radius) {
				return true
			}
		}
		return false
	}
	hits := 0
	for _, c := range top[:10] {
		if near(c) {
			hits++
		}
	}
	if hits < 6 {
		t.Fatalf("only %d/10 top-scored cells near true eddies", hits)
	}
}

func TestDetectFindsComponents(t *testing.T) {
	o := SynthOptions{Lat: 24, Lon: 32, Time: 16, NumEddies: 3,
		NoiseAmp: 0.02, SwellAmp: 0.03, Seed: 6}
	ssh, _ := Synthesize(o)
	dets, err := Detect(ssh, DefaultDetect())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ds := range dets {
		total += len(ds)
	}
	if total == 0 {
		t.Fatal("threshold sweep found no components over synthetic eddies")
	}
}

func TestTrackLinksDetections(t *testing.T) {
	// two synthetic detections drifting right by 1 cell per step
	dets := [][]Detection{
		{{Time: 0, CLat: 5, CLon: 5}},
		{{Time: 1, CLat: 5, CLon: 6}},
		{{Time: 2, CLat: 5, CLon: 7}},
		{{Time: 3, CLat: 20, CLon: 20}}, // far away: a new track
	}
	tracks := Track(dets, 3)
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d, want 2", len(tracks))
	}
	if len(tracks[0]) != 3 {
		t.Fatalf("first track length = %d, want 3", len(tracks[0]))
	}
}

func TestSynthesizeShapeAndDepressions(t *testing.T) {
	o := DefaultSynth()
	ssh, eddies := Synthesize(o)
	if got := ssh.Shape(); got[0] != o.Lat || got[1] != o.Lon || got[2] != o.Time {
		t.Fatalf("shape = %v", got)
	}
	if len(eddies) != o.NumEddies {
		t.Fatalf("eddies = %d", len(eddies))
	}
	// at mid-life, the eddy center must be measurably lower than the
	// field average (it is a depression)
	e := eddies[0]
	mid := e.Start + e.Life/2
	if mid >= o.Time {
		mid = o.Time - 1
	}
	clat := int(e.Lat0 + e.VLat*float64(mid-e.Start))
	clon := int(e.Lon0 + e.VLon*float64(mid-e.Start))
	if clat < 0 || clat >= o.Lat || clon < 0 || clon >= o.Lon {
		t.Skip("eddy drifted off-grid for this seed")
	}
	v, err := ssh.At(clat, clon, mid)
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) > -0.2 {
		t.Fatalf("eddy center SSH = %v, expected a depression", v)
	}
}

// Regression: tiny grids must not panic the synthesizer (cmd/sshgen
// accepts arbitrary sizes).
func TestSynthesizeTinyGrids(t *testing.T) {
	for _, o := range []SynthOptions{
		{Lat: 6, Lon: 7, Time: 8, NumEddies: 6, NoiseAmp: 0.05, SwellAmp: 0.08, Seed: 1},
		{Lat: 1, Lon: 1, Time: 1, NumEddies: 2, Seed: 2},
		{Lat: 3, Lon: 30, Time: 2, NumEddies: 1, Seed: 3},
	} {
		ssh, eddies := Synthesize(o)
		if ssh.Size() != o.Lat*o.Lon*o.Time || len(eddies) != o.NumEddies {
			t.Fatalf("synthesize %+v produced wrong shape", o)
		}
	}
}
