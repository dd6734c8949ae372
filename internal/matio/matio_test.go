package matio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func roundTrip(t *testing.T, m *matrix.Matrix) *matrix.Matrix {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return out
}

func TestRoundTripFloat(t *testing.T) {
	m := matrix.FromFloats([]float64{1.5, -2, 3e10, 0.25}, 2, 2)
	if !matrix.Equal(m, roundTrip(t, m)) {
		t.Fatal("float round trip mismatch")
	}
}

func TestRoundTripInt(t *testing.T) {
	m := matrix.FromInts([]int64{1, -9, 1 << 40}, 3)
	if !matrix.Equal(m, roundTrip(t, m)) {
		t.Fatal("int round trip mismatch")
	}
}

func TestRoundTripBool(t *testing.T) {
	m := matrix.FromBools([]bool{true, false, true, true, false, false}, 2, 3)
	if !matrix.Equal(m, roundTrip(t, m)) {
		t.Fatal("bool round trip mismatch")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.data")
	m := matrix.FromFloats([]float64{9, 8, 7, 6, 5, 4}, 3, 2)
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(m, out) {
		t.Fatal("file round trip mismatch")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE1234567890"),
		"truncated": append([]byte("CMXM"), 1, 0, 0),
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// corrupt rank
	var buf bytes.Buffer
	m := matrix.FromFloats([]float64{1}, 1)
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[12] = 200 // rank field
	if _, err := Read(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "rank") {
		t.Errorf("corrupt rank error = %v", err)
	}
}

func TestMissingFile(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.data")); err == nil {
		t.Error("missing file should error")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rank := 1 + r.Intn(3)
		shape := make([]int, rank)
		for d := range shape {
			shape[d] = 1 + r.Intn(5)
		}
		m := matrix.New(matrix.Float, shape...)
		fl := m.Floats()
		for i := range fl {
			fl[i] = r.NormFloat64()
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			return false
		}
		return matrix.Equal(m, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// header is a file that claims the shape and carries no data.
func header(elem matrix.Elem, shape ...int64) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	binary.Write(&buf, binary.LittleEndian, append([]int64{int64(elem), int64(len(shape))}, shape...))
	return buf.Bytes()
}

// A reader working for a program admits the header's cells before it
// makes storage for them: 28 bytes claiming 2^27 cells are the budget's
// refusal, not a gigabyte zeroed and then an EOF.
func TestReadBudgetedRefusesAClaimItCannotHold(t *testing.T) {
	b := matrix.NewBudget(1000)
	_, err := ReadBudgeted(b, bytes.NewReader(header(matrix.Float, 1<<27)))
	var be *matrix.BudgetError
	if !errors.As(err, &be) || be.Requested != 1<<27 || be.Used != 0 || b.Used() != 0 {
		t.Fatalf("err = %v with %d cells charged, want the budget's refusal of 2^27 cells and nothing charged", err, b.Used())
	}
}

func TestReadBudgetedChargesTheCellsItReads(t *testing.T) {
	for _, m := range []*matrix.Matrix{
		matrix.FromFloats(make([]float64, 24), 2, 3, 4),
		matrix.FromInts(make([]int64, 7), 7),
		matrix.FromBools(make([]bool, 6), 3, 2),
	} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		b := matrix.NewBudget(100)
		out, err := ReadBudgeted(b, &buf)
		if err != nil || !matrix.Equal(m, out) || b.Used() != int64(m.Size()) {
			t.Errorf("%v: err %v, %d cells charged, want %d", m.Shape(), err, b.Used(), m.Size())
		}
	}
}

// A shape whose cell count overflows is the shape error of every other
// allocation, with or without a budget, and not a panic inside New.
func TestReadRefusesAnOverflowingShape(t *testing.T) {
	data := header(matrix.Float, 1<<31, 1<<31, 1<<31)
	for _, b := range []*matrix.Budget{nil, matrix.NewBudget(1000)} {
		_, err := ReadBudgeted(b, bytes.NewReader(data))
		var se *matrix.ShapeError
		if !errors.As(err, &se) || !strings.Contains(err.Error(), "overflows the address space") {
			t.Errorf("budget %v: err = %v, want the overflow shape error", b, err)
		}
	}
}
