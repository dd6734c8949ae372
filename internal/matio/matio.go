// Package matio reads and writes the binary matrix file format used
// by the readMatrix/writeMatrix builtins (Figs 1, 4, 8 read
// "ssh.data"-style files). The format is self-describing — magic,
// element kind, rank, dimension sizes, then row-major data — which is
// what lets readMatrix return a matrix whose element type and rank
// are checked against the declared variable type at run time.
package matio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/matrix"
)

// magic identifies the file format.
var magic = [4]byte{'C', 'M', 'X', 'M'}

const maxRank = 32

// Write serializes m to w.
func Write(w io.Writer, m *matrix.Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	head := []int64{int64(m.Elem()), int64(m.Rank())}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, d := range m.Shape() {
		if err := binary.Write(bw, binary.LittleEndian, int64(d)); err != nil {
			return err
		}
	}
	var err error
	switch m.Elem() {
	case matrix.Float:
		err = binary.Write(bw, binary.LittleEndian, m.Floats())
	case matrix.Int:
		err = binary.Write(bw, binary.LittleEndian, m.Ints())
	case matrix.Bool:
		bs := make([]byte, m.Size())
		for i, v := range m.Bools() {
			if v {
				bs[i] = 1
			}
		}
		_, err = bw.Write(bs)
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Read deserializes a matrix from r for host code, outside any budget.
func Read(r io.Reader) (*matrix.Matrix, error) { return ReadBudgeted(nil, r) }

// ReadBudgeted deserializes a matrix from r on behalf of a running
// program: the header's shape is checked and its cells are admitted
// against b before any storage is made, so a few header bytes cannot
// claim more memory than the run may use.
func ReadBudgeted(b *matrix.Budget, r io.Reader) (*matrix.Matrix, error) {
	br := bufio.NewReader(r)
	var got [4]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("matio: reading magic: %w", err)
	}
	if got != magic {
		return nil, fmt.Errorf("matio: bad magic %q (not a matrix file)", got)
	}
	var elemI, rank int64
	if err := binary.Read(br, binary.LittleEndian, &elemI); err != nil {
		return nil, fmt.Errorf("matio: reading element kind: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &rank); err != nil {
		return nil, fmt.Errorf("matio: reading rank: %w", err)
	}
	if elemI < 0 || elemI > int64(matrix.Bool) {
		return nil, fmt.Errorf("matio: invalid element kind %d", elemI)
	}
	if rank < 1 || rank > maxRank {
		return nil, fmt.Errorf("matio: invalid rank %d", rank)
	}
	shape := make([]int, rank)
	for d := range shape {
		var v int64
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
			return nil, fmt.Errorf("matio: reading shape: %w", err)
		}
		if v < 0 || v > 1<<31 {
			return nil, fmt.Errorf("matio: invalid dimension size %d", v)
		}
		shape[d] = int(v)
	}
	m, err := matrix.NewBudgeted(b, matrix.Elem(elemI), shape...)
	if err != nil {
		return nil, err
	}
	switch m.Elem() {
	case matrix.Float:
		err = binary.Read(br, binary.LittleEndian, m.Floats())
	case matrix.Int:
		err = binary.Read(br, binary.LittleEndian, m.Ints())
	case matrix.Bool:
		bs := make([]byte, m.Size())
		if _, err = io.ReadFull(br, bs); err == nil {
			bools := m.Bools()
			for i, b := range bs {
				bools[i] = b != 0
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("matio: reading %d element(s): %w", m.Size(), err)
	}
	return m, nil
}

// WriteFile writes m to the named file.
func WriteFile(name string, m *matrix.Matrix) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := Write(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a matrix from the named file for host code.
func ReadFile(name string) (*matrix.Matrix, error) { return ReadFileBudgeted(nil, name) }

// ReadFileBudgeted is ReadBudgeted on the named file.
func ReadFileBudgeted(b *matrix.Budget, name string) (*matrix.Matrix, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBudgeted(b, f)
}
