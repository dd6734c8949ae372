package driver

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/matrix"
)

// TestSnapshotKernelCounters: the matrix kernel counters ride along on
// every metrics snapshot under the /metrics JSON keys the dashboards
// scrape.
func TestSnapshotKernelCounters(t *testing.T) {
	matrix.ResetKernelStats()
	a := matrix.New(matrix.Float, 512)
	if _, err := matrix.ElementwiseExec(matrix.OpAdd, a, a, matrix.Exec{}); err != nil {
		t.Fatal(err)
	}
	s := New().MetricsSnapshot()
	if s.KernelSerial == 0 {
		t.Error("kernel_serial_total not populated from matrix.KernelStats")
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"kernel_parallel_total", "kernel_serial_total", "kernel_buffers_reused"} {
		if !strings.Contains(string(raw), `"`+key+`"`) {
			t.Errorf("metrics JSON missing %q", key)
		}
	}
}
