// The durable-tier suite: a driver restarted onto the same cache
// directory serves prior artifacts from disk, a corrupted object is
// quarantined and recompiled (never served), and failed compiles are
// never persisted.
package driver_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/parser"
)

func compileOnce(t *testing.T, d *driver.Driver, src string) *driver.CompileResult {
	t.Helper()
	res := d.Compile(context.Background(), driver.CompileRequest{
		Name: "t.xc", Source: src, Exts: parser.AllExtensions(),
		Codegen: cgen.Options{Par: cgen.ParNone, Optimize: true},
	})
	return res
}

// objectPath mirrors the disk layout: objects/<key[:2]>/<key>.
func objectPath(dir, key string) string {
	return filepath.Join(dir, "objects", key[:2], key)
}

func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d1 := driver.NewWith(driver.Config{CacheDir: dir})
	first := compileOnce(t, d1, okSrc)
	if !first.OK || first.Cached {
		t.Fatalf("cold compile: OK=%v Cached=%v", first.OK, first.Cached)
	}
	if m := d1.MetricsSnapshot(); m.DiskWrites.Load() != 1 || m.DiskMisses.Load() != 1 {
		t.Fatalf("writer metrics: writes=%d misses=%d", m.DiskWrites.Load(), m.DiskMisses.Load())
	}
	if _, err := os.Stat(objectPath(dir, first.Key)); err != nil {
		t.Fatalf("artifact not on disk: %v", err)
	}

	// "Restart": a fresh driver (empty memory cache) on the same dir.
	d2 := driver.NewWith(driver.Config{CacheDir: dir})
	second := compileOnce(t, d2, okSrc)
	if !second.OK || !second.Cached {
		t.Fatalf("warm-from-disk compile: OK=%v Cached=%v", second.OK, second.Cached)
	}
	if second.Output != first.Output || second.Key != first.Key {
		t.Fatal("disk-served artifact differs from the original")
	}
	m := d2.MetricsSnapshot()
	if m.DiskHits.Load() != 1 || m.CompileExecutions.Load() != 0 {
		t.Fatalf("restart metrics: hits=%d executions=%d, want 1 and 0", m.DiskHits.Load(), m.CompileExecutions.Load())
	}
	// The disk hit was promoted into memory: a third request is a pure
	// memory hit, no disk read.
	third := compileOnce(t, d2, okSrc)
	if !third.Cached || d2.MetricsSnapshot().DiskHits.Load() != 1 {
		t.Fatal("disk hit was not promoted into the memory tier")
	}
}

func TestDiskCacheCorruptObjectQuarantinedAndRecompiled(t *testing.T) {
	dir := t.TempDir()
	first := compileOnce(t, driver.NewWith(driver.Config{CacheDir: dir}), okSrc)
	path := objectPath(dir, first.Key)

	// Flip a byte inside the payload: the embedded digest no longer
	// matches, as after a torn write or storage bit-flip.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := driver.NewWith(driver.Config{CacheDir: dir})
	second := compileOnce(t, d2, okSrc)
	if !second.OK || second.Cached {
		t.Fatalf("compile over corrupt object: OK=%v Cached=%v (must recompile)", second.OK, second.Cached)
	}
	if second.Output != first.Output {
		t.Fatal("recompiled artifact differs")
	}
	m := d2.MetricsSnapshot()
	if m.DiskCorrupt.Load() != 1 || m.DiskHits.Load() != 0 || m.CompileExecutions.Load() != 1 {
		t.Fatalf("corruption metrics: %+v", m)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt object not quarantined: %v", err)
	}
	// The recompile rewrote a good object: the next restart is warm again.
	d3 := driver.NewWith(driver.Config{CacheDir: dir})
	if third := compileOnce(t, d3, okSrc); !third.Cached {
		t.Fatal("object not rewritten after quarantine")
	}
	if m := d3.MetricsSnapshot(); m.DiskHits.Load() != 1 || m.DiskCorrupt.Load() != 0 {
		t.Fatalf("post-recovery metrics: %+v", m)
	}
}

func TestDiskCacheTruncatedObjectIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	first := compileOnce(t, driver.NewWith(driver.Config{CacheDir: dir}), okSrc)
	path := objectPath(dir, first.Key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write a non-atomic writer would leave behind.
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := driver.NewWith(driver.Config{CacheDir: dir})
	if res := compileOnce(t, d2, okSrc); !res.OK || res.Cached {
		t.Fatalf("truncated object served: %+v", res)
	}
	if m := d2.MetricsSnapshot(); m.DiskCorrupt.Load() != 1 {
		t.Fatalf("DiskCorrupt = %d, want 1", m.DiskCorrupt.Load())
	}
}

func TestDiskCacheNeverPersistsFailedCompiles(t *testing.T) {
	dir := t.TempDir()
	d1 := driver.NewWith(driver.Config{CacheDir: dir})
	bad := compileOnce(t, d1, badSrc)
	if bad.OK {
		t.Fatal("bad source compiled")
	}
	if _, err := os.Stat(objectPath(dir, bad.Key)); !os.IsNotExist(err) {
		t.Fatalf("failed compile persisted to disk: %v", err)
	}
	if m := d1.MetricsSnapshot(); m.DiskWrites.Load() != 0 {
		t.Fatalf("DiskWrites = %d for a failed compile", m.DiskWrites.Load())
	}
	// A fresh process re-diagnoses rather than serving stale rejections.
	d2 := driver.NewWith(driver.Config{CacheDir: dir})
	bad2 := compileOnce(t, d2, badSrc)
	if bad2.OK || bad2.Cached {
		t.Fatalf("restart served a failed compile from disk: %+v", bad2)
	}
	if strings.Join(bad2.Diagnostics, "\n") != strings.Join(bad.Diagnostics, "\n") {
		t.Fatal("re-diagnosis differs")
	}
}

func TestDriverCacheBoundedUnderUniqueTraffic(t *testing.T) {
	// The regression the LRU exists for: unbounded unique sources must
	// not grow the cache without limit (the old maps retained every
	// request forever, failed ones included).
	d := driver.NewWith(driver.Config{MaxCacheEntries: 8, MaxCacheBytes: 1 << 20})
	for i := 0; i < 40; i++ {
		src := strings.Replace(okSrc, "print(s);", strings.Repeat("print(s);", i+1), 1)
		if res := compileOnce(t, d, src); !res.OK {
			t.Fatalf("unique source %d failed: %v", i, res.Diagnostics)
		}
	}
	m := d.MetricsSnapshot()
	if m.CacheEntries > 16 { // 8 per cache, frontend + compile
		t.Fatalf("cache_entries = %d over the configured bound", m.CacheEntries)
	}
	if m.CacheEvictions == 0 {
		t.Fatal("no evictions recorded under unique-source traffic")
	}
	if m.CacheBytes <= 0 {
		t.Fatalf("cache_bytes gauge = %d", m.CacheBytes)
	}
}
