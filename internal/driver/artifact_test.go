// Artifact transfer suite: the digest-framed export/import path that
// lets fleet peers fill each other's caches, and its interaction with
// the corruption quarantine — a poisoned disk object must never be
// exported, and an import from a healthy peer must transparently
// re-fill the quarantined slot.
package driver_test

import (
	"context"
	"os"
	"testing"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/parser"
)

func artifactKeyFor(src string) string {
	req := driver.CompileRequest{
		Name: "t.xc", Source: src, Exts: parser.AllExtensions(),
		Codegen: cgen.Options{Par: cgen.ParNone, Optimize: true},
	}
	return driver.CompileCacheKey(req)
}

func TestArtifactExportImportRoundTrip(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a := driver.NewWith(driver.Config{CacheDir: dirA})
	first := compileOnce(t, a, okSrc)
	if !first.OK {
		t.Fatalf("compile: %v", first.Diagnostics)
	}

	raw, ok := a.ExportArtifact(context.Background(), first.Key)
	if !ok || len(raw) == 0 {
		t.Fatal("compiled artifact not exportable")
	}
	if a.MetricsSnapshot().ArtifactExports.Load() != 1 {
		t.Fatal("artifact_exports not counted")
	}

	b := driver.NewWith(driver.Config{CacheDir: dirB})
	if err := b.ImportArtifact(first.Key, raw); err != nil {
		t.Fatalf("import: %v", err)
	}
	res := compileOnce(t, b, okSrc)
	if !res.OK || !res.Cached || res.Output != first.Output {
		t.Fatalf("imported artifact not served: OK=%v Cached=%v", res.OK, res.Cached)
	}
	m := b.MetricsSnapshot()
	if m.CompileExecutions.Load() != 0 || m.ArtifactImports.Load() != 1 {
		t.Fatalf("import metrics: executions=%d imports=%d", m.CompileExecutions.Load(), m.ArtifactImports.Load())
	}
	// The import also landed on B's disk: a restarted B stays warm.
	b2 := driver.NewWith(driver.Config{CacheDir: dirB})
	if res := compileOnce(t, b2, okSrc); !res.Cached {
		t.Fatal("imported artifact not durable across restart")
	}
}

func TestImportArtifactRejectsTamperedPayload(t *testing.T) {
	a := driver.NewWith(driver.Config{CacheDir: t.TempDir()})
	first := compileOnce(t, a, okSrc)
	raw, _ := a.ExportArtifact(context.Background(), first.Key)

	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)/2] ^= 0x20
	b := driver.NewWith(driver.Config{CacheDir: t.TempDir()})
	if err := b.ImportArtifact(first.Key, tampered); err == nil {
		t.Fatal("tampered artifact accepted")
	}
	if res := compileOnce(t, b, okSrc); res.Cached {
		t.Fatal("tampered artifact was cached anyway")
	}
}

func TestImportArtifactRejectsMalformedKey(t *testing.T) {
	d := driver.New()
	if err := d.ImportArtifact("not-a-key", []byte("x")); err == nil {
		t.Fatal("malformed key accepted")
	}
	if err := d.ImportArtifact("../../etc/passwd", []byte("x")); err == nil {
		t.Fatal("traversal key accepted")
	}
}

// TestExportRefusesCorruptDiskObject: a bit-flipped object must fail
// its digest check on the way out — a fleet peer asking for a cache
// fill must never receive poison.
func TestExportRefusesCorruptDiskObject(t *testing.T) {
	dir := t.TempDir()
	first := compileOnce(t, driver.NewWith(driver.Config{CacheDir: dir}), okSrc)
	path := objectPath(dir, first.Key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := driver.NewWith(driver.Config{CacheDir: dir}) // no memory copy
	if _, ok := d2.ExportArtifact(context.Background(), first.Key); ok {
		t.Fatal("corrupt disk object exported")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt object not quarantined on export: %v", err)
	}
}

// TestImportRefillsQuarantinedObject is the peer-assisted half of the
// quarantine story: after local corruption, an import from a healthy
// peer rewrites the object in place and the next restart serves it
// from disk with zero recompiles.
func TestImportRefillsQuarantinedObject(t *testing.T) {
	dir := t.TempDir()
	healthy := driver.NewWith(driver.Config{CacheDir: t.TempDir()})
	first := compileOnce(t, healthy, okSrc)
	good, ok := healthy.ExportArtifact(context.Background(), first.Key)
	if !ok {
		t.Fatal("healthy peer cannot export")
	}

	victim := driver.NewWith(driver.Config{CacheDir: dir})
	compileOnce(t, victim, okSrc)
	path := objectPath(dir, first.Key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Fresh incarnation discovers the corruption, quarantines, then is
	// re-filled over the artifact path instead of recompiling.
	d2 := driver.NewWith(driver.Config{CacheDir: dir})
	if _, ok := d2.ExportArtifact(context.Background(), first.Key); ok {
		t.Fatal("corrupt object exported")
	}
	if err := d2.ImportArtifact(first.Key, good); err != nil {
		t.Fatalf("re-fill import: %v", err)
	}
	if res := compileOnce(t, d2, okSrc); !res.Cached {
		t.Fatal("re-filled artifact not served")
	}
	if m := d2.MetricsSnapshot(); m.CompileExecutions.Load() != 0 {
		t.Fatalf("re-fill recompiled: executions=%d", m.CompileExecutions.Load())
	}
	d3 := driver.NewWith(driver.Config{CacheDir: dir})
	if res := compileOnce(t, d3, okSrc); !res.Cached {
		t.Fatal("re-filled object not durable")
	}
	if m := d3.MetricsSnapshot(); m.DiskHits.Load() != 1 || m.DiskCorrupt.Load() != 0 || m.CompileExecutions.Load() != 0 {
		t.Fatalf("post-refill restart metrics: %+v", m)
	}
}

func TestCompileCanceledContextNothingCached(t *testing.T) {
	d := driver.New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := d.Compile(ctx, driver.CompileRequest{
		Name: "t.xc", Source: okSrc, Exts: parser.AllExtensions(),
		Codegen: cgen.Options{Par: cgen.ParNone, Optimize: true},
	})
	if !res.Canceled || res.OK {
		t.Fatalf("dead-context compile: Canceled=%v OK=%v", res.Canceled, res.OK)
	}
	if m := d.MetricsSnapshot(); m.CompileExecutions.Load() != 0 {
		t.Fatal("dead-context compile still executed the pipeline")
	}
	// The abandoned request poisoned nothing: a live one compiles fresh.
	if res := compileOnce(t, d, okSrc); !res.OK || res.Cached {
		t.Fatalf("post-cancel compile: OK=%v Cached=%v", res.OK, res.Cached)
	}
}

func TestRouteKeyStableAndFlagInsensitive(t *testing.T) {
	exts, err := driver.CanonicalExtensions("all")
	if err != nil {
		t.Fatal(err)
	}
	k1 := driver.RouteKey("a.xc", okSrc, exts)
	k2 := driver.RouteKey("a.xc", okSrc, exts)
	if k1 != k2 || k1 == "" {
		t.Fatal("route key not deterministic")
	}
	if driver.RouteKey("b.xc", okSrc, exts) == k1 {
		t.Fatal("route key ignores the program name")
	}
	if driver.RouteKey("a.xc", okSrc+" ", exts) == k1 {
		t.Fatal("route key ignores the source")
	}
	if !driver.ValidArtifactKey(artifactKeyFor(okSrc)) {
		t.Fatal("compile cache key is not a valid artifact key")
	}
}
