// Fleet-facing artifact transfer. A cmserved shard exposes its
// content-addressed compile artifacts to peers (and to the cmgate
// router) over GET/PUT /v1/artifact/{key}; this file is the driver
// half of that wire: exporting an artifact in the digest-framed disk
// object format, and importing a peer's object after re-verifying the
// digest locally — a shard never trusts bytes it did not hash itself.
//
// Peer cache-fill is what makes shard loss cheap: when the hash ring
// reroutes a key to a new shard, the router first copies the artifact
// from any shard that still has it, so the new owner starts warm
// instead of recompiling. Import is strictly additive: an existing
// local entry (complete or in flight) always wins over a peer's copy.
package driver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
)

// ErrNoArtifact reports an export miss: the key is not in the memory
// tier and (when enabled) not on disk either.
var ErrNoArtifact = errors.New("driver: no artifact under key")

// keyPattern is the shape of every driver cache key: 64 hex bytes of
// SHA-256. Import rejects anything else before touching the caches, so
// a hostile key cannot become a path component.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidArtifactKey reports whether key has the exact shape of a driver
// content address.
func ValidArtifactKey(key string) bool { return keyPattern.MatchString(key) }

// RouteKey is the stable content address the fleet router hashes onto
// the shard ring: identical (name, source, extension-set) triples land
// on the same shard, making the driver's singleflight fleet-wide. It
// deliberately ignores codegen flags — all artifacts of one program
// share a shard, maximizing peer-fill and cache locality. exts must be
// the canonical FormatExtensions form so spelled-out and "all" requests
// agree.
func RouteKey(name, src, exts string) string {
	return hashKey("route", name, src, exts)
}

// CanonicalExtensions normalizes an extension spec ("all", "none",
// "cilk,matrix", ...) to the canonical comma-joined form used in cache
// keys, or an error for an unknown extension name.
func CanonicalExtensions(spec string) (string, error) {
	opts, err := ParseExtensions(spec)
	if err != nil {
		return "", err
	}
	return FormatExtensions(opts), nil
}

// CompileCacheKey returns the content address Compile stores req
// under, applying the same defaulting Compile itself applies. The
// router uses it to name artifacts for peer cache-fill without
// executing anything.
func CompileCacheKey(req CompileRequest) string {
	if req.Emit == "" {
		req.Emit = "c"
	}
	return compileKey(&req)
}

// ExportArtifact returns the digest-framed object bytes stored under
// key — memory tier first, then the disk tier — exactly as
// /v1/artifact serves them. The bool reports whether the artifact
// exists; only successful compiles are ever exportable (failures are
// never cached as artifacts).
func (d *Driver) ExportArtifact(ctx context.Context, key string) ([]byte, bool) {
	if !ValidArtifactKey(key) {
		return nil, false
	}
	if er, ok := d.emits.peek(key); ok {
		if !er.ok {
			return nil, false
		}
		payload, err := json.Marshal(&diskArtifact{Output: er.output, Diags: er.diags})
		if err != nil {
			return nil, false
		}
		d.metrics.ArtifactExports.Add(1)
		return encodeObject(payload), true
	}
	if d.disk != nil {
		if raw, ok := d.disk.getRaw(ctx, key); ok {
			d.metrics.ArtifactExports.Add(1)
			return raw, true
		}
	}
	return nil, false
}

// ImportArtifact verifies a digest-framed object received from a peer
// and installs it under key in the memory tier (and the disk tier when
// enabled). A key already present — complete or compiling right now —
// is left alone; import never overwrites local work. The error reports
// a malformed key or an object whose digest or encoding does not
// verify; a valid duplicate import is a nil-error no-op.
func (d *Driver) ImportArtifact(key string, raw []byte) error {
	if !ValidArtifactKey(key) {
		return fmt.Errorf("driver: import: malformed artifact key %q", key)
	}
	payload, ok := verifyObject(raw)
	if !ok {
		return errors.New("driver: import: artifact digest mismatch")
	}
	var art diskArtifact
	if err := json.Unmarshal(payload, &art); err != nil {
		return fmt.Errorf("driver: import: artifact payload: %w", err)
	}
	res := &emitResult{output: art.Output, diags: art.Diags, ok: true}
	if d.emits.install(key, res, int64(len(res.output))+diagBytes(res.diags)) {
		d.metrics.ArtifactImports.Add(1)
		if d.disk != nil {
			d.disk.putRaw(key, raw)
		}
	}
	return nil
}
