// HTTP surface of the peer cache-fill protocol: GET serves the
// digest-framed artifact, PUT imports one (verifying the digest), and
// the shard identity header rides on every response.
package server_test

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/server"
)

func TestArtifactRoundTripBetweenShards(t *testing.T) {
	a, _ := newTestServer(t, server.Config{ShardID: "s0"})
	b, bd := newTestServer(t, server.Config{ShardID: "s1"})

	body := []byte(`{"source": ` + jsonString(okSrc) + `}`)
	_, key := server.KeysForBody(body, true)
	if key == "" {
		t.Fatal("no compile key for a valid body")
	}

	code, res := postJSON(t, a.URL+"/v1/compile", map[string]any{"source": okSrc})
	if code != http.StatusOK {
		t.Fatalf("compile on A: %d %v", code, res)
	}
	if res["key"] != key {
		t.Fatalf("KeysForBody=%s, server key=%v — peer fill would miss", key, res["key"])
	}

	resp, err := http.Get(a.URL + "/v1/artifact/" + key)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact on A: %d %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("artifact content type: %q", resp.Header.Get("Content-Type"))
	}
	if resp.Header.Get("X-CM-Shard") != "s0" {
		t.Fatalf("shard header: %q", resp.Header.Get("X-CM-Shard"))
	}

	req, _ := http.NewRequest(http.MethodPut, b.URL+"/v1/artifact/"+key, bytes.NewReader(raw))
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, putResp.Body)
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT artifact on B: %d", putResp.StatusCode)
	}

	// B now serves the compile from its imported artifact: cached, no
	// pipeline execution.
	code, res = postJSON(t, b.URL+"/v1/compile", map[string]any{"source": okSrc})
	if code != http.StatusOK || res["cached"] != true {
		t.Fatalf("compile on B after fill: %d cached=%v", code, res["cached"])
	}
	if n := bd.Metrics().CompileExecutions.Load(); n != 0 {
		t.Fatalf("B executed %d compiles despite the peer fill", n)
	}
}

func TestArtifactRejectsBadKeysAndBodies(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{})

	resp, err := http.Get(ts.URL + "/v1/artifact/not-hex")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key: %d, want 400", resp.StatusCode)
	}

	missing := strings.Repeat("ab", 32)
	resp, err = http.Get(ts.URL + "/v1/artifact/" + missing)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: %d, want 404", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/artifact/"+missing,
		strings.NewReader("deadbeef\nnot an artifact"))
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, putResp.Body)
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage PUT: %d, want 400", putResp.StatusCode)
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/artifact/"+missing, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, delResp.Body)
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusMethodNotAllowed || delResp.Header.Get("Allow") == "" {
		t.Fatalf("DELETE: %d Allow=%q, want 405 with Allow", delResp.StatusCode, delResp.Header.Get("Allow"))
	}
}

// jsonString marshals a Go string as a JSON string literal.
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteRune(r)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
