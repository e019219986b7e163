package served

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipra"
	"ipra/internal/incremental"
)

// TestServedFingerprintSafety: a daemon serving a state directory whose
// build state was stamped by a different toolchain fingerprint must
// re-validate and rebuild everything — never serve the stale artifacts —
// and still answer with bytes identical to a local build.
func TestServedFingerprintSafety(t *testing.T) {
	stateDir := t.TempDir()
	srcs := testSources(t)
	req := func() *BuildRequest { return &BuildRequest{Config: "C", Sources: srcs} }
	want := localExe(t, "C", srcs)

	// Daemon one: cold state directory, full build.
	first, err := New(Options{StateDir: stateDir, Jobs: 2}).Build(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if first.Incremental == nil || first.Incremental.StateReset {
		t.Fatalf("first build: unexpected incremental record %+v", first.Incremental)
	}
	if first.Incremental.Phase1Rebuilds != len(srcs) {
		t.Fatalf("first build rebuilt %d modules, want %d", first.Incremental.Phase1Rebuilds, len(srcs))
	}
	if !bytes.Equal(first.Exe, want) {
		t.Fatal("first daemon build differs from local build")
	}

	// Daemon two, same toolchain: everything reuses.
	second, err := New(Options{StateDir: stateDir, Jobs: 2}).Build(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if second.Incremental == nil || second.Incremental.StateReset {
		t.Fatal("same-toolchain restart reset the build state")
	}
	if second.Incremental.Phase1Rebuilds != 0 || second.Incremental.Phase2Rebuilds != 0 {
		t.Fatalf("same-toolchain restart rebuilt %d/%d modules, want full reuse",
			second.Incremental.Phase1Rebuilds, second.Incremental.Phase2Rebuilds)
	}
	if !bytes.Equal(second.Exe, want) {
		t.Fatal("warm daemon build differs from local build")
	}

	// Simulate a daemon upgraded across a format change: the on-disk
	// manifest now claims a different fingerprint than the binary. The
	// replacement has the same length, so the manifest still decodes.
	buildDir := filepath.Join(stateDir, req().ProgramKey())
	manifestPath := filepath.Join(buildDir, "manifest.wire")
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("expected a manifest under %s: %v", buildDir, err)
	}
	older := strings.Repeat("x", len(incremental.FormatVersion))
	tampered := bytes.Replace(raw, []byte(incremental.FormatVersion), []byte(older), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatalf("manifest does not hold %q", incremental.FormatVersion)
	}
	if err := os.WriteFile(manifestPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	// Daemon three must reject the stale state wholesale and rebuild.
	third, err := New(Options{StateDir: stateDir, Jobs: 2}).Build(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if third.Incremental == nil || !third.Incremental.StateReset {
		t.Fatalf("stale-fingerprint state was not reset: %+v", third.Incremental)
	}
	if third.Incremental.Phase1Rebuilds != len(srcs) {
		t.Fatalf("stale-fingerprint rebuild recompiled %d modules, want all %d",
			third.Incremental.Phase1Rebuilds, len(srcs))
	}
	if !bytes.Equal(third.Exe, want) {
		t.Fatal("post-reset build differs from local build")
	}
}

// TestServedResultCacheKeyedByFingerprint: the same request under two
// toolchain fingerprints has two request keys, so a result computed under
// other compiler semantics can never be returned from cache; a server
// keys its requests under the toolchain's own fingerprint.
func TestServedResultCacheKeyedByFingerprint(t *testing.T) {
	srcs := testSources(t)
	req := &BuildRequest{Config: "L2", Sources: srcs}

	if req.Key("toolchain/v1") == req.Key("toolchain/v2") {
		t.Fatal("result-cache keys collide across toolchain fingerprints")
	}
	if fp := New(Options{}).Fingerprint(); fp != ipra.ToolchainFingerprint() {
		t.Fatalf("server fingerprint %q, want the toolchain's %q", fp, ipra.ToolchainFingerprint())
	}
}
