package cliutil

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ipra"
	"ipra/internal/profagg"
)

// TestRegisterInstallsWhatTheToolReads: every tool gets the pprof flags,
// and a shared flag only when the tool asks for it, so a tool that never
// reads a flag refuses it at parsing.
func TestRegisterInstallsWhatTheToolReads(t *testing.T) {
	shared := map[Flags][]string{
		FlagVerbose:   {"v"},
		FlagVerify:    {"verify"},
		FlagTelemetry: {"trace", "report"},
		FlagJobs:      {"j"},
	}
	for _, want := range []Flags{0, FlagTelemetry | FlagJobs, FlagVerbose | FlagTelemetry | FlagJobs, FlagVerbose | FlagVerify | FlagTelemetry} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		New("test").Register(fs, want)
		for _, name := range []string{"cpuprofile", "memprofile"} {
			if fs.Lookup(name) == nil {
				t.Errorf("Register(%b) left out -%s", want, name)
			}
		}
		for bit, names := range shared {
			for _, name := range names {
				if got := fs.Lookup(name) != nil; got != (want&bit != 0) {
					t.Errorf("Register(%b): -%s installed = %t", want, name, got)
				}
			}
		}
	}
}

// TestBuildFlagsResolvePresets: the shared -config flag resolves every
// registry preset (case-insensitively) to the same configuration the
// library registry builds — the one table every build-driving tool
// shares.
func TestBuildFlagsResolvePresets(t *testing.T) {
	for _, name := range ipra.PresetNames() {
		for _, spelling := range []string{name, strings.ToLower(name)} {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			b := &BuildFlags{}
			b.RegisterBuild(fs)
			if err := fs.Parse([]string{"-config", spelling, "-exe", "out.exe"}); err != nil {
				t.Fatal(err)
			}
			cfg, err := b.Config()
			if err != nil {
				t.Fatalf("config %q: %v", spelling, err)
			}
			want, err := ipra.PresetByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Name != want.Name || cfg.UseAnalyzer != want.UseAnalyzer || cfg.WantProfile != want.WantProfile {
				t.Errorf("config %q resolved to %+v, want %+v", spelling, cfg, want)
			}
			if b.ExePath != "out.exe" {
				t.Errorf("-exe not captured: %q", b.ExePath)
			}
		}
	}
}

// TestBuildFlagsRejectUnknownConfig: a bad -config fails with the preset
// list in the message, and a bad -strategy with the strategy list, at
// Config() time, not at build time.
func TestBuildFlagsRejectUnknownConfig(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	b := &BuildFlags{}
	b.RegisterBuild(fs)
	if err := fs.Parse([]string{"-config", "Z"}); err != nil {
		t.Fatal(err)
	}
	_, err := b.Config()
	if err == nil {
		t.Fatal("unknown configuration accepted")
	}
	for _, name := range ipra.PresetNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list preset %s", err, name)
		}
	}

	// A removed strategy fails the same way, listing the strategies left.
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	b = &BuildFlags{}
	b.RegisterBuild(fs)
	if err := fs.Parse([]string{"-strategy", "spill-everywhere"}); err != nil {
		t.Fatal(err)
	}
	if _, err = b.Config(); err == nil {
		t.Fatal("-strategy spill-everywhere accepted")
	}
	if want := strings.Join(ipra.StrategyNames(), ", "); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list the strategies %s", err, want)
	}
}

// TestBuildFlagsConfigDefault: -config defaults to C, or to the
// configuration a tool set before registering (ipra-loadgen's B).
func TestBuildFlagsConfigDefault(t *testing.T) {
	for _, c := range []struct{ preset, want string }{{"", "C"}, {"B", "B"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		b := &BuildFlags{ConfigName: c.preset}
		b.RegisterBuild(fs)
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		if cfg, err := b.Config(); err != nil || cfg.Name != c.want {
			t.Errorf("preset %q: resolved %q (%v), want %s", c.preset, cfg.Name, err, c.want)
		}
	}
}

// TestReadSnapshot: a one-run snapshot written the way mvm -profile
// writes it reads back, the way ipra-analyze -profile and mcc
// -profile-snapshot read it, as the run's own profile; one stamped by
// another toolchain is refused.
func TestReadSnapshot(t *testing.T) {
	src := ipra.Source{Name: "m.mc", Text: []byte(`
int leaf(int x) { return x + 1; }
int mid(int x) { return leaf(x) + leaf(x + 1); }
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 5; i++) { s += mid(i); }
	return leaf(s) & 255;
}
`)}
	res, err := ipra.Build(context.Background(), []ipra.Source{src}, ipra.MustPreset("L2"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := res.Run(0, true)
	if err != nil {
		t.Fatal(err)
	}
	want := run.Profile
	if len(want.Edges) < 3 {
		t.Fatalf("run profiled %d edges, want at least 3", len(want.Edges))
	}
	write := func(fingerprint string) string {
		agg := profagg.NewAggregate(fingerprint, "", "")
		agg.AddRuns(want, 1)
		path := filepath.Join(t.TempDir(), "prof.snap")
		if err := os.WriteFile(path, agg.Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	got, err := ReadSnapshot(write(ipra.ToolchainFingerprint()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("profile read back differs:\n got %+v\nwant %+v", got, want)
	}
	if _, err := ReadSnapshot(write("another-toolchain")); err == nil || !strings.Contains(err.Error(), "another-toolchain") {
		t.Errorf("snapshot of another toolchain: err = %v, want one naming it", err)
	}
}
