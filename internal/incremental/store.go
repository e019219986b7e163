// The persistent build-state store: a build directory holding a wire
// manifest plus the content-named artifacts it lists.
//
// Layout:
//
//	<build-dir>/manifest.wire   fingerprint and per-module state (below);
//	                            a wire artifact of kind build-manifest
//	                            (manifest.go)
//	<build-dir>/p1-<module>-<hash>.wire
//	                            phase-1 record (summary + IR module, the
//	                            cache package's entry encoding)
//	<build-dir>/obj-<module>-<hash>.wire
//	                            compiled object (parv object encoding)
//
// Nothing of the program analyzer is stored: it re-runs whole over the
// summaries on every build.
//
// An artifact's name carries a hash of its module and its bytes
// (artifactFile), and every read checks the bytes against it (read): a
// file that is not exactly what was written under its name reads as the
// caller's declared fallback, never as an artifact. A build never
// overwrites an artifact the live manifest names with other bytes. Every
// artifact is written before the manifest that names it replaces the
// previous one, and files no manifest names are pruned after the swap, so
// a build cut off at any point leaves the previous build's state whole.
//
// A warm build reads only what it uses: a reused phase-1 record yields
// its summary (cache.DecodeSummary), which is all the analyzer and the
// key diff read, and its IR is decoded (Module) only when the module's
// phase 2 re-runs.
//
// The manifest records, per module: the phase-1 source hash, the names of
// the two artifact files, and the eligibility key of the globals it
// declares; and once for the whole program, the phase-2 key pair
// (pdb.ProcKeys) of every procedure a module consulted. Everything is
// guarded by a fingerprint combining the store format version with the
// caller's toolchain fingerprint; state written by a different format or
// toolchain is rejected wholesale — stale artifacts must never survive a
// compiler upgrade, because nothing else could tell them apart from fresh
// ones.
package incremental

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ipra/internal/cache"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/summary"
	"ipra/internal/wire"
)

// FormatVersion versions the build directory layout and manifest schema.
// Bump it whenever either changes shape or meaning — including the
// encoding of any artifact the directory stores — so older directories
// are rebuilt from scratch instead of misread. v2: artifacts moved from
// gob to the wire format (and .gob suffixes to .wire); within v2,
// artifact names gained a content hash, the keys became pdb's phase-2
// keys, and the analyzer state became an artifact the manifest names. v3:
// the phase-1 record puts its summary first (cache-entry v2), and the
// manifest is manifest.wire instead of manifest.json. A store that finds a
// manifest.json resets: it rebuilds everything once and prunes the old
// manifest and records. v4: the directory holds no analyzer state, and
// the manifest names none (build-manifest v2); a v3 directory resets once
// and has its analyzer-state file pruned. v5: the manifest holds one
// phase-2 key pair per procedure for the whole program instead of one key
// per consulted procedure per module (build-manifest v3); a v4 directory
// resets once.
const FormatVersion = "ipra-build/v5"

// legacyManifest is the v2 manifest, pruned by every later save.
const legacyManifest = "manifest.json"

// Store is one build's view of a build directory: the state the previous
// build persisted, plus the decisions and records of the build in
// progress, one per module in source order. Open one per build.
//
// A nil *Store is a build without a directory: it holds nothing, so
// ReusePhase1 and ReuseObject never reuse, and SetPhase1 and Diff record
// nothing. The other methods need a directory.
type Store struct {
	dir         string
	fingerprint string // FormatVersion + toolchain: the manifest guard
	prev        manifest
	// resetReason names why the build starts from nothing: a first build
	// in an empty directory, or (with out.StateReset) rejected state. A
	// first build gives it to every module; a reset prints it once.
	resetReason string

	out  Outcome
	next []moduleState // the records Persist writes
	// records holds each module's phase-1 record: the stored one
	// ReusePhase1 verified, or the fresh one SetPhase1 named.
	records [][]byte
	// sums are the summaries Diff keyed the modules by, procs the key pair
	// of every procedure they consult, and stale marks, for each module
	// whose keys alone moved, its procedures that phase 2 recompiles (nil
	// for every other module).
	sums  []*summary.ModuleSummary
	procs map[string]pdb.ProcKeys
	stale [][]bool
}

// Open loads the build directory's manifest (creating the directory if
// missing) for a build of the named modules, rejecting state written
// under a different format or toolchain fingerprint.
func Open(dir, toolchainFingerprint string, modules []string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("incremental: empty build directory path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	s := &Store{
		dir:         dir,
		fingerprint: FormatVersion + "|" + toolchainFingerprint,
		next:        make([]moduleState, len(modules)),
		records:     make([][]byte, len(modules)),
		stale:       make([][]bool, len(modules)),
		out:         Outcome{Actions: make([]Action, len(modules))},
	}
	for i, name := range modules {
		s.out.Actions[i].Module = name
	}
	s.prev.Modules = make(map[string]*moduleState)

	// Only an older store writes legacyManifest, and every save here
	// prunes it: when it is present, an older store wrote the directory
	// last, and whatever manifest.wire says predates that build.
	if _, err := os.Stat(filepath.Join(dir, legacyManifest)); err == nil {
		s.out.StateReset, s.resetReason = true, legacyManifest+" from an older store format"
		return s, nil
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case os.IsNotExist(err):
		s.resetReason = "no previous build state"
		return s, nil
	case err != nil:
		return nil, fmt.Errorf("incremental: %w", err)
	}
	m, err := decodeManifest(data)
	switch {
	case errors.Is(err, wire.ErrOldVersion):
		s.out.StateReset, s.resetReason = true, manifestName+" from an older store format"
		return s, nil
	case err != nil:
		s.out.StateReset, s.resetReason = true, "unreadable manifest: "+err.Error()
		return s, nil
	}
	if m.Fingerprint != s.fingerprint {
		s.out.StateReset = true
		s.resetReason = fmt.Sprintf("fingerprint mismatch (stored %q, want %q)", m.Fingerprint, s.fingerprint)
		return s, nil
	}
	s.prev = m
	return s, nil
}

// artifactFile names an artifact by its content. The sanitized module
// name keeps the directory browsable; the hash of module name and bytes
// keeps distinct modules apart after sanitization and makes equal names
// mean equal bytes. A whole-program artifact has no module ("").
func artifactFile(prefix, module string, data []byte) string {
	h := sha256.New()
	io.WriteString(h, module)
	h.Write([]byte{0})
	h.Write(data)
	if module != "" {
		prefix += "-" + strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
				return r
			default:
				return '_'
			}
		}, module)
	}
	return prefix + "-" + hex.EncodeToString(h.Sum(nil)[:16]) + ".wire"
}

// path resolves a manifest-recorded base name inside the build directory,
// rejecting anything that could escape it (a tampered manifest must not
// become a file read elsewhere on disk).
func (s *Store) path(base string) (string, error) {
	if base == "" || base != filepath.Base(base) {
		return "", fmt.Errorf("incremental: invalid artifact name %q in manifest", base)
	}
	return filepath.Join(s.dir, base), nil
}

// read returns the bytes of the artifact the manifest names base, checked
// against the content hash in the name: bytes other than the ones written
// under that name (a flipped bit, a truncated or swapped file) are an
// error, which every caller turns into its declared fallback. Every read
// of an artifact goes through here.
func (s *Store) read(base, prefix, module string) ([]byte, error) {
	p, err := s.path(base)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	if artifactFile(prefix, module, data) != base {
		return nil, fmt.Errorf("incremental: %s does not hold the bytes its name vouches for", base)
	}
	return data, nil
}

// Module decodes the IR of module i's reused phase-1 record, the bytes
// ReusePhase1 verified. The build calls it only for a module whose phase 2
// re-runs; every other reused module is used through its summary alone.
func (s *Store) Module(i int) (*ir.Module, error) {
	m, _, err := cache.DecodeEntry(s.records[i])
	return m, err
}

// writeArtifact writes an artifact under the base name artifactFile gave
// it.
func (s *Store) writeArtifact(base string, data []byte) error {
	if err := os.WriteFile(filepath.Join(s.dir, base), data, 0o644); err != nil {
		return fmt.Errorf("incremental: %w", err)
	}
	return nil
}

// Persist writes the build's new state: fresh artifacts for the modules
// whose phase-1 record or object changed (the records SetPhase1 named),
// carried-over records for the rest, then the manifest (atomically;
// unreferenced artifacts are pruned). Until the
// manifest is replaced the previous state stays in force, and the
// artifacts it names keep their bytes, so a build that fails or is
// interrupted never poisons later ones.
func (s *Store) Persist(objs []*parv.Object) error {
	next := manifest{Modules: make(map[string]*moduleState, len(s.next)), Procs: s.procs}
	for i := range s.next {
		ms, a := &s.next[i], s.out.Actions[i]
		if ms.Phase1File == "" {
			return fmt.Errorf("incremental: %s: phase 1 re-ran without SetPhase1", a.Module)
		}
		if a.Phase1Rebuilt && !a.Phase1Unchanged {
			if err := s.writeArtifact(ms.Phase1File, s.records[i]); err != nil {
				return err
			}
		}
		if a.Phase2Rebuilt {
			data := parv.EncodeObject(objs[i])
			ms.ObjectFile = artifactFile("obj", a.Module, data)
			if err := s.writeArtifact(ms.ObjectFile, data); err != nil {
				return err
			}
		} else {
			ms.ObjectFile = s.prev.Modules[a.Module].ObjectFile
		}
		next.Modules[a.Module] = ms
	}
	return s.save(next)
}

// save atomically replaces the manifest and prunes artifact files no
// longer referenced by it (modules removed from the program, artifacts
// renamed by a format change, and the manifest.json and analyzer state
// files of older builds).
func (s *Store) save(m manifest) error {
	m.Fingerprint = s.fingerprint
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, encodeManifest(&m), 0o644); err != nil {
		return fmt.Errorf("incremental: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("incremental: %w", err)
	}

	referenced := make(map[string]bool, 2*len(m.Modules))
	for _, ms := range m.Modules {
		referenced[ms.Phase1File] = true
		referenced[ms.ObjectFile] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil // pruning is best-effort
	}
	for _, e := range entries {
		// "analyzer" covers the analyzer-state-*.wire and analyzer.state
		// files older stores kept; other files (a profile snapshot) are
		// not ours.
		name := e.Name()
		ours := strings.HasPrefix(name, "p1-") || strings.HasPrefix(name, "obj-") ||
			strings.HasPrefix(name, "analyzer") || name == legacyManifest
		if ours && !referenced[name] {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	return nil
}
