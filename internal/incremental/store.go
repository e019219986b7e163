// The persistent build-state store: a build directory holding a JSON
// manifest plus the content-named artifacts it lists.
//
// Layout:
//
//	<build-dir>/manifest.json   fingerprint, analyzer state name, and
//	                            per-module state (below)
//	<build-dir>/p1-<module>-<hash>.wire
//	                            phase-1 record (IR module + summary, the
//	                            cache package's entry encoding)
//	<build-dir>/obj-<module>-<hash>.wire
//	                            compiled object (parv object encoding)
//	<build-dir>/analyzer-state-<hash>.wire
//	                            the incremental analyzer's state (an
//	                            analyzer-state wire artifact, opaque here)
//
// An artifact's name carries a hash of its module and its bytes
// (artifactFile), so a name the manifest holds vouches for the file's
// content, and a build never overwrites an artifact the live manifest
// names with other bytes. Every artifact is written before the manifest
// that names it replaces the previous one, and files no manifest names
// are pruned after the swap, so a build cut off at any point leaves the
// previous build's state whole.
//
// The manifest records, per module: the phase-1 source hash, the names of
// the two artifact files, and the module's phase-2 keys (pdb.Keys): one
// per consulted procedure plus the eligibility key of the globals it
// declares. The analyzer state it names was computed from exactly the
// phase-1 records it names; a build that runs no analyzer names none.
// Everything is guarded by a fingerprint combining the store format
// version with the caller's toolchain fingerprint; state written by a
// different format or toolchain is rejected wholesale — stale artifacts
// must never survive a compiler upgrade, because nothing else could tell
// them apart from fresh ones.
package incremental

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ipra/internal/cache"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/summary"
)

// FormatVersion versions the build directory layout and manifest schema.
// Bump it whenever either changes shape or meaning — including the
// encoding of any artifact the directory stores — so older directories
// are rebuilt from scratch instead of misread. v2: artifacts moved from
// gob to the wire format (and .gob suffixes to .wire). Two changes within
// v2 need no bump. Artifact names gained a content hash; names are read
// from the manifest, so older names still resolve. The key fields changed
// meaning: bare whole-directive and program-wide eligibility hashes became
// pdb's versioned phase-2 keys. A versioned key never equals a bare hash,
// so such a directory keeps its phase-1 records and recompiles phase 2
// once. The analyzer state moved from a headered analyzer.state file to
// an artifact the manifest names; a manifest without that name offers no
// state, which costs one full analysis.
const FormatVersion = "ipra-build/v2"

const manifestName = "manifest.json"

// moduleState is the manifest record for one module.
type moduleState struct {
	// SourceHash is the phase-1 content hash (module name + source text +
	// toolchain fingerprint).
	SourceHash string `json:"sourceHash"`
	// Phase1File / ObjectFile are base names inside the build directory.
	Phase1File string `json:"phase1File"`
	ObjectFile string `json:"objectFile"`
	// EligibleHash is the eligibility key of the globals the module
	// declares; Directives holds one phase-2 key per consulted procedure
	// (the module's own functions and its direct callees).
	EligibleHash string            `json:"eligibleHash"`
	Directives   map[string]string `json:"directives"`
}

// manifest is the whole persisted build state.
type manifest struct {
	Fingerprint string `json:"fingerprint"`
	// Analyzer is the base name of the analyzer state computed from the
	// modules' phase-1 records; "" when the build ran no analyzer.
	Analyzer string                  `json:"analyzer,omitempty"`
	Modules  map[string]*moduleState `json:"modules"`
}

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
	// in an empty directory, or (with out.StateReset) rejected state.
	resetReason string

	out              Outcome
	next             []moduleState // the records Persist writes
	phase1           [][]byte      // encoded phase-1 records Persist writes
	prevState, state []byte        // analyzer state offered / to persist
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
		phase1:      make([][]byte, len(modules)),
		out:         Outcome{Actions: make([]Action, len(modules))},
	}
	for i, name := range modules {
		s.out.Actions[i].Module = name
	}
	s.prev.Modules = make(map[string]*moduleState)

	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case os.IsNotExist(err):
		s.resetReason = "no previous build state"
		return s, nil
	case err != nil:
		return nil, fmt.Errorf("incremental: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		s.out.StateReset, s.resetReason = true, "unreadable manifest: "+err.Error()
		return s, nil
	}
	if m.Fingerprint != s.fingerprint {
		s.out.StateReset = true
		s.resetReason = fmt.Sprintf("fingerprint mismatch (stored %q, want %q)", m.Fingerprint, s.fingerprint)
		return s, nil
	}
	if m.Modules != nil {
		s.prev = m
	}
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

// loadPhase1 reads a stored phase-1 record.
func (s *Store) loadPhase1(ms *moduleState) (*ir.Module, *summary.ModuleSummary, error) {
	p, err := s.path(ms.Phase1File)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, nil, err
	}
	return cache.DecodeEntry(data)
}

// loadObject reads a stored object file.
func (s *Store) loadObject(ms *moduleState) (*parv.Object, error) {
	p, err := s.path(ms.ObjectFile)
	if err != nil {
		return nil, err
	}
	return parv.ReadObjectFile(p)
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
// carried-over records for the rest, the analyzer state, then the
// manifest (atomically; unreferenced artifacts are pruned). Until the
// manifest is replaced the previous state stays in force, and the
// artifacts it names keep their bytes, so a build that fails or is
// interrupted never poisons later ones.
func (s *Store) Persist(objs []*parv.Object) error {
	next := manifest{Modules: make(map[string]*moduleState, len(s.next))}
	if s.state != nil {
		// Rewrite unless the file already holds these bytes: a name
		// vouches for its content only while nobody tampered with it.
		next.Analyzer = artifactFile("analyzer-state", "", s.state)
		if next.Analyzer != s.prev.Analyzer || !bytes.Equal(s.prevState, s.state) {
			if err := s.writeArtifact(next.Analyzer, s.state); err != nil {
				return err
			}
		}
	}
	for i := range s.next {
		ms, a := &s.next[i], s.out.Actions[i]
		prev := s.prev.Modules[a.Module]
		switch {
		case !a.Phase1Rebuilt:
			ms.Phase1File = prev.Phase1File
		case ms.Phase1File == "":
			return fmt.Errorf("incremental: %s: phase 1 re-ran without SetPhase1", a.Module)
		case s.phase1[i] != nil:
			if err := s.writeArtifact(ms.Phase1File, s.phase1[i]); err != nil {
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
			ms.ObjectFile = prev.ObjectFile
		}
		next.Modules[a.Module] = ms
	}
	return s.save(next)
}

// save atomically replaces the manifest and prunes artifact files no
// longer referenced by it (modules removed from the program, artifacts
// renamed by a format change, superseded analyzer states, and the
// analyzer.state file of older builds).
func (s *Store) save(m manifest) error {
	m.Fingerprint = s.fingerprint
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return fmt.Errorf("incremental: marshal manifest: %w", err)
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("incremental: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("incremental: %w", err)
	}

	referenced := map[string]bool{m.Analyzer: true}
	for _, ms := range m.Modules {
		referenced[ms.Phase1File] = true
		referenced[ms.ObjectFile] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil // pruning is best-effort
	}
	for _, e := range entries {
		// "analyzer" covers both analyzer-state-*.wire and the older
		// analyzer.state; other files (a profile snapshot) are not ours.
		name := e.Name()
		if referenced[name] || !(strings.HasPrefix(name, "p1-") || strings.HasPrefix(name, "obj-") || strings.HasPrefix(name, "analyzer")) {
			continue
		}
		os.Remove(filepath.Join(s.dir, name))
	}
	return nil
}
