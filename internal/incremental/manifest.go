package incremental

import (
	"sort"

	"ipra/internal/wire"
)

// The manifest is the build directory's root: a wire artifact like every
// file it names, under its own kind. Its body is
//
//	fingerprint                                string
//	module count                               uvarint
//	per module, in name order:
//	  name, source hash, phase-1 file,
//	  object file, eligibility key             strings
//	  directive count                          uvarint
//	  per key, in procedure name order:
//	    procedure, key                         strings
//
// Every string is a string-table reference, so a key many modules share
// (a common callee's clobber key) is stored once. v2 dropped the analyzer
// state's name after the fingerprint.
const (
	manifestName    = "manifest.wire"
	manifestKind    = "build-manifest"
	manifestVersion = 2
)

// moduleState is the manifest record for one module.
type moduleState struct {
	// SourceHash is the phase-1 content hash (module name + source text +
	// toolchain fingerprint).
	SourceHash string
	// Phase1File / ObjectFile are base names inside the build directory.
	Phase1File string
	ObjectFile string
	// EligibleHash is the eligibility key of the globals the module
	// declares; Directives holds one phase-2 key per consulted procedure
	// (the module's own functions and its direct callees).
	EligibleHash string
	Directives   map[string]string
}

// manifest is the whole persisted build state.
type manifest struct {
	Fingerprint string
	Modules     map[string]*moduleState
}

// encodeManifest serializes m; equal manifests encode to equal bytes.
func encodeManifest(m *manifest) []byte {
	e := wire.NewEncoder(manifestKind, manifestVersion)
	e.Str(m.Fingerprint)
	names := sortedNames(m.Modules)
	e.U(uint64(len(names)))
	for _, name := range names {
		ms := m.Modules[name]
		e.Str(name)
		e.Str(ms.SourceHash)
		e.Str(ms.Phase1File)
		e.Str(ms.ObjectFile)
		e.Str(ms.EligibleHash)
		procs := sortedNames(ms.Directives)
		e.U(uint64(len(procs)))
		for _, proc := range procs {
			e.Str(proc)
			e.Str(ms.Directives[proc])
		}
	}
	return e.Finish()
}

// decodeManifest is the inverse of encodeManifest. Any input decodes to a
// manifest or an error.
func decodeManifest(data []byte) (manifest, error) {
	d, err := wire.NewDecoder(data, manifestKind, manifestVersion)
	if err != nil {
		return manifest{}, err
	}
	m := manifest{Fingerprint: d.Str()}
	n := d.Count(6) // five strings and a count
	m.Modules = make(map[string]*moduleState, n)
	for ; n > 0; n-- {
		name := d.Str()
		ms := &moduleState{SourceHash: d.Str()}
		ms.Phase1File = d.Str()
		ms.ObjectFile = d.Str()
		ms.EligibleHash = d.Str()
		k := d.Count(2)
		ms.Directives = make(map[string]string, k)
		for ; k > 0; k-- {
			proc := d.Str()
			ms.Directives[proc] = d.Str()
		}
		m.Modules[name] = ms
	}
	if err := d.Finish(); err != nil {
		return manifest{}, err
	}
	return m, nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
