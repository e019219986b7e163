package incremental

import (
	"sort"

	"ipra/internal/pdb"
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
//	procedure count                            uvarint
//	per procedure, in name order:
//	  name, own key, call key                  strings
//
// The procedure table holds the phase-2 key pair (pdb.ProcKeys) of every
// procedure some module consulted, once for the whole program; a module's
// keys are its eligibility key and the pairs of the procedures its summary
// names. Keys are their raw bytes, 16 for an eligibility or own key and 5
// for a call key, and a key of another length is an error. Every string
// is a string-table reference, so a key many procedures share (the call
// key of every procedure without a clobber contract) is stored once. v3
// replaced v2's per-module maps of hex keys, one per consulted procedure,
// with the table; v2 dropped the analyzer state's name after the
// fingerprint.
const (
	manifestName    = "manifest.wire"
	manifestKind    = "build-manifest"
	manifestVersion = 3
)

// moduleState is the manifest record for one module.
type moduleState struct {
	// SourceHash is the phase-1 content hash (module name + source text +
	// toolchain fingerprint).
	SourceHash string
	// Phase1File / ObjectFile are base names inside the build directory.
	Phase1File string
	ObjectFile string
	// Eligibility is the eligibility key of the globals the module
	// declares.
	Eligibility pdb.Key
}

// manifest is the whole persisted build state.
type manifest struct {
	Fingerprint string
	Modules     map[string]*moduleState
	// Procs holds the key pair of every procedure a module consulted.
	Procs map[string]pdb.ProcKeys
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
		e.Str(string(ms.Eligibility[:]))
	}
	procs := sortedNames(m.Procs)
	e.U(uint64(len(procs)))
	for _, name := range procs {
		k := m.Procs[name]
		e.Str(name)
		e.Str(string(k.Own[:]))
		e.Str(string(k.Call[:]))
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
	n := d.Count(5) // five strings
	m.Modules = make(map[string]*moduleState, n)
	for ; n > 0; n-- {
		name := d.Str()
		ms := &moduleState{SourceHash: d.Str()}
		ms.Phase1File = d.Str()
		ms.ObjectFile = d.Str()
		readKey(d, ms.Eligibility[:])
		m.Modules[name] = ms
	}
	n = d.Count(3) // three strings
	m.Procs = make(map[string]pdb.ProcKeys, n)
	for ; n > 0; n-- {
		name := d.Str()
		var k pdb.ProcKeys
		readKey(d, k.Own[:])
		readKey(d, k.Call[:])
		m.Procs[name] = k
	}
	if err := d.Finish(); err != nil {
		return manifest{}, err
	}
	return m, nil
}

// readKey reads a key string into key, which it must fill exactly.
func readKey(d *wire.Decoder, key []byte) {
	if s := d.Str(); len(s) == len(key) {
		copy(key, s)
	} else {
		d.Fail("a key of the wrong length")
	}
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
