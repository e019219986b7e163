package summary

import (
	"crypto/sha256"
	"encoding/hex"

	"ipra/internal/wire"
)

// Hash returns a stable content hash of a module summary: the sha256 of
// its wire encoding (AppendSummary), hex-encoded and truncated to 8 bytes.
// The analyzer state (core.State) stamps each module with it.
func Hash(ms *ModuleSummary) string {
	return hash(func(e *wire.Encoder) { AppendSummary(e, ms) })
}

// RecordHash returns a stable content hash of one procedure record, the
// analyzer state's per-procedure stamp.
func RecordHash(rec *ProcRecord) string {
	return hash(func(e *wire.Encoder) { appendProc(e, rec) })
}

// hash digests a wire file holding what appendTo encodes. The file is
// never decoded, so its kind only labels what was hashed.
func hash(appendTo func(*wire.Encoder)) string {
	e := wire.NewEncoder("summary", 1)
	appendTo(e)
	sum := sha256.Sum256(e.Finish())
	return hex.EncodeToString(sum[:8])
}

// AppendSummary encodes ms into an in-progress wire body: the head of a
// phase-1 record (the cache package's entry), where the summary shares one
// string table with the module's IR, and the bytes Hash is taken over.
func AppendSummary(e *wire.Encoder, ms *ModuleSummary) {
	e.Str(ms.Module)
	e.U(uint64(len(ms.Procs)))
	for i := range ms.Procs {
		appendProc(e, &ms.Procs[i])
	}
	e.U(uint64(len(ms.Globals)))
	for i := range ms.Globals {
		g := &ms.Globals[i]
		e.Str(g.Name)
		e.Str(g.Module)
		e.I(int64(g.Size))
		e.Bool(g.Defined)
		e.Bool(g.Static)
		e.Bool(g.Scalar)
		e.Bool(g.AddrTaken)
	}
}

func appendProc(e *wire.Encoder, p *ProcRecord) {
	e.Str(p.Name)
	e.Str(p.Module)
	e.Bool(p.Static)
	e.U(uint64(len(p.GlobalRefs)))
	for i := range p.GlobalRefs {
		r := &p.GlobalRefs[i]
		e.Str(r.Name)
		e.I(r.Freq)
		e.I(r.Reads)
		e.I(r.Writes)
		e.Bool(r.Aliased)
	}
	e.U(uint64(len(p.Calls)))
	for i := range p.Calls {
		e.Str(p.Calls[i].Callee)
		e.I(p.Calls[i].Freq)
	}
	e.Strs(p.AddrTakenProcs)
	e.Bool(p.MakesIndirectCalls)
	e.I(p.IndirectCallFreq)
	e.I(int64(p.CalleeSavesNeeded))
	e.I(int64(p.CalleeSavesBase))
	e.I(int64(p.CallerSavesNeeded))
}

// ReadSummary decodes a summary written by AppendSummary. Errors are
// reported through the decoder's sticky error.
func ReadSummary(d *wire.Decoder) *ModuleSummary {
	ms := &ModuleSummary{Module: d.Str()}
	if n := d.Count(1); n > 0 {
		ms.Procs = make([]ProcRecord, n)
		for i := range ms.Procs {
			readProc(d, &ms.Procs[i])
		}
	}
	if n := d.Count(1); n > 0 {
		ms.Globals = make([]GlobalInfo, n)
		for i := range ms.Globals {
			g := &ms.Globals[i]
			g.Name = d.Str()
			g.Module = d.Str()
			g.Size = int32(d.I())
			g.Defined = d.Bool()
			g.Static = d.Bool()
			g.Scalar = d.Bool()
			g.AddrTaken = d.Bool()
		}
	}
	return ms
}

func readProc(d *wire.Decoder, p *ProcRecord) {
	p.Name = d.Str()
	p.Module = d.Str()
	p.Static = d.Bool()
	if n := d.Count(1); n > 0 {
		p.GlobalRefs = make([]GlobalRef, n)
		for i := range p.GlobalRefs {
			r := &p.GlobalRefs[i]
			r.Name = d.Str()
			r.Freq = d.I()
			r.Reads = d.I()
			r.Writes = d.I()
			r.Aliased = d.Bool()
		}
	}
	if n := d.Count(1); n > 0 {
		p.Calls = make([]CallSite, n)
		for i := range p.Calls {
			p.Calls[i].Callee = d.Str()
			p.Calls[i].Freq = d.I()
		}
	}
	p.AddrTakenProcs = d.Strs()
	p.MakesIndirectCalls = d.Bool()
	p.IndirectCallFreq = d.I()
	p.CalleeSavesNeeded = int(d.I())
	p.CalleeSavesBase = int(d.I())
	p.CallerSavesNeeded = int(d.I())
}
