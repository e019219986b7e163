package ipra

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/cache"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/summary"
)

// serializeArtifacts is one compiled program's worth of everything the
// pipeline persists: the largest module's phase-1 record, its object, and
// the linked executable. Building it is setup, not the thing measured.
type serializeArtifacts struct {
	module  *ir.Module
	summary *summary.ModuleSummary
	object  *parv.Object
	exe     *parv.Executable
	entry   []byte // encoded cache entry for decode benchmarks
}

var (
	serializeOnce sync.Once
	serializeArts *serializeArtifacts
	serializeErr  error
)

func serializeWorkload(tb testing.TB) *serializeArtifacts {
	serializeOnce.Do(func() {
		var b benchprogs.Benchmark
		for _, cand := range benchprogs.All() {
			b = cand // last one; the suite orders small to large
		}
		files, err := b.Sources()
		if err != nil {
			serializeErr = err
			return
		}
		sources := make([]Source, len(files))
		for i, f := range files {
			sources[i] = Source{Name: f.Name, Text: f.Text}
		}
		cfg, err := PresetByName("C")
		if err != nil {
			serializeErr = err
			return
		}
		res, err := Build(context.Background(), sources, cfg)
		if err != nil {
			serializeErr = err
			return
		}
		arts := &serializeArtifacts{exe: res.Exe}
		for i, m := range res.Modules {
			if arts.module == nil || len(m.Funcs) > len(arts.module.Funcs) {
				arts.module = m
				arts.object = res.Objects[i]
			}
		}
		arts.summary = summary.SummarizeModule(arts.module)
		arts.entry = cache.EncodeEntry(arts.module, arts.summary)
		serializeArts = arts
	})
	if serializeErr != nil {
		tb.Fatal(serializeErr)
	}
	return serializeArts
}

// BenchmarkSerializeEncodeEntry measures encoding a phase-1 cache entry
// (IR module + summary), the cost every Put pays.
func BenchmarkSerializeEncodeEntry(b *testing.B) {
	arts := serializeWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := cache.EncodeEntry(arts.module, arts.summary)
		if i == 0 {
			b.SetBytes(int64(len(data)))
		}
	}
}

// BenchmarkSerializeDecodeEntry measures decoding a phase-1 cache entry,
// the cost every cache hit pays.
func BenchmarkSerializeDecodeEntry(b *testing.B) {
	arts := serializeWorkload(b)
	b.SetBytes(int64(len(arts.entry)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cache.DecodeEntry(arts.entry); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerializeDecodeSummary measures reading only the summary of a
// phase-1 cache entry, the cost a warm build pays per reused record.
func BenchmarkSerializeDecodeSummary(b *testing.B) {
	arts := serializeWorkload(b)
	b.SetBytes(int64(len(arts.entry)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.DecodeSummary(arts.entry); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerializePutFull measures Put into a cache at capacity, where
// every insertion encodes the entry and evicts a victim.
func BenchmarkSerializePutFull(b *testing.B) {
	arts := serializeWorkload(b)
	ctx := context.Background()
	c := cache.New(64)
	keyOf := func(i int) cache.Key {
		return cache.SourceKey(arts.module.Name, nil, string(rune('a'+i%128)))
	}
	for i := 0; i < 64; i++ {
		c.Put(ctx, keyOf(i), arts.module, arts.summary)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(ctx, keyOf(i), arts.module, arts.summary)
	}
}

// BenchmarkSerializeGetHit measures a cache hit, which decodes the stored
// bytes into private copies.
func BenchmarkSerializeGetHit(b *testing.B) {
	arts := serializeWorkload(b)
	ctx := context.Background()
	c := cache.New(4)
	k := cache.SourceKey(arts.module.Name, nil, "get-hit")
	c.Put(ctx, k, arts.module, arts.summary)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := c.Get(ctx, k); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkSerializeModuleClone measures the deep copy every compilation
// makes of a cached module.
func BenchmarkSerializeModuleClone(b *testing.B) {
	arts := serializeWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := arts.module.Clone(); m == nil {
			b.Fatal("nil clone")
		}
	}
}

// BenchmarkSerializeObjectWrite measures persisting an object file (the
// incremental build dir's per-module artifact).
func BenchmarkSerializeObjectWrite(b *testing.B) {
	arts := serializeWorkload(b)
	path := filepath.Join(b.TempDir(), "obj.bin")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := parv.WriteObjectFile(path, arts.object); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerializeObjectRead measures loading an object file back.
func BenchmarkSerializeObjectRead(b *testing.B) {
	arts := serializeWorkload(b)
	path := filepath.Join(b.TempDir(), "obj.bin")
	if err := parv.WriteObjectFile(path, arts.object); err != nil {
		b.Fatal(err)
	}
	if fi, err := os.Stat(path); err == nil {
		b.SetBytes(fi.Size())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parv.ReadObjectFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerializeExeEncode measures encoding the linked executable in
// its canonical on-disk form.
func BenchmarkSerializeExeEncode(b *testing.B) {
	arts := serializeWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := parv.EncodeExecutable(&buf, arts.exe); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.SetBytes(int64(buf.Len()))
		}
	}
}

// BenchmarkSerializeExeDecode measures decoding the canonical executable
// image (what every VM run of a stored build loads).
func BenchmarkSerializeExeDecode(b *testing.B) {
	arts := serializeWorkload(b)
	var buf bytes.Buffer
	if err := parv.EncodeExecutable(&buf, arts.exe); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parv.DecodeExecutable(data); err != nil {
			b.Fatal(err)
		}
	}
}
