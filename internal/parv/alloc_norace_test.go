//go:build !race

// The race detector's instrumentation allocates on its own account, so
// allocation counts are checked only without it.

package parv

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// TestEncodeExecutableCopiesOnce: the encoder is sized from the code, so an
// encode allocates the file once and copies it once into the caller's
// buffer, about twice the image, however wide the immediates, targets and
// symbol references run.
func TestEncodeExecutableCopiesOnce(t *testing.T) {
	var objs []*Object
	for m := 0; m < 4; m++ {
		o := &Object{Module: fmt.Sprintf("m%d.mc", m)}
		for f := 0; f < 40; f++ {
			fn := &ObjFunc{Name: fmt.Sprintf("m%d_f%d", m, f)}
			if m == 0 && f == 0 {
				fn.Name = "main"
			}
			for k := 0; k < 60; k++ {
				fn.Code = append(fn.Code, Instr{Op: B, Target: int32(k)}, Instr{Op: LDI, Imm: int32(k) << (3 * (k % 10))})
			}
			callee := fmt.Sprintf("m%d_f%d", (m+1)%4, (f*7)%40)
			if callee == "m0_f0" {
				callee = "main"
			}
			fn.Code = append(fn.Code, Instr{Op: BL}, Instr{Op: LDW}, Instr{Op: BV, Ra: RegRP})
			fn.Relocs = []Reloc{
				{Index: len(fn.Code) - 3, Kind: RelCall, Sym: callee},
				{Index: len(fn.Code) - 2, Kind: RelDataDisp, Sym: fmt.Sprintf("g%d_%d", m, f%10)},
			}
			o.Funcs = append(o.Funcs, fn)
		}
		for g := 0; g < 10; g++ {
			o.Globals = append(o.Globals, &DataSym{Name: fmt.Sprintf("g%d_%d", m, g), Size: 8, Init: make([]byte, 8), Defined: true})
		}
		objs = append(objs, o)
	}
	exe, err := Link(objs, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := EncodeExecutable(&first, exe); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		var buf bytes.Buffer
		if err := EncodeExecutable(&buf, exe); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(first.Len())
	t.Logf("an encode of a %d-byte image allocates %.2f times it", first.Len(), ratio)
	if ratio > 2.5 {
		t.Errorf("an encode allocates %.2f times the image, want at most 2.5", ratio)
	}
}
