package parv

import (
	"fmt"
	"io"
)

// Disassemble writes a listing of the linked executable.
func Disassemble(w io.Writer, exe *Executable) {
	for _, fi := range exe.Funcs {
		fmt.Fprintf(w, "\n%s:\t; [%d,%d)\n", fi.Name, fi.Start, fi.End)
		for pc := fi.Start; pc < fi.End; pc++ {
			fmt.Fprintf(w, "%6d\t%s\n", pc, exe.Code[pc].String())
		}
	}
}
