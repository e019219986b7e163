package parv

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// Stats accumulates the execution counters the paper's evaluation is
// defined over.
type Stats struct {
	Instrs uint64 // instructions executed
	Cycles uint64 // clock cycles (no cache model, as in §6.1)
	Loads  uint64
	Stores uint64

	// Singleton memory references: accesses of simple variables of size
	// 1, 2, or 4 bytes — not array elements, struct members, or pointer
	// dereferences (§6.3, Table 5).
	SingletonLoads  uint64
	SingletonStores uint64

	Calls uint64 // BL/BLR executed
}

// MemRefs returns the total dynamic memory references.
func (s *Stats) MemRefs() uint64 { return s.Loads + s.Stores }

// SingletonRefs returns the total dynamic singleton memory references.
func (s *Stats) SingletonRefs() uint64 { return s.SingletonLoads + s.SingletonStores }

// EdgeKey identifies a call-graph arc in profile data.
type EdgeKey struct {
	Caller, Callee string
}

// Profile is the gprof-style output of a profiled run: exact dynamic call
// counts per arc (§6.1 used gprof for the same purpose). A procedure's
// call count is the sum of the counts of the arcs into it.
type Profile struct {
	Edges map[EdgeKey]uint64
}

// haltRA is the sentinel return address installed in rp for the entry call;
// returning to it stops the machine.
const haltRA = TextBase - 4

// Trap is a run-time fault (bad address, misalignment, step limit...).
type Trap struct {
	PC   int
	Func string
	Msg  string
}

func (t *Trap) Error() string {
	return fmt.Sprintf("parv trap at pc=%d (%s): %s", t.PC, t.Func, t.Msg)
}

// Data memory is zeroed on demand: the segment is a table of pages, a page
// is allocated when the initial image covers it or a store first touches
// it, and a load from a page never allocated reads 0.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// vop is a decoded operation: a PARV opcode specialised by its condition
// code, access width or syscall, so that executing it needs no further
// dispatch.
type vop uint8

const (
	vNOP vop = iota
	vLDI
	vMOV
	vADD
	vADDI
	vSUB
	vSUBI
	vMUL
	vDIV
	vREM
	vAND
	vOR
	vXOR
	vANDI
	vORI
	vXORI
	vSHL
	vSHR
	vSHLI
	vSHRI
	vNEG
	vNOT
	vCMPEQ // the six conditions in Cond order, for CMP, CMPI, CB and CBI
	vCMPNE
	vCMPLT
	vCMPLE
	vCMPGT
	vCMPGE
	vCMPIEQ
	vCMPINE
	vCMPILT
	vCMPILE
	vCMPIGT
	vCMPIGE
	vLDB // loads and stores by width: byte, halfword, word
	vLDH
	vLDW
	vSTB
	vSTH
	vSTW
	vB
	vCBEQ
	vCBNE
	vCBLT
	vCBLE
	vCBGT
	vCBGE
	vCBIEQ
	vCBINE
	vCBILT
	vCBILE
	vCBIGT
	vCBIGE
	vBL
	vBLR
	vBV
	vEXIT
	vPUTCHAR
	vPUTINT
	vILLEGAL // cannot execute; VM.illegal holds the reason
)

// dinstr is one instruction as the VM executes it. Register fields that
// the operation does not use are 0.
type dinstr struct {
	op         vop
	rd, ra, rb uint8
	imm        int32 // the immediate; for BL, the callee's index in Funcs
	target     int32
	cost       uint8 // Instr.Cycles: taken for B/BL/BLR/BV, not taken for CB/CBI
	takenCost  uint8 // CB/CBI: Instr.Cycles(true)
	single     uint8 // 1 for a singleton load or store
}

// VM is a PARV instruction-level simulator.
type VM struct {
	exe     *Executable
	code    []dinstr
	fnOf    []int32        // text index → index in exe.Funcs, -1 if none
	illegal map[int]string // why each vILLEGAL instruction cannot execute

	regs  [NumRegs]int32
	pc    int
	pages []*page
	size  int64 // data segment bytes
	out   []byte

	Stats Stats

	// ProfileEdges enables call-edge counting.
	ProfileEdges bool
	edges        map[uint64]uint64
	curFn        int32
}

// NewVM prepares a machine for one run of the executable: it decodes the
// code and lays the initial data image into the pages it covers. The
// executable is only read, so several machines may run it at once.
func NewVM(exe *Executable) *VM {
	n := len(exe.Code)
	vm := &VM{exe: exe, code: make([]dinstr, n), fnOf: make([]int32, n)}
	for pc := range vm.fnOf {
		vm.fnOf[pc] = -1
	}
	for i, fi := range exe.Funcs {
		for pc := max(fi.Start, 0); pc < min(fi.End, n); pc++ {
			vm.fnOf[pc] = int32(i)
		}
	}
	for pc := range exe.Code {
		vm.code[pc] = vm.decode(pc, &exe.Code[pc])
	}

	size := max(int(exe.DataSize), 0)
	vm.size = int64(size)
	vm.pages = make([]*page, (size+pageMask)>>pageShift)
	data := exe.Data[:min(len(exe.Data), size)]
	for off := 0; off < len(data); off += pageSize {
		p := new(page)
		copy(p[:], data[off:])
		vm.pages[off>>pageShift] = p
	}

	vm.regs[RegSP] = DataBase + exe.DataSize - 64
	vm.regs[RegDP] = DataBase
	vm.regs[RegRP] = haltRA
	vm.pc = exe.Entry
	vm.curFn = -1
	if exe.Entry >= 0 && exe.Entry < n {
		vm.curFn = vm.fnOf[exe.Entry]
	}
	vm.edges = make(map[uint64]uint64)
	return vm
}

// Operand fields an opcode reads or writes.
const (
	useRd = 1 << iota
	useRa
	useRb
	useCond
	rdRa   = useRd | useRa
	rdRaRb = useRd | useRa | useRb
)

// opInfo gives each opcode's decoded operation, the first of its variants
// where decode specialises it, and the operand fields it uses.
var opInfo = [...]struct {
	op   vop
	uses uint8
}{
	NOP: {vNOP, 0}, LDI: {vLDI, useRd}, MOV: {vMOV, rdRa},
	ADD: {vADD, rdRaRb}, ADDI: {vADDI, rdRa}, SUB: {vSUB, rdRaRb}, SUBI: {vSUBI, rdRa},
	MUL: {vMUL, rdRaRb}, DIV: {vDIV, rdRaRb}, REM: {vREM, rdRaRb},
	AND: {vAND, rdRaRb}, OR: {vOR, rdRaRb}, XOR: {vXOR, rdRaRb},
	ANDI: {vANDI, rdRa}, ORI: {vORI, rdRa}, XORI: {vXORI, rdRa},
	SHL: {vSHL, rdRaRb}, SHR: {vSHR, rdRaRb}, SHLI: {vSHLI, rdRa}, SHRI: {vSHRI, rdRa},
	NEG: {vNEG, rdRa}, NOT: {vNOT, rdRa},
	CMP: {vCMPEQ, rdRaRb | useCond}, CMPI: {vCMPIEQ, rdRa | useCond},
	LDW: {vLDB, rdRa}, STW: {vSTB, useRa | useRb},
	B: {vB, 0}, CB: {vCBEQ, useRa | useRb | useCond}, CBI: {vCBIEQ, useRa | useCond},
	BL: {vBL, useRd}, BLR: {vBLR, rdRa}, BV: {vBV, useRa},
	SYS: {vEXIT, 0},
}

// decode translates one instruction. An instruction that cannot execute
// (unknown opcode, register, condition, width or syscall, or a call
// outside the code) becomes vILLEGAL and traps only if it is executed.
func (vm *VM) decode(pc int, in *Instr) dinstr {
	bad := func(format string, args ...interface{}) dinstr {
		if vm.illegal == nil {
			vm.illegal = make(map[int]string)
		}
		vm.illegal[pc] = fmt.Sprintf(format, args...)
		return dinstr{op: vILLEGAL}
	}
	if int(in.Op) >= len(opInfo) {
		return bad("illegal opcode %s", in.Op)
	}
	info := opInfo[in.Op]
	regs := [3]uint8{in.Rd, in.Ra, in.Rb}
	for i, flag := range [3]uint8{useRd, useRa, useRb} {
		if info.uses&flag == 0 {
			regs[i] = 0
		} else if regs[i] >= NumRegs {
			return bad("illegal register %d", regs[i])
		}
	}
	d := dinstr{op: info.op, rd: regs[0], ra: regs[1], rb: regs[2], imm: in.Imm, target: in.Target}
	if info.uses&useCond != 0 {
		if in.Cond > GE {
			return bad("illegal condition %d", in.Cond)
		}
		d.op += vop(in.Cond)
	}

	switch in.Op {
	case SHLI, SHRI:
		d.imm &= 31
	case LDW, STW:
		switch in.MemSize {
		case 1:
		case 2:
			d.op++
		case 4:
			d.op += 2
		default:
			return bad("illegal access width %d", in.MemSize)
		}
		if in.Singleton {
			d.single = 1
		}
	case SYS:
		switch in.Imm {
		case SysExit:
		case SysPutchar:
			d.op = vPUTCHAR
		case SysPutint:
			d.op = vPUTINT
		default:
			return bad("unknown syscall %d", in.Imm)
		}
	case BL:
		if in.Target < 0 || int(in.Target) >= len(vm.code) {
			return bad("call to bad address %#x", uint32(TextBase+in.Target))
		}
		d.imm = vm.fnOf[in.Target]
	}

	switch in.Op {
	case B, BL, BLR, BV:
		d.cost = uint8(in.Cycles(true))
	case CB, CBI:
		d.cost = uint8(in.Cycles(false))
		d.takenCost = uint8(in.Cycles(true))
	default:
		d.cost = uint8(in.Cycles(false))
	}
	return d
}

// Output returns everything the program wrote via putchar/putint.
func (vm *VM) Output() string { return string(vm.out) }

// Reg returns the current value of a register (for tests).
func (vm *VM) Reg(r uint8) int32 { return vm.regs[r] }

// funcName names the function at index f of Funcs, or "?".
func (vm *VM) funcName(f int32) string {
	if f < 0 || int(f) >= len(vm.exe.Funcs) {
		return "?"
	}
	return vm.exe.Funcs[f].Name
}

// Profile converts the collected edge counts to symbolic form.
func (vm *VM) Profile() *Profile {
	p := &Profile{Edges: make(map[EdgeKey]uint64)}
	for k, n := range vm.edges {
		caller := vm.funcName(int32(k >> 32))
		callee := vm.funcName(int32(k))
		p.Edges[EdgeKey{Caller: caller, Callee: callee}] += n
	}
	return p
}

// accessFault describes a load or store of width bytes at addr that is
// outside the data segment or misaligned; outside wins.
func (vm *VM) accessFault(store bool, width int64, addr int32) string {
	what, dir := "load", "load of"
	if store {
		what, dir = "store", "store to"
	}
	if off := int64(addr) - DataBase; off < 0 || off+width > vm.size {
		return fmt.Sprintf("%s unmapped address %#x", dir, uint32(addr))
	}
	unit := "word"
	if width == 2 {
		unit = "halfword"
	}
	return fmt.Sprintf("misaligned %s %s at %#x", unit, what, uint32(addr))
}

// Run executes until the program halts or maxInstrs instructions have
// retired (0 means a default of 2 billion). It returns the exit status.
//
// Stats and the pc are written back on every exit, halt or trap, so a
// run stopped by the instruction limit resumes with a larger one. A
// trapping instruction counts in Stats.Instrs but not in Stats.Cycles.
func (vm *VM) Run(maxInstrs uint64) (int32, error) {
	if maxInstrs == 0 {
		maxInstrs = 2_000_000_000
	}
	code, fnOf, pages, size := vm.code, vm.fnOf, vm.pages, vm.size
	profile, edges := vm.ProfileEdges, vm.edges
	r := &vm.regs
	pc, curFn := vm.pc, vm.curFn
	// The counters live in locals: the instruction and cycle counts as
	// scalars, the other five in a copy of Stats that stays in the stack
	// frame. As seven scalars they were spilled and reloaded around the
	// loop on every instruction.
	st := vm.Stats
	instrs, cycles := st.Instrs, st.Cycles

	var exit int32
	var msg string // set when the machine traps
	// Register fields are masked with &31 only so that the compiler drops
	// its bounds checks: decode already rejected every register >= 32.
	// Control transfers set pc and continue; every other instruction
	// falls through to the common tail.
run:
	for {
		if instrs >= maxInstrs {
			msg = fmt.Sprintf("instruction limit (%d) exceeded", maxInstrs)
			break
		}
		if uint(pc) >= uint(len(code)) {
			msg = "pc out of range"
			break
		}
		d := &code[pc]
		instrs++

		switch d.op {
		case vNOP:
		case vLDI:
			r[d.rd&31] = d.imm
		case vMOV:
			r[d.rd&31] = r[d.ra&31]
		case vADD:
			r[d.rd&31] = r[d.ra&31] + r[d.rb&31]
		case vADDI:
			r[d.rd&31] = r[d.ra&31] + d.imm
		case vSUB:
			r[d.rd&31] = r[d.ra&31] - r[d.rb&31]
		case vSUBI:
			r[d.rd&31] = r[d.ra&31] - d.imm
		case vMUL:
			r[d.rd&31] = r[d.ra&31] * r[d.rb&31]
		case vDIV:
			if r[d.rb&31] == 0 {
				msg = "division by zero"
				break run
			}
			r[d.rd&31] = r[d.ra&31] / r[d.rb&31]
		case vREM:
			if r[d.rb&31] == 0 {
				msg = "remainder by zero"
				break run
			}
			r[d.rd&31] = r[d.ra&31] % r[d.rb&31]
		case vAND:
			r[d.rd&31] = r[d.ra&31] & r[d.rb&31]
		case vOR:
			r[d.rd&31] = r[d.ra&31] | r[d.rb&31]
		case vXOR:
			r[d.rd&31] = r[d.ra&31] ^ r[d.rb&31]
		case vANDI:
			r[d.rd&31] = r[d.ra&31] & d.imm
		case vORI:
			r[d.rd&31] = r[d.ra&31] | d.imm
		case vXORI:
			r[d.rd&31] = r[d.ra&31] ^ d.imm
		case vSHL:
			r[d.rd&31] = r[d.ra&31] << uint(r[d.rb&31]&31)
		case vSHR:
			r[d.rd&31] = r[d.ra&31] >> uint(r[d.rb&31]&31)
		case vSHLI:
			r[d.rd&31] = r[d.ra&31] << uint(d.imm)
		case vSHRI:
			r[d.rd&31] = r[d.ra&31] >> uint(d.imm)
		case vNEG:
			r[d.rd&31] = -r[d.ra&31]
		case vNOT:
			r[d.rd&31] = ^r[d.ra&31]

		case vCMPEQ:
			r[d.rd&31] = b2i32(r[d.ra&31] == r[d.rb&31])
		case vCMPNE:
			r[d.rd&31] = b2i32(r[d.ra&31] != r[d.rb&31])
		case vCMPLT:
			r[d.rd&31] = b2i32(r[d.ra&31] < r[d.rb&31])
		case vCMPLE:
			r[d.rd&31] = b2i32(r[d.ra&31] <= r[d.rb&31])
		case vCMPGT:
			r[d.rd&31] = b2i32(r[d.ra&31] > r[d.rb&31])
		case vCMPGE:
			r[d.rd&31] = b2i32(r[d.ra&31] >= r[d.rb&31])
		case vCMPIEQ:
			r[d.rd&31] = b2i32(r[d.ra&31] == d.imm)
		case vCMPINE:
			r[d.rd&31] = b2i32(r[d.ra&31] != d.imm)
		case vCMPILT:
			r[d.rd&31] = b2i32(r[d.ra&31] < d.imm)
		case vCMPILE:
			r[d.rd&31] = b2i32(r[d.ra&31] <= d.imm)
		case vCMPIGT:
			r[d.rd&31] = b2i32(r[d.ra&31] > d.imm)
		case vCMPIGE:
			r[d.rd&31] = b2i32(r[d.ra&31] >= d.imm)

		// Address arithmetic wraps in 32 bits; a load from a page never
		// allocated reads 0, a store allocates its page.
		case vLDB:
			addr := r[d.ra&31] + d.imm
			off := int64(addr) - DataBase
			if off < 0 || off >= size {
				msg = vm.accessFault(false, 1, addr)
				break run
			}
			var v int32
			if p := pages[off>>pageShift]; p != nil {
				v = int32(p[off&pageMask])
			}
			r[d.rd&31] = v
			st.Loads++
			st.SingletonLoads += uint64(d.single)
		case vLDH:
			addr := r[d.ra&31] + d.imm
			off := int64(addr) - DataBase
			if off < 0 || off+2 > size || off&1 != 0 {
				msg = vm.accessFault(false, 2, addr)
				break run
			}
			var v int32
			if p := pages[off>>pageShift]; p != nil {
				v = int32(binary.LittleEndian.Uint16(p[off&pageMask:]))
			}
			r[d.rd&31] = v
			st.Loads++
			st.SingletonLoads += uint64(d.single)
		case vLDW:
			addr := r[d.ra&31] + d.imm
			off := int64(addr) - DataBase
			if off < 0 || off+4 > size || off&3 != 0 {
				msg = vm.accessFault(false, 4, addr)
				break run
			}
			var v int32
			if p := pages[off>>pageShift]; p != nil {
				v = int32(binary.LittleEndian.Uint32(p[off&pageMask:]))
			}
			r[d.rd&31] = v
			st.Loads++
			st.SingletonLoads += uint64(d.single)
		case vSTB:
			addr := r[d.ra&31] + d.imm
			off := int64(addr) - DataBase
			if off < 0 || off >= size {
				msg = vm.accessFault(true, 1, addr)
				break run
			}
			p := pages[off>>pageShift]
			if p == nil {
				p = new(page)
				pages[off>>pageShift] = p
			}
			p[off&pageMask] = byte(r[d.rb&31])
			st.Stores++
			st.SingletonStores += uint64(d.single)
		case vSTH:
			addr := r[d.ra&31] + d.imm
			off := int64(addr) - DataBase
			if off < 0 || off+2 > size || off&1 != 0 {
				msg = vm.accessFault(true, 2, addr)
				break run
			}
			p := pages[off>>pageShift]
			if p == nil {
				p = new(page)
				pages[off>>pageShift] = p
			}
			binary.LittleEndian.PutUint16(p[off&pageMask:], uint16(r[d.rb&31]))
			st.Stores++
			st.SingletonStores += uint64(d.single)
		case vSTW:
			addr := r[d.ra&31] + d.imm
			off := int64(addr) - DataBase
			if off < 0 || off+4 > size || off&3 != 0 {
				msg = vm.accessFault(true, 4, addr)
				break run
			}
			p := pages[off>>pageShift]
			if p == nil {
				p = new(page)
				pages[off>>pageShift] = p
			}
			binary.LittleEndian.PutUint32(p[off&pageMask:], uint32(r[d.rb&31]))
			st.Stores++
			st.SingletonStores += uint64(d.single)

		case vB:
			cycles += uint64(d.cost)
			pc = int(d.target)
			continue
		case vCBEQ:
			if r[d.ra&31] == r[d.rb&31] {
				cycles += uint64(d.takenCost)
				pc = int(d.target)
				continue
			}
		case vCBNE:
			if r[d.ra&31] != r[d.rb&31] {
				cycles += uint64(d.takenCost)
				pc = int(d.target)
				continue
			}
		case vCBLT:
			if r[d.ra&31] < r[d.rb&31] {
				cycles += uint64(d.takenCost)
				pc = int(d.target)
				continue
			}
		case vCBLE:
			if r[d.ra&31] <= r[d.rb&31] {
				cycles += uint64(d.takenCost)
				pc = int(d.target)
				continue
			}
		case vCBGT:
			if r[d.ra&31] > r[d.rb&31] {
				cycles += uint64(d.takenCost)
				pc = int(d.target)
				continue
			}
		case vCBGE:
			if r[d.ra&31] >= r[d.rb&31] {
				cycles += uint64(d.takenCost)
				pc = int(d.target)
				continue
			}
		case vCBIEQ:
			if r[d.ra&31] == d.imm {
				cycles += uint64(d.takenCost)
				pc = int(d.target)
				continue
			}
		case vCBINE:
			if r[d.ra&31] != d.imm {
				cycles += uint64(d.takenCost)
				pc = int(d.target)
				continue
			}
		case vCBILT:
			if r[d.ra&31] < d.imm {
				cycles += uint64(d.takenCost)
				pc = int(d.target)
				continue
			}
		case vCBILE:
			if r[d.ra&31] <= d.imm {
				cycles += uint64(d.takenCost)
				pc = int(d.target)
				continue
			}
		case vCBIGT:
			if r[d.ra&31] > d.imm {
				cycles += uint64(d.takenCost)
				pc = int(d.target)
				continue
			}
		case vCBIGE:
			if r[d.ra&31] >= d.imm {
				cycles += uint64(d.takenCost)
				pc = int(d.target)
				continue
			}

		// Calls and returns track the running function for the profile.
		case vBL:
			r[d.rd&31] = int32(TextBase + pc + 1)
			r[RegZero] = 0
			st.Calls++
			if profile {
				edges[uint64(curFn)<<32|uint64(uint32(d.imm))]++
			}
			curFn = d.imm
			cycles += uint64(d.cost)
			pc = int(d.target)
			continue
		case vBLR:
			r[d.rd&31] = int32(TextBase + pc + 1)
			t := int(r[d.ra&31]) - TextBase
			if t < 0 || t >= len(code) {
				msg = fmt.Sprintf("indirect call to bad address %#x", uint32(r[d.ra&31]))
				break run
			}
			r[RegZero] = 0
			st.Calls++
			if profile {
				edges[uint64(curFn)<<32|uint64(uint32(fnOf[t]))]++
			}
			curFn = fnOf[t]
			cycles += uint64(d.cost)
			pc = t
			continue
		case vBV:
			if r[d.ra&31] == haltRA {
				cycles += uint64(d.cost)
				exit = r[RegRet]
				break run
			}
			t := int(r[d.ra&31]) - TextBase
			if t < 0 || t >= len(code) {
				msg = fmt.Sprintf("jump to bad address %#x", uint32(r[d.ra&31]))
				break run
			}
			curFn = fnOf[t]
			cycles += uint64(d.cost)
			pc = t
			continue

		case vEXIT:
			cycles += uint64(d.cost)
			exit = r[26]
			break run
		case vPUTCHAR:
			vm.out = append(vm.out, byte(r[26]))
			r[RegRet] = r[26]
		case vPUTINT:
			vm.out = strconv.AppendInt(vm.out, int64(r[26]), 10)
			r[RegRet] = r[26]
		default: // vILLEGAL
			msg = vm.illegal[pc]
			break run
		}

		r[RegZero] = 0 // r0 is hardwired
		cycles += uint64(d.cost)
		pc++
	}

	vm.pc, vm.curFn = pc, curFn
	st.Instrs, st.Cycles = instrs, cycles
	vm.Stats = st
	if msg != "" {
		name := "?"
		if uint(pc) < uint(len(fnOf)) {
			name = vm.funcName(fnOf[pc])
		}
		return 0, &Trap{PC: pc, Func: name, Msg: msg}
	}
	return exit, nil
}

func b2i32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
