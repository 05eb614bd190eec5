// Package asm is a small two-pass assembler over the insn builders. It
// provides named sections, labels, data directives and the relocation
// kinds the kernel image and loadable modules need (PC-relative branches,
// ADR, and absolute MOVZ/MOVK address materialisation).
package asm

import (
	"fmt"
	"sort"

	"camouflage/internal/insn"
)

// RelKind is a relocation kind.
type RelKind int

// Relocation kinds.
const (
	// RelNone marks plain instructions.
	RelNone RelKind = iota
	// RelPC sets the PC-relative byte offset (Instr.Imm) of B, BL,
	// B.cond, CBZ, CBNZ or ADR to a label; Encode places it in the op's
	// offset field.
	RelPC
	// RelMOVWide patches a 4-instruction MOVZ/MOVK chain with the
	// absolute 64-bit address of a label.
	RelMOVWide
	// RelQuad patches a .quad data slot with the absolute address of a
	// label.
	RelQuad
)

// item is one assembled unit: an instruction, data bytes, or a pending
// relocation.
type item struct {
	// size in bytes.
	size int
	// ins holds instructions (1 for plain, 4 for MOVWide chains).
	ins []insn.Instr
	// data holds raw bytes for data items.
	data []byte
	// rel/target describe a pending relocation.
	rel    RelKind
	target string
	// addend is added to the target address.
	addend int64
}

// Section is a named, contiguous run of items.
type Section struct {
	Name  string
	items []item
	// Base is the virtual address assigned at link time.
	Base uint64
	size uint64
}

// Size returns the section size in bytes (valid after all emissions).
func (s *Section) Size() uint64 { return s.size }

// Assembler accumulates sections, labels and relocations.
type Assembler struct {
	sections map[string]*Section
	order    []string
	cur      *Section
	// labels maps label → (section, offset).
	labels map[string]labelPos
}

type labelPos struct {
	section string
	offset  uint64
}

// New returns an empty assembler positioned at a default ".text" section.
func New() *Assembler {
	a := &Assembler{
		sections: make(map[string]*Section),
		labels:   make(map[string]labelPos),
	}
	a.Section(".text")
	return a
}

// Section switches the current section, creating it if needed.
func (a *Assembler) Section(name string) {
	s, ok := a.sections[name]
	if !ok {
		s = &Section{Name: name}
		a.sections[name] = s
		a.order = append(a.order, name)
	}
	a.cur = s
}

// Offset returns the current offset within the active section.
func (a *Assembler) Offset() uint64 { return a.cur.size }

// Label defines a label at the current position.
func (a *Assembler) Label(name string) {
	if _, dup := a.labels[name]; dup {
		panic(fmt.Sprintf("asm: duplicate label %q", name))
	}
	a.labels[name] = labelPos{a.cur.Name, a.cur.size}
}

func (a *Assembler) push(it item) {
	a.cur.items = append(a.cur.items, it)
	a.cur.size += uint64(it.size)
}

// I emits one instruction.
func (a *Assembler) I(ins ...insn.Instr) {
	for _, i := range ins {
		a.push(item{size: insn.Size, ins: []insn.Instr{i}})
	}
}

// BL emits a branch-with-link to a label.
func (a *Assembler) BL(label string) {
	a.push(item{size: insn.Size, ins: []insn.Instr{insn.BL(0)}, rel: RelPC, target: label})
}

// B emits an unconditional branch to a label.
func (a *Assembler) B(label string) {
	a.push(item{size: insn.Size, ins: []insn.Instr{insn.B(0)}, rel: RelPC, target: label})
}

// Bcond emits a conditional branch to a label.
func (a *Assembler) Bcond(c insn.Cond, label string) {
	a.push(item{size: insn.Size, ins: []insn.Instr{insn.Bcond(c, 0)}, rel: RelPC, target: label})
}

// CBZ emits a compare-and-branch-if-zero to a label.
func (a *Assembler) CBZ(rt insn.Reg, label string) {
	a.push(item{size: insn.Size, ins: []insn.Instr{insn.CBZ(rt, 0)}, rel: RelPC, target: label})
}

// CBNZ emits a compare-and-branch-if-nonzero to a label.
func (a *Assembler) CBNZ(rt insn.Reg, label string) {
	a.push(item{size: insn.Size, ins: []insn.Instr{insn.CBNZ(rt, 0)}, rel: RelPC, target: label})
}

// ADR emits an ADR of a label (±1 MiB).
func (a *Assembler) ADR(rd insn.Reg, label string) {
	a.push(item{size: insn.Size, ins: []insn.Instr{insn.ADR(rd, 0)}, rel: RelPC, target: label})
}

// MOVAddr emits a 4-instruction MOVZ/MOVK chain loading the absolute
// address of label into rd (the form module code uses for far symbols).
func (a *Assembler) MOVAddr(rd insn.Reg, label string) {
	chain := []insn.Instr{
		insn.MOVZ(rd, 0, 0),
		insn.MOVK(rd, 0, 16),
		insn.MOVK(rd, 0, 32),
		insn.MOVK(rd, 0, 48),
	}
	a.push(item{size: 4 * insn.Size, ins: chain, rel: RelMOVWide, target: label})
}

// Quad emits a 64-bit little-endian constant.
func (a *Assembler) Quad(v uint64) {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	a.push(item{size: 8, data: b})
}

// QuadAddr emits a 64-bit slot holding the absolute address of label
// (+addend).
func (a *Assembler) QuadAddr(label string, addend int64) {
	a.push(item{size: 8, data: make([]byte, 8), rel: RelQuad, target: label, addend: addend})
}

// Bytes emits raw data.
func (a *Assembler) Bytes(b []byte) {
	cp := make([]byte, len(b))
	copy(cp, b)
	a.push(item{size: len(cp), data: cp})
}

// Zero emits n zero bytes.
func (a *Assembler) Zero(n int) {
	a.push(item{size: n, data: make([]byte, n)})
}

// Align pads the current section to the given power-of-two boundary.
func (a *Assembler) Align(n uint64) {
	if n == 0 || n&(n-1) != 0 {
		panic("asm: alignment must be a power of two")
	}
	pad := (n - a.cur.size%n) % n
	if pad > 0 {
		a.Zero(int(pad))
	}
}

// PadTo pads the current section with zeros up to the absolute offset; it
// panics if the section is already past it (vector tables use this).
func (a *Assembler) PadTo(offset uint64) {
	if a.cur.size > offset {
		panic(fmt.Sprintf("asm: section %s already at %#x, cannot pad to %#x", a.cur.Name, a.cur.size, offset))
	}
	if pad := offset - a.cur.size; pad > 0 {
		a.Zero(int(pad))
	}
}

// Image is the result of linking: bytes per section plus a symbol table.
type Image struct {
	// Sections maps name → linked bytes.
	Sections map[string]*LinkedSection
	// Symbols maps label → absolute address.
	Symbols map[string]uint64
}

// LinkedSection is one relocated section.
type LinkedSection struct {
	Name  string
	Base  uint64
	Bytes []byte
}

// Link assigns the given base address to every section (missing sections
// are an error), resolves labels and applies relocations.
func (a *Assembler) Link(bases map[string]uint64) (*Image, error) {
	for _, name := range a.order {
		if _, ok := bases[name]; !ok {
			return nil, fmt.Errorf("asm: no base address for section %q", name)
		}
		a.sections[name].Base = bases[name]
	}
	// Overlap check.
	type span struct {
		lo, hi uint64
		name   string
	}
	var spans []span
	for _, name := range a.order {
		s := a.sections[name]
		spans = append(spans, span{s.Base, s.Base + s.size, name})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return nil, fmt.Errorf("asm: sections %q and %q overlap", spans[i-1].name, spans[i].name)
		}
	}

	symbols := make(map[string]uint64, len(a.labels))
	for name, pos := range a.labels {
		symbols[name] = a.sections[pos.section].Base + pos.offset
	}

	img := &Image{Sections: make(map[string]*LinkedSection), Symbols: symbols}
	for _, name := range a.order {
		s := a.sections[name]
		out := make([]byte, 0, s.size)
		off := s.Base
		for _, it := range s.items {
			b, err := a.renderItem(it, off, symbols)
			if err != nil {
				return nil, fmt.Errorf("asm: section %s+%#x: %w", name, off-s.Base, err)
			}
			out = append(out, b...)
			off += uint64(it.size)
		}
		img.Sections[name] = &LinkedSection{Name: name, Base: s.Base, Bytes: out}
	}
	return img, nil
}

func (a *Assembler) renderItem(it item, addr uint64, symbols map[string]uint64) ([]byte, error) {
	resolve := func() (uint64, error) {
		t, ok := symbols[it.target]
		if !ok {
			return 0, fmt.Errorf("undefined label %q", it.target)
		}
		return uint64(int64(t) + it.addend), nil
	}
	switch it.rel {
	case RelNone:
		if it.data != nil {
			return it.data, nil
		}
		return encodeWords(it.ins), nil
	case RelPC:
		t, err := resolve()
		if err != nil {
			return nil, err
		}
		i := it.ins[0]
		i.Imm = int64(t) - int64(addr)
		return encodeWords([]insn.Instr{i}), nil
	case RelMOVWide:
		t, err := resolve()
		if err != nil {
			return nil, err
		}
		chain := insn.MOVImm64(it.ins[0].Rd, t)
		// Pad to exactly 4 instructions with NOPs to keep layout fixed.
		for len(chain) < 4 {
			chain = append(chain, insn.NOP())
		}
		return encodeWords(chain), nil
	case RelQuad:
		t, err := resolve()
		if err != nil {
			return nil, err
		}
		b := make([]byte, 8)
		for i := 0; i < 8; i++ {
			b[i] = byte(t >> (8 * i))
		}
		return b, nil
	}
	return nil, fmt.Errorf("unknown relocation kind %d", it.rel)
}

func encodeWords(ins []insn.Instr) []byte {
	out := make([]byte, 0, len(ins)*insn.Size)
	for _, i := range ins {
		w := i.Encode()
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}
