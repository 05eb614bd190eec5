// Package module implements loadable kernel modules (LKMs) for the
// Camouflage kernel: a relocatable image format with text, data and a
// .pauth_ptrs section (§4.6), and a loader that
//
//  1. links the module at its load address (run-time relocation),
//  2. runs the §4.1 static-analysis gate over the module text — rejecting
//     any code that reads PAuth key registers or writes SCTLR_EL1,
//  3. maps the sections with the appropriate permissions, and
//  4. signs the module's statically initialised pointers in place by
//     invoking the kernel's sign_ptr_table routine as guest code ("an
//     equivalent procedure is applied when loading an LKM at run-time").
//
// Because Camouflage's return-address modifier needs no link-time
// optimisation (unlike PARTS, §7), modules are instrumented exactly like
// the core kernel.
package module

import (
	"fmt"
	"slices"

	"camouflage/internal/analysis"
	"camouflage/internal/asm"
	"camouflage/internal/codegen"
	"camouflage/internal/insn"
	"camouflage/internal/kernel"
	"camouflage/internal/mmu"
	"camouflage/internal/pac"
)

// PauthEntry declares one statically initialised signed pointer in the
// module (a DECLARE_WORK-style table entry): the slot at slotLabel+slotOff
// holds a raw pointer that must be signed under the object at objLabel
// with the given key class and type constant.
type PauthEntry struct {
	SlotLabel string
	SlotOff   int64
	ObjLabel  string
	// InstructionKey selects IA (true) or DB (false).
	InstructionKey bool
	TypeConst      uint16
}

// Builder assembles a module.
type Builder struct {
	// A is the module assembler; code goes to ".modtext", data to
	// ".moddata".
	A    *asm.Assembler
	name string
	cfg  *codegen.Config

	pauth []PauthEntry
	// opsExports maps a path id to the ops-table label the module
	// registers as a driver.
	opsExports map[int]string
}

// NewBuilder starts a module. cfg must match the kernel's instrumentation
// configuration (modules are compiled with the same flags).
func NewBuilder(name string, cfg *codegen.Config) *Builder {
	a := asm.New()
	a.Section(".modtext")
	return &Builder{A: a, name: name, cfg: cfg, opsExports: make(map[int]string)}
}

// Config returns the instrumentation config modules are built with.
func (b *Builder) Config() *codegen.Config { return b.cfg }

// AddPauthEntry registers a statically initialised signed pointer.
func (b *Builder) AddPauthEntry(e PauthEntry) { b.pauth = append(b.pauth, e) }

// ExportDriver registers an ops table (by label) to be exposed as a
// device under the given path id when the module is loaded.
func (b *Builder) ExportDriver(pathID int, opsLabel string) {
	b.opsExports[pathID] = opsLabel
}

// Image is the built, unlinked module.
type Image struct {
	name       string
	asm        *asm.Assembler
	pauth      []PauthEntry
	opsExports map[int]string
}

// Build finalises the module: it emits the .pauth_ptrs table from the
// registered entries.
func (b *Builder) Build() *Image {
	b.A.Section(".modpauth")
	b.A.Label("mod_pauth_table")
	b.A.Quad(uint64(len(b.pauth)))
	for _, e := range b.pauth {
		b.A.QuadAddr(e.SlotLabel, e.SlotOff)
		b.A.QuadAddr(e.ObjLabel, 0)
		if e.InstructionKey {
			b.A.Quad(1)
		} else {
			b.A.Quad(0)
		}
		b.A.Quad(uint64(e.TypeConst))
	}
	return &Image{name: b.name, asm: b.A, pauth: b.pauth, opsExports: b.opsExports}
}

// Loaded describes a successfully loaded module.
type Loaded struct {
	Name    string
	Symbols map[string]uint64
	// TextBase/DataBase are the load addresses chosen by the kernel.
	TextBase, DataBase uint64
}

// moduleRange is the module VA each of a module's three sections
// (text, data, .pauth_ptrs) is linked into.
const moduleRange = 0x10000

// Load links, verifies, maps and initialises the module in the kernel.
func Load(k *kernel.Kernel, img *Image) (*Loaded, error) {
	// 1. Run-time relocation: link at the next free module addresses.
	// They are taken only once every check below passes, so a refused
	// load leaves the kernel as it found it.
	textVA := k.NextModuleVA()
	dataVA := textVA + moduleRange
	pauthVA := dataVA + moduleRange
	linked, err := img.asm.Link(map[string]uint64{
		".modtext":  textVA,
		".moddata":  dataVA,
		".modpauth": pauthVA,
		".text":     pauthVA + 0x8000, // default section; usually empty
	})
	if err != nil {
		return nil, fmt.Errorf("module %s: link: %w", img.name, err)
	}

	// 2. Static-analysis gate (§4.1): reject key reads and SCTLR writes
	// before the module ever executes.
	text := linked.Sections[".modtext"].Bytes
	if err := analysis.VerifyModuleText(text); err != nil {
		return nil, fmt.Errorf("module %s: %w", img.name, err)
	}

	// Every exported ops table must be defined before anything is
	// written or mapped, so a module that fails here registers no
	// driver. Path-ID order makes the first undefined label, and so the
	// error, the same on every load.
	paths := make([]int, 0, len(img.opsExports))
	for pathID := range img.opsExports {
		paths = append(paths, pathID)
	}
	slices.Sort(paths)
	opsVAs := make([]uint64, len(paths))
	for i, pathID := range paths {
		label := img.opsExports[pathID]
		va, ok := linked.Symbols[label]
		if !ok {
			return nil, fmt.Errorf("module %s: exported ops label %q undefined", img.name, label)
		}
		opsVAs[i] = va
	}

	// 3. Map and install.
	k.AllocModuleRange(3 * moduleRange)
	k.WriteKernelMemory(textVA, text)
	k.MapKernelRange(textVA, uint64(len(text))+mmu.PageSize, mmu.KernelText)
	if d := linked.Sections[".moddata"]; d != nil && len(d.Bytes) > 0 {
		k.WriteKernelMemory(dataVA, d.Bytes)
		k.MapKernelRange(dataVA, uint64(len(d.Bytes))+mmu.PageSize, mmu.KernelData)
	} else {
		k.MapKernelRange(dataVA, mmu.PageSize, mmu.KernelData)
	}
	p := linked.Sections[".modpauth"]
	k.WriteKernelMemory(pauthVA, p.Bytes)
	k.MapKernelRange(pauthVA, uint64(len(p.Bytes))+mmu.PageSize, mmu.KernelData)

	// 4. Sign the module's static pointers in place, as guest code, with
	// the kernel's own routine (the keys never leave the machine).
	if (img.cfgDFI(k) || img.cfgFwd(k)) && len(img.pauth) > 0 {
		if err := k.CallGuestRegs(k.Img.Symbols["sign_ptr_table"],
			map[insn.Reg]uint64{insn.X10: linked.Symbols["mod_pauth_table"]}); err != nil {
			return nil, fmt.Errorf("module %s: pointer signing: %w", img.name, err)
		}
	}

	// 5. Register exported drivers.
	for i, pathID := range paths {
		k.RegisterDriverOps(pathID, opsVAs[i])
	}

	return &Loaded{
		Name:     img.name,
		Symbols:  linked.Symbols,
		TextBase: textVA,
		DataBase: dataVA,
	}, nil
}

func (img *Image) cfgDFI(k *kernel.Kernel) bool { return k.Cfg.DFI }
func (img *Image) cfgFwd(k *kernel.Kernel) bool { return k.Cfg.ForwardCFI }

// SignedPtrAuthenticates checks (host-side) that a module slot was signed
// correctly during load.
func SignedPtrAuthenticates(k *kernel.Kernel, slotVA, objVA uint64, tc uint16, instructionKey bool) (uint64, bool) {
	v := k.CPU.Bus.RAM.Read64(kernel.KVAToPA(slotVA))
	mod := pac.ObjectModifier(objVA, tc)
	id := pac.KeyDB
	if instructionKey {
		id = pac.KeyIA
	}
	return k.CPU.Signer.Auth(v, mod, id)
}
