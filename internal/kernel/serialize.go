package kernel

// Snapshot persistence: the deterministic wire codec for State, the
// kernel half of the persistent snapshot store (DESIGN.md §12).
//
// The format splits a snapshot along the mutable/derivable line:
//
//   - The built image and codegen configuration are NOT serialized.
//     Construction is deterministic (pinned by the fork≡boot tests), so
//     the load path re-derives them from the blob's build options via
//     the same buildLinked pipeline New uses, then re-runs the §4.1
//     static verifier — a loaded snapshot passes exactly the gates a
//     fresh boot does — and requires the frozen pages under the
//     image's read-only sections to hold that image, since forks run
//     those pages.
//   - Frozen guest RAM is NOT in the blob either: pages are exported
//     separately, and the store writes them after the blob in the same
//     snapshot file.
//   - What a booted machine holds — vCPU register files, MMU tables,
//     hypervisor latch, PRNG position, the host scalars — is encoded
//     field-by-field in a fixed order, so equal states produce equal
//     bytes and the store's whole-snapshot SHA-256 is a stable content
//     address across processes and restarts.
//   - What only a running machine holds — tasks, user page tables,
//     pipes, open files, driver ops, oops records, service counts and
//     device queues — has no wire form: Serialize refuses a state that
//     holds any of it, and DeserializeState rebuilds it empty.
//
// The codec is versioned; any layout change must bump stateWireVersion
// (old blobs are refused, never misparsed).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"camouflage/internal/asm"
	"camouflage/internal/boot"
	"camouflage/internal/codegen"
	"camouflage/internal/cpu"
	"camouflage/internal/mem"
	"camouflage/internal/mmu"
	"camouflage/internal/pac"
)

// stateWireMagic and stateWireVersion head every serialized state blob.
const (
	stateWireMagic   = "camoSTATE"
	stateWireVersion = 3
)

// ErrStateNotPortable marks a State that cannot be serialized: it holds
// what only a running machine holds (registered user programs, tasks,
// user page tables, pipes, open files, driver ops, oops records,
// service counts or device queues). The store only persists post-boot
// snapshots, which hold none of it.
var ErrStateNotPortable = errors.New("kernel: state is not a booted machine's; only post-boot snapshots are serializable")

// --- little-endian append/consume helpers ---

type wireEnc struct{ buf []byte }

func (e *wireEnc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *wireEnc) i64(v int)    { e.u64(uint64(int64(v))) }
func (e *wireEnc) boolean(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}
func (e *wireEnc) keys(ks pac.KeySet) {
	for _, k := range ks.Keys {
		e.u64(k.Hi)
		e.u64(k.Lo)
	}
}

// StateDecodeError is the error DeserializeState returns for every blob
// it refuses: bad magic or version, truncation, a length prefix the
// bytes left cannot hold, a field out of range, trailing bytes, or
// build options that do not rebuild the image the blob was captured
// from.
type StateDecodeError struct {
	// Field names the wire field decoding stopped at ("" for checks on
	// the blob as a whole).
	Field string
	// Off is the blob offset of that field.
	Off int
	// Msg says what is wrong there.
	Msg string
	// Err is the underlying cause when the image rebuild or its §4.1
	// verification failed.
	Err error
}

func (e *StateDecodeError) Error() string {
	msg := "kernel: bad state blob"
	if e.Field != "" {
		msg += fmt.Sprintf(" at %s (offset %d)", e.Field, e.Off)
	}
	msg += ": " + e.Msg
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *StateDecodeError) Unwrap() error { return e.Err }

// Minimum encoded sizes of the repeated wire entries: every length
// prefix is checked against the bytes left at its entry's size before
// anything is allocated for it.
const (
	pteWire = 3 * 8 // pn, pa, perm
	s2Wire  = 8 + 3 // pn, r, w, x
)

type wireDec struct {
	buf []byte
	off int
	err error
}

func (d *wireDec) failf(what, format string, args ...any) {
	if d.err == nil {
		d.err = &StateDecodeError{Field: what, Off: d.off, Msg: fmt.Sprintf(format, args...)}
	}
}

func (d *wireDec) fail(what string) {
	d.failf(what, "truncated (%d bytes)", len(d.buf))
}

// count reads a length prefix and refuses one the bytes left cannot
// hold at minSize bytes per entry, so no corrupt count ever sizes an
// allocation or a decode loop.
func (d *wireDec) count(what string, minSize int) int {
	n := d.u64(what)
	if d.err != nil {
		return 0
	}
	if left := uint64(len(d.buf) - d.off); n > left/uint64(minSize) {
		d.failf(what, "length %d exceeds the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

func (d *wireDec) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *wireDec) i64(what string) int { return int(int64(d.u64(what))) }

func (d *wireDec) boolean(what string) bool {
	if d.err != nil {
		return false
	}
	if d.off+1 > len(d.buf) {
		d.fail(what)
		return false
	}
	v := d.buf[d.off]
	d.off++
	return v != 0
}

func (d *wireDec) keys(what string) pac.KeySet {
	var ks pac.KeySet
	for i := range ks.Keys {
		ks.Keys[i].Hi = d.u64(what)
		ks.Keys[i].Lo = d.u64(what)
	}
	return ks
}

// --- accessors the store reads ---

// Options returns the normalized build options the captured machine was
// constructed with; a loaded snapshot's must derive the key its file is
// named by.
func (st *State) Options() Options { return st.opts }

// ForEachFrozenPage iterates the copy-on-write RAM base in ascending
// page-number order, the order the store writes pages after the state
// record. Pages must be treated as read-only.
func (st *State) ForEachFrozenPage(fn func(pn uint64, pg *[mem.PageSize]byte)) {
	st.frozen.ForEachPage(fn)
}

// --- encode ---

// optionsWire appends the normalized build options. Every field that
// shapes the post-boot state participates, mirroring snapshot.KeyFor.
func encodeOptions(e *wireEnc, opts Options) {
	cfg := opts.Config
	e.u64(uint64(cfg.Scheme))
	e.boolean(cfg.ForwardCFI)
	e.boolean(cfg.DFI)
	e.boolean(cfg.ZeroModifier)
	e.i64(cfg.NumCPUs)
	e.u64(opts.Seed)
	e.boolean(opts.V80()) // compat
	e.boolean(opts.V80())
	e.i64(opts.FailureThreshold)
}

func decodeOptions(d *wireDec) Options {
	cfg := &codegen.Config{}
	cfg.Scheme = codegen.Scheme(d.u64("options.scheme"))
	cfg.ForwardCFI = d.boolean("options.fwd")
	cfg.DFI = d.boolean("options.dfi")
	cfg.ZeroModifier = d.boolean("options.zmod")
	cfg.NumCPUs = d.i64("options.cpus")
	opts := Options{Config: cfg}
	opts.Seed = d.u64("options.seed")
	compat, v80 := d.boolean("options.compat"), d.boolean("options.v80")
	if d.err == nil && (compat != opts.V80() || v80 != opts.V80()) {
		d.failf("options.v80", "compat=%t v80=%t, scheme %d wants %t", compat, v80, cfg.Scheme, opts.V80())
	}
	opts.FailureThreshold = d.i64("options.threshold")
	return opts
}

func encodeCPU(e *wireEnc, cs cpu.State) {
	for _, x := range cs.X {
		e.u64(x)
	}
	e.u64(cs.PC)
	e.i64(cs.EL)
	e.boolean(cs.N)
	e.boolean(cs.Z)
	e.boolean(cs.C)
	e.boolean(cs.V)
	e.boolean(cs.IRQMasked)
	e.u64(cs.SP[0])
	e.u64(cs.SP[1])
	e.u64(cs.SCTLR)
	e.u64(cs.VBAR)
	e.u64(cs.ELR)
	e.u64(cs.SPSR)
	e.u64(cs.ESR)
	e.u64(cs.FAR)
	e.u64(cs.TTBR0)
	e.u64(cs.TTBR1)
	e.u64(cs.CONTEXTIDR)
	e.u64(cs.TPIDR)
	e.u64(cs.TPIDR0)
	e.keys(cs.Keys)
	e.u64(cs.Cycles)
	e.u64(cs.Retired)
	e.u64(cs.PACFailures)
	e.boolean(cs.IRQPending)
}

func decodeCPU(d *wireDec) cpu.State {
	var cs cpu.State
	for i := range cs.X {
		cs.X[i] = d.u64("cpu.x")
	}
	cs.PC = d.u64("cpu.pc")
	cs.EL = d.i64("cpu.el")
	cs.N = d.boolean("cpu.n")
	cs.Z = d.boolean("cpu.z")
	cs.C = d.boolean("cpu.c")
	cs.V = d.boolean("cpu.v")
	cs.IRQMasked = d.boolean("cpu.irqmask")
	cs.SP[0] = d.u64("cpu.sp0")
	cs.SP[1] = d.u64("cpu.sp1")
	cs.SCTLR = d.u64("cpu.sctlr")
	cs.VBAR = d.u64("cpu.vbar")
	cs.ELR = d.u64("cpu.elr")
	cs.SPSR = d.u64("cpu.spsr")
	cs.ESR = d.u64("cpu.esr")
	cs.FAR = d.u64("cpu.far")
	cs.TTBR0 = d.u64("cpu.ttbr0")
	cs.TTBR1 = d.u64("cpu.ttbr1")
	cs.CONTEXTIDR = d.u64("cpu.contextidr")
	cs.TPIDR = d.u64("cpu.tpidr")
	cs.TPIDR0 = d.u64("cpu.tpidr0")
	cs.Keys = d.keys("cpu.keys")
	cs.Cycles = d.u64("cpu.cycles")
	cs.Retired = d.u64("cpu.retired")
	cs.PACFailures = d.u64("cpu.pacfailures")
	cs.IRQPending = d.boolean("cpu.irqpending")
	return cs
}

// runningState names the first thing the state holds that only a
// running machine holds, or returns "" for a booted machine's state:
// none of it has a wire form.
func (st *State) runningState() string {
	switch {
	case len(st.programs) > 0:
		return "registered user programs"
	case len(st.tasks) > 0:
		return "tasks"
	case slices.ContainsFunc(st.currents, func(t *Task) bool { return t != nil }):
		return "current tasks"
	case len(st.tables) > 0:
		return "user page tables"
	case len(st.pipes) > 0:
		return "pipes"
	case len(st.files) > 0:
		return "open files"
	case len(st.extraOps) > 0:
		return "driver ops"
	case len(st.oops) > 0:
		return "oops records"
	case st.svcCalls != [SvcMax]uint64{}:
		return "service-call counts"
	case len(st.uart) > 0:
		return "UART output"
	case !st.net.Idle():
		return "NIC state"
	case !st.blk.Idle():
		return "block-device state"
	}
	return ""
}

// Serialize encodes the state (minus frozen RAM pages and the derivable
// image) into the deterministic wire form: equal states yield equal
// bytes. A state holding anything only a running machine holds is
// refused with ErrStateNotPortable.
func (st *State) Serialize() ([]byte, error) {
	if what := st.runningState(); what != "" {
		return nil, fmt.Errorf("%w (it holds %s)", ErrStateNotPortable, what)
	}
	e := &wireEnc{buf: make([]byte, 0, 4096)}
	e.buf = append(e.buf, stateWireMagic...)
	e.u64(stateWireVersion)

	encodeOptions(e, st.opts)
	e.keys(st.keys)
	for _, s := range st.rng.State() {
		e.u64(s)
	}

	e.i64(len(st.cpus))
	for _, cs := range st.cpus {
		encodeCPU(e, cs)
	}
	e.boolean(st.mmuOn)

	tt1 := st.tt1.Export()
	e.i64(len(tt1))
	for _, en := range tt1 {
		e.u64(en.PN)
		e.u64(en.PTE.PA)
		e.u64(uint64(en.PTE.Perm))
	}
	s2, s2on := st.s2.Export()
	e.boolean(s2on)
	e.i64(len(s2))
	for _, en := range s2 {
		e.u64(en.PN)
		e.boolean(en.Perm.R)
		e.boolean(en.Perm.W)
		e.boolean(en.Perm.X)
	}

	e.boolean(st.hyp.Lockdown)
	e.u64(st.hyp.DeniedWrites)
	e.keys(st.hyp.Escrow)
	e.u64(st.hyp.TrapInstalls)

	e.u64(st.heapNext)
	e.i64(st.nextPID)
	e.i64(len(st.parked))
	for _, p := range st.parked {
		e.boolean(p)
	}
	e.u64(uint64(st.bootHalt))
	e.i64(st.activeCPU)
	e.u64(st.nextPipe)
	e.u64(st.credObj)
	e.u64(st.modNext)
	e.i64(st.pacFailures)
	e.i64(st.threshold)
	e.boolean(st.halted)
	e.u64(st.bootCycles)
	return e.buf, nil
}

// DeserializeState rebuilds a State from its wire form plus the frozen
// RAM pages the store read from the snapshot file. The blob is decoded
// in full first — every length prefix checked against the bytes left
// before anything is allocated — so a corrupt blob fails fast with a
// *StateDecodeError. What only a running machine holds comes back
// empty, as a booted machine holds it. The immutable half — built
// image, codegen config — is then re-derived from the encoded options
// through the same deterministic pipeline New uses, and §4.1
// re-verified; the blob's kernel keys must match the rebuilt image's
// (they are a pure function of the seed), which catches blobs paired
// with the wrong options, and the pages under the image's read-only
// sections must hold the image (checkImagePages). Pages are owned by
// the result: callers must hand over fresh arrays and never write them
// again.
func DeserializeState(blob []byte, pages map[uint64]*[mem.PageSize]byte) (*State, error) {
	if len(blob) < len(stateWireMagic) || string(blob[:len(stateWireMagic)]) != stateWireMagic {
		return nil, &StateDecodeError{Msg: "not a state blob (bad magic)"}
	}
	d := &wireDec{buf: blob, off: len(stateWireMagic)}
	if v := d.u64("version"); d.err == nil && v != stateWireVersion {
		d.failf("version", "version %d, want %d", v, stateWireVersion)
	}

	opts := decodeOptions(d)
	if d.err == nil && (opts.Config.Scheme < codegen.SchemeNone || opts.Config.Scheme > codegen.SchemeCamouflageCompat) {
		d.failf("options.scheme", "unknown scheme %d", opts.Config.Scheme)
	}
	if n := opts.Config.NumCPUs; d.err == nil && (n < 0 || n > MaxCPUs) {
		d.failf("options.cpus", "%d vCPUs (max %d)", n, MaxCPUs)
	}
	wireKeys := d.keys("keys")
	var rngState [4]uint64
	for i := range rngState {
		rngState[i] = d.u64("rng")
	}
	st := &State{
		cfg:    opts.Config,
		opts:   opts,
		rng:    boot.NewPRNGFromState(rngState),
		frozen: mem.NewFrozenFromPages(pages),
	}

	ncpus := d.i64("ncpus")
	if d.err == nil && ncpus != opts.Config.CPUs() {
		d.failf("ncpus", "%d vCPUs, the options build %d", ncpus, opts.Config.CPUs())
	}
	for i := 0; i < ncpus && d.err == nil; i++ {
		st.cpus = append(st.cpus, decodeCPU(d))
	}
	st.mmuOn = d.boolean("mmuOn")

	nTT1 := d.count("tt1.len", pteWire)
	tt1 := make([]mmu.TableEntryWire, 0, nTT1)
	for i := 0; i < nTT1 && d.err == nil; i++ {
		pn := d.u64("tt1.pn")
		pa := d.u64("tt1.pa")
		perm := mmu.Perm(d.u64("tt1.perm"))
		tt1 = append(tt1, mmu.TableEntryWire{PN: pn, PTE: mmu.PTE{PA: pa, Perm: perm}})
	}
	st.tt1 = mmu.NewTableFromEntries(tt1)
	s2on := d.boolean("s2.enabled")
	nS2 := d.count("s2.len", s2Wire)
	s2 := make([]mmu.S2EntryWire, 0, nS2)
	for i := 0; i < nS2 && d.err == nil; i++ {
		var en mmu.S2EntryWire
		en.PN = d.u64("s2.pn")
		en.Perm.R = d.boolean("s2.r")
		en.Perm.W = d.boolean("s2.w")
		en.Perm.X = d.boolean("s2.x")
		s2 = append(s2, en)
	}
	st.s2 = mmu.NewStage2FromEntries(s2, s2on)

	st.hyp.Lockdown = d.boolean("hyp.lockdown")
	st.hyp.DeniedWrites = d.u64("hyp.denied")
	st.hyp.Escrow = d.keys("hyp.escrow")
	st.hyp.TrapInstalls = d.u64("hyp.traps")

	st.heapNext = d.u64("heapNext")
	st.nextPID = d.i64("nextPID")
	nParked := d.count("parked.len", 1)
	for i := 0; i < nParked && d.err == nil; i++ {
		st.parked = append(st.parked, d.boolean("parked"))
	}
	if v := d.u64("bootHalt"); d.err == nil && v > math.MaxUint16 {
		d.failf("bootHalt", "HLT code %#x exceeds 16 bits", v)
	} else {
		st.bootHalt = uint16(v)
	}
	st.activeCPU = d.i64("activeCPU")
	st.nextPipe = d.u64("nextPipe")
	st.credObj = d.u64("credObj")
	st.modNext = d.u64("modNext")
	st.pacFailures = d.i64("pacFailures")
	st.threshold = d.i64("threshold")
	st.halted = d.boolean("halted")
	st.bootCycles = d.u64("bootCycles")

	if d.err == nil && d.off != len(d.buf) {
		d.failf("end", "%d trailing bytes", len(d.buf)-d.off)
	}
	if d.err == nil && len(st.cpus) != len(st.parked) {
		d.failf("end", "core-count mismatch (%d cpus, %d parked)", len(st.cpus), len(st.parked))
	}
	if d.err != nil {
		return nil, d.err
	}
	st.currents = make([]*Task, len(st.cpus)) // every core idle

	img, keys, _, err := buildLinked(opts)
	if err != nil {
		return nil, &StateDecodeError{Msg: "rebuild image from snapshot options", Err: err}
	}
	if err := VerifyImage(img); err != nil {
		return nil, &StateDecodeError{Msg: "verify rebuilt snapshot image", Err: err}
	}
	if keys != wireKeys {
		return nil, &StateDecodeError{Msg: "keys do not match the image rebuilt from its options (blob/options mismatch)"}
	}
	if err := checkImagePages(img, pages); err != nil {
		return nil, err
	}
	st.img, st.keys = img, keys
	return st, nil
}

// imageSections are the sections no booted machine writes: their RAM
// pages must equal the rebuilt image, which is what §4.1 verified.
// Forks execute the frozen pages, not the image, so without this check
// a snapshot file could carry code the verifier never saw. .data is
// left out, since boot writes it.
var imageSections = []string{".vectors", ".xom", ".text", ".rodata"}

// checkImagePages compares every page the image sections map (each
// section rounded up to whole pages, as New maps it) with the image's
// bytes, zero past the section's end. A page the file lacks reads as
// zeros.
func checkImagePages(img *asm.Image, pages map[uint64]*[mem.PageSize]byte) error {
	var want, zero [mem.PageSize]byte
	for _, name := range imageSections {
		s := img.Sections[name]
		if s == nil {
			continue
		}
		pa := KVAToPA(s.Base)
		for off := 0; off < len(s.Bytes); off += mem.PageSize {
			clear(want[copy(want[:], s.Bytes[off:]):])
			got := pages[(pa+uint64(off))/mem.PageSize]
			if got == nil {
				got = &zero
			}
			if *got != want {
				return &StateDecodeError{Msg: fmt.Sprintf("%s page at PA %#x differs from the image rebuilt from its options", name, pa+uint64(off))}
			}
		}
	}
	return nil
}
