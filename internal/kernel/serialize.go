package kernel

// Snapshot persistence: the deterministic wire codec for State, the
// kernel half of the content-addressed snapshot store (DESIGN.md §12).
//
// The format splits a snapshot along the mutable/derivable line:
//
//   - The built image and codegen configuration are NOT serialized.
//     Construction is deterministic (pinned by the fork≡boot tests), so
//     the load path re-derives them from the manifest's build options via
//     the same buildLinked pipeline New uses, then re-runs the §4.1
//     static verifier — a loaded snapshot passes exactly the gates a
//     fresh boot does.
//   - Frozen guest RAM is NOT in the blob either: pages are exported
//     separately so the store can chunk them content-addressed and dedup
//     across snapshots of the same image.
//   - Everything else — vCPU register files, MMU tables, hypervisor
//     latch, device state, PRNG position, host mirrors — is encoded
//     field-by-field with fixed ordering and sorted map iteration, so
//     equal states produce equal bytes and the store's whole-snapshot
//     SHA-256 is a stable content address across processes and restarts.
//
// The codec is versioned; any layout change must bump stateWireVersion
// (old blobs are refused, never misparsed).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

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
	stateWireVersion = 1
)

// ErrStateNotPortable marks a State that cannot be serialized: it holds
// registered user programs, whose built images live outside the
// deterministic kernel build (callers register them per fork). The pool
// only persists post-boot snapshots, which never carry programs.
var ErrStateNotPortable = errors.New("kernel: state holds registered user programs; only program-free (post-boot) snapshots are serializable")

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
func (e *wireEnc) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
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
	keySetWire  = pac.NumKeys * 16
	pteWire     = 3 * 8 // pn, pa, perm
	s2Wire      = 8 + 3 // pn, r, w, x
	bytesWire   = 8     // an empty byte string is its length
	sectorWire  = 8 + mem.SectorSize
	taskWire    = 9*8 + keySetWire
	currentWire = 1     // the present flag of an idle core
	tableWire   = 8 + 8 // pid, entry count
	pipeWire    = 8 + bytesWire
	fileWire    = 5 * 8
	opsWire     = 8 + 8
	oopsWire    = 3*8 + 2 + 8
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

func (d *wireDec) bytes(what string) []byte {
	n := d.u64(what)
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(what)
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:d.off+int(n)])
	d.off += int(n)
	return out
}

func (d *wireDec) keys(what string) pac.KeySet {
	var ks pac.KeySet
	for i := range ks.Keys {
		ks.Keys[i].Hi = d.u64(what)
		ks.Keys[i].Lo = d.u64(what)
	}
	return ks
}

// --- accessors the store builds manifests from ---

// Options returns the normalized build options the captured machine was
// constructed with (the manifest's identity half).
func (st *State) Options() Options { return st.opts }

// ForEachFrozenPage iterates the copy-on-write RAM base in ascending
// page-number order; the store chunks each page content-addressed. Pages
// must be treated as read-only.
func (st *State) ForEachFrozenPage(fn func(pn uint64, pg *[mem.PageSize]byte)) {
	st.frozen.ForEachPage(fn)
}

// ImageDigest returns the SHA-256 of the built image's linked sections
// (sorted by name), the identity snapshots of one build share — the
// store groups snapshots by it for /v1/images and page-chunk dedup
// reporting.
func (st *State) ImageDigest() string {
	h := sha256.New()
	names := make([]string, 0, len(st.img.Sections))
	for name := range st.img.Sections {
		names = append(names, name)
	}
	sort.Strings(names)
	var tmp [8]byte
	for _, name := range names {
		s := st.img.Sections[name]
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(tmp[:], s.Base)
		h.Write(tmp[:])
		binary.LittleEndian.PutUint64(tmp[:], uint64(len(s.Bytes)))
		h.Write(tmp[:])
		h.Write(s.Bytes)
	}
	return hex.EncodeToString(h.Sum(nil))
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
	e.boolean(bool(opts.Compat))
	e.boolean(opts.V80)
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
	opts.Compat = boot.Compat(d.boolean("options.compat"))
	opts.V80 = d.boolean("options.v80")
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

func encodeTask(e *wireEnc, t Task) {
	e.i64(t.PID)
	e.i64(t.PPID)
	e.u64(t.Addr)
	e.u64(t.StackTop)
	e.i64(t.State)
	e.keys(t.Keys)
	e.u64(t.SigHandler)
	e.u64(t.SavedELR)
	e.i64(t.ProgID)
	e.i64(t.CPU)
}

func decodeTask(d *wireDec) Task {
	var t Task
	t.PID = d.i64("task.pid")
	t.PPID = d.i64("task.ppid")
	t.Addr = d.u64("task.addr")
	t.StackTop = d.u64("task.stacktop")
	t.State = d.i64("task.state")
	t.Keys = d.keys("task.keys")
	t.SigHandler = d.u64("task.sighandler")
	t.SavedELR = d.u64("task.savedelr")
	t.ProgID = d.i64("task.progid")
	t.CPU = d.i64("task.cpu")
	return t
}

func sortedInts[K int | uint64, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Serialize encodes the state (minus frozen RAM pages and the derivable
// image) into the deterministic wire form: equal states yield equal
// bytes. States holding registered user programs are refused with
// ErrStateNotPortable.
func (st *State) Serialize() ([]byte, error) {
	if len(st.programs) > 0 {
		return nil, ErrStateNotPortable
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

	e.bytes(st.uart)
	nw := st.net.Wire()
	e.i64(len(nw.RX))
	for _, pkt := range nw.RX {
		e.bytes(pkt)
	}
	e.i64(nw.RXOff)
	e.u64(nw.RXCount)
	e.u64(nw.TXBytes)
	bw := st.blk.Wire()
	e.i64(len(bw.Sectors))
	for i := range bw.Sectors {
		e.u64(bw.Sectors[i].N)
		e.buf = append(e.buf, bw.Sectors[i].Data[:]...)
	}
	e.u64(bw.Cur)
	e.i64(bw.Off)
	e.u64(bw.Reads)
	e.u64(bw.Writes)

	e.u64(st.heapNext)
	e.i64(st.nextPID)
	e.i64(len(st.tasks))
	for _, pid := range sortedInts(st.tasks) {
		encodeTask(e, st.tasks[pid])
	}
	e.i64(len(st.currents))
	for i, cur := range st.currents {
		e.boolean(cur != nil)
		if cur != nil {
			e.i64(st.currentPIDs[i])
			encodeTask(e, *cur)
		}
	}
	e.i64(len(st.parked))
	for _, p := range st.parked {
		e.boolean(p)
	}
	e.i64(st.activeCPU)

	e.i64(len(st.tables))
	for _, pid := range sortedInts(st.tables) {
		e.i64(pid)
		entries := st.tables[pid].Export()
		e.i64(len(entries))
		for _, en := range entries {
			e.u64(en.PN)
			e.u64(en.PTE.PA)
			e.u64(uint64(en.PTE.Perm))
		}
	}

	e.i64(len(st.pipes))
	for _, id := range sortedInts(st.pipes) {
		e.u64(id)
		e.bytes(st.pipes[id])
	}
	e.u64(st.nextPipe)
	e.i64(len(st.files))
	for _, va := range sortedInts(st.files) {
		f := st.files[va]
		e.u64(va)
		e.u64(f.addr)
		e.u64(f.opsVA)
		e.i64(f.pathID)
		e.u64(f.inode)
	}
	e.u64(st.credObj)
	e.i64(len(st.extraOps))
	for _, path := range sortedInts(st.extraOps) {
		e.i64(path)
		e.u64(st.extraOps[path])
	}
	e.u64(st.modNext)
	e.i64(st.pacFailures)
	e.i64(st.threshold)
	e.i64(len(st.oops))
	for _, o := range st.oops {
		e.u64(o.ESR)
		e.u64(o.FAR)
		e.u64(o.ELR)
		e.boolean(o.Kernel)
		e.boolean(o.PACFailure)
		e.i64(o.PID)
	}
	e.boolean(st.halted)
	for _, v := range st.svcCalls {
		e.u64(v)
	}
	e.u64(st.bootCycles)
	return e.buf, nil
}

// DeserializeState rebuilds a State from its wire form plus the frozen
// RAM pages the store reassembled from verified chunks. The blob is
// decoded in full first — every length prefix checked against the bytes
// left before anything is allocated — so a corrupt blob fails fast with
// a *StateDecodeError. The immutable half — built image, codegen config
// — is then re-derived from the encoded options through the same
// deterministic pipeline New uses, and §4.1 re-verified; the blob's
// kernel keys must match the rebuilt image's (they are a pure function
// of the seed), which catches blobs paired with the wrong options.
// Pages are owned by the result: callers must hand over fresh arrays and
// never write them again.
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
	if d.err == nil && (ncpus < 1 || ncpus > MaxCPUs) {
		d.failf("ncpus", "%d vCPUs (max %d)", ncpus, MaxCPUs)
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

	st.uart = d.bytes("uart")
	var nw mem.NetDevWire
	nRX := d.count("net.rx.len", bytesWire)
	for i := 0; i < nRX && d.err == nil; i++ {
		nw.RX = append(nw.RX, d.bytes("net.rx"))
	}
	nw.RXOff = d.i64("net.rxoff")
	nw.RXCount = d.u64("net.rxcount")
	nw.TXBytes = d.u64("net.txbytes")
	st.net = nw.State()
	var bw mem.BlockDevWire
	nSec := d.count("blk.len", sectorWire)
	for i := 0; i < nSec && d.err == nil; i++ {
		var s mem.BlockSectorWire
		s.N = d.u64("blk.n")
		if d.off+mem.SectorSize > len(d.buf) {
			d.fail("blk.data")
			break
		}
		copy(s.Data[:], d.buf[d.off:d.off+mem.SectorSize])
		d.off += mem.SectorSize
		bw.Sectors = append(bw.Sectors, s)
	}
	bw.Cur = d.u64("blk.cur")
	bw.Off = d.i64("blk.off")
	bw.Reads = d.u64("blk.reads")
	bw.Writes = d.u64("blk.writes")
	st.blk = bw.State()

	st.heapNext = d.u64("heapNext")
	st.nextPID = d.i64("nextPID")
	nTasks := d.count("tasks.len", taskWire)
	st.tasks = make(map[int]Task, nTasks)
	for i := 0; i < nTasks && d.err == nil; i++ {
		t := decodeTask(d)
		st.tasks[t.PID] = t
	}
	nCur := d.count("currents.len", currentWire)
	st.currentPIDs = make([]int, nCur)
	st.currents = make([]*Task, nCur)
	for i := 0; i < nCur && d.err == nil; i++ {
		if d.boolean("currents.present") {
			st.currentPIDs[i] = d.i64("currents.pid")
			t := decodeTask(d)
			st.currents[i] = &t
		}
	}
	nParked := d.count("parked.len", 1)
	for i := 0; i < nParked && d.err == nil; i++ {
		st.parked = append(st.parked, d.boolean("parked"))
	}
	st.activeCPU = d.i64("activeCPU")

	nTables := d.count("tables.len", tableWire)
	st.tables = make(map[int]*mmu.Table, nTables)
	for i := 0; i < nTables && d.err == nil; i++ {
		pid := d.i64("tables.pid")
		n := d.count("tables.entries", pteWire)
		entries := make([]mmu.TableEntryWire, 0, n)
		for j := 0; j < n && d.err == nil; j++ {
			pn := d.u64("tables.pn")
			pa := d.u64("tables.pa")
			perm := mmu.Perm(d.u64("tables.perm"))
			entries = append(entries, mmu.TableEntryWire{PN: pn, PTE: mmu.PTE{PA: pa, Perm: perm}})
		}
		st.tables[pid] = mmu.NewTableFromEntries(entries)
	}

	nPipes := d.count("pipes.len", pipeWire)
	st.pipes = make(map[uint64][]byte, nPipes)
	for i := 0; i < nPipes && d.err == nil; i++ {
		id := d.u64("pipes.id")
		st.pipes[id] = d.bytes("pipes.buf")
	}
	st.nextPipe = d.u64("nextPipe")
	nFiles := d.count("files.len", fileWire)
	st.files = make(map[uint64]fileState, nFiles)
	for i := 0; i < nFiles && d.err == nil; i++ {
		va := d.u64("files.va")
		var f fileState
		f.addr = d.u64("files.addr")
		f.opsVA = d.u64("files.opsva")
		f.pathID = d.i64("files.pathid")
		f.inode = d.u64("files.inode")
		st.files[va] = f
	}
	st.credObj = d.u64("credObj")
	nOps := d.count("extraOps.len", opsWire)
	st.extraOps = make(map[int]uint64, nOps)
	for i := 0; i < nOps && d.err == nil; i++ {
		path := d.i64("extraOps.path")
		st.extraOps[path] = d.u64("extraOps.ops")
	}
	st.modNext = d.u64("modNext")
	st.pacFailures = d.i64("pacFailures")
	st.threshold = d.i64("threshold")
	nOops := d.count("oops.len", oopsWire)
	for i := 0; i < nOops && d.err == nil; i++ {
		var o OopsRecord
		o.ESR = d.u64("oops.esr")
		o.FAR = d.u64("oops.far")
		o.ELR = d.u64("oops.elr")
		o.Kernel = d.boolean("oops.kernel")
		o.PACFailure = d.boolean("oops.pacfailure")
		o.PID = d.i64("oops.pid")
		st.oops = append(st.oops, o)
	}
	st.halted = d.boolean("halted")
	for i := range st.svcCalls {
		st.svcCalls[i] = d.u64("svcCalls")
	}
	st.bootCycles = d.u64("bootCycles")
	st.programs = make(map[int]*Program)

	if d.err == nil && d.off != len(d.buf) {
		d.failf("end", "%d trailing bytes", len(d.buf)-d.off)
	}
	if d.err == nil && (len(st.cpus) != len(st.currents) || len(st.cpus) != len(st.parked)) {
		d.failf("end", "core-count mismatch (%d cpus, %d currents, %d parked)",
			len(st.cpus), len(st.currents), len(st.parked))
	}
	if d.err != nil {
		return nil, d.err
	}

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
	st.img, st.keys = img, keys
	return st, nil
}
