package mem

import (
	"testing"
	"testing/quick"
)

func TestPhysReadWriteRoundTrip(t *testing.T) {
	p := NewPhys()
	f := func(addr uint32, v uint64) bool {
		a := uint64(addr)
		p.Write64(a, v)
		return p.Read64(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPhysZeroFill(t *testing.T) {
	p := NewPhys()
	if p.Read64(0x1234) != 0 || p.Read8(0xFFFF_FFFF) != 0 {
		t.Fatal("untouched memory not zero")
	}
	if p.PopulatedPages() != 0 {
		t.Fatal("reads must not allocate pages")
	}
}

func TestPhysCrossPage(t *testing.T) {
	p := NewPhys()
	addr := uint64(PageSize - 3) // straddles the first page boundary
	p.Write64(addr, 0x1122334455667788)
	if got := p.Read64(addr); got != 0x1122334455667788 {
		t.Fatalf("cross-page read = %#x", got)
	}
	if got := p.Read8(PageSize - 3); got != 0x88 {
		t.Fatalf("low byte = %#x", got)
	}
	if got := p.Read8(PageSize); got != 0x55 {
		t.Fatalf("page-start byte = %#x, want 0x55", got)
	}
}

func TestPhysBytes(t *testing.T) {
	p := NewPhys()
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	p.WriteBytes(100, data)
	got := p.ReadBytes(100, len(data))
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], data[i])
		}
	}
}

func TestPhys32(t *testing.T) {
	p := NewPhys()
	p.Write32(8, 0xDEADBEEF)
	if got := p.Read32(8); got != 0xDEADBEEF {
		t.Fatalf("Read32 = %#x", got)
	}
	if got := p.Read64(8); got != 0xDEADBEEF {
		t.Fatalf("Read64 over Write32 = %#x", got)
	}
	// Little-endian layout.
	if p.Read8(8) != 0xEF || p.Read8(11) != 0xDE {
		t.Fatal("not little-endian")
	}
}

func TestBusRAMFallthrough(t *testing.T) {
	b := NewBus()
	if err := b.Store(0x1000, 8, 42); err != nil {
		t.Fatal(err)
	}
	v, err := b.Load(0x1000, 8)
	if err != nil || v != 42 {
		t.Fatalf("Load = (%d, %v)", v, err)
	}
	if _, err := b.Load(0, 3); err == nil {
		t.Error("bad size accepted")
	}
}

func TestBusDeviceWindow(t *testing.T) {
	b := NewBus()
	u := &UART{}
	if err := b.Map(0x0900_0000, 0x1000, u); err != nil {
		t.Fatal(err)
	}
	for _, c := range []byte("hi") {
		if err := b.Store(0x0900_0000+UARTTx, 1, uint64(c)); err != nil {
			t.Fatal(err)
		}
	}
	if u.Output() != "hi" {
		t.Fatalf("UART output = %q", u.Output())
	}
	st, _ := b.Load(0x0900_0000+UARTStatus, 4)
	if st != 1 {
		t.Fatalf("UART status = %d", st)
	}
	// Overlapping window rejected.
	if err := b.Map(0x0900_0800, 0x1000, &UART{}); err == nil {
		t.Error("overlapping map accepted")
	}
	// RAM unaffected next to the window.
	if err := b.Store(0x0901_0000, 8, 7); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Load(0x0901_0000, 8); v != 7 {
		t.Fatal("RAM write adjacent to device window lost")
	}
}

func TestNetDev(t *testing.T) {
	n := &NetDev{}
	n.InjectPacket([]byte("0123456789AB")) // 12 bytes
	avail, _ := n.Load(NetRxAvail, 8)
	if avail != 12 {
		t.Fatalf("avail = %d", avail)
	}
	w1, _ := n.Load(NetRxData, 8)
	if w1 != 0x3736353433323130 {
		t.Fatalf("first word = %#x", w1)
	}
	w2, _ := n.Load(NetRxData, 8)
	if byte(w2) != '8' {
		t.Fatalf("second word low byte = %c", byte(w2))
	}
	if err := n.Store(NetRxDone, 8, 0); err != nil {
		t.Fatal(err)
	}
	if n.QueuedPackets() != 0 {
		t.Fatal("packet not consumed")
	}
	stats, _ := n.Load(NetStats, 8)
	if stats != 1 {
		t.Fatalf("stats = %d", stats)
	}
	if avail, _ := n.Load(NetRxAvail, 8); avail != 0 {
		t.Fatalf("avail after done = %d", avail)
	}
	_ = n.Store(NetTxData, 8, 0xFF)
	if n.TxBytes() != 8 {
		t.Fatalf("TxBytes = %d", n.TxBytes())
	}
}

func TestBlockDev(t *testing.T) {
	d := NewBlockDev()
	sector := make([]byte, SectorSize)
	for i := range sector {
		sector[i] = byte(i)
	}
	d.WriteSector(3, sector)

	_ = d.Store(BlkSector, 8, 3)
	w, _ := d.Load(BlkData, 8)
	if w != 0x0706050403020100 {
		t.Fatalf("first word = %#x", w)
	}
	// Guest write path.
	_ = d.Store(BlkSector, 8, 9)
	_ = d.Store(BlkData, 8, 0x4242424242424242)
	got := d.ReadSector(9)
	if got[0] != 0x42 || got[7] != 0x42 || got[8] != 0 {
		t.Fatalf("sector 9 = % x...", got[:9])
	}
	if d.Reads == 0 || d.Writes == 0 {
		t.Fatal("transfer counters not advancing")
	}
}

// fixedDev is a minimal device whose loads return its id (routing tests).
type fixedDev struct{ id uint64 }

func (d *fixedDev) Name() string                                  { return "fixed" }
func (d *fixedDev) Load(offset uint64, size int) (uint64, error)  { return d.id, nil }
func (d *fixedDev) Store(offset uint64, size int, v uint64) error { return nil }

// TestBusManyDevices: with a large device population the binary-search
// find must route every access to the right window, leave the RAM holes
// between windows alone, and keep the first/last/boundary addresses
// exact (regression for the linear scan's replacement).
func TestBusManyDevices(t *testing.T) {
	b := NewBus()
	const n = 64
	const base, stride, size = uint64(0x0900_0000), uint64(0x10_000), uint64(0x1000)
	for i := uint64(0); i < n; i++ {
		if err := b.Map(base+i*stride, size, &fixedDev{id: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	// Every window routes to its own device, probed in an order that
	// defeats the last-hit cache (forward, backward, then alternating).
	probe := func(i uint64) {
		t.Helper()
		for _, off := range []uint64{0, size - 1} {
			v, err := b.Load(base+i*stride+off, 1)
			if err != nil || v != 100+i {
				t.Fatalf("device %d offset %#x: (%d, %v)", i, off, v, err)
			}
		}
	}
	for i := uint64(0); i < n; i++ {
		probe(i)
	}
	for i := uint64(n); i > 0; i-- {
		probe(i - 1)
	}
	for i := uint64(0); i < n/2; i++ {
		probe(i)
		probe(n - 1 - i)
	}
	// The RAM holes between and around the windows still hit RAM.
	for _, addr := range []uint64{
		0x1000,                          // far below the first window
		base - 8,                        // just below the first window
		base + size,                     // just past a window, inside the hole
		base + (n-1)*stride - 16,        // just below the last window
		base + (n-1)*stride + size + 64, // above everything
	} {
		if err := b.Store(addr, 8, addr); err != nil {
			t.Fatal(err)
		}
		if v, _ := b.Load(addr, 8); v != addr {
			t.Fatalf("RAM at %#x routed into a device window", addr)
		}
	}
}

// TestPhysHostPointerGen: the host-pointer generation moves on exactly
// the events that can change which array backs an address — first-touch
// materialization, copy-on-write materialization, Freeze and ResetTo —
// and the accessors hand out the right layer's page.
func TestPhysHostPointerGen(t *testing.T) {
	p := NewPhys()
	if pg := p.PageForLoad(0x1000); pg != nil {
		t.Fatal("untouched page has a load pointer")
	}
	g0 := p.Gen()
	st := p.PageForStore(0x1000)
	if st == nil {
		t.Fatal("PageForStore returned nil")
	}
	if p.Gen() == g0 {
		t.Fatal("first-touch materialization did not bump Gen")
	}
	st[8] = 0xAB
	if p.Read8(0x1008) != 0xAB {
		t.Fatal("write through host pointer not visible")
	}
	if p.PageForLoad(0x1000) != st {
		t.Fatal("load pointer should be the overlay page after a write")
	}

	// Freeze: the overlay page is promoted into the shared base; cached
	// pointers now alias the snapshot and must be invalidated.
	g1 := p.Gen()
	frozen := p.Freeze()
	if p.Gen() == g1 {
		t.Fatal("Freeze did not bump Gen")
	}
	// Loads may serve the (shared, read-only) base page; a store must
	// materialize a fresh private copy and bump Gen again.
	ld := p.PageForLoad(0x1000)
	if ld == nil || ld[8] != 0xAB {
		t.Fatal("post-freeze load pointer lost the page contents")
	}
	g2 := p.Gen()
	st2 := p.PageForStore(0x1000)
	if p.Gen() == g2 {
		t.Fatal("copy-on-write materialization did not bump Gen")
	}
	if st2 == ld {
		t.Fatal("post-freeze store pointer aliases the frozen base")
	}
	st2[8] = 0xCD
	if fork := NewPhysFrom(frozen); fork.Read8(0x1008) != 0xAB {
		t.Fatal("write after Freeze leaked into the frozen base")
	}

	// ResetTo rewinds the overlay; stale pointers die with it.
	g3 := p.Gen()
	p.ResetTo(frozen)
	if p.Gen() == g3 {
		t.Fatal("ResetTo did not bump Gen")
	}
	if p.Read8(0x1008) != 0xAB {
		t.Fatal("ResetTo did not restore the frozen contents")
	}
}

// TestOverlayDigest: forks of one frozen base digest equal exactly when
// their overlays hold the same pages with the same bytes, whatever the
// order of the writes; a page written with the value the base already
// holds still counts, because it is in the overlay.
func TestOverlayDigest(t *testing.T) {
	p := NewPhys()
	p.Write64(0x1000, 1)
	p.Write64(0x3000, 3)
	frozen := p.Freeze()
	fork := func(writes ...[2]uint64) [32]byte {
		f := NewPhysFrom(frozen)
		for _, w := range writes {
			f.Write64(w[0], w[1])
		}
		return f.OverlayDigest()
	}
	pristine := fork()
	if fork() != pristine {
		t.Fatal("two empty overlays digest differently")
	}
	ab := fork([2]uint64{0x1008, 7}, [2]uint64{0x5000, 9})
	if fork([2]uint64{0x5000, 9}, [2]uint64{0x1008, 7}) != ab {
		t.Fatal("write order changed the digest")
	}
	if fork([2]uint64{0x1008, 7}, [2]uint64{0x5000, 8}) == ab {
		t.Fatal("different bytes, same digest")
	}
	if fork([2]uint64{0x3000, 3}) == pristine {
		t.Fatal("a page rewritten with its base value left the digest of an empty overlay")
	}
	if fork([2]uint64{0x1008, 7}, [2]uint64{0x6000, 0}) == fork([2]uint64{0x1008, 7}, [2]uint64{0x7000, 0}) {
		t.Fatal("different overlay pages, same digest")
	}
}

// TestBusHostPagesDeclineDevices: Bus.PageForLoad/PageForStore must
// refuse any page a device window overlaps — device state is never
// served through a flat-array pointer.
func TestBusHostPagesDeclineDevices(t *testing.T) {
	b := NewBus()
	if err := b.Map(0x0900_0000, 0x1000, &UART{}); err != nil {
		t.Fatal(err)
	}
	if b.PageForLoad(0x0900_0000+UARTTx) != nil {
		t.Fatal("device page handed out for load")
	}
	if b.PageForStore(0x0900_0000+UARTTx) != nil {
		t.Fatal("device page handed out for store")
	}
	// An adjacent pure-RAM page is still eligible.
	if b.PageForStore(0x0901_0000) == nil {
		t.Fatal("RAM page next to a device window refused")
	}
}
